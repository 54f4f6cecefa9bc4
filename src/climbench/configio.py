"""Run-config files, and the one checked constructor for config objects.

Grammar (configparser syntax), for ``train --config`` and tuned fragments:

    [algo.ddpg]            # overrides of one algorithm's config fields
    learning_rate = 3e-4

A run's experiment, algorithms, seeds and environment come from the command
line; a config file holds only ``[algo.<tag>]`` sections. Every algorithm
config is built by ``build_config``, which rejects unknown keys, coerces
strings to the declared ``float``/``int`` and raises ``ConfigError`` naming
the class, key and value when a value is malformed or rejected. Seed lists
accept "a..b" ranges and comma-separated integers.
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

__all__ = ["ConfigError", "build_config", "parse_config_file", "parse_seeds",
           "write_algo_fragment", "read_algo_fragment"]


class ConfigError(ValueError):
    """A config file or config value that cannot be used as given."""


def build_config(cls, raw: dict):
    """``cls(**raw)``, with strings coerced to the fields' float/int types."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    values = {}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"{cls.__name__}: unknown key {key!r}")
        convert = {"float": float, "int": int}.get(types[key])
        try:
            values[key] = convert(value) if isinstance(value, str) else value
        except (TypeError, ValueError):
            raise ConfigError(f"{cls.__name__}: {key} = {value!r} is not a valid "
                              f"{types[key]}") from None
    try:
        return cls(**values)
    except ValueError as exc:
        given = ", ".join(f"{k} = {v!r}" for k, v in raw.items())
        raise ConfigError(f"{cls.__name__} ({given}): {exc}") from None


def parse_config_file(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def parse_seeds(spec: str) -> list[int]:
    """Seeds from "lo..hi" (inclusive) or "a,b,c"; none may repeat, since
    each seed's record has one path."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ValueError(
            f"malformed seeds {spec!r}: expected e.g. 1..10 or 1,2,5") from None
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"repeated seed in {spec!r}")
    return seeds


def write_algo_fragment(path, algorithm: str, values: dict[str, object]) -> None:
    """Best-config fragment consumed by *-optim-L experiments."""
    parser = configparser.ConfigParser()
    section = f"algo.{algorithm}"
    parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                       for k, v in values.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def read_algo_fragment(path, algorithm: str) -> dict[str, str]:
    sections = parse_config_file(path)
    section = f"algo.{algorithm}"
    if section not in sections:
        raise ValueError(f"{path}: missing section [{section}]")
    return sections[section]
