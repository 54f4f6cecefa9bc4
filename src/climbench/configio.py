"""Run-config files: INI sections with typed key=value pairs.

Grammar (configparser syntax):

    [run]                  # experiment, algos, seeds, steps, workers, out
    experiment = v0-homo-64L-60k
    algos = ddpg,td3
    seeds = 1..10

    [env]                  # overrides for the experiment's environment params
    t_physics = 323.75

    [algo.ddpg]            # per-algorithm hyperparameter overrides
    learning_rate = 3e-4

Values are coerced to the declared dataclass field types. Seed lists accept
"a..b" ranges and comma-separated integers.
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

__all__ = ["parse_config_file", "parse_seeds", "coerce_overrides",
           "write_algo_fragment", "read_algo_fragment"]


def parse_config_file(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
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


def coerce_overrides(raw: dict[str, str], target) -> dict[str, object]:
    """Coerce string values to the field types of a dataclass (type or instance)."""
    field_types = {f.name: f.type for f in dataclasses.fields(target)}
    concrete = {"float": float, "int": int, "str": str}
    out: dict[str, object] = {}
    for key, value in raw.items():
        if key not in field_types:
            raise ValueError(f"unknown override field {key!r} for "
                             f"{getattr(target, '__name__', type(target).__name__)}")
        if not isinstance(value, str):
            out[key] = value
            continue
        t = field_types[key]
        if isinstance(t, str):
            t = concrete.get(t)
        if t not in (float, int, str):
            raise ValueError(f"field {key!r} cannot be overridden from a config file")
        out[key] = t(value)
    return out


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
