"""Episodic-return run records and their on-disk format.

A record file is one JSON header line (config digest, wall time, abort info)
followed by one CSV line per completed episode:

    {"format": "climbench-runrecord", "version": 1, ...}
    experiment_id,algorithm,seed,global_step,episodic_return
    ...

Wall-clock time lives only in the header so that record bodies from repeated
runs of the same (algorithm, environment, seed) are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunRecord", "config_digest", "record_filename", "load_record",
           "load_records_dir"]

FORMAT_NAME = "climbench-runrecord"
FORMAT_VERSION = 1


def config_digest(config_repr: str) -> str:
    return hashlib.sha256(config_repr.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunRecord:
    experiment_id: str
    algorithm: str
    seed: int
    entries: list[tuple[int, float]] = field(default_factory=list)
    wall_time_s: float = 0.0
    config_digest: str = ""
    aborted: bool = False
    abort_reason: str = ""

    def add(self, global_step: int, episodic_return: float) -> None:
        if self.entries and global_step <= self.entries[-1][0]:
            raise ValueError("global_step must be strictly increasing")
        self.entries.append((int(global_step), float(episodic_return)))

    @property
    def steps(self) -> list[int]:
        return [s for s, _ in self.entries]

    def final_return(self) -> float:
        if not self.entries:
            raise ValueError("empty record")
        return self.entries[-1][1]

    # -- serialization -------------------------------------------------------

    def header_line(self) -> str:
        return json.dumps({
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "experiment_id": self.experiment_id,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "wall_time_s": round(self.wall_time_s, 3),
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
        }, sort_keys=True)

    def body_bytes(self) -> bytes:
        lines = [f"{self.experiment_id},{self.algorithm},{self.seed},{step},{ret!r}"
                 for step, ret in self.entries]
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")

    def save(self, path) -> None:
        """Atomic write: temp file in the same directory, then rename."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write((self.header_line() + "\n").encode("utf-8"))
            fh.write(self.body_bytes())
        os.replace(tmp, path)


def record_filename(experiment_id: str, algorithm: str, seed: int) -> str:
    return f"{experiment_id}__{algorithm}__seed{seed}.rec"


def load_record(path) -> RunRecord:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty record file")
    header = json.loads(lines[0])
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a run record")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported record version {header.get('version')}")
    rec = RunRecord(
        experiment_id=header["experiment_id"],
        algorithm=header["algorithm"],
        seed=int(header["seed"]),
        wall_time_s=float(header.get("wall_time_s", 0.0)),
        config_digest=header.get("config_digest", ""),
        aborted=bool(header.get("aborted", False)),
        abort_reason=header.get("abort_reason", ""),
    )
    for line in lines[1:]:
        if not line:
            continue
        exp, algo, seed, step, ret = line.split(",")
        if exp != rec.experiment_id or algo != rec.algorithm or int(seed) != rec.seed:
            raise ValueError(f"{path}: body line does not match header")
        rec.add(int(step), float(ret))
    return rec


def load_records_dir(directory) -> list[RunRecord]:
    directory = Path(directory)
    records = [load_record(p) for p in sorted(directory.glob("*.rec"))]
    if not records:
        raise FileNotFoundError(f"no records (*.rec) found in {directory}")
    return records
