"""Benchmark of climbench: end-to-end rates, set-up time, memory and layer spans.

    python3 bench/run.py --workload v2-offpolicy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; climbench is imported from ``src/``
and nothing is installed. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, from rounds run with spans around each layer's calls,
alternated with untraced rounds that give the tracing overhead. The result,
and with ``--trace 1`` the spans, are also written to ``bench/out/``. Every
file a run writes stays under ``bench/out/``.

A run first warms up (one short task per algorithm), then repeats whole
rounds until ``--seconds`` have passed, and reports the median over rounds.
Between rounds it checks the outputs; between tasks it times launches of a
fresh interpreter up to the point where the first task could start. A traced
run also makes one two-worker tuner study, for the tuner's figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# The set-up time is the median of at least this many launches per run, made
# between tasks (outside their timing) at about one per SETUP_EVERY_S seconds
# of the run, so that they sample the whole run evenly.
MIN_SETUP_LAUNCHES = 7
SETUP_EVERY_S = 1.5


def import_program() -> None:
    """Import climbench from this checkout's ``src/``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import climbench
    where = Path(climbench.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"climbench imported from {where}, not from {SRC}")


def launch_setup(workload) -> float:
    """Seconds from starting a fresh interpreter until it is ready to train."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", workload.setup_code(SRC)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up launch failed (exit {code})")
    return seconds


def peak_rss_mb() -> float:
    """Peak resident memory (MiB) of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, rnd, problems) -> None:
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        for error in rnd.errors:
            print(f"operation failed: {error}", file=sys.stderr)
        self.problems += problems


def end_to_end(workload, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    setups = [launch_setup(workload)]
    workload.warmup()
    rates = []
    start = time.perf_counter()

    def launches_due() -> None:
        while len(setups) < 1 + (time.perf_counter() - start) / SETUP_EVERY_S:
            setups.append(launch_setup(workload))

    while True:
        rnd = workload.run_round(between=launches_due)
        tally.add(rnd, workload.check_round() if not rnd.failed else [])
        if rnd.seconds > 0:
            rates.append(rnd.steps_per_s)
        if time.perf_counter() - start >= seconds:
            break
        launches_due()
    while len(setups) < MIN_SETUP_LAUNCHES:
        setups.append(launch_setup(workload))
    metrics = {
        "env_steps_per_s": (statistics.median(rates) if rates else 0.0, "steps/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return tally, metrics


def per_layer(workload, seconds: float, out_stem: Path, work_dir: Path):
    import checks
    import spans
    from workloads import make_study

    tally = Tally()
    audit = checks.StepAudit()
    tracer = spans.Tracer(work_dir, audit)
    workload.warmup()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        rnd = workload.run_round()
        tally.add(rnd, workload.check_round() if not rnd.failed else [])
        plain.append(rnd)
        spans.install(tracer)
        try:
            rnd = workload.run_round()
        finally:
            spans.uninstall()
        tally.add(rnd, workload.check_round() if not rnd.failed else [])
        traced.append(rnd)
        if time.perf_counter() >= deadline:
            break
    tally.problems += audit.problems()
    metrics = spans.layer_metrics(tracer, len(traced))
    for tag in spans.ALGORITHM_TAGS:
        times = [rnd.per_algo[tag][1] for rnd in plain if tag in rnd.per_algo]
        metrics[f"algos.{tag}.task_s"] = statistics.median(times) if times else 0.0
    plain_rate = statistics.median(r.steps_per_s for r in plain if r.seconds > 0)
    traced_rate = statistics.median(r.steps_per_s for r in traced if r.seconds > 0)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / plain_rate)
    tracer.write(Path(f"{out_stem}.spans.tsv.gz"))

    # The tuner's layer: one two-worker study, traced on its own.
    study = make_study(workload.seed, work_dir)
    study_tracer = spans.Tracer(work_dir)
    tally.attempted += 1
    spans.install(study_tracer)
    try:
        study.run(study.workers, study.out_dir)
        ran = True
    except Exception as exc:  # a failed study is counted, the run goes on
        ran = False
        tally.failed += 1
        print(f"operation failed: study: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        spans.uninstall()
    study_tracer.collect_worker_spans()
    if ran:
        tally.problems += study.check()
    metrics.update(spans.tuner_metrics(study_tracer, study.workers))
    study_tracer.write(Path(f"{out_stem}.study-spans.tsv.gz"))
    return tally, {name: (metrics[name], unit) for name, unit, _ in spans.PER_LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import climbench from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, make_workload
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    stem = f"{args.workload}-seed{args.seed}"
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        if args.trace:
            tally, metrics = per_layer(workload, args.seconds, OUT / stem, work_dir)
        else:
            tally, metrics = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    text = json.dumps(result)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
