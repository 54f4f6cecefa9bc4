"""Self-test of the benchmark: each workload at a tiny size, and each check fed
a corrupted output that it must reject.

    python3 bench/selftest.py

Nothing is timed and no speed is asserted. Exits 0 when every check accepts
the program's real outputs and rejects every corrupted one.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

run.import_program()

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[bool, str]] = []


def expect(ok: bool, what: str) -> None:
    RESULTS.append((bool(ok), what))
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)


def rejects(problems: list[str], what: str) -> None:
    expect(bool(problems), f"rejects {what}")


def run_workload(name: str, work: Path):
    """A plain and a traced round; the checks must pass on both."""
    wl = workloads.make_workload(name, 3, work / name, tiny=True)
    wl.warmup()
    rnd = wl.run_round()
    expect(rnd.failed == 0 and rnd.steps > 0, f"{name}: plain round runs")
    expect(not wl.check_round(), f"{name}: plain round passes its checks")
    audit = checks.StepAudit()
    tracer = spans.Tracer(work, audit)
    spans.install(tracer)
    try:
        rnd = wl.run_round()
    finally:
        spans.uninstall()
    expect(rnd.failed == 0, f"{name}: traced round runs")
    problems = wl.check_round() + audit.problems()
    expect(not problems, f"{name}: traced round passes its checks {problems[:2]}")
    metrics = spans.layer_metrics(tracer, 1)
    expect(metrics["envs.steps"] == rnd.steps, f"{name}: one env-step span per env step")
    expect(any(s[1] == "bench.audit" for s in tracer.spans),
           f"{name}: the audit runs in its own spans")
    return wl, audit, metrics


def corrupt_suite(wl) -> None:
    algo = wl.algorithms[0]
    path = wl._path(algo)
    header, body = path.read_bytes().split(b"\n", 1)
    low, high = wl.returns_within
    lines = body.decode().splitlines()
    fields = lines[0].split(",")
    bad = (low - 1.0) if np.isfinite(low) else (high + 1.0)
    changed = ",".join(fields[:4] + [repr(bad)])
    rejects(checks.check_record_entries("x", "\n".join([changed] + lines[1:]).encode(),
                                        wl.steps, wl.episode, low, high),
            f"{wl.name}: a return outside [{low:.4g}, {high:.4g}]")
    rejects(checks.check_record_entries("x", "\n".join(lines[1:]).encode(), wl.steps,
                                        wl.episode, low, high),
            f"{wl.name}: a missing episode entry")
    path.write_bytes(header + b"\n" + body.replace(b",", b", ", 1))
    rejects(wl.check_round(), f"{wl.name}: a record body unlike the first round's")


def corrupt_profile(wl) -> None:
    path = wl._path(wl.algorithms[0]).with_suffix(".profile.csv")
    text = path.read_text()
    expect(not checks.check_profile_csv("p", text), "rce: the real profile passes")
    rows = [ln.split(",") for ln in text.splitlines()]
    steep = [r[:] for r in rows]
    steep[1][2] = repr(float(rows[2][2]) + 10.0)   # 10 K over ~550 m: 18 K/km
    rejects(checks.check_profile_csv("p", "\n".join(",".join(r) for r in steep)),
            "rce: a super-critical pair in the profile")
    hot = [r[:] for r in rows]
    hot[5][2] = "401.0"
    rejects(checks.check_profile_csv("p", "\n".join(",".join(r) for r in hot)),
            "rce: a profile level outside (100, 400) K")


def corrupt_steps() -> None:
    from climbench.envs import BiasCorrectionEnv, RceEnv
    from climbench.envs.rce import convective_adjustment

    audit = checks.StepAudit()
    env = BiasCorrectionEnv("v2")
    env.reset(seed=1)
    for k in range(200):
        action = np.array([0.7 if k % 3 else -1.4])
        before = audit.before_step(env, action)
        res = env.step(action)
        if k == 10:
            res.info["temperature"] += 1e-6
        if k == 20:
            res.reward += 1e-9
        audit.after_step(env, before, res)
    problems = audit.problems()
    rejects([p for p in problems if "implicit" in p], "a step off the implicit relation")
    rejects([p for p in problems if "v2" in p], "a v2 episode whose delayed total drifts")

    audit = checks.StepAudit()
    env = RceEnv()
    env.reset(seed=1)
    for k in range(20):
        before = audit.before_step(env, np.array([0.8, 6.0]))
        audit.after_step(env, before, env.step(np.array([0.8, 6.0])))
    expect(not audit.problems() and audit.rce_steps == 20,
           "rce: real steps pass the enthalpy budget")
    before = audit.before_step(env, np.array([0.8, 6.0]))
    res = env.step(np.array([0.8, 6.0]))
    env.column.surface_temperature += 1e-3
    audit.after_step(env, before, res)
    rejects(audit.problems(), "an RCE step that creates enthalpy")

    column = env.column.copy()
    column.temperatures[3] += 30.0
    out = convective_adjustment(column, 6.5)
    audit = checks.StepAudit()
    audit.after_adjust(out, 6.5)
    expect(not audit.problems(), "a real adjustment leaves no super-critical pair")
    audit.after_adjust(column, 6.5)
    rejects(audit.problems(), "an unadjusted super-critical column")


def run_study(work: Path):
    """A tiny two-worker study, traced; its checks must pass."""
    study = workloads.make_study(3, work / "study", tiny=True)
    tracer = spans.Tracer(work)
    spans.install(tracer)
    try:
        study.run(study.workers, study.out_dir)
    finally:
        spans.uninstall()
    tracer.collect_worker_spans()
    problems = study.check()
    expect(not problems, f"tune: the study passes its checks {problems[:2]}")
    metrics = spans.tuner_metrics(tracer, study.workers)
    expect(metrics["tuner.wave_s"] > 0 and metrics["tuner.state_bytes"] > 0
           and metrics["tuner.worker_busy_s"] > 0,
           "tune: waves, worker time and pickled bytes recorded")
    return study


def corrupt_study(study) -> None:
    study_bytes, fragment = study.outputs(study.out_dir)
    study_json = json.loads(study_bytes)

    broken = json.loads(study_bytes)
    pruned = [t for t in broken["trials"] if t["status"] == "pruned"]
    frac = pruned[0]["checkpoints"][-1][0]
    top = max(v for t in broken["trials"] for f, v in t["checkpoints"] if f == frac)
    pruned[0]["checkpoints"][-1][1] = top + 1.0
    rejects(checks.check_study(broken, fragment, "ddpg"),
            "tune: a trial pruned above the median")

    broken = json.loads(study_bytes)
    broken["best_score"] -= 1.0
    rejects(checks.check_study(broken, fragment, "ddpg"), "tune: a best score not the top")

    broken = json.loads(study_bytes)
    broken["total_env_steps"] += 1
    rejects(checks.check_study(broken, fragment, "ddpg"), "tune: a wrong step total")

    best = next(t for t in study_json["trials"] if t["trial_id"] == study_json["best_trial"])
    key = next(k for k, v in best["sampled"].items() if isinstance(v, float))
    changed = fragment.replace(repr(best["sampled"][key]), repr(best["sampled"][key] * 2))
    rejects(checks.check_study(study_json, changed, "ddpg"),
            "tune: a fragment unlike the best trial")

    study_path = study.out_dir / "v0" / "ddpg.study.json"
    study_path.write_bytes(study_bytes.replace(b'"pruned"', b'"failed"', 1))
    rejects([p for p in study.check() if "one-worker" in p],
            "tune: a two-worker study unlike the one-worker study")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        low, high = checks.v2_return_interval()
        expect(low < high <= 0.0, f"the v2 return interval [{low:.4g}, {high:.4g}]")
        wl, _, _ = run_workload("v2-offpolicy", work)
        corrupt_suite(wl)
        wl, audit, metrics = run_workload("rce-onpolicy", work)
        expect(metrics["envs.rce.adjust_s"] > 0 and metrics["algos.cg_s"] > 0,
               "rce: adjustment and TRPO spans recorded")
        expect(audit.adjustments and audit.rce_steps, "rce: the traced round audited steps")
        corrupt_suite(wl)
        corrupt_profile(wl)
        corrupt_steps()
        corrupt_study(run_study(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [what for ok, what in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
