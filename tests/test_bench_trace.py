"""The benchmark's tracer over one tiny round of each workload.

``bench/spans.py`` averages the per-call time of the nn functions it wraps
(``Mlp.forward``, ``Tensor.backward``, ``Optimizer.step``, ...) over every
call, and raises if a workload never calls one. A change that stops a
workload from reaching a traced name would break ``bench/run.py --trace 1``;
this catches it in the tests.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("name", ["v2-offpolicy", "rce-onpolicy"])
def test_traced_round_gives_layer_metrics(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    wl = workloads.make_workload(name, 3, tmp_path / name, tiny=True)
    tracer = spans.Tracer(tmp_path)
    spans.install(tracer)
    try:
        rnd = wl.run_round()
    finally:
        spans.uninstall()
    assert rnd.failed == 0, rnd.errors
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["envs.steps"] == rnd.steps
    for layer in ("nn.forward", "nn.forward_np", "nn.backward", "nn.optim_step"):
        assert metrics[f"{layer}_calls"] > 0 and metrics[f"{layer}_us"] > 0


def test_traced_rce_round_reaches_the_column_physics(tmp_path, monkeypatch):
    # The tracer wraps rce.grey_longwave_step and rce.convective_adjustment
    # where the module looks them up; a step that stops calling them through
    # those names leaves the RCE layer figures and the adjustment audit empty.
    # Likewise ``algos.act`` times the policy's per-step sample.
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import spans
    import workloads

    wl = workloads.make_workload("rce-onpolicy", 3, tmp_path / "rce", tiny=True)
    audit = checks.StepAudit()
    tracer = spans.Tracer(tmp_path, audit)
    spans.install(tracer)
    try:
        rnd = wl.run_round()
    finally:
        spans.uninstall()
    assert rnd.failed == 0, rnd.errors
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["envs.rce.longwave_s"] > 0 and metrics["envs.rce.adjust_s"] > 0
    names = [span[1] for span in tracer.spans]
    assert names.count("envs.rce.longwave") == names.count("envs.rce.adjust") == rnd.steps
    # the on-policy learners act through GaussianPolicy.sample_np once a step
    assert names.count("algos.act") == rnd.steps
    assert audit.adjustments == audit.rce_steps == rnd.steps > 0
    assert audit.problems() == []
