"""Spans around the calls into each layer of climbench, and the layer metrics.

``install`` replaces each traced function or method with a wrapper wherever a
climbench module looks the name up (module globals and class attributes), and
``uninstall`` puts the originals back. Each wrapper records one span: name,
start, end and parent. Spans are kept in memory; a layer's self time is the
duration of its spans minus the part their child spans cover.

The tuner's pool workers are forked from the traced process, so they inherit
the wrappers. A worker writes its spans to a file in the trace directory after
each task, and ``collect_worker_spans`` merges them into the parent's lists.
Timestamps are ``time.perf_counter``, a system-wide monotonic clock on Linux,
so spans of different processes share one time axis.

The per-step audit (``checks.StepAudit``) runs inside ``bench.audit`` spans.
That time is the benchmark's, not the program's: it is taken out of every
span that encloses it before any layer figure is computed.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

__all__ = ["Tracer", "install", "uninstall", "layer_metrics", "tuner_metrics",
           "PER_LAYER_METRICS"]

# The tracer the wrappers report to; set by ``install``. A module global, since
# the tuner pickles its task function by name and the worker must find it.
ACTIVE: "Tracer | None" = None

# (owner, attribute, original) for every replaced binding, for ``uninstall``.
_RESTORE: list[tuple] = []
_ADVANCE_TASK = {}


class Tracer:
    def __init__(self, trace_dir: Path, audit=None):
        self.trace_dir = Path(trace_dir)
        self.audit = audit
        self.owner = os.getpid()        # the traced process; forks inherit it
        self.pid = self.owner           # the process these spans belong to
        self.spans: list[list] = []     # [pid, name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._flushes = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.pid, name, time.perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def in_worker(self) -> bool:
        return os.getpid() != self.owner

    def start_worker(self) -> None:
        """Drop what the fork copied from the parent; spans here are the worker's."""
        self.pid = os.getpid()
        self.spans, self.stack, self.counters = [], [], {}
        self._flushes = 0

    def flush_worker(self) -> None:
        path = self.trace_dir / f"worker-{self.pid}-{self._flushes}.json"
        self._flushes += 1
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))
        self.spans, self.counters = [], {}

    def collect_worker_spans(self) -> None:
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            offset = len(self.spans)
            for pid, name, start, end, parent in data["spans"]:
                self.spans.append([pid, name, start, end,
                                   parent + offset if parent >= 0 else -1])
            for name, n in data["counters"].items():
                self.count(name, n)
            path.unlink()

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated text: pid, index, parent, name,
        start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("pid\tindex\tparent\tname\tstart\tend\n")
            for i, (pid, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{pid}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


# -- wrappers ----------------------------------------------------------------------


def _span_wrapper(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = ACTIVE
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
    return wrapper


def _audited(tracer: Tracer, check, *args):
    """Run one audit call in a ``bench.audit`` span."""
    index = tracer.begin("bench.audit")
    try:
        return check(*args)
    finally:
        tracer.end(index)


def _step_wrapper(fn):
    """ClimateEnv.step: a span plus the per-step audit."""
    @functools.wraps(fn)
    def step(self, action):
        tracer = ACTIVE
        audit = tracer.audit
        before = _audited(tracer, audit.before_step, self, action) if audit else None
        index = tracer.begin("envs.step")
        try:
            result = fn(self, action)
        finally:
            tracer.end(index)
        if audit:
            _audited(tracer, audit.after_step, self, before, result)
        return result
    return step


def _adjust_wrapper(fn):
    @functools.wraps(fn)
    def convective_adjustment(column, critical_lapse, *args, **kwargs):
        tracer = ACTIVE
        index = tracer.begin("envs.rce.adjust")
        try:
            out = fn(column, critical_lapse, *args, **kwargs)
        finally:
            tracer.end(index)
        if tracer.audit:
            _audited(tracer, tracer.audit.after_adjust, out, critical_lapse)
        return out
    return convective_adjustment


# The trainers' own counters, summed into algos.updates, plus TRPO's split.
_UPDATE_COUNTERS = ("n_updates", "n_critic_updates", "n_actor_updates",
                    "n_natural_steps", "n_rejected_steps")


def _train_wrapper(fn):
    @functools.wraps(fn)
    def train(self, *args, **kwargs):
        tracer = ACTIVE
        before = {c: getattr(self, c, 0) for c in _UPDATE_COUNTERS}
        index = tracer.begin("algos.train")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.end(index)
            delta = {c: getattr(self, c, 0) - before[c] for c in _UPDATE_COUNTERS}
            tracer.count("algos.updates", sum(delta.values()))
            tracer.count("algos.trpo_accepted", delta["n_natural_steps"])
            tracer.count("algos.trpo_rejected", delta["n_rejected_steps"])
    return train


def traced_advance_task(args):
    """The tuner's per-trial task; in a pool worker it also ships its spans."""
    tracer = ACTIVE
    if tracer.pid != os.getpid():
        tracer.start_worker()
    index = tracer.begin("tuner.advance_task")
    try:
        result = _ADVANCE_TASK["original"](args)
    finally:
        tracer.end(index)
    if tracer.in_worker():
        if result[0] is not None:
            tracer.count("tuner.state_bytes", len(pickle.dumps(result[0])))
        tracer.flush_worker()
    return result


class TracedPool(ProcessPoolExecutor):
    """The tuner's process pool; each ``map`` is one wave."""

    def map(self, fn, *iterables, **kwargs):
        tasks = list(iterables[0])
        tracer = ACTIVE
        tracer.count("tuner.state_bytes", sum(len(pickle.dumps(t[1]))
                                              for t in tasks if t[1] is not None))
        index = tracer.begin("tuner.wave")
        try:
            return list(super().map(fn, tasks, **kwargs))
        finally:
            tracer.end(index)


def _targets():
    """(owner, attribute, wrapper factory, also rebind imported copies) for
    every traced name."""
    from climbench import experiments, records, rollout, tuner
    from climbench.algos import TRAINER_CLASSES, base, common, onpolicy, tqc
    from climbench.envs import core, rce
    from climbench.nn import mlp, optim, tensor

    span = lambda name: functools.partial(_span_wrapper, name)  # noqa: E731
    targets = [
        (core.ClimateEnv, "step", _step_wrapper),
        (rce, "grey_longwave_step", span("envs.rce.longwave")),
        (rce, "convective_adjustment", _adjust_wrapper),
        (mlp.Mlp, "forward", span("nn.forward")),
        (mlp.Mlp, "forward_np", span("nn.forward_np")),
        (tensor.Tensor, "backward", span("nn.backward")),
        (optim.Optimizer, "step", span("nn.optim_step")),
        (optim, "soft_update", span("nn.soft_update")),
        (optim, "clip_grad_norm", span("nn.clip_grad_norm")),
        (base.Trainer, "train", _train_wrapper),
        (common.GaussianPolicy, "sample_np", span("algos.act")),
        (tqc, "truncated_quantile_loss", span("algos.tqc_loss")),
        (onpolicy, "conjugate_gradient", span("algos.cg")),
        (onpolicy.TrpoTrainer, "fisher_vector_product", span("algos.fvp")),
        (rollout.ReplayBuffer, "push", span("rollout.push")),
        (rollout.ReplayBuffer, "sample", span("rollout.sample")),
        (rollout, "gae", span("rollout.gae")),
        (experiments, "run_single_task", span("experiments.task")),
        (records.RunRecord, "save", span("records.save")),
    ]
    seen = set()
    for cls in TRAINER_CLASSES.values():
        for klass in cls.__mro__:
            if "select_action" in vars(klass) and klass not in seen:
                seen.add(klass)
                targets.append((klass, "select_action", span("algos.act")))
    targets = [(owner, attr, factory, True) for owner, attr, factory in targets]
    # The pool and the task function are swapped in the tuner only: the
    # experiments module's pool runs other tasks.
    targets.append((tuner, "_advance_task", lambda fn: traced_advance_task, False))
    targets.append((tuner, "ProcessPoolExecutor", lambda cls: TracedPool, False))
    return targets


def install(tracer: Tracer) -> None:
    """Wrap every traced name, in every climbench module that binds it."""
    global ACTIVE
    if _RESTORE:
        raise RuntimeError("tracing is already installed")
    ACTIVE = tracer
    modules = [m for name, m in sys.modules.items()
               if name == "climbench" or name.startswith("climbench.")]
    for owner, attr, factory, everywhere in _targets():
        original = vars(owner)[attr]
        wrapped = factory(original)
        if wrapped is traced_advance_task:
            _ADVANCE_TASK["original"] = original
        _RESTORE.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type) or not everywhere:
            continue
        for module in modules:      # names bound by "from ... import"
            for name, value in list(vars(module).items()):
                if value is original:
                    _RESTORE.append((module, name, original))
                    setattr(module, name, wrapped)


def uninstall() -> None:
    global ACTIVE
    for owner, attr, original in reversed(_RESTORE):
        setattr(owner, attr, original)
    _RESTORE.clear()
    _ADVANCE_TASK.clear()
    ACTIVE = None


# -- per-layer metrics ------------------------------------------------------------

ALGORITHM_TAGS = ("reinforce", "dpg", "ddpg", "td3", "trpo", "ppo", "sac", "tqc")

# (name, unit, better). Counts, "_s" times and "algos.<tag>.task_s" are per
# round, so a function a workload never calls reads 0; "_us" and "_ms" are
# means per call, used only for functions that every workload calls. The
# tuner's figures are per study.
PER_LAYER_METRICS = [
    ("envs.step_us", "us", "lower"),
    ("envs.steps", "count", "higher"),
    ("envs.rce.longwave_s", "s", "lower"),
    ("envs.rce.adjust_s", "s", "lower"),
    ("envs.self_s", "s", "lower"),
    ("nn.forward_us", "us", "lower"),
    ("nn.forward_calls", "count", "lower"),
    ("nn.forward_np_us", "us", "lower"),
    ("nn.forward_np_calls", "count", "lower"),
    ("nn.backward_us", "us", "lower"),
    ("nn.backward_calls", "count", "lower"),
    ("nn.optim_step_us", "us", "lower"),
    ("nn.optim_step_calls", "count", "lower"),
    ("nn.soft_update_s", "s", "lower"),
    ("nn.clip_grad_norm_s", "s", "lower"),
    ("nn.self_s", "s", "lower"),
    *[(f"algos.{tag}.task_s", "s", "lower") for tag in ALGORITHM_TAGS],
    ("algos.act_us", "us", "lower"),
    ("algos.tqc_loss_s", "s", "lower"),
    ("algos.cg_s", "s", "lower"),
    ("algos.fvp_calls", "count", "lower"),
    ("algos.trpo_accepted", "count", "higher"),
    ("algos.trpo_rejected", "count", "lower"),
    ("algos.updates", "count", "higher"),
    ("algos.self_s", "s", "lower"),
    ("rollout.push_s", "s", "lower"),
    ("rollout.sample_s", "s", "lower"),
    ("rollout.gae_s", "s", "lower"),
    ("experiments.task_overhead_ms", "ms", "lower"),
    ("records.save_ms", "ms", "lower"),
    ("tuner.wave_s", "s", "lower"),
    ("tuner.worker_busy_s", "s", "higher"),
    ("tuner.worker_idle_s", "s", "lower"),
    ("tuner.state_bytes", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _program_durations(spans: list) -> tuple[list[float], list[float]]:
    """Each span's duration without the audit work inside it, and the part of
    that covered by its (non-audit) children."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    audit = [0.0] * n
    for i in range(n - 1, -1, -1):          # children come after their parent
        parent = spans[i][4]
        if parent >= 0:
            audit[parent] += dur[i] if spans[i][1] == "bench.audit" else audit[i]
    own = [d - a for d, a in zip(dur, audit)]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0 and s[1] != "bench.audit":
            child[s[4]] += own[i]
    return own, child


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer values from the spans and counters of ``rounds`` traced
    workload rounds. The tuner, algorithm task times and tracing overhead
    come from elsewhere and are filled in by the caller."""
    spans = tracer.spans
    dur, child = _program_durations(spans)
    by_name: dict[str, list[float]] = {}
    self_by_layer: dict[str, float] = {}
    for i, (pid, name, _, _, parent) in enumerate(spans):
        if name == "bench.audit":
            continue
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]
        if parent >= 0 and spans[parent][1] == name:
            continue    # a call nested in a call of the same name is one call
        by_name.setdefault(name, []).append(dur[i])

    def mean(name: str, scale: float) -> float:
        values = by_name[name]      # these functions run in every workload
        return scale * sum(values) / len(values)

    def per_round(name: str) -> float:
        return sum(by_name.get(name, [])) / rounds

    def calls(name: str) -> float:
        return len(by_name.get(name, [])) / rounds

    out = {
        "envs.step_us": mean("envs.step", 1e6),
        "envs.steps": calls("envs.step"),
        "envs.rce.longwave_s": per_round("envs.rce.longwave"),
        "envs.rce.adjust_s": per_round("envs.rce.adjust"),
        "nn.forward_us": mean("nn.forward", 1e6),
        "nn.forward_calls": calls("nn.forward"),
        "nn.forward_np_us": mean("nn.forward_np", 1e6),
        "nn.forward_np_calls": calls("nn.forward_np"),
        "nn.backward_us": mean("nn.backward", 1e6),
        "nn.backward_calls": calls("nn.backward"),
        "nn.optim_step_us": mean("nn.optim_step", 1e6),
        "nn.optim_step_calls": calls("nn.optim_step"),
        "nn.soft_update_s": per_round("nn.soft_update"),
        "nn.clip_grad_norm_s": per_round("nn.clip_grad_norm"),
        "algos.act_us": mean("algos.act", 1e6),
        "algos.tqc_loss_s": per_round("algos.tqc_loss"),
        "algos.cg_s": per_round("algos.cg"),
        "algos.fvp_calls": calls("algos.fvp"),
        "rollout.push_s": per_round("rollout.push"),
        "rollout.sample_s": per_round("rollout.sample"),
        "rollout.gae_s": per_round("rollout.gae"),
        "records.save_ms": mean("records.save", 1e3),
    }
    for layer in ("envs", "nn", "algos"):
        out[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0) / rounds
    for name in ("algos.updates", "algos.trpo_accepted", "algos.trpo_rejected"):
        out[name] = tracer.counters.get(name, 0) / rounds

    # A task's overhead is its span minus the training inside it.
    trained: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s[1] == "algos.train" and s[4] >= 0 and spans[s[4]][1] == "experiments.task":
            trained[s[4]] = trained.get(s[4], 0.0) + dur[i]
    overheads = [dur[i] - trained.get(i, 0.0) for i, s in enumerate(spans)
                 if s[1] == "experiments.task"]
    out["experiments.task_overhead_ms"] = 1e3 * sum(overheads) / len(overheads)
    return out


def tuner_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Wave, busy and idle time and pickled bytes of the one study traced.

    A wave is each pool map, or each task the tuner ran in its own process
    because only one trial was left. Busy time is task time in any process.
    """
    wave = busy = 0.0
    for pid, name, start, end, _ in tracer.spans:
        if name == "tuner.wave":
            wave += end - start
        elif name == "tuner.advance_task":
            busy += end - start
            if pid == tracer.owner:
                wave += end - start
    return {
        "tuner.wave_s": wave,
        "tuner.worker_busy_s": busy,
        "tuner.worker_idle_s": workers * wave - busy,
        "tuner.state_bytes": float(tracer.counters.get("tuner.state_bytes", 0)),
    }
