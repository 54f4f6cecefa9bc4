"""TQC's quantile loss in its reusable workspace: the bytes of the formulas as
they were written before the workspace (``quantile_oracle``), the heap it
leaves behind, and what a trainer that holds one pickles and faults.
"""

import os
import pickle
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.algos import make_trainer
from climbench.algos.tqc import LossWorkspace, quantile_fractions, truncated_quantile_loss
from climbench.experiments import experiment_spec, make_experiment_env, resolve_config
from quantile_oracle import truncated_quantile_loss as oracle
from quantile_oracle import weights_of


def loss_case(rng, rows, n_cols, n_y, on_grid=False, equal_rows=0, offset=0.0,
              tau=None, signed_zeros=False):
    """(q, targets, tau): normal draws, or multiples of 1/2 that tie
    thresholds and targets exactly, the first ``equal_rows`` rows holding one
    repeated target, and with ``signed_zeros`` each zero of q and targets
    given a random sign; targets sorted along each row, as the trainer's
    are."""
    if on_grid:
        q = rng.integers(-6, 7, size=(rows, n_cols)) * 0.5
        y = rng.integers(-6, 7, size=(rows, n_y)) * 0.5
    else:
        q = rng.normal(scale=3.0, size=(rows, n_cols))
        y = rng.normal(scale=3.0, size=(rows, n_y))
    y[:equal_rows] = y[:equal_rows, :1]
    if tau is None:
        tau = quantile_fractions(n_cols)
    q, y = q + offset, np.sort(y + offset, axis=1)
    if signed_zeros:
        # -0.0 and +0.0 compare equal, so the rows stay sorted in any order
        for z in (q, y):
            z[z == 0.0] = rng.choice([-0.0, 0.0], size=int((z == 0.0).sum()))
    return q, y, tau


def assert_same_bytes(q, y, tau, work):
    want_loss, want_slope = oracle(q, y, tau)
    loss, slope = truncated_quantile_loss(q, y, weights_of(tau), work)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert slope.shape == want_slope.shape
    assert slope.tobytes() == want_slope.tobytes()


@given(rows=st.integers(1, 256), n_cols=st.integers(1, 100), n_y=st.integers(1, 200),
       on_grid=st.booleans(), equal_rows=st.integers(0, 8),
       offset=st.sampled_from([0.0, 1e4, -1e4]), signed_zeros=st.booleans(),
       random_tau=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_workspace_loss_matches_oracle_bytes(rows, n_cols, n_y, on_grid, equal_rows,
                                             offset, signed_zeros, random_tau, seed):
    # the oracle sorts the targets again; the loss takes them as they come
    rng = np.random.default_rng(seed)
    tau = rng.uniform(size=n_cols) if random_tau else None
    q, y, tau = loss_case(rng, rows, n_cols, n_y, on_grid, equal_rows, offset, tau,
                          signed_zeros)
    assert_same_bytes(q, y, tau, LossWorkspace())


@given(shapes=st.lists(st.tuples(st.sampled_from([1, 64, 128, 256]),
                                 st.integers(1, 5), st.integers(1, 20)),
                       min_size=2, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_one_workspace_serves_calls_of_changing_shape(shapes, seed):
    # as across a tuner's trials: batch sizes, critics and quantiles drawn per
    # trial, each critic dropping two quantiles, on one workspace
    rng = np.random.default_rng(seed)
    work = LossWorkspace()
    for rows, n_critics, n_quantiles in shapes + shapes[:1]:
        n_y = max(1, n_critics * (n_quantiles - 2))
        tau = np.tile(quantile_fractions(n_quantiles), n_critics)
        q, y, tau = loss_case(rng, rows, tau.size, n_y, on_grid=bool(rng.integers(2)),
                              tau=tau)
        assert_same_bytes(q, y, tau, work)
        assert work.shape == (rows, tau.size, n_y)


def late_run_case():
    """A loss input of the shape a default TQC update has: 64 rows of 2 x 25
    quantiles against 46 sorted targets, Q-values near -300."""
    rng = np.random.default_rng(5)
    q, y, tau = loss_case(rng, 64, 50, 46, offset=-300.0,
                          tau=np.tile(quantile_fractions(25), 2))
    return q, y, weights_of(tau)


def test_warm_call_transient_heap_is_small():
    q, y, weights = late_run_case()
    work = LossWorkspace()
    truncated_quantile_loss(q, y, weights, work)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        truncated_quantile_loss(q, y, weights, work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a call that allocated its arrays afresh peaked at 1042 KiB
    assert peak <= 300 * 1024


def tqc_trainer(steps):
    spec = experiment_spec("v2-homo-64L")
    cfg = resolve_config(spec, "tqc", steps=steps)
    cfg.learning_starts = 32
    return make_trainer(make_experiment_env(spec), cfg, 3, spec.experiment_id)


def test_trained_trainer_pickles_without_its_workspace():
    trainer = tqc_trainer(200)
    trainer.train(100)
    assert trainer.loss_work.shape == (64, 50, 46)
    blob = pickle.dumps(trainer)
    trainer.loss_work = LossWorkspace()
    assert pickle.dumps(trainer) == blob
    assert pickle.loads(blob).loss_work.shape is None


def test_unpickled_trainer_trains_on_to_the_same_bytes():
    whole = tqc_trainer(300)
    whole.train()
    split = tqc_trainer(300)
    split.train(150)
    split = pickle.loads(pickle.dumps(split))
    split.train()
    assert split.record.body_bytes() == whole.record.body_bytes()
    assert split.actor.net.flat.tobytes() == whole.actor.net.flat.tobytes()


FAULTS_PER_STEP = """
import resource
from climbench.algos import make_trainer
from climbench.experiments import experiment_spec, make_experiment_env, resolve_config

def task():
    spec = experiment_spec("v2-homo-64L")
    cfg = resolve_config(spec, "tqc", steps=400)
    cfg.learning_starts = 32
    make_trainer(make_experiment_env(spec), cfg, 1, spec.experiment_id).train()

task()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
task()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 400)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts the minor faults of glibc's heap trimming")
def test_tqc_task_does_not_refault_the_heap():
    pytest.importorskip("resource")
    # a fresh interpreter, whose allocator no other test has grown
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                         capture_output=True, text=True, check=True)
    # with fresh arrays every update, the task took about 200 minor faults a step
    assert float(out.stdout) <= 20.0
