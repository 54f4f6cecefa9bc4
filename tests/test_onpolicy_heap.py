"""The on-policy trainers' whole-episode forward passes run in row blocks: the
bytes they give against one pass (``Mlp._layers``), and the heap faults that
blocks and a gradient vector kept for the whole sweep leave behind.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.algos.onpolicy import BLOCK_ROWS, forward_in_blocks
from climbench.nn import Mlp

# one-row remainders included: a one-row last block moved bytes (193 rows)
ROWS = st.one_of(st.integers(1, 600), st.integers(0, 9).map(lambda k: BLOCK_ROWS * k + 1))


def drawn_net(seed, n_in, width, n_out):
    rng = np.random.default_rng(seed)
    return Mlp([n_in, width, width, n_out], rng=rng, final_scale=1e-2), rng


@given(seed=st.integers(0, 2**32 - 1), rows=ROWS, n_in=st.sampled_from([1, 17]),
       n_out=st.integers(1, 2), width=st.sampled_from([16, 32, 64, 128, 256]))
def test_blocks_give_the_bytes_of_one_pass(seed, rows, n_in, n_out, width):
    net, rng = drawn_net(seed, n_in, width, n_out)
    x = rng.normal(size=(rows, n_in)) * 3.0
    sizes = []

    def forward_np(block):
        sizes.append(len(block))
        return net.forward_np(block)

    got = forward_in_blocks(forward_np, x)
    assert got.tobytes() == net._layers(x)[0].tobytes()
    assert sum(sizes) == rows and max(sizes) <= BLOCK_ROWS + 1
    assert rows == 1 or min(sizes) > 1


@given(seed=st.integers(0, 2**32 - 1), rows=ROWS, n_in=st.sampled_from([1, 17]),
       width=st.sampled_from([16, 64, 100, 256]))
def test_blocks_of_stacked_rows_give_the_bytes_of_one_pass(seed, rows, n_in, width):
    # the value pass over an episode's (N, 1, in) stack, at any width
    net, rng = drawn_net(seed, n_in, width, 1)
    x = rng.normal(size=(rows, 1, n_in)) * 3.0
    got = forward_in_blocks(net.forward_np, x)
    assert got.tobytes() == net._layers(x)[0].tobytes()


FAULTS_PER_STEP = """
import resource
from climbench.experiments import experiment_spec, make_experiment_env, resolve_config
from climbench.algos import make_trainer

def task(steps):
    spec = experiment_spec("rce-v0-homo-64L")
    cfg = resolve_config(spec, "ppo", steps=steps)
    make_trainer(make_experiment_env(spec), cfg, 1, spec.experiment_id).train()

task(500)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
task(2000)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 2000)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts the minor faults of glibc's heap trimming")
def test_ppo_task_does_not_refault_the_heap():
    pytest.importorskip("resource")
    # a fresh interpreter, whose allocator no other test has grown
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                         capture_output=True, text=True, check=True)
    # with a whole-episode KL pass and a fresh gradient vector per minibatch,
    # the task took 5 to 9 minor faults a step at most checkout paths
    assert float(out.stdout) < 1.0
