"""The deterministic actor's squash, initialization, JVP, and the parameter
vector."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.algos.common import DeterministicPolicy
from climbench.envs import BoxSpace
from climbench.nn import LOG_STD_MAX, LOG_STD_MIN, Mlp

RCE_BOX = BoxSpace(low=[0.0, 5.5], high=[1.0, 9.8])


def test_deterministic_policy_stays_in_box():
    policy = DeterministicPolicy(3, RCE_BOX, 16, np.random.default_rng(0))
    policy.net.flat[:] = np.random.default_rng(2).normal(size=policy.net.flat.size)
    x = np.random.default_rng(1).normal(scale=10.0, size=(100, 3))
    out = policy.act_np(x)
    assert np.all(out[:, 0] >= 0.0) and np.all(out[:, 0] <= 1.0)
    assert np.all(out[:, 1] >= 5.5) and np.all(out[:, 1] <= 9.8)


@pytest.mark.parametrize("u, corner", [(-50.0, [0.0, 5.5]), (50.0, [1.0, 9.8])])
def test_saturated_deterministic_policy_lands_exactly_on_the_box_edge(u, corner):
    # |u| >> 1 gives tanh(u) = +-1, and +-half + center is the bound itself
    policy = DeterministicPolicy(3, RCE_BOX, 16, np.random.default_rng(0))
    policy.net.weights[-1][:] = 0.0
    policy.net.biases[-1][:] = u
    x = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(policy.act_np(x), np.tile(corner, (5, 1)))
    assert np.array_equal(policy.forward(x)[0], np.tile(corner, (5, 1)))


def test_act_np_on_a_batch_matches_the_training_forward_bytes():
    policy = DeterministicPolicy(17, RCE_BOX, 64, np.random.default_rng(4))
    policy.net.flat[:] = np.random.default_rng(5).normal(size=policy.net.flat.size)
    x = np.random.default_rng(6).normal(size=(64, 17))
    assert policy.act_np(x).tobytes() == policy.forward(x)[0].tobytes()


def test_final_scale_gives_near_zero_actions():
    box = BoxSpace(low=[-1.0], high=[1.0])
    policy = DeterministicPolicy(1, box, 64, np.random.default_rng(3))
    out = policy.act_np(np.linspace(0, 1, 50)[:, None])
    assert np.max(np.abs(out)) < 0.05


def test_init_bounds_respect_fan_in():
    net = Mlp([100, 50, 10], rng=np.random.default_rng(2))
    assert np.max(np.abs(net.weights[0])) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(50)


def test_gaussian_head_log_std_param_and_clamp():
    net = Mlp([2, 8, 2], with_log_std=True, rng=np.random.default_rng(0))
    assert net.log_std is not None and net.log_std.shape == (2,)
    net.log_std[:] = [-9.0, 7.0]
    net.clamp_log_std()
    assert np.array_equal(net.log_std, [LOG_STD_MIN, LOG_STD_MAX])


@given(data=st.data())
def test_stacked_rows_match_one_row_passes(data):
    # The on-policy value pass runs once over an episode's observations
    # stacked as (N, 1, in_dim): N one-row products, each byte for byte the
    # one-row pass. A numpy that folded the stack into one matrix product
    # would fail here, as a plain (N, in_dim) batch differs in the last bits.
    in_dim = data.draw(st.integers(1, 256), label="in_dim")
    width = data.draw(st.integers(1, 256), label="width")
    out_dim = data.draw(st.integers(1, 3), label="out_dim")
    with_log_std = data.draw(st.booleans(), label="with_log_std")
    rows = data.draw(st.integers(1, 600), label="rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    net = Mlp([in_dim, width, width, out_dim], with_log_std=with_log_std, rng=rng)
    x = rng.normal(scale=3.0, size=(rows, in_dim))
    stacked = net.forward_np(x[:, None, :])
    assert stacked.shape == (rows, 1, out_dim)
    one_row = np.stack([net.forward_np(row) for row in x])
    assert stacked[:, 0, :].tobytes() == one_row.tobytes()


def test_stacked_rows_match_one_row_passes_with_two_blas_threads():
    # The same property in a child process whose OpenBLAS runs two threads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    test = f"{__file__}::test_stacked_rows_match_one_row_passes"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", test],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "1 passed" in proc.stdout


def test_one_row_pass_keeps_its_shape_and_rejects_a_wrong_width():
    net = Mlp([3, 8, 2], with_log_std=True, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=3)
    out = net.forward_np(x)
    assert out.shape == (2,)
    assert out.tobytes() == net.forward_np(x[None, :])[0].tobytes()
    with pytest.raises(ValueError):
        net.forward_np(np.zeros(4))
    with pytest.raises(ValueError):
        net.forward(x)  # a training pass takes a (batch, in_dim) array


def parameters(net: Mlp) -> list[np.ndarray]:
    """Every parameter array in ``flat`` order."""
    pairs = [a for w, b in zip(net.weights, net.biases) for a in (w, b)]
    return pairs + ([net.log_std] if net.log_std is not None else [])


def assert_parameters_view_flat(net: Mlp) -> None:
    params = parameters(net)
    assert net.flat.size == sum(p.size for p in params)
    for p, view in zip(params, net.unflatten(net.flat)):
        assert np.shares_memory(p, net.flat) and np.array_equal(p, view)


def test_parameters_are_views_into_flat():
    net = Mlp([3, 4, 2], with_log_std=True, rng=np.random.default_rng(0))
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    assert_parameters_view_flat(net)
    assert np.array_equal(net.flat[-2:], net.log_std)  # log-std is last
    net.flat[:] = np.arange(net.flat.size)
    assert net.weights[0][0, 1] == 1.0 and net.biases[0][0] == 12.0


@pytest.mark.parametrize("with_log_std", [False, True])
def test_parameters_stay_views_into_flat_through_pickle(with_log_std):
    net = pickle.loads(pickle.dumps(Mlp([3, 4, 2], with_log_std=with_log_std,
                                        rng=np.random.default_rng(0))))
    assert_parameters_view_flat(net)
    net.flat[:] = np.arange(net.flat.size)
    assert net.weights[1][3, 1] == 23.0 and net.biases[1][1] == 25.0


def test_pickled_net_carries_its_parameters_once():
    net = Mlp([17, 64, 64, 2], with_log_std=True, rng=np.random.default_rng(0))
    assert net.flat.nbytes == 43_552
    data = pickle.dumps(net)
    assert len(data) < 45_000
    clone = pickle.loads(data)
    assert_parameters_view_flat(clone)
    assert clone.flat.tobytes() == net.flat.tobytes()
    assert "weights" in vars(net)  # pickling leaves the original's views alone


def test_jvp_matches_finite_difference_directional_derivative():
    rng = np.random.default_rng(11)
    net = Mlp([3, 6, 2], rng=rng)
    x = rng.normal(size=(5, 3))
    tangent = rng.normal(size=net.flat.size)
    h = 1e-6
    saved = net.flat.copy()
    net.flat[:] = saved + h * tangent
    up = net.forward_np(x)
    net.flat[:] = saved - h * tangent
    down = net.forward_np(x)
    net.flat[:] = saved
    fd = (up - down) / (2 * h)
    jvp = net.jvp(net.forward(x)[1], net.unflatten(tangent))
    assert np.max(np.abs(jvp - fd)) < 1e-6
