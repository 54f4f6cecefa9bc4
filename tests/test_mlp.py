"""Head behaviour, initialization, JVP, and the checkpoint round-trip."""

import hashlib
import pickle
from pathlib import Path

import numpy as np
import pytest

from climbench.nn import LOG_STD_MAX, LOG_STD_MIN, Head, Mlp, load_mlp, save_mlp

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_tanh_scaled_head_stays_in_box():
    head = Head("tanh_scaled", low=[-1.0, 5.5], high=[1.0, 9.8])
    net = Mlp([3, 16, 2], head=head, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(scale=10.0, size=(100, 3))
    out = net.forward_np(x)
    assert np.all(out[:, 0] >= -1.0) and np.all(out[:, 0] <= 1.0)
    assert np.all(out[:, 1] >= 5.5) and np.all(out[:, 1] <= 9.8)


def test_final_scale_gives_near_zero_actions():
    head = Head("tanh_scaled", low=[-1.0], high=[1.0])
    net = Mlp([1, 64, 64, 1], head=head, rng=np.random.default_rng(3), final_scale=1e-2)
    out = net.forward_np(np.linspace(0, 1, 50)[:, None])
    assert np.max(np.abs(out)) < 0.05


def test_init_bounds_respect_fan_in():
    net = Mlp([100, 50, 10], rng=np.random.default_rng(2))
    assert np.max(np.abs(net.weights[0])) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(net.weights[1])) <= 1.0 / np.sqrt(50)


def test_gaussian_head_log_std_param_and_clamp():
    net = Mlp([2, 8, 2], head=Head("gaussian"), rng=np.random.default_rng(0))
    assert net.log_std is not None and net.log_std.shape == (2,)
    net.log_std[:] = [-9.0, 7.0]
    net.clamp_log_std()
    assert np.array_equal(net.log_std, [LOG_STD_MIN, LOG_STD_MAX])


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
    net = Mlp([3, 4, 2], head=Head("gaussian"), rng=np.random.default_rng(0))
    assert net.flat.dtype == np.float64 and net.flat.flags.c_contiguous
    assert_parameters_view_flat(net)
    assert np.array_equal(net.flat[-2:], net.log_std)  # log-std is last
    net.flat[:] = np.arange(net.flat.size)
    assert net.weights[0][0, 1] == 1.0 and net.biases[0][0] == 12.0


@pytest.mark.parametrize("head", [Head("linear"), Head("gaussian"),
                                  Head("tanh_scaled", low=[0.0, 5.5], high=[1.0, 9.8])])
def test_parameters_stay_views_into_flat_through_pickle(head):
    net = pickle.loads(pickle.dumps(Mlp([3, 4, 2], head=head,
                                        rng=np.random.default_rng(0))))
    assert_parameters_view_flat(net)
    net.flat[:] = np.arange(net.flat.size)
    assert net.weights[1][3, 1] == 23.0 and net.biases[1][1] == 25.0


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
    jvp = net.jvp(x, net.unflatten(tangent))
    assert np.max(np.abs(jvp - fd)) < 1e-6


@pytest.mark.parametrize("head,act", [
    (Head("linear"), "tanh"),
    (Head("tanh_scaled", low=[0.0, 5.5], high=[1.0, 9.8]), "tanh"),
    (Head("gaussian"), "tanh"),
])
def test_checkpoint_round_trip_bit_exact(tmp_path, head, act):
    net = Mlp([4, 16, 2], head=head, rng=np.random.default_rng(9))
    path = tmp_path / "net.ckpt"
    save_mlp(net, path)
    assert path.read_text().splitlines()[2] == f"{act} {head.kind}"
    loaded = load_mlp(path)
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.head.kind == net.head.kind
    assert loaded.flat.tobytes() == net.flat.tobytes()
    assert_parameters_view_flat(loaded)
    x = np.random.default_rng(1).normal(size=(3, 4))
    assert np.array_equal(net.forward_np(x), loaded.forward_np(x))


@pytest.mark.parametrize("name,sha256", [
    ("mlp_tanh_scaled.ckpt",
     "764d5011c6951ffa409d0c92fff91ecbbc7f124534b9c43d1953e8f19f4f3b5c"),
    ("mlp_gaussian.ckpt",
     "bed2f08fc567b58a4809a055219f052fd03ff6c78652ac90bcaf0a5b00942e83"),
])
def test_checkpoint_from_per_tensor_layout_loads_same_bytes(tmp_path, name, sha256):
    # Written by commit 01db5b2, when each parameter owned its own array; the
    # digest is of those arrays' bytes, concatenated in declaration order.
    net = load_mlp(FIXTURES / name)
    assert hashlib.sha256(net.flat.tobytes()).hexdigest() == sha256
    save_mlp(net, tmp_path / name)
    assert (tmp_path / name).read_text() == (FIXTURES / name).read_text()


def test_checkpoint_with_relu_activation_rejected(tmp_path):
    net = Mlp([2, 3, 1], rng=np.random.default_rng(0))
    path = tmp_path / "net.ckpt"
    save_mlp(net, path)
    lines = path.read_text().splitlines()
    lines[2] = "relu linear"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="activation 'relu'"):
        load_mlp(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("something-else 1\n1 1\ntanh linear\n-\n-\n")
    with pytest.raises(ValueError, match="magic"):
        load_mlp(path)


def test_checkpoint_truncated_rejected(tmp_path):
    net = Mlp([2, 2], rng=np.random.default_rng(0))
    path = tmp_path / "net.ckpt"
    save_mlp(net, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ValueError, match="truncated"):
        load_mlp(path)
