"""Head behaviour, initialization, JVP, and the checkpoint round-trip."""

import numpy as np
import pytest

from climbench.nn import LOG_STD_MAX, LOG_STD_MIN, Head, Mlp, load_mlp, save_mlp


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
    assert np.max(np.abs(net.weights[0].data)) <= 1.0 / np.sqrt(100)
    assert np.max(np.abs(net.weights[1].data)) <= 1.0 / np.sqrt(50)


def test_gaussian_head_log_std_param_and_clamp():
    net = Mlp([2, 8, 2], head=Head("gaussian"), rng=np.random.default_rng(0))
    assert net.log_std is not None and net.log_std.data.shape == (2,)
    net.log_std.data[:] = [-9.0, 7.0]
    net.clamp_log_std()
    assert np.array_equal(net.log_std.data, [LOG_STD_MIN, LOG_STD_MAX])


def test_jvp_matches_finite_difference_directional_derivative():
    rng = np.random.default_rng(11)
    net = Mlp([3, 6, 2], hidden_activation="tanh", rng=rng)
    x = rng.normal(size=(5, 3))
    tangents = [rng.normal(size=p.data.shape) for p in net.parameters()]
    h = 1e-6
    saved = [p.data.copy() for p in net.parameters()]
    for p, t in zip(net.parameters(), tangents):
        p.data = p.data + h * t
    up = net.forward_np(x)
    for p, t, s in zip(net.parameters(), tangents, saved):
        p.data = s - h * t
    down = net.forward_np(x)
    for p, s in zip(net.parameters(), saved):
        p.data = s
    fd = (up - down) / (2 * h)
    jvp = net.jvp(x, tangents)
    assert np.max(np.abs(jvp - fd)) < 1e-6


@pytest.mark.parametrize("head,act", [
    (Head("linear"), "tanh"),
    (Head("tanh_scaled", low=[0.0, 5.5], high=[1.0, 9.8]), "relu"),
    (Head("gaussian"), "tanh"),
])
def test_checkpoint_round_trip_bit_exact(tmp_path, head, act):
    net = Mlp([4, 16, 2], hidden_activation=act, head=head,
              rng=np.random.default_rng(9))
    path = tmp_path / "net.ckpt"
    save_mlp(net, path)
    loaded = load_mlp(path)
    assert loaded.layer_sizes == net.layer_sizes
    assert loaded.hidden_activation == net.hidden_activation
    assert loaded.head.kind == net.head.kind
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    x = np.random.default_rng(1).normal(size=(3, 4))
    assert np.array_equal(net.forward_np(x), loaded.forward_np(x))


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
