"""Autodiff correctness against finite differences and hand arithmetic."""

import numpy as np
import pytest

from climbench.nn import GraphConsumedError, Mlp, Tensor, concat, minimum


def finite_difference_grads(f, params, h=1e-5):
    """Central finite differences of scalar f() w.r.t. a list of Tensors."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def test_identity_linear_forward():
    net = Mlp([2, 2])
    net.weights[0].data[...] = np.eye(2)
    net.biases[0].data[...] = 0.0
    out = net.forward_np(np.array([1.0, 2.0]))
    assert np.array_equal(out, np.array([1.0, 2.0]))


def test_zero_input_zero_bias_tanh_gives_zero():
    net = Mlp([3, 5, 5, 2])
    for b in net.biases:
        b.data[:] = 0.0
    out = net.forward_np(np.zeros(3))
    assert np.array_equal(out, np.zeros(2))


def test_forward_matches_hand_rolled_matrix_oracle():
    # Independent oracle: explicit matmul + tanh chain in plain numpy.
    rng = np.random.default_rng(1)
    net = Mlp([2, 4, 1], rng=rng)
    x = np.array([[0.3, -1.2], [0.9, 0.1]])
    h = np.tanh(x @ net.weights[0].data + net.biases[0].data)
    expected = h @ net.weights[1].data + net.biases[1].data
    got = net.forward(Tensor(x)).data
    assert np.max(np.abs(got - expected)) < 1e-12


def test_forward_deterministic():
    net = Mlp([3, 8, 2], rng=np.random.default_rng(7))
    x = np.random.default_rng(3).normal(size=(4, 3))
    a = net.forward_np(x)
    b = net.forward_np(x)
    assert np.array_equal(a, b)


def test_forward_shape_mismatch_raises():
    net = Mlp([3, 2])
    with pytest.raises(ValueError):
        net.forward_np(np.zeros((1, 4)))


def test_backward_linear_identity_grad_is_input():
    # f = sum(x @ W + b): dW = column sums of x replicated, via FD oracle.
    net = Mlp([2, 2])
    x = np.array([[1.5, -0.5], [2.0, 1.0]])

    def loss_value():
        return float(net.forward_np(x).sum())

    out = net.forward(Tensor(x))
    loss = out.sum()
    loss.backward()
    fd = finite_difference_grads(loss_value, net.parameters())
    for p, g in zip(net.parameters(), fd):
        assert np.max(np.abs(p.grad - g)) < 1e-6


def test_quadratic_loss_at_minimum_has_tiny_grad():
    w = Tensor(np.array([2.0]), requires_grad=True)
    loss = (w - 2.0) ** 2
    loss.sum().backward()
    assert np.linalg.norm(w.grad) < 1e-10


def test_backward_matches_finite_differences_many_nets():
    # Spec invariant: smooth heads, 100 random (net, input) pairs, <=1e-4 relative.
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(100):
        sizes = [int(rng.integers(1, 5)) for _ in range(rng.integers(2, 5))]
        net = Mlp(sizes, rng=rng)
        x = rng.normal(size=(int(rng.integers(1, 4)), sizes[0]))
        target = rng.normal(size=(x.shape[0], sizes[-1]))

        def loss_value():
            d = net.forward_np(x) - target
            return float((d * d).mean())

        diff = net.forward(Tensor(x)) - Tensor(target)
        (diff * diff).mean().backward()
        fd = finite_difference_grads(loss_value, net.parameters())
        for p, g in zip(net.parameters(), fd):
            err = np.max(np.abs(p.grad - g) / np.maximum(1.0, np.abs(g)))
            worst = max(worst, err)
        net.zero_grad()
    assert worst <= 1e-4


def test_graph_consumed_twice_raises():
    w = Tensor(np.ones(3), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    with pytest.raises(GraphConsumedError):
        loss.backward()
    # A fresh forward works again.
    (w * w).sum().backward()


def test_broadcast_add_bias_grad():
    x = Tensor(np.ones((4, 3)))
    b = Tensor(np.zeros(3), requires_grad=True)
    (x + b).sum().backward()
    assert np.array_equal(b.grad, np.full(3, 4.0))


def test_concat_splits_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = concat([a, b], axis=1)
    g = np.arange(10.0).reshape(2, 5)
    out.backward(g)
    assert np.array_equal(a.grad, g[:, :2])
    assert np.array_equal(b.grad, g[:, 2:])


def test_minimum_routes_gradient_to_smaller():
    a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
    b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    minimum(a, b).sum().backward()
    assert np.array_equal(a.grad, np.array([1.0, 0.0]))
    assert np.array_equal(b.grad, np.array([0.0, 1.0]))


def test_clip_grads():
    x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    x.clip(-1.0, 1.0).sum().backward()
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_log_exp_grads_fd():
    x = Tensor(np.array([0.5, 1.5, 2.5]), requires_grad=True)

    def loss_value():
        return float(np.exp(np.log(x.data) * 2).sum())

    (x.log() * 2).exp().sum().backward()
    fd = finite_difference_grads(loss_value, [x])[0]
    assert np.max(np.abs(x.grad - fd)) < 1e-6
