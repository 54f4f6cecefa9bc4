"""Autodiff correctness against finite differences and hand arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.nn import Head, Mlp
from tape import GraphConsumedError, Tensor, minimum
from tape_oracle import concat, gather, log, node, param_leaves, tanh


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
    net.weights[0][...] = np.eye(2)
    net.biases[0][...] = 0.0
    out = net.forward_np(np.array([1.0, 2.0]))
    assert np.array_equal(out, np.array([1.0, 2.0]))


def test_zero_input_zero_bias_tanh_gives_zero():
    net = Mlp([3, 5, 5, 2])
    for b in net.biases:
        b[:] = 0.0
    out = net.forward_np(np.zeros(3))
    assert np.array_equal(out, np.zeros(2))


def test_forward_matches_hand_rolled_matrix_oracle():
    # Independent oracle: explicit matmul + tanh chain in plain numpy.
    rng = np.random.default_rng(1)
    net = Mlp([2, 4, 1], rng=rng)
    x = np.array([[0.3, -1.2], [0.9, 0.1]])
    h = np.tanh(x @ net.weights[0] + net.biases[0])
    expected = h @ net.weights[1] + net.biases[1]
    got = net.forward(x)[0]
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

    leaves = param_leaves(net)
    out = node(net, leaves, Tensor(x))
    loss = out.sum()
    loss.backward()
    fd = finite_difference_grads(loss_value, leaves)
    for p, g in zip(leaves, fd):
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

        leaves = param_leaves(net)
        diff = node(net, leaves, Tensor(x)) - Tensor(target)
        (diff * diff).mean().backward()
        fd = finite_difference_grads(loss_value, leaves)
        for p, g in zip(leaves, fd):
            err = np.max(np.abs(p.grad - g) / np.maximum(1.0, np.abs(g)))
            worst = max(worst, err)
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

    (log(x) * 2).exp().sum().backward()
    fd = finite_difference_grads(loss_value, [x])[0]
    assert np.max(np.abs(x.grad - fd)) < 1e-6


# -- the MLP node against the per-layer tape ------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Oracle: a matrix product as its own tape node."""

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate_fresh(g @ b.data.T)
        if b.requires_grad:
            b._accumulate_fresh(a.data.T @ g)

    return Tensor._from_op(a.data @ b.data, (a, b), backward)


def tape_forward(net: Mlp, leaves: list[Tensor], x: Tensor) -> Tensor:
    """Oracle: the MLP forward pass built from one tape node per operation."""
    h = x
    last = len(net.weights) - 1
    for i in range(last + 1):
        h = matmul(h, leaves[2 * i]) + leaves[2 * i + 1]
        if i < last:
            h = tanh(h)
    if net.head.kind == "tanh_scaled":
        h = tanh(h) * net.head.half + net.head.center
    return h


def drawn_net(data, max_width: int, max_batch: int):
    sizes = data.draw(st.lists(st.integers(1, max_width), min_size=2, max_size=4))
    batch = data.draw(st.integers(1, max_batch))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    head = Head()
    if data.draw(st.booleans()):
        low = rng.uniform(-3.0, 1.0, size=sizes[-1])
        high = low + rng.uniform(0.1, 4.0, size=sizes[-1])
        head = Head("tanh_scaled", low=low, high=high)
    net = Mlp(sizes, head=head, rng=rng)
    x = rng.normal(scale=2.0, size=(batch, sizes[0]))
    g = rng.normal(size=(batch, sizes[-1]))
    return net, x, g


@given(st.data())
def test_mlp_node_matches_per_layer_tape_bytes(data):
    net, x, g = drawn_net(data, max_width=64, max_batch=256)
    x_grad = data.draw(st.booleans())
    results = []
    for forward in (node, tape_forward):
        leaves = param_leaves(net)
        xt = Tensor(x, requires_grad=x_grad)
        out = forward(net, leaves, xt)
        out.backward(g)
        results.append([out.data.tobytes(), gather(leaves).tobytes(),
                        None if xt.grad is None else xt.grad.tobytes()])
    assert results[0] == results[1]
    assert x_grad == (results[0][2] is not None)


@given(st.data())
def test_mlp_node_without_param_grads_gives_input_gradient_only(data):
    # the closed-form backward with no gradient vector: the input gradient
    # alone, as the critics give the actor its action gradient
    net, x, g = drawn_net(data, max_width=64, max_batch=64)
    before = net.flat.copy()
    out, kept = net.forward(x)
    assert net.backward(kept, g) is None
    dx = net.backward(kept, g, input_grad=True)
    assert net.flat.tobytes() == before.tobytes()
    xo = Tensor(x, requires_grad=True)
    tape_forward(net, param_leaves(net), xo).backward(g)
    assert dx.tobytes() == xo.grad.tobytes()


@given(st.data())
def test_mlp_backward_writes_into_flat_shaped_vector(data):
    net, x, g = drawn_net(data, max_width=64, max_batch=256)
    out, kept = net.forward(x)
    grad = np.full(net.flat.size, np.nan)
    net.backward(kept, g, grad)
    leaves = param_leaves(net)
    tape_forward(net, leaves, Tensor(x)).backward(g)
    assert grad.tobytes() == gather(leaves).tobytes()


@given(st.data())
def test_mlp_node_gradients_match_central_differences(data):
    net, x, g = drawn_net(data, max_width=6, max_batch=4)
    xt = Tensor(x.copy(), requires_grad=True)
    leaves = param_leaves(net)
    node(net, leaves, xt).backward(g)
    analytic = np.concatenate([gather(leaves), xt.grad.ravel()])
    h = 1e-6
    numeric = []
    for vector in (net.flat, x):
        flat = vector.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(np.sum(net.forward_np(x) * g))
            flat[i] = orig - h
            down = float(np.sum(net.forward_np(x) * g))
            flat[i] = orig
            numeric.append((up - down) / (2 * h))
    numeric = np.array(numeric)
    assert np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))) < 1e-6
