"""Optimizer and target-blend behaviour, including the scalar Adam oracle."""

import numpy as np
import pytest

from climbench.nn import Mlp, NonFiniteError, Optimizer, clip_grad_norm, soft_update


def test_zero_gradient_leaves_params_unchanged():
    p = np.array([1.0, -2.0])
    opt = Optimizer([p], learning_rate=0.1)
    opt.step(np.zeros(2))
    assert np.array_equal(p, np.array([1.0, -2.0]))
    assert opt.step_count == 1


def test_adam_matches_textbook_scalar_loop_and_descends_quadratic():
    # Oracle: an independent textbook Adam recursion on f(x) = x^2.
    p = np.array([1.0])
    opt = Optimizer([p], learning_rate=0.1)
    x, m, v = 1.0, 0.0, 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 201):
        opt.step(2.0 * p)
        go = 2.0 * x
        m = b1 * m + (1 - b1) * go
        v = b2 * v + (1 - b2) * go * go
        x -= 0.1 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p[0] - x) < 1e-12
    assert abs(p[0]) < 1e-2


def test_non_finite_gradient_rejected():
    p, q = np.array([1.0]), np.array([2.0, 3.0])
    opt = Optimizer([p, q], learning_rate=0.1)
    with pytest.raises(NonFiniteError):
        opt.step(np.array([0.5, 1.0, np.nan]))
    # nothing is written, not even to the parameter listed before the bad one
    assert p[0] == 1.0 and np.array_equal(q, [2.0, 3.0])
    assert not opt.m.any() and not opt.v.any() and opt.step_count == 0


def test_moments_are_one_vector_of_total_size():
    nets = [Mlp([3, 4, 2]), Mlp([2, 5, 1])]
    opt = Optimizer([net.flat for net in nets], learning_rate=1e-3)
    total = sum(net.flat.size for net in nets)
    assert opt.m.shape == opt.v.shape == (total,)
    before = [net.flat.copy() for net in nets]
    opt.step(np.ones(total))
    # one step from zero moments moves every parameter by the learning rate
    for net, flat in zip(nets, before):
        assert np.allclose(flat - net.flat, 1e-3, rtol=1e-6)


def test_soft_update_cases():
    t = np.zeros(3)
    o = np.full(3, 2.0)
    soft_update(t, o, 0.5)
    assert np.allclose(t, 1.0)
    soft_update(t, o, 1.0)
    assert np.array_equal(t, o)
    before = t.copy()
    soft_update(t, o, 0.0)
    assert np.array_equal(t, before)


def test_soft_update_tau_out_of_range():
    t = np.zeros(1)
    o = np.ones(1)
    with pytest.raises(ValueError):
        soft_update(t, o, 1.5)
    with pytest.raises(ValueError):
        soft_update(t, o, -0.1)


def test_soft_update_converges_geometrically():
    rng = np.random.default_rng(5)
    for tau in (0.1, 0.35, 0.9):
        t = rng.normal(size=4)
        o = rng.normal(size=4)
        gap = np.linalg.norm(t - o)
        for _ in range(6):
            soft_update(t, o, tau)
            new_gap = np.linalg.norm(t - o)
            assert np.isclose(new_gap, (1 - tau) * gap, rtol=1e-10, atol=1e-12)
            gap = new_gap


def test_flat_gradient_step_matches_adam_expression_bytes():
    # the in-place update from a flat gradient, against Adam written out as
    # whole-array expressions in the same operation order, over two nets
    rng = np.random.default_rng(3)
    nets = [Mlp([3, 4, 2], rng=rng), Mlp([2, 5, 1], rng=rng)]
    opt = Optimizer([net.flat for net in nets], learning_rate=1e-2)
    theta = np.concatenate([net.flat for net in nets])
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.normal(size=theta.size)
        m = m * b1 + (1 - b1) * g
        v = v * b2 + (1 - b2) * g * g
        theta = theta - 1e-2 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        opt.step(g)
        assert np.concatenate([net.flat for net in nets]).tobytes() == theta.tobytes()
    assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_clip_grad_norm_sums_array_by_array_and_scales_in_place():
    rng = np.random.default_rng(9)
    net = Mlp([3, 16, 2], rng=rng)
    g = rng.normal(size=net.flat.size)
    grads = net.unflatten(g)
    total = 0.0
    for a in grads:
        total += float(np.sum(a * a))
    expected = g * (0.5 / np.sqrt(total))
    assert clip_grad_norm(grads, 0.5) == float(np.sqrt(total))
    assert g.tobytes() == np.concatenate([a.ravel() for a in grads]).tobytes()
    assert np.array_equal(g, expected)
    before = g.copy()
    assert clip_grad_norm(grads, 1e6) == pytest.approx(0.5)
    assert g.tobytes() == before.tobytes()
