"""Optimizer and target-blend behaviour, including the scalar Adam oracle."""

import numpy as np
import pytest

from climbench.nn import Mlp, NonFiniteError, Optimizer, Tensor, soft_update


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Optimizer([p], learning_rate=0.1)
    opt.step([np.zeros(2)])
    assert np.array_equal(p.data, np.array([1.0, -2.0]))
    assert opt.step_count == 1


def test_adam_matches_textbook_scalar_loop_and_descends_quadratic():
    # Oracle: an independent textbook Adam recursion on f(x) = x^2.
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Optimizer([p], learning_rate=0.1)
    x, m, v = 1.0, 0.0, 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 201):
        g = 2.0 * p.data.copy()
        opt.step([g])
        go = 2.0 * x
        m = b1 * m + (1 - b1) * go
        v = b2 * v + (1 - b2) * go * go
        x -= 0.1 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p.data[0] - x) < 1e-12
    assert abs(p.data[0]) < 1e-2


def test_non_finite_gradient_rejected():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Optimizer([p], learning_rate=0.1)
    with pytest.raises(NonFiniteError):
        opt.step([np.array([np.nan])])
    assert p.data[0] == 1.0  # untouched


def test_accumulators_mirror_param_shapes():
    net = Mlp([3, 4, 2])
    opt = Optimizer(net.parameters(), learning_rate=1e-3)
    for p, m, v in zip(opt.params, opt.m, opt.v):
        assert m.shape == p.data.shape
        assert v.shape == p.data.shape


def test_soft_update_cases():
    t = [Tensor(np.zeros(3), requires_grad=True)]
    o = [Tensor(np.full(3, 2.0), requires_grad=True)]
    soft_update(t, o, 0.5)
    assert np.allclose(t[0].data, 1.0)
    soft_update(t, o, 1.0)
    assert np.array_equal(t[0].data, o[0].data)
    before = t[0].data.copy()
    soft_update(t, o, 0.0)
    assert np.array_equal(t[0].data, before)


def test_soft_update_tau_out_of_range():
    t = [Tensor(np.zeros(1))]
    o = [Tensor(np.ones(1))]
    with pytest.raises(ValueError):
        soft_update(t, o, 1.5)
    with pytest.raises(ValueError):
        soft_update(t, o, -0.1)


def test_soft_update_converges_geometrically():
    rng = np.random.default_rng(5)
    for tau in (0.1, 0.35, 0.9):
        t = [Tensor(rng.normal(size=4))]
        o = [Tensor(rng.normal(size=4))]
        gap = np.linalg.norm(t[0].data - o[0].data)
        for _ in range(6):
            soft_update(t, o, tau)
            new_gap = np.linalg.norm(t[0].data - o[0].data)
            assert np.isclose(new_gap, (1 - tau) * gap, rtol=1e-10, atol=1e-12)
            gap = new_gap
