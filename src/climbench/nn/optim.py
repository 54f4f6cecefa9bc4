"""Parameter updates: bias-corrected Adam and target-network blending."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, Tensor

__all__ = ["Optimizer", "soft_update", "clip_grad_norm", "global_grad_norm"]

BETA1, BETA2 = 0.9, 0.999
EPSILON = 1e-8


class Optimizer:
    """Adam over a fixed parameter list.

    Moment accumulators mirror the parameter shapes. Non-finite gradients are
    rejected before any parameter is touched.
    """

    def __init__(self, params: list[Tensor], learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: list[np.ndarray] | None = None) -> None:
        """Apply one update from ``grads`` (default: the params' .grad fields)."""
        if grads is None:
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                     for p in self.params]
        if len(grads) != len(self.params):
            raise ValueError("gradient list length does not match parameters")
        for g, p in zip(grads, self.params):
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(
                    f"non-finite gradient (max |g| over finite entries: "
                    f"{np.max(np.abs(g[np.isfinite(g)])) if np.any(np.isfinite(g)) else 'n/a'})")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def soft_update(target_params: list[Tensor], online_params: list[Tensor], tau: float) -> None:
    """target <- tau * online + (1 - tau) * target, elementwise in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if len(target_params) != len(online_params):
        raise ValueError("parameter lists differ in length")
    for t, o in zip(target_params, online_params):
        if t.data.shape != o.data.shape:
            raise ValueError("parameter shapes differ")
        t.data *= 1.0 - tau
        t.data += tau * o.data


def global_grad_norm(params: list[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return float(np.sqrt(total))


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``."""
    norm = global_grad_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
