"""Parameter updates: bias-corrected Adam and target-network blending."""

from __future__ import annotations

import numpy as np

__all__ = ["NonFiniteError", "Optimizer", "soft_update", "clip_grad_norm"]

BETA1, BETA2 = 0.9, 0.999
EPSILON = 1e-8


class NonFiniteError(ValueError):
    """A value that must be finite (gradient, loss, parameter) is not."""


class Optimizer:
    """Adam over a fixed list of parameter arrays, stepped in place.

    The first and second moments are one vector each, over the arrays in list
    order. The gradient is one vector in that order too, rejected if any entry
    is non-finite before anything is written; the update is computed in place
    and written back through each array's slice of it.
    """

    def __init__(self, vectors: list[np.ndarray], learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.vectors = list(vectors)
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._offsets = np.cumsum([0] + [v.size for v in self.vectors])
        self.m = np.zeros(self._offsets[-1])
        self.v = np.zeros(self._offsets[-1])

    def step(self, g: np.ndarray) -> None:
        """Apply one update from the flat gradient ``g``, which it overwrites."""
        if not np.isfinite(g).all():
            finite = g[np.isfinite(g)]
            raise NonFiniteError(
                f"non-finite gradient (max |g| over finite entries: "
                f"{np.max(np.abs(finite)) if finite.size else 'n/a'})")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        m, v = self.m, self.v
        m *= BETA1
        update = (1.0 - BETA1) * g
        m += update
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=update)
        update *= g
        v += update
        # lr * (m / bc1) / (sqrt(v / bc2) + eps), with g as the denominator
        np.divide(m, bc1, out=update)
        update *= self.learning_rate
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += EPSILON
        update /= g
        for p, lo, hi in zip(self.vectors, self._offsets[:-1], self._offsets[1:]):
            np.subtract(p, update[lo:hi].reshape(p.shape), out=p)


def soft_update(target: np.ndarray, online: np.ndarray, tau: float) -> None:
    """target <- tau * online + (1 - tau) * target, elementwise in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if target.shape != online.shape:
        raise ValueError("parameter shapes differ")
    target *= 1.0 - tau
    target += tau * online


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    ``grads`` holds one array per parameter, and the squared norm is summed
    array by array: one dot over the whole vector would sum in another order
    and move the on-policy trajectories.
    """
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
