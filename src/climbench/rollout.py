"""Experience storage and return/advantage estimators shared by the trainers.

Episodes only truncate, so nothing here marks a terminal state: replay
stores (s, a, r, s') and GAE bootstraps through the step cap.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ReplayBuffer", "discounted_returns", "gae"]


class ReplayBuffer:
    """Uniform ring buffer of (s, a, r, s') rows; samples draw without replacement."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int,
                 rng: np.random.Generator):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = rng
        self._s = np.zeros((capacity, obs_dim))
        self._a = np.zeros((capacity, act_dim))
        self._r = np.zeros(capacity)
        self._s_next = np.zeros((capacity, obs_dim))
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, s: np.ndarray, a: np.ndarray, r: float, s_next: np.ndarray) -> None:
        i = self._cursor
        self._s[i] = s
        self._a[i] = a
        self._r[i] = r
        self._s_next[i] = s_next
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> dict[str, np.ndarray]:
        if batch_size > self._size:
            raise ValueError(
                f"cannot sample {batch_size} transitions from a buffer of {self._size}")
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        # fancy indexing returns copies
        return {
            "s": self._s[idx],
            "a": self._a[idx],
            "r": self._r[idx],
            "s_next": self._s_next[idx],
        }


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """returns[t] = sum_k gamma^(k-t) r_k, computed by the reversed recursion."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def gae(rewards: np.ndarray, values: np.ndarray,
        gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over one truncated episode.

    ``values`` has one extra trailing entry: the bootstrap value of the state
    after the final step. Returns (advantages, returns) with returns = A + V.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = rewards.size
    if values.size != n + 1:
        raise ValueError("values must include the bootstrap entry (length T+1)")
    adv = np.empty(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        delta = rewards[t] + gamma * values[t + 1] - values[t]
        acc = delta + gamma * lam * acc
        adv[t] = acc
    return adv, adv + values[:-1]
