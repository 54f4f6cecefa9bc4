"""Experience storage and return/advantage estimators shared by the trainers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs.core import RngStream

__all__ = ["Transition", "ReplayBuffer", "TrajectoryBatch", "discounted_returns", "gae"]


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    done: bool


class ReplayBuffer:
    """Uniform ring buffer over transitions; minibatches sample without replacement."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int, rng: RngStream):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = rng
        self._s = np.zeros((capacity, obs_dim))
        self._a = np.zeros((capacity, act_dim))
        self._r = np.zeros(capacity)
        self._s_next = np.zeros((capacity, obs_dim))
        self._d = np.zeros(capacity)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        i = self._cursor
        self._s[i] = t.s
        self._a[i] = t.a
        self._r[i] = t.r
        self._s_next[i] = t.s_next
        self._d[i] = float(t.done)
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
            "d": self._d[idx],
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


def gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
        gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation.

    ``values`` has one extra trailing entry: the bootstrap value of the state
    after the final step. Returns (advantages, returns) with returns = A + V.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=np.float64)
    n = rewards.size
    if values.size != n + 1:
        raise ValueError("values must include the bootstrap entry (length T+1)")
    if dones.size != n:
        raise ValueError("dones length must match rewards")
    adv = np.empty(n)
    acc = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * nonterminal * values[t + 1] - values[t]
        acc = delta + gamma * lam * nonterminal * acc
        adv[t] = acc
    return adv, adv + values[:-1]


@dataclass
class TrajectoryBatch:
    """Complete-episode rollout storage for the on-policy trainers."""

    obs: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    dones: list = field(default_factory=list)
    values: list = field(default_factory=list)
    log_probs: list = field(default_factory=list)
    means: list = field(default_factory=list)       # policy means, for analytic KL
    bootstrap_value: float = 0.0
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    def add(self, obs, action, reward, done, value, log_prob, mean) -> None:
        self.obs.append(np.asarray(obs, dtype=np.float64))
        self.actions.append(np.asarray(action, dtype=np.float64))
        self.rewards.append(float(reward))
        self.dones.append(float(done))
        self.values.append(float(value))
        self.log_probs.append(float(log_prob))
        self.means.append(np.asarray(mean, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.rewards)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "obs": np.stack(self.obs),
            "actions": np.stack(self.actions),
            "rewards": np.asarray(self.rewards),
            "dones": np.asarray(self.dones),
            "values": np.asarray(self.values),
            "log_probs": np.asarray(self.log_probs),
            "means": np.stack(self.means),
        }

    def estimate_advantages(self, gamma: float, lam: float) -> None:
        values = np.asarray(self.values + [self.bootstrap_value])
        self.advantages, self.returns = gae(
            np.asarray(self.rewards), values, np.asarray(self.dones), gamma, lam)
