"""The shared environment contract: spaces, step results, seeding, truncation.

Both climate tasks are truncation-only: there are no terminal states, and an
episode ends (``truncated``) exactly when the per-episode step cap is hit.
Actions are clipped into the action box before the dynamics run, never
rejected.

The dynamics draw no random numbers. The learners' randomness comes from
Philox counter-based generators so that a given (seed, stream) pair yields the
same draw sequence on every platform. Stream tags keep the independent
per-purpose streams of one run from colliding:

    STREAM_INIT    = 2   network weight initialization
    STREAM_EXPLORE = 3   exploration / policy sampling noise
    STREAM_BUFFER  = 4   replay-buffer minibatch sampling
    STREAM_SHUFFLE = 5   on-policy minibatch shuffling
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "BoxSpace", "StepResult", "RngStream", "ClimateEnv", "EpisodeOverError",
    "STREAM_INIT", "STREAM_EXPLORE", "STREAM_BUFFER", "STREAM_SHUFFLE",
]

STREAM_INIT = 2
STREAM_EXPLORE = 3
STREAM_BUFFER = 4
STREAM_SHUFFLE = 5


class EpisodeOverError(RuntimeError):
    """step() was called after truncation without an intervening reset()."""


@dataclass
class BoxSpace:
    """Axis-aligned box; low[i] < high[i] on every axis."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        self.low = np.asarray(self.low, dtype=np.float64)
        self.high = np.asarray(self.high, dtype=np.float64)
        if self.low.shape != self.high.shape:
            raise ValueError("low/high shape mismatch")
        if not np.all(self.low < self.high):
            raise ValueError("BoxSpace requires low < high on every axis")

    @property
    def dim(self) -> int:
        return self.low.size

    def clip(self, x: np.ndarray) -> np.ndarray:
        # ndarray.clip is what np.clip dispatches to, without its wrappers
        return np.asarray(x, dtype=np.float64).clip(self.low, self.high)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x)
        return x.shape == self.low.shape and bool(
            np.all(x >= self.low) and np.all(x <= self.high))


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    truncated: bool
    info: dict[str, Any] = field(default_factory=dict)


class RngStream:
    """Counter-based random stream keyed by (seed, stream tag).

    Philox has documented constants and platform-stable output, so identical
    keys give identical sequences everywhere.
    """

    def __init__(self, seed: int, stream: int):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def choice(self, n, size, replace=False):
        return self.generator.choice(n, size=size, replace=replace)

    def shuffled_indices(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)


class ClimateEnv:
    """Template for both environments: clipping, step counting, truncation.

    Subclasses implement ``_reset_state() -> observation`` and
    ``_dynamics(action) -> (observation, reward, info)``; ``max_steps``,
    ``observation_space`` and ``action_space`` are set in their __init__.
    """

    observation_space: BoxSpace
    action_space: BoxSpace
    max_steps: int

    def __init__(self):
        self._step_index = 0
        self._episode_over = True

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start an episode; ``seed`` changes nothing, as no draws are made."""
        self._step_index = 0
        self._episode_over = False
        return self._reset_state()

    def step(self, action) -> StepResult:
        if self._episode_over:
            raise EpisodeOverError("episode is over; call reset() before step()")
        action = np.asarray(action, dtype=np.float64).reshape(-1)
        if action.shape != self.action_space.low.shape:
            raise ValueError(
                f"action length {action.size} != action space dim {self.action_space.dim}")
        action = self.action_space.clip(action)
        observation, reward, info = self._dynamics(action)
        self._step_index += 1
        truncated = self._step_index >= self.max_steps
        if truncated:
            self._episode_over = True
        return StepResult(observation=observation, reward=float(reward),
                          truncated=truncated, info=info)

    # -- subclass hooks ------------------------------------------------------

    def _reset_state(self) -> np.ndarray:
        raise NotImplementedError

    def _dynamics(self, action: np.ndarray):
        raise NotImplementedError
