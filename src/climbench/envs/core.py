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
    "BoxSpace", "StepResult", "rng_stream", "ClimateEnv", "EpisodeOverError",
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
    """Axis-aligned box; low[i] < high[i] on every axis. ``center`` and
    ``half`` are its centre and half-width, which policies map onto."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        self.low = np.asarray(self.low, dtype=np.float64)
        self.high = np.asarray(self.high, dtype=np.float64)
        if self.low.shape != self.high.shape:
            raise ValueError("low/high shape mismatch")
        if not np.all(self.low < self.high):
            raise ValueError("BoxSpace requires low < high on every axis")
        self.center = (self.high + self.low) / 2.0
        self.half = (self.high - self.low) / 2.0

    @property
    def dim(self) -> int:
        return self.low.size

    def clip(self, x: np.ndarray) -> np.ndarray:
        # ndarray.clip is what np.clip dispatches to, without its wrappers
        return np.asarray(x, dtype=np.float64).clip(self.low, self.high)


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    truncated: bool
    info: dict[str, Any] = field(default_factory=dict)


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, stream tag).

    Philox has documented constants and platform-stable output, so identical
    keys give identical sequences everywhere.
    """
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, int(stream) & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        """Start an episode from the task's fixed initial state. The dynamics
        draw no numbers, so ``seed`` is ignored (only the benchmark's self-test
        still passes one)."""
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
        action = action.clip(self.action_space.low, self.action_space.high)
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
