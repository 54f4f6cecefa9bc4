"""Trainer base class: the env-stepping loop, record keeping, abort handling."""

from __future__ import annotations

import time

import numpy as np

from ..envs.core import ClimateEnv
from ..envs.rce import ColumnStateError
from ..nn import NonFiniteError
from ..records import RunRecord, config_digest
from ..rollout import Transition
from .common import SeedStreams
from .config import BaseConfig, config_repr

__all__ = ["Trainer", "OffPolicyTrainer"]


class Trainer:
    """One (algorithm, environment, seed) training run."""

    algorithm = ""

    def __init__(self, env: ClimateEnv, cfg: BaseConfig, seed: int,
                 experiment_id: str = "adhoc"):
        self.env = env
        self.cfg = cfg
        self.seed = int(seed)
        self.streams = SeedStreams(self.seed)
        self.global_step = 0
        self.record = RunRecord(
            experiment_id=experiment_id, algorithm=self.algorithm, seed=self.seed,
            config_digest=config_digest(config_repr(cfg)))
        self._build()

    # subclasses construct networks/optimizers here
    def _build(self) -> None:
        raise NotImplementedError

    def _run(self, total_steps: int) -> None:
        raise NotImplementedError

    def select_action(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        raise NotImplementedError

    def actor_mlp(self):
        """The policy network, for checkpointing in the nn text format."""
        if hasattr(self, "actor"):
            return self.actor.net
        return self.policy.net

    def train(self, total_steps: int | None = None) -> RunRecord:
        total = total_steps if total_steps is not None else self.cfg.total_timesteps
        start = time.perf_counter()
        try:
            self._run(total)
        except NonFiniteError as exc:
            self.record.aborted = True
            self.record.abort_reason = f"non-finite value during update: {exc}"
        except ColumnStateError as exc:
            self.record.aborted = True
            self.record.abort_reason = (
                f"column state at global step {self.global_step + 1}: {exc}")
        self.record.wall_time_s += time.perf_counter() - start
        return self.record

    def _check_finite_loss(self, value: float, what: str) -> float:
        if not np.isfinite(value):
            raise NonFiniteError(f"{what} = {value}")
        return float(value)

    def greedy_episode(self, n_last: int = 0):
        """Roll one deterministic episode; returns (observations, actions, return)."""
        obs = self.env.reset(seed=self.seed + 10_000)
        observations, actions = [], []
        total = 0.0
        while True:
            a = self.select_action(obs, explore=False)
            observations.append(np.array(obs, copy=True))
            actions.append(np.array(a, copy=True))
            res = self.env.step(a)
            total += res.reward
            obs = res.observation
            if res.truncated:
                break
        if n_last:
            observations = observations[-n_last:]
            actions = actions[-n_last:]
        return np.stack(observations), np.stack(actions), total


class OffPolicyTrainer(Trainer):
    """Per-step loop shared by the replay/TD-style trainers.

    The loop is resumable: train(n) then train(m) walks the same trajectory as
    train(m) in one call, which the tuner relies on to advance trials in
    segments.
    """

    _obs: np.ndarray | None = None
    _episode_return: float = 0.0

    def _run(self, total_steps: int) -> None:
        while self.global_step < total_steps:
            if self._obs is None:
                self._obs = self.env.reset(
                    seed=self.seed if self.global_step == 0 else None)
                self._episode_return = 0.0
            action = self.select_action(self._obs, explore=True)
            res = self.env.step(action)
            self.global_step += 1
            self._episode_return += res.reward
            transition = Transition(np.asarray(self._obs, dtype=np.float64), action,
                                    res.reward, np.asarray(res.observation),
                                    res.terminated)
            self._on_transition(transition)
            self._obs = res.observation
            if res.truncated:
                self.record.add(self.global_step, self._episode_return)
                self._obs = None

    def _on_transition(self, transition: Transition) -> None:
        raise NotImplementedError
