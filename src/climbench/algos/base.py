"""Trainer base classes.

``Trainer`` is one (algorithm, environment, seed) run: record keeping and
abort handling around an algorithm's ``_run`` loop. The on-policy core behind
REINFORCE, PPO and TRPO is ``OnPolicyTrainer`` in ``onpolicy.py``.

``OffPolicyTrainer`` is the one actor-critic core behind DPG, DDPG, TD3, SAC
and TQC. It builds the networks, their Adam optimizers, the replay buffer and
the entropy coefficient; selects actions for both actor kinds; and runs the
per-step update schedule. An algorithm sets a few class attributes and
supplies up to three hooks:

  * ``compute_target(batch)``  the critic regression target, as a numpy array
  * ``critic_loss(q, y)``      one critic's loss against that target
                               (mean squared error unless overridden)
  * ``actor_value(s, a)``      the per-state value the actor ascends; it
                               calls the critics with ``param_grads=False``,
                               so the actor loss gives the critics no gradient
"""

from __future__ import annotations

import operator
import time
from functools import reduce

import numpy as np

from ..envs.core import ClimateEnv
from ..envs.rce import ColumnStateError
from ..nn import NonFiniteError, Optimizer, Tensor, soft_update
from ..records import RunRecord, config_digest
from ..rollout import ReplayBuffer, Transition
from .common import DeterministicPolicy, QNet, SeedStreams, SquashedGaussianPolicy
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

    def actor_mlp(self):
        """The policy network, for checkpointing in the nn text format."""
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


def _batched(transition: Transition) -> dict[str, np.ndarray]:
    return {
        "s": transition.s[None, :],
        "a": transition.a[None, :],
        "r": np.array([transition.r]),
        "s_next": transition.s_next[None, :],
        "d": np.array([float(transition.done)]),
    }


class OffPolicyTrainer(Trainer):
    """The actor-critic core shared by DPG, DDPG, TD3, SAC and TQC.

    On every env step from ``learning_starts`` on, the critics take one step on
    a replay minibatch (DPG: on the transition just seen, from the first
    step); every ``policy_frequency`` critic steps the actor takes one; the
    targets blend towards the online nets every ``policy_frequency`` critic
    steps for deterministic actors and every ``target_network_frequency`` for
    stochastic ones.

    The loop is resumable: train(n) then train(m) walks the same trajectory as
    train(m) in one call, which the tuner relies on to advance trials in
    segments.
    """

    # squashed-Gaussian actor with an entropy bonus (SAC, TQC), or a
    # deterministic actor explored with Gaussian noise
    stochastic_actor = False
    n_critics = 1
    critic_width = 1
    # learn from each transition as it arrives, with no replay buffer and no
    # target networks: the targets are the online nets (DPG)
    per_transition = False
    # config fields holding the actor, critic and (stochastic actors only)
    # entropy-coefficient learning rates
    lr_fields = ("learning_rate", "learning_rate")

    _obs: np.ndarray | None = None
    _episode_return: float = 0.0

    def _build(self) -> None:
        cfg = self.cfg
        obs_dim = self.env.observation_space.dim
        act_dim = self.env.action_space.dim
        width = cfg.actor_critic_layer_size
        init = self.streams.init.generator
        policy = SquashedGaussianPolicy if self.stochastic_actor else DeterministicPolicy

        def make_actor():
            return policy(obs_dim, self.env.action_space, width, init)

        def make_critics():
            return [QNet(obs_dim, act_dim, width, init, out_dim=self.critic_width)
                    for _ in range(self.n_critics)]

        # The init stream draws in this order: actor, critics, target actor,
        # target critics. A stochastic actor bootstraps from itself.
        self.actor = make_actor()
        self.critics = make_critics()
        self.target_actor, self.target_critics = self.actor, self.critics
        pairs = []
        if not self.per_transition:
            if not self.stochastic_actor:
                self.target_actor = make_actor()
                pairs.append((self.target_actor, self.actor))
            self.target_critics = make_critics()
            pairs += zip(self.target_critics, self.critics)
        self._target_params = [(t.net.flat, o.net.flat) for t, o in pairs]
        for target, online in self._target_params:
            soft_update(target, online, 1.0)
        lrs = [getattr(cfg, name) for name in self.lr_fields]
        self.actor_opt = Optimizer(self.actor.net.parameters(), lrs[0])
        self.critic_opt = Optimizer(
            [p for c in self.critics for p in c.net.parameters()], lrs[1])
        if self.stochastic_actor:
            self.log_alpha = Tensor(np.array([np.log(cfg.alpha)]), requires_grad=True)
            self.alpha_opt = Optimizer([self.log_alpha], lrs[2])
            self.target_entropy = -float(act_dim)
        self.buffer = None
        if not self.per_transition:
            # a run can never store more transitions than its step budget
            capacity = max(1, min(cfg.buffer_size, cfg.total_timesteps))
            self.buffer = ReplayBuffer(capacity, obs_dim, act_dim, self.streams.buffer)
        self.n_critic_updates = 0
        self.n_actor_updates = 0

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data[0]))

    def actor_mlp(self):
        return self.actor.net

    def select_action(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        obs = np.asarray(obs)
        if self.stochastic_actor:
            action = self.actor.sample_np(obs, self.streams.explore if explore else None,
                                          deterministic=not explore)
        else:
            action = self.actor.act_np(obs)
            if explore:
                action = action + self.streams.explore.normal(
                    0.0, self.cfg.exploration_noise, size=action.shape)
        return self.env.action_space.clip(action)

    def min_target_q(self, s_next: np.ndarray, a_next: np.ndarray) -> np.ndarray:
        """Elementwise minimum over the target critics' scalar values."""
        return reduce(np.minimum, [tc.q_np(s_next, a_next)[:, 0]
                                   for tc in self.target_critics])

    def critic_loss(self, q: Tensor, y: np.ndarray) -> Tensor:
        return ((q - Tensor(y[:, None])) ** 2).mean()

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
        cfg = self.cfg
        if self.buffer is None:
            batch = _batched(transition)
        else:
            self.buffer.push(transition)
            if self.global_step < cfg.learning_starts:
                return
            batch = self.buffer.sample(min(cfg.batch_size, len(self.buffer)))
        self._update_critics(batch)
        if self.n_critic_updates % cfg.policy_frequency == 0:
            self._update_actor(batch)
        # only SAC and TQC configs schedule their targets apart from the actor
        every = getattr(cfg, "target_network_frequency", cfg.policy_frequency)
        if self._target_params and self.n_critic_updates % every == 0:
            for target, online in self._target_params:
                soft_update(target, online, cfg.tau)

    def _update_critics(self, batch: dict[str, np.ndarray]) -> None:
        y = self.compute_target(batch)
        s, a = Tensor(batch["s"]), Tensor(batch["a"])
        loss = reduce(operator.add, [self.critic_loss(c.q_tensor(s, a), y)
                                     for c in self.critics])
        self._check_finite_loss(float(loss.data), f"{self.algorithm} critic loss")
        loss.backward()
        self.critic_opt.step()
        self.critic_opt.zero_grad()
        self.n_critic_updates += 1

    def _update_actor(self, batch: dict[str, np.ndarray]) -> None:
        s = Tensor(batch["s"])
        if self.stochastic_actor:
            xi = self.streams.explore.normal(size=(batch["s"].shape[0],
                                                   self.env.action_space.dim))
            action, logp = self.actor.rsample_tensor(s, xi)
            loss = (logp * self.alpha - self.actor_value(s, action)).mean()
        else:
            loss = -self.actor_value(s, self.actor.forward(s)).mean()
        self._check_finite_loss(float(loss.data), f"{self.algorithm} actor loss")
        loss.backward()
        self.actor_opt.step()
        self.actor_opt.zero_grad()
        self.n_actor_updates += 1
        if self.stochastic_actor:
            self.actor.net.clamp_log_std()
            alpha_loss = (self.log_alpha.exp()
                          * Tensor(logp.data + self.target_entropy)).mean() * (-1.0)
            alpha_loss.backward()
            self.alpha_opt.step()
            self.alpha_opt.zero_grad()
