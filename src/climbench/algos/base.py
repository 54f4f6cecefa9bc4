"""Trainer base classes.

``Trainer`` is one (algorithm, environment, seed) run: record keeping and
abort handling around an algorithm's ``_run`` loop. The on-policy core behind
REINFORCE, PPO and TRPO is ``OnPolicyTrainer`` in ``onpolicy.py``.

``OffPolicyTrainer`` is the one actor-critic core behind DPG, DDPG, TD3, SAC
and TQC. It builds the networks, their Adam optimizers, the replay buffer and
the entropy coefficient; selects actions for both actor kinds; and runs the
per-step update schedule. An algorithm sets a few class attributes and
supplies up to three numpy hooks:

  * ``compute_target(batch)``  the critic regression target
  * ``critic_losses(qs, y)``   (loss, [dL/dq]): the critics' summed loss from
                               their outputs ``qs``, and its gradient in each
                               (mean squared error unless overridden)
  * ``actor_value(qs, g)``     (value, [dL/dq]): the per-state value the actor
                               ascends, from the outputs of the first
                               ``actor_critics`` critics, and the gradient in
                               each given ``g`` = dL/d(value)

A minibatch is a dict of (s, a, r, s_next) arrays, from replay or (DPG) the
transition just seen; episodes only truncate, so every target bootstraps.

Every gradient, the entropy coefficient's included, is closed-form, written
straight into one flat vector per optimizer.
"""

from __future__ import annotations

import operator
import time
from functools import reduce

import numpy as np

from ..envs.core import ClimateEnv
from ..envs.rce import ColumnStateError
from ..nn import Mlp, NonFiniteError, Optimizer, Tensor, soft_update
from ..records import RunRecord, config_digest
from ..rollout import ReplayBuffer
from .common import (DeterministicPolicy, SeedStreams, SquashedGaussianPolicy,
                     hidden_layers)
from .config import BaseConfig, config_repr

__all__ = ["Trainer", "OffPolicyTrainer"]


class Trainer:
    """One (algorithm, environment, seed) training run; ``actor`` is the
    policy it acts with, whose net the golden digests hash."""

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

    def train(self, total_steps: int | None = None) -> RunRecord:
        """Train on to ``total_steps``; an aborted run stays as it ended."""
        if self.record.aborted:
            return self.record
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
    # how many critics, from the first, the actor's value reads (None: all)
    actor_critics: int | None = None

    _obs: np.ndarray | None = None
    _episode_return: float = 0.0

    def _build(self) -> None:
        cfg = self.cfg
        obs_dim = self.env.observation_space.dim
        act_dim = self.env.action_space.dim
        width = cfg.actor_critic_layer_size
        init = self.streams.init
        policy = SquashedGaussianPolicy if self.stochastic_actor else DeterministicPolicy

        def make_actor():
            return policy(obs_dim, self.env.action_space, width, init)

        def make_critics():
            return [Mlp(hidden_layers(obs_dim + act_dim, width, self.critic_width),
                        rng=init) for _ in range(self.n_critics)]

        # The init stream draws in this order: actor, critics, target actor,
        # target critics. A stochastic actor bootstraps from itself.
        self.actor = make_actor()
        self.critics = make_critics()
        self.target_actor, self.target_critics = self.actor, self.critics
        self._blends = []
        if not self.per_transition:
            if not self.stochastic_actor:
                self.target_actor = make_actor()
                self._blends.append((self.target_actor.net.flat, self.actor.net.flat))
            self.target_critics = make_critics()
            self._blends += [(t.flat, o.flat)
                             for t, o in zip(self.target_critics, self.critics)]
        for target, online in self._blends:
            soft_update(target, online, 1.0)
        lrs = [getattr(cfg, name) for name in self.lr_fields]
        # each optimizer steps whole ``flat`` vectors, writing once per net
        self.actor_opt = Optimizer([self.actor.net.flat], lrs[0])
        self.critic_opt = Optimizer([c.flat for c in self.critics], lrs[1])
        if self.stochastic_actor:
            self.log_alpha = np.array([np.log(cfg.alpha)])
            self.alpha_opt = Optimizer([self.log_alpha], lrs[2])
            self.target_entropy = -float(act_dim)
        self.buffer = None
        if not self.per_transition:
            # a run can never store more transitions than its step budget
            capacity = min(cfg.buffer_size, cfg.total_timesteps)
            self.buffer = ReplayBuffer(capacity, obs_dim, act_dim, self.streams.buffer)
        self.n_critic_updates = 0
        self.n_actor_updates = 0

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha[0]))

    def select_action(self, obs: np.ndarray) -> np.ndarray:
        """The exploring action at ``obs``, clipped into the box."""
        obs = np.asarray(obs)
        if self.stochastic_actor:
            action = self.actor.sample_np(obs, self.streams.explore)
        else:
            action = self.actor.act_np(obs)
            action = action + self.streams.explore.normal(
                0.0, self.cfg.exploration_noise, size=action.shape)
        return self.env.action_space.clip(action)

    def min_target_q(self, s_next: np.ndarray, a_next: np.ndarray) -> np.ndarray:
        """Elementwise minimum over the target critics' scalar values."""
        x = np.concatenate([s_next, a_next], axis=-1)
        return reduce(np.minimum, [tc.forward_np(x)[:, 0] for tc in self.target_critics])

    def critic_losses(self, qs: list[np.ndarray], y: np.ndarray):
        """Summed mean squared error of the (batch, 1) critic values against
        the target, and its gradient in each critic's values."""
        diffs = [q - y[:, None] for q in qs]
        loss = sum(float((d * d).mean()) for d in diffs)
        return loss, [d * (2.0 / d.size) for d in diffs]

    def _run(self, total_steps: int) -> None:
        while self.global_step < total_steps:
            if self._obs is None:
                self._obs = self.env.reset()
                self._episode_return = 0.0
            action = self.select_action(self._obs)
            res = self.env.step(action)
            self.global_step += 1
            self._episode_return += res.reward
            self._on_transition(self._obs, action, res.reward, res.observation)
            self._obs = res.observation
            if res.truncated:
                self.record.add(self.global_step, self._episode_return)
                self._obs = None

    def _on_transition(self, s: np.ndarray, a: np.ndarray, r: float,
                       s_next: np.ndarray) -> None:
        cfg = self.cfg
        if self.buffer is None:
            batch = {"s": s[None, :], "a": a[None, :], "r": np.array([r]),
                     "s_next": s_next[None, :]}
        else:
            self.buffer.push(s, a, r, s_next)
            if self.global_step < cfg.learning_starts:
                return
            batch = self.buffer.sample(min(cfg.batch_size, len(self.buffer)))
        self._update_critics(batch)
        if self.n_critic_updates % cfg.policy_frequency == 0:
            self._update_actor(batch)
        # only SAC and TQC configs schedule their targets apart from the actor
        every = getattr(cfg, "target_network_frequency", cfg.policy_frequency)
        if self._blends and self.n_critic_updates % every == 0:
            for target, online in self._blends:
                soft_update(target, online, cfg.tau)

    def _update_critics(self, batch: dict[str, np.ndarray]) -> None:
        y = self.compute_target(batch)
        x = np.concatenate([batch["s"], batch["a"]], axis=1)
        passes = [c.forward(x) for c in self.critics]
        loss, grads = self.critic_losses([q for q, _ in passes], y)
        self._check_finite_loss(loss, f"{self.algorithm} critic loss")
        g = np.empty(self.critic_opt.m.size)
        for c, (_, kept), dq, view in zip(self.critics, passes, grads,
                                          g.reshape(len(self.critics), -1)):
            c.backward(kept, dq, view)
        self.critic_opt.step(g)
        self.n_critic_updates += 1

    def rsample(self, s: np.ndarray):
        """The stochastic actor's ``rsample`` at states ``s``, its noise drawn
        from the explore stream: for the actor step and the critic targets."""
        xi = self.streams.explore.normal(size=(s.shape[0], self.env.action_space.dim))
        return self.actor.rsample(s, xi)

    def _update_actor(self, batch: dict[str, np.ndarray]) -> None:
        s = batch["s"]
        n = s.shape[0]
        if self.stochastic_actor:
            action, logp, saved = self.rsample(s)
        else:
            action, saved = self.actor.forward(s)
        x = np.concatenate([s, action], axis=1)
        passes = [c.forward(x) for c in self.critics[:self.actor_critics]]
        # the loss is the mean over states of alpha * logp - value (no logp
        # for a deterministic actor), so d(loss)/d(value) is -1/n
        value, grads = self.actor_value([q for q, _ in passes], np.full(n, -1.0 / n))
        loss = logp * self.alpha - value if self.stochastic_actor else -value
        self._check_finite_loss(float(loss.mean()), f"{self.algorithm} actor loss")
        # the critics pass the actor an action gradient and take none themselves
        g_action = reduce(operator.add, [
            c.backward(kept, dq, input_grad=True)[:, s.shape[1]:]
            for c, (_, kept), dq in zip(self.critics, passes, grads)])
        g = np.empty_like(self.actor.net.flat)
        if self.stochastic_actor:
            self.actor.rsample_backward(saved, g_action, np.full(n, 1.0 / n * self.alpha), g)
        else:
            self.actor.backward(saved, g_action, g)
        self.actor_opt.step(g)
        self.n_actor_updates += 1
        if self.stochastic_actor:
            self.actor.net.clamp_log_std()
            self._update_alpha(logp)

    def _update_alpha(self, logp: np.ndarray) -> None:
        """One Adam step in log alpha on -mean(alpha * (logp + target_entropy)).

        The gradient repeats, in order, the operations of differentiating the
        loss one operation at a time on an autodiff tape: its per-state terms
        are summed only when there is more than one (a sum starts from +0.0,
        which would turn a lone -0.0 into +0.0).
        """
        excess = logp + self.target_entropy
        alpha = np.exp(self.log_alpha)
        n = excess.size
        g = np.empty(1)

        def backward():
            g_alpha = np.full(n, -1.0 / n) * excess
            if n > 1:
                g_alpha = g_alpha.sum(axis=0, keepdims=True)
            np.multiply(g_alpha, alpha, out=g)

        Tensor((alpha * excess).mean() * (-1.0), backward).backward()
        self.alpha_opt.step(g)
