"""On-policy trainers: REINFORCE, PPO and TRPO.

All three collect one full episode per iteration with a diagonal-Gaussian
policy and ascend a likelihood-ratio gradient on it. REINFORCE takes one Adam
step on  -mean_t G_t log pi(a_t | s_t)  with the discounted returns G_t and
no critic. PPO and TRPO fit a value net, estimate advantages with GAE, and
sweep shuffled minibatches for several epochs, breaking out early once the
analytic Gaussian KL against the collection policy exceeds the limit.

PPO minimizes  -L_clip + c1 * L_value  with Adam and a global gradient-norm
clip. TRPO fits its value net the same way and moves the policy by
natural-gradient steps: conjugate gradient on Fisher-vector products
(computed exactly for diagonal-Gaussian policies via a forward-tangent JVP and
a reverse VJP), step length sqrt(2*delta / xHx), and backtracking by halving
that accepts only surrogate-improving steps inside the KL region.
"""

from __future__ import annotations

import numpy as np

from ..nn import Mlp, Optimizer, Tensor, clip_grad_norm, minimum
from ..rollout import TrajectoryBatch, discounted_returns
from .base import Trainer
from .common import GaussianPolicy, hidden_layers

__all__ = ["OnPolicyTrainer", "ReinforceTrainer", "PpoTrainer", "TrpoTrainer",
           "conjugate_gradient"]


def conjugate_gradient(matvec, b: np.ndarray, iterations: int = 10,
                       tol: float = 1e-10) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A given x -> A x."""
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rs = float(r @ r)
    if rs < tol:
        return x
    for _ in range(iterations):
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if rs_new < tol:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


# -- the on-policy core -------------------------------------------------------------


class OnPolicyTrainer(Trainer):
    """The episode loop shared by REINFORCE, PPO and TRPO.

    Each iteration collects one full episode with the Gaussian policy and
    hands the batch to ``update_from_batch``. For PPO and TRPO that runs GAE,
    normalizes the advantages and sweeps ``update_epochs`` epochs of shuffled
    minibatches through ``minibatch_step``, stopping early once the KL from
    the collection policy exceeds ``kl_limit``.
    """

    # the nets one Adam optimizer steps; a value net is built only if listed
    # (REINFORCE has none, TRPO moves its policy by natural-gradient steps)
    adam_nets = ("policy", "value")
    # Adam steps on the policy (REINFORCE, PPO)
    n_updates = 0

    def _build(self) -> None:
        cfg = self.cfg
        obs_dim = self.env.observation_space.dim
        init = self.streams.init.generator
        # The init stream draws in this order: policy, value net.
        self.policy = GaussianPolicy(obs_dim, self.env.action_space,
                                     cfg.actor_critic_layer_size, init)
        nets = {"policy": self.policy.net}
        self.value_net = None
        if "value" in self.adam_nets:
            self.value_net = nets["value"] = Mlp(
                hidden_layers(obs_dim, cfg.actor_critic_layer_size, 1), rng=init)
        self.optimizer = Optimizer([p for name in self.adam_nets
                                    for p in nets[name].parameters()],
                                   cfg.learning_rate)

    def _value(self, obs: np.ndarray) -> float:
        # REINFORCE never reads the values of its batch
        if self.value_net is None:
            return 0.0
        return float(self.value_net.forward_np(obs)[0])

    def collect_episode(self) -> TrajectoryBatch:
        batch = TrajectoryBatch()
        obs = self.env.reset(seed=self.seed if self.global_step == 0 else None)
        episode_return = 0.0
        while True:
            obs_arr = np.asarray(obs, dtype=np.float64)
            env_action, raw_action, logp, mean = self.policy.sample_np(
                obs_arr, self.streams.explore)
            value = self._value(obs_arr)
            res = self.env.step(env_action)
            self.global_step += 1
            episode_return += res.reward
            # terminated is always False here, so GAE bootstraps through the cap
            batch.add(obs_arr, raw_action, res.reward, res.terminated, value, logp,
                      mean)
            obs = res.observation
            if res.truncated:
                batch.bootstrap_value = self._value(np.asarray(obs, dtype=np.float64))
                break
        self.record.add(self.global_step, episode_return)
        return batch

    def _run(self, total_steps: int) -> None:
        while self.global_step < total_steps:
            self.update_from_batch(self.collect_episode())

    def update_from_batch(self, batch: TrajectoryBatch) -> None:
        cfg = self.cfg
        batch.estimate_advantages(cfg.gamma, cfg.gae_lambda)
        arrays = batch.arrays()
        adv = batch.advantages
        arrays["advantages"] = (adv - adv.mean()) / (adv.std() + 1e-8)
        arrays["returns"] = batch.returns
        self._log_std_at_collect = self.policy.net.log_std.data.copy()
        for _epoch in range(cfg.update_epochs):
            order = self.streams.shuffle.shuffled_indices(len(batch))
            for idx in np.array_split(order, cfg.num_minibatches):
                if idx.size > 0:
                    self.minibatch_step({k: v[idx] for k, v in arrays.items()})
            new_means = self.policy.mean_np(arrays["obs"])
            if self.policy.kl_old_new_np(arrays["means"], self._log_std_at_collect,
                                         new_means) > cfg.kl_limit:
                break

    def _adam_step(self, loss: Tensor, what: str) -> None:
        self._check_finite_loss(float(loss.data), what)
        loss.backward()
        clip_grad_norm(self.optimizer.params, self.cfg.max_grad_norm)
        self.optimizer.step()
        self.optimizer.zero_grad()


class ReinforceTrainer(OnPolicyTrainer):
    algorithm = "reinforce"
    adam_nets = ("policy",)

    def episode_loss(self, obs: np.ndarray, actions: np.ndarray,
                     rewards: np.ndarray) -> Tensor:
        """-mean_t G_t log pi(a_t | s_t); minimizing it ascends the return."""
        returns = discounted_returns(rewards, self.cfg.gamma)
        logp = self.policy.log_prob_tensor(Tensor(obs), actions)
        return -(logp * Tensor(returns)).mean()

    def update_from_batch(self, batch: TrajectoryBatch) -> None:
        arrays = batch.arrays()
        loss = self.episode_loss(arrays["obs"], arrays["actions"], arrays["rewards"])
        self._check_finite_loss(float(loss.data), "reinforce loss")
        loss.backward()
        self.optimizer.step()
        self.optimizer.zero_grad()
        self.policy.net.clamp_log_std()
        self.n_updates += 1


class PpoTrainer(OnPolicyTrainer):
    algorithm = "ppo"

    def minibatch_loss(self, obs, actions, old_logp, adv, returns) -> Tensor:
        cfg = self.cfg
        logp = self.policy.log_prob_tensor(Tensor(obs), actions)
        ratio = (logp - Tensor(old_logp)).exp()
        adv_t = Tensor(adv)
        surrogate = minimum(ratio * adv_t,
                            ratio.clip(1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef) * adv_t)
        value = self.value_net.node(Tensor(obs)).reshape(-1)
        value_loss = ((value - Tensor(returns)) ** 2).mean()
        return -surrogate.mean() + cfg.vf_coef * value_loss

    def minibatch_step(self, mb: dict[str, np.ndarray]) -> None:
        self._adam_step(self.minibatch_loss(mb["obs"], mb["actions"], mb["log_probs"],
                                            mb["advantages"], mb["returns"]),
                        "ppo loss")
        self.policy.net.clamp_log_std()
        self.n_updates += 1


class TrpoTrainer(OnPolicyTrainer):
    algorithm = "trpo"
    adam_nets = ("value",)
    n_natural_steps = 0
    n_rejected_steps = 0

    # -- Fisher-vector product over a state minibatch --------------------------------

    def fisher_vector_product(self, obs: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """F v for the diagonal-Gaussian policy Fisher (Gauss-Newton KL Hessian).

        Mean block: (1/B) sum_s J(s)^T diag(1/sigma^2) J(s) v via JVP + VJP.
        Log-std block: the per-dimension Fisher is the constant 2. The log-std
        is last in the policy net's ``flat``.
        """
        net = self.policy.net
        n_mean = net.flat.size - net.log_std.data.size
        jv = net.jvp(obs, net.unflatten(vector))          # (B, act_dim)
        inv_var = np.exp(-2.0 * net.log_std.data)
        weighted = jv * inv_var / obs.shape[0]
        mu = net.node(Tensor(obs))
        mu.backward(weighted)
        fv_mean = net.flat_grad()[:n_mean]
        net.zero_grad()
        return np.concatenate([fv_mean, 2.0 * vector[n_mean:]]) \
            + self.cfg.cg_damping * vector

    # -- surrogate objective ------------------------------------------------------

    def surrogate_np(self, obs, actions, old_logp, adv) -> float:
        means = self.policy.mean_np(obs)
        logp = self.policy.log_prob_np(means, actions)
        return float(np.mean(np.exp(logp - old_logp) * adv))

    def surrogate_grad(self, obs, actions, old_logp, adv) -> np.ndarray:
        logp = self.policy.log_prob_tensor(Tensor(obs), actions)
        ratio = (logp - Tensor(old_logp)).exp()
        (ratio * Tensor(adv)).mean().backward()
        g = self.policy.net.flat_grad()
        self.policy.net.zero_grad()
        return g

    def natural_step(self, obs, actions, old_logp, old_means, adv) -> bool:
        """One trust-region update on a minibatch; returns True if accepted."""
        cfg = self.cfg
        flat = self.policy.net.flat
        g = self.surrogate_grad(obs, actions, old_logp, adv)
        if not np.all(np.isfinite(g)):
            return False
        fvp = lambda v: self.fisher_vector_product(obs, v)
        x = conjugate_gradient(fvp, g, cfg.cg_iterations)
        xhx = float(x @ fvp(x))
        if xhx <= 0 or not np.isfinite(xhx):
            self.n_rejected_steps += 1
            return False
        step = np.sqrt(2.0 * cfg.kl_limit / xhx) * x
        old_vector = flat.copy()
        base_surrogate = self.surrogate_np(obs, actions, old_logp, adv)
        scale = 1.0
        for _ in range(cfg.backtrack_steps):
            flat[:] = old_vector + scale * step
            self.policy.net.clamp_log_std()
            new_means = self.policy.mean_np(obs)
            kl = self.policy.kl_old_new_np(old_means, self._log_std_at_collect,
                                           new_means)
            improved = self.surrogate_np(obs, actions, old_logp, adv) > base_surrogate
            if improved and kl <= cfg.kl_limit:
                self.n_natural_steps += 1
                return True
            scale *= 0.5
        flat[:] = old_vector  # no acceptable step: no-op update
        self.n_rejected_steps += 1
        return False

    def minibatch_step(self, mb: dict[str, np.ndarray]) -> None:
        value = self.value_net.node(Tensor(mb["obs"])).reshape(-1)
        value_loss = ((value - Tensor(mb["returns"])) ** 2).mean() * 0.5
        self._adam_step(value_loss, "trpo value loss")
        self.natural_step(mb["obs"], mb["actions"], mb["log_probs"], mb["means"],
                          mb["advantages"])
