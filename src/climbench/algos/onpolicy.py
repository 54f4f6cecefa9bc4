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
the net's closed-form backward pass), step length sqrt(2*delta / xHx), and
backtracking by halving that accepts only surrogate-improving steps inside the
KL region. Every loss gradient is closed form: the gradient at the nets'
outputs and the log-std (``GaussianPolicy.log_prob_backward``,
``OnPolicyTrainer.value_backward``) goes through ``Mlp.backward`` straight
into the flat vector that Adam steps.
"""

from __future__ import annotations

import numpy as np

from ..nn import Mlp, NonFiniteError, Optimizer, Tensor, clip_grad_norm
from ..rollout import discounted_returns, gae
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

    Each iteration collects one episode with the Gaussian policy, run to the
    step cap, into arrays and hands them to ``update_from_batch``. For PPO and
    TRPO that runs GAE, bootstrapping through the cap, normalizes the
    advantages and sweeps ``update_epochs`` epochs of shuffled minibatches
    through ``minibatch_step``, stopping early once the KL from the collection
    policy exceeds ``kl_limit`` after an epoch that is not the last.
    """

    # the nets one Adam optimizer steps; a value net is built only if listed
    # (REINFORCE has none, TRPO moves its policy by natural-gradient steps)
    adam_nets = ("policy", "value")
    # Adam steps on the policy (REINFORCE, PPO)
    n_updates = 0

    def _build(self) -> None:
        cfg = self.cfg
        obs_dim = self.env.observation_space.dim
        init = self.streams.init
        # The init stream draws in this order: policy, value net.
        self.actor = GaussianPolicy(obs_dim, self.env.action_space,
                                    cfg.actor_critic_layer_size, init)
        nets = {"policy": self.actor.net}
        self.value_net = None
        if "value" in self.adam_nets:
            self.value_net = nets["value"] = Mlp(
                hidden_layers(obs_dim, cfg.actor_critic_layer_size, 1), rng=init)
        self._adam_nets = [nets[name] for name in self.adam_nets]
        self.optimizer = Optimizer([net.flat for net in self._adam_nets],
                                   cfg.learning_rate)

    def collect_episode(self) -> dict[str, np.ndarray]:
        """One episode to the step cap, as arrays of ``env.max_steps`` rows.

        The step loop runs only observation -> policy -> env. The episode's
        exploration noise is one (max_steps, act_dim) draw, made before the
        loop: Philox gives the same bytes as one draw per step and leaves the
        stream where those would. After the loop the value net runs once over
        the stacked observations, (max_steps + 1, 1, obs_dim), which gives the
        bytes of one pass per observation; ``values`` ends with the bootstrap
        value (0.0 throughout for REINFORCE, which has no value net).
        """
        n = self.env.max_steps
        act_dim = self.env.action_space.dim
        obs = np.empty((n + 1, self.env.observation_space.dim))
        actions, means = np.empty((n, act_dim)), np.empty((n, act_dim))
        rewards = np.empty(n)
        noise = self.actor.std_np() * self.streams.explore.normal(size=(n, act_dim))
        obs[0] = self.env.reset()
        for t in range(n):
            env_action, actions[t], means[t] = self.actor.sample_np(obs[t], noise[t])
            res = self.env.step(env_action)
            self.global_step += 1
            rewards[t] = res.reward
            obs[t + 1] = res.observation
        episode_return = 0.0
        for reward in rewards.tolist():
            episode_return += reward
        self.record.add(self.global_step, episode_return)
        values = (np.zeros(n + 1) if self.value_net is None
                  else self.value_net.forward_np(obs[:, None, :]).reshape(-1))
        return {"obs": obs[:n], "actions": actions, "rewards": rewards,
                "values": values, "means": means,
                "log_probs": self.actor.log_prob_np(means, actions)}

    def _run(self, total_steps: int) -> None:
        while self.global_step < total_steps:
            self.update_from_batch(self.collect_episode())

    def update_from_batch(self, ep: dict[str, np.ndarray]) -> None:
        cfg = self.cfg
        adv, returns = gae(ep["rewards"], ep["values"], cfg.gamma, cfg.gae_lambda)
        # only what ``minibatch_step`` and the KL check read
        arrays = {k: ep[k] for k in ("obs", "actions", "log_probs", "means")}
        arrays["advantages"] = (adv - adv.mean()) / (adv.std() + 1e-8)
        arrays["returns"] = returns
        self._log_std_at_collect = self.actor.net.log_std.copy()
        for epoch in range(cfg.update_epochs):
            order = self.streams.shuffle.permutation(adv.size)
            for idx in np.array_split(order, cfg.num_minibatches):
                if idx.size > 0:
                    self.minibatch_step({k: v[idx] for k, v in arrays.items()})
            if epoch == cfg.update_epochs - 1:
                break  # the sweep ends here whatever the KL
            new_means = self.actor.mean_np(arrays["obs"])
            if self.actor.kl_old_new_np(arrays["means"], self._log_std_at_collect,
                                        new_means) > cfg.kl_limit:
                break

    def value_error(self, obs: np.ndarray, returns: np.ndarray):
        """The value net's (batch,) error against ``returns``, and its forward
        pass's kept layer inputs."""
        out, kept = self.value_net.forward(obs)
        return out.reshape(-1) - returns, kept

    def value_backward(self, kept: list, error: np.ndarray, coef: float,
                       grad: np.ndarray) -> None:
        """Write the gradient of ``coef * mean(error ** 2)`` into ``grad``, a
        value-net ``flat`` vector, repeating the autodiff tape's operations."""
        g = np.full(error.size, coef / error.size) * 2 * error
        self.value_net.backward(kept, g.reshape(-1, 1), grad)

    def _adam_step(self, loss: Tensor, g: np.ndarray, what: str) -> None:
        """Check ``loss``, run its backward, which writes one gradient over
        ``adam_nets`` into ``g``, clip ``g`` and step."""
        self._check_finite_loss(float(loss.data), what)
        loss.backward()
        views = np.split(g, np.cumsum([net.flat.size for net in self._adam_nets[:-1]]))
        # per parameter, as flat slices: a contiguous array sums in the same
        # order whatever its shape, so these match the shaped views' sums
        clip_grad_norm([view[s] for net, view in zip(self._adam_nets, views)
                        for s, _ in net.param_slices], self.cfg.max_grad_norm)
        self.optimizer.step(g)


class ReinforceTrainer(OnPolicyTrainer):
    algorithm = "reinforce"
    adam_nets = ("policy",)

    def episode_loss(self, obs: np.ndarray, actions: np.ndarray,
                     rewards: np.ndarray, grad: np.ndarray) -> Tensor:
        """-mean_t G_t log pi(a_t | s_t), minimized to ascend the return; its
        backward writes the gradient into ``grad``, a policy ``flat`` vector."""
        returns = discounted_returns(rewards, self.cfg.gamma)
        logp, saved = self.actor.log_prob(*self.actor.net.forward(obs), actions)
        n = returns.size
        return Tensor(-(logp * returns).mean(), lambda: self.actor.log_prob_backward(
            saved, np.full(n, -1.0 / n) * returns, grad))

    def update_from_batch(self, ep: dict[str, np.ndarray]) -> None:
        g = np.empty_like(self.actor.net.flat)
        loss = self.episode_loss(ep["obs"], ep["actions"], ep["rewards"], g)
        self._check_finite_loss(float(loss.data), "reinforce loss")
        loss.backward()
        self.optimizer.step(g)
        self.actor.net.clamp_log_std()
        self.n_updates += 1


class PpoTrainer(OnPolicyTrainer):
    algorithm = "ppo"

    def minibatch_loss(self, obs, actions, old_logp, adv, returns,
                       grad: np.ndarray) -> Tensor:
        """-L_clip + vf_coef * L_value; its backward writes the gradient, policy
        then value net, into ``grad``, one vector over both nets' ``flat``."""
        cfg = self.cfg
        logp, saved = self.actor.log_prob(*self.actor.net.forward(obs), actions)
        ratio = np.exp(logp - old_logp)
        low, high = 1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef
        inside = (ratio > low) & (ratio < high)
        unclipped, clipped = ratio * adv, np.clip(ratio, low, high) * adv
        take_unclipped = unclipped <= clipped
        error, value_kept = self.value_error(obs, returns)
        policy_grad, value_grad = np.split(grad, [self.actor.net.flat.size])

        def backward():
            # the minimum's gradient goes to its smaller branch; the clipped
            # branch's reaches the ratio only inside the clip range
            g = np.full(adv.size, -1.0 / adv.size)
            g_ratio = g * take_unclipped * adv
            g_ratio += g * ~take_unclipped * adv * inside
            self.actor.log_prob_backward(saved, g_ratio * ratio, policy_grad)
            self.value_backward(value_kept, error, cfg.vf_coef, value_grad)

        surrogate = np.where(take_unclipped, unclipped, clipped)
        return Tensor(-surrogate.mean() + (error ** 2).mean() * cfg.vf_coef, backward)

    def minibatch_step(self, mb: dict[str, np.ndarray]) -> None:
        g = np.empty(self.optimizer.m.size)
        self._adam_step(self.minibatch_loss(mb["obs"], mb["actions"], mb["log_probs"],
                                            mb["advantages"], mb["returns"], g),
                        g, "ppo loss")
        self.actor.net.clamp_log_std()
        self.n_updates += 1


class TrpoTrainer(OnPolicyTrainer):
    algorithm = "trpo"
    adam_nets = ("value",)
    n_natural_steps = 0
    n_rejected_steps = 0

    # -- Fisher-vector product over a state minibatch --------------------------------

    def fisher_vector_product(self, kept: list[np.ndarray],
                              vector: np.ndarray) -> np.ndarray:
        """F v for the diagonal-Gaussian policy Fisher (Gauss-Newton KL Hessian),
        over the minibatch whose layer inputs ``kept`` the policy net's
        ``forward`` returned.

        Mean block: (1/B) sum_s J(s)^T diag(1/sigma^2) J(s) v via JVP + VJP.
        Log-std block: the per-dimension Fisher is the constant 2. The log-std
        is last in the policy net's ``flat``.
        """
        net = self.actor.net
        n_mean = net.flat.size - net.log_std.size
        jv = net.jvp(kept, net.unflatten(vector))         # (B, act_dim)
        inv_var = np.exp(-2.0 * net.log_std)
        weighted = jv * inv_var / kept[0].shape[0]
        fv = np.empty_like(vector)
        net.backward(kept, weighted, fv)
        fv[n_mean:] = 2.0 * vector[n_mean:]
        fv += self.cfg.cg_damping * vector
        return fv

    # -- surrogate objective ------------------------------------------------------

    def surrogate_np(self, means, actions, old_logp, adv) -> float:
        """The surrogate of the policy whose means over the minibatch are ``means``."""
        logp = self.actor.log_prob_np(means, actions)
        return float((np.exp(logp - old_logp) * adv).mean())

    def surrogate_grad(self, obs, actions, old_logp, adv):
        """The surrogate's gradient, and its forward pass's means and kept inputs."""
        means, kept = self.actor.net.forward(obs)
        logp, saved = self.actor.log_prob(means, kept, actions)
        ratio = np.exp(logp - old_logp)
        g = np.empty_like(self.actor.net.flat)
        Tensor((ratio * adv).mean(), lambda: self.actor.log_prob_backward(
            saved, np.full(adv.size, 1.0 / adv.size) * adv * ratio, g)).backward()
        return g, means, kept

    def natural_step(self, obs, actions, old_logp, old_means, adv) -> bool:
        """One trust-region update on a minibatch; returns True if accepted.
        A non-finite surrogate gradient raises NonFiniteError."""
        cfg = self.cfg
        flat = self.actor.net.flat
        g, means, kept = self.surrogate_grad(obs, actions, old_logp, adv)
        if not np.isfinite(g).all():
            raise NonFiniteError("trpo surrogate gradient is not finite")
        fvp = lambda v: self.fisher_vector_product(kept, v)
        x = conjugate_gradient(fvp, g, cfg.cg_iterations)
        xhx = float(x @ fvp(x))
        if xhx <= 0 or not np.isfinite(xhx):
            self.n_rejected_steps += 1
            return False
        step = np.sqrt(2.0 * cfg.kl_limit / xhx) * x
        old_vector = flat.copy()
        base = self.surrogate_np(means, actions, old_logp, adv)
        scale = 1.0
        for _ in range(cfg.backtrack_steps):
            flat[:] = old_vector + scale * step
            self.actor.net.clamp_log_std()
            means = self.actor.mean_np(obs)  # the step's, for its KL and surrogate
            kl = self.actor.kl_old_new_np(old_means, self._log_std_at_collect, means)
            improved = self.surrogate_np(means, actions, old_logp, adv) > base
            if improved and kl <= cfg.kl_limit:
                self.n_natural_steps += 1
                return True
            scale *= 0.5
        flat[:] = old_vector  # no acceptable step: no-op update
        self.n_rejected_steps += 1
        return False

    def minibatch_step(self, mb: dict[str, np.ndarray]) -> None:
        error, kept = self.value_error(mb["obs"], mb["returns"])
        g = np.empty(self.optimizer.m.size)
        self._adam_step(Tensor((error ** 2).mean() * 0.5,
                               lambda: self.value_backward(kept, error, 0.5, g)),
                        g, "trpo value loss")
        self.natural_step(mb["obs"], mb["actions"], mb["log_probs"], mb["means"],
                          mb["advantages"])
