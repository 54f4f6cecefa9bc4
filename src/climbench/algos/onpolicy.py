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
KL region. The losses take the nets' outputs and the log-std onto the autodiff
tape as fresh leaves; ``Mlp.backward`` turns what reaches an output leaf into
the net's parameter gradient.
"""

from __future__ import annotations

import numpy as np

from ..nn import Mlp, Optimizer, Tensor, clip_grad_norm, minimum
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
    policy exceeds ``kl_limit``.
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
        self._adam_nets = [nets[name] for name in self.adam_nets]
        self.optimizer = Optimizer([net.flat for net in self._adam_nets],
                                   cfg.learning_rate)

    def _value(self, obs: np.ndarray) -> float:
        # REINFORCE never reads the values of its batch
        if self.value_net is None:
            return 0.0
        return float(self.value_net.forward_np(obs)[0])

    def collect_episode(self) -> dict[str, np.ndarray]:
        """Arrays of ``env.max_steps`` rows; ``values`` ends with the bootstrap."""
        n = self.env.max_steps
        act_dim = self.env.action_space.dim
        ep = {"obs": np.empty((n, self.env.observation_space.dim)),
              "actions": np.empty((n, act_dim)), "rewards": np.empty(n),
              "values": np.empty(n + 1), "log_probs": np.empty(n),
              "means": np.empty((n, act_dim))}
        obs = self.env.reset()
        episode_return = 0.0
        for t in range(n):
            ep["obs"][t] = obs
            env_action, ep["actions"][t], ep["log_probs"][t], ep["means"][t] = (
                self.policy.sample_np(obs, self.streams.explore))
            ep["values"][t] = self._value(obs)
            res = self.env.step(env_action)
            self.global_step += 1
            episode_return += res.reward
            ep["rewards"][t] = res.reward
            obs = res.observation
        ep["values"][n] = self._value(obs)
        self.record.add(self.global_step, episode_return)
        return ep

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
        self._log_std_at_collect = self.policy.net.log_std.copy()
        for _epoch in range(cfg.update_epochs):
            order = self.streams.shuffle.shuffled_indices(adv.size)
            for idx in np.array_split(order, cfg.num_minibatches):
                if idx.size > 0:
                    self.minibatch_step({k: v[idx] for k, v in arrays.items()})
            new_means = self.policy.mean_np(arrays["obs"])
            if self.policy.kl_old_new_np(arrays["means"], self._log_std_at_collect,
                                         new_means) > cfg.kl_limit:
                break

    def value_tensor(self, obs: np.ndarray):
        """The value net's (batch,) output over a fresh tape leaf, and its
        gradient writer (as in ``GaussianPolicy.log_prob_tensor``)."""
        out, kept = self.value_net.forward(obs)
        value = Tensor(out, requires_grad=True)
        return value.reshape(-1), lambda grad: self.value_net.backward(
            kept, value.grad, grad)

    def _adam_step(self, loss: Tensor, write_grads, what: str) -> None:
        """Backpropagate ``loss``, let ``write_grads`` (one per net of
        ``adam_nets``) write each net's slice of one gradient, clip it and step."""
        self._check_finite_loss(float(loss.data), what)
        loss.backward()
        g = np.empty(self.optimizer.m.size)
        views = np.split(g, np.cumsum([net.flat.size for net in self._adam_nets[:-1]]))
        for write, view in zip(write_grads, views):
            write(view)
        clip_grad_norm([p for net, view in zip(self._adam_nets, views)
                        for p in net.unflatten(view)], self.cfg.max_grad_norm)
        self.optimizer.step(g)


class ReinforceTrainer(OnPolicyTrainer):
    algorithm = "reinforce"
    adam_nets = ("policy",)

    def episode_loss(self, obs: np.ndarray, actions: np.ndarray,
                     rewards: np.ndarray):
        """-mean_t G_t log pi(a_t | s_t), minimized to ascend the return, and
        the policy's gradient writer (see ``log_prob_tensor``)."""
        returns = discounted_returns(rewards, self.cfg.gamma)
        logp, write_grad = self.policy.log_prob_tensor(obs, actions)
        return -(logp * Tensor(returns)).mean(), write_grad

    def update_from_batch(self, ep: dict[str, np.ndarray]) -> None:
        loss, write_grad = self.episode_loss(ep["obs"], ep["actions"], ep["rewards"])
        self._check_finite_loss(float(loss.data), "reinforce loss")
        loss.backward()
        g = np.empty_like(self.policy.net.flat)
        write_grad(g)
        self.optimizer.step(g)
        self.policy.net.clamp_log_std()
        self.n_updates += 1


class PpoTrainer(OnPolicyTrainer):
    algorithm = "ppo"

    def minibatch_loss(self, obs, actions, old_logp, adv, returns):
        """The loss, and the policy's and value net's gradient writers."""
        cfg = self.cfg
        logp, write_policy = self.policy.log_prob_tensor(obs, actions)
        ratio = (logp - Tensor(old_logp)).exp()
        adv_t = Tensor(adv)
        surrogate = minimum(ratio * adv_t,
                            ratio.clip(1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef) * adv_t)
        value, write_value = self.value_tensor(obs)
        value_loss = ((value - Tensor(returns)) ** 2).mean()
        return (-surrogate.mean() + cfg.vf_coef * value_loss,
                [write_policy, write_value])

    def minibatch_step(self, mb: dict[str, np.ndarray]) -> None:
        self._adam_step(*self.minibatch_loss(mb["obs"], mb["actions"], mb["log_probs"],
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
        n_mean = net.flat.size - net.log_std.size
        jv = net.jvp(obs, net.unflatten(vector))          # (B, act_dim)
        inv_var = np.exp(-2.0 * net.log_std)
        weighted = jv * inv_var / obs.shape[0]
        fv = np.empty_like(vector)
        net.backward(net.forward(obs)[1], weighted, fv)
        fv[n_mean:] = 2.0 * vector[n_mean:]
        fv += self.cfg.cg_damping * vector
        return fv

    # -- surrogate objective ------------------------------------------------------

    def surrogate_np(self, obs, actions, old_logp, adv) -> float:
        means = self.policy.mean_np(obs)
        logp = self.policy.log_prob_np(means, actions)
        return float(np.mean(np.exp(logp - old_logp) * adv))

    def surrogate_grad(self, obs, actions, old_logp, adv) -> np.ndarray:
        logp, write_grad = self.policy.log_prob_tensor(obs, actions)
        ratio = (logp - Tensor(old_logp)).exp()
        (ratio * Tensor(adv)).mean().backward()
        g = np.empty_like(self.policy.net.flat)
        write_grad(g)
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
        value, write_grad = self.value_tensor(mb["obs"])
        value_loss = ((value - Tensor(mb["returns"])) ** 2).mean() * 0.5
        self._adam_step(value_loss, [write_grad], "trpo value loss")
        self.natural_step(mb["obs"], mb["actions"], mb["log_probs"], mb["means"],
                          mb["advantages"])
