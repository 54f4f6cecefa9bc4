"""Oracles on the autodiff tape (``tape``) for the closed-form gradients.

The learners once built every loss on the tape, each network's forward pass
one node over per-parameter leaves (``node``), and gathered the leaves'
gradients in ``flat`` order for Adam; these are those expressions, kept as the
reference the one gradient path (``Mlp.backward`` into a flat vector) must
match byte for byte. ``critic_grad`` and ``actor_grad`` give one off-policy
step's gradient and ``alpha_grad`` the entropy coefficient's;
``reinforce_grad``, ``ppo_grad``, ``trpo_value_grad``, ``surrogate_grad`` and
``fisher_vector_product`` (over its own ``jvp``) the on-policy ones.
"""

import operator
from functools import reduce
from typing import Sequence

import numpy as np

from climbench.algos.common import LOG_2PI
from climbench.algos.tqc import quantile_fractions
from climbench.envs import BoxSpace, ClimateEnv
from climbench.rollout import discounted_returns
from quantile_oracle import truncated_quantile_loss
from tape import Tensor, minimum


class BoxEnv(ClimateEnv):
    """Only the spaces matter: the tests feed batches straight in."""

    def __init__(self, obs_dim: int, low: np.ndarray, high: np.ndarray,
                 max_steps: int = 1):
        super().__init__()
        self.max_steps = max_steps
        self.observation_space = BoxSpace(low=np.zeros(obs_dim), high=np.ones(obs_dim))
        self.action_space = BoxSpace(low=low, high=high)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate_fresh(g * (1.0 - out * out))

    return Tensor._from_op(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        x._accumulate_fresh(g / x.data)

    return Tensor._from_op(np.log(x.data), (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis``; the gradient splits back to the inputs."""
    datas = [t.data for t in tensors]
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    return Tensor._from_op(np.concatenate(datas, axis=axis), tuple(tensors), backward)


# -- a network on the tape ------------------------------------------------------------


def param_leaves(net) -> list[Tensor]:
    """One tape leaf per parameter, each a view into ``net.flat``."""
    return [Tensor(view, requires_grad=True) for view in net.unflatten(net.flat)]


def gather(leaves: Sequence[Tensor]) -> np.ndarray:
    """The leaves' gradients raveled into one vector; zeros where there is none."""
    return np.concatenate([(t.grad if t.grad is not None
                            else np.zeros_like(t.data)).ravel() for t in leaves])


def node(net, leaves: list[Tensor], x: Tensor) -> Tensor:
    """``net``'s forward pass as one tape node over its parameter ``leaves``
    (a log-std leaf is left to the caller); its backward is ``Mlp.backward``.
    ``x`` takes a gradient if it requires one."""
    out, kept = net.forward(x.data)
    params = leaves[:2 * len(net.weights)]

    def backward(g: np.ndarray) -> None:
        grad = np.empty_like(net.flat)
        dx = net.backward(kept, g, grad, x.requires_grad)
        for p, view in zip(params, net.unflatten(grad)):
            p._accumulate_fresh(view)
        if dx is not None:
            x._accumulate_fresh(dx)

    return Tensor._from_op(out, (x, *params), backward)


# -- off-policy -------------------------------------------------------------------------


def q_tensor(critic, leaves: list[Tensor], s: Tensor, a: Tensor) -> Tensor:
    return node(critic, leaves, concat([s, a], axis=1))


def squash(policy, u: Tensor) -> Tensor:
    """A deterministic actor's map of its net's output into the box."""
    box = policy.action_space
    return tanh(u) * box.half + box.center


def rsample_tensor(policy, leaves: list[Tensor], obs: Tensor, xi: np.ndarray):
    """Reparameterized squashed-Gaussian sample: (action, log_prob)."""
    mean = node(policy.net, leaves, obs)
    log_std = leaves[-1]
    u = mean + log_std.exp() * Tensor(xi)
    t = tanh(u)
    box = policy.action_space
    action = t * box.half + box.center
    correction = (t * t * (-1.0) + 1.0) * box.half + 1e-6
    per_dim = Tensor(xi * xi) * (-0.5) - log_std - 0.5 * LOG_2PI - log(correction)
    return action, per_dim.sum(axis=1)


def tqc_critic_loss(q: Tensor, y: np.ndarray, tau: np.ndarray) -> Tensor:
    """One critic's mean quantile Huber loss as a tape node."""
    total, slope = truncated_quantile_loss(q.data, y, tau)
    count = y.size * q.data.shape[1]
    return Tensor._from_op(np.asarray(total / count), (q,),
                           lambda g: q._accumulate_fresh(slope * (float(g) / count)))


def critic_loss(trainer, q: Tensor, y: np.ndarray) -> Tensor:
    if trainer.algorithm == "tqc":
        return tqc_critic_loss(q, y, quantile_fractions(trainer.cfg.n_quantiles))
    return ((q - Tensor(y[:, None])) ** 2).mean()


def actor_value(trainer, s: Tensor, action: Tensor) -> Tensor:
    # the critics' parameters are leaves too, as they were on the old tape
    qs = [q_tensor(c, param_leaves(c), s, action) for c in trainer.critics]
    if trainer.algorithm == "sac":
        return reduce(minimum, qs).reshape(-1)
    if trainer.algorithm == "tqc":
        return reduce(operator.add, [q.mean(axis=1) for q in qs]) * (1.0 / len(qs))
    return qs[0]


def critic_grad(trainer, batch: dict, y: np.ndarray) -> np.ndarray:
    s, a = Tensor(batch["s"]), Tensor(batch["a"])
    leaves = [param_leaves(c) for c in trainer.critics]
    reduce(operator.add, [critic_loss(trainer, q_tensor(c, ls, s, a), y)
                          for c, ls in zip(trainer.critics, leaves)]).backward()
    return np.concatenate([gather(ls) for ls in leaves])


def actor_grad(trainer, batch: dict, xi: np.ndarray | None = None) -> np.ndarray:
    """The actor step's gradient; ``xi`` is a stochastic actor's noise."""
    s = Tensor(batch["s"])
    leaves = param_leaves(trainer.actor.net)
    if xi is not None:
        action, logp = rsample_tensor(trainer.actor, leaves, s, xi)
        loss = (logp * trainer.alpha - actor_value(trainer, s, action)).mean()
    else:
        action = squash(trainer.actor, node(trainer.actor.net, leaves, s))
        loss = -actor_value(trainer, s, action).mean()
    loss.backward()
    return gather(leaves)


def alpha_grad(trainer, logp: np.ndarray) -> np.ndarray:
    """The gradient in log alpha of the entropy coefficient's loss."""
    log_alpha = Tensor(trainer.log_alpha.copy(), requires_grad=True)
    ((log_alpha.exp() * Tensor(logp + trainer.target_entropy)).mean() * (-1.0)).backward()
    return log_alpha.grad


# -- on-policy --------------------------------------------------------------------------


def log_prob(policy, leaves: list[Tensor], obs: np.ndarray, actions: np.ndarray) -> Tensor:
    """The diagonal-Gaussian policy's log-probs over its per-parameter leaves."""
    mean = node(policy.net, leaves, Tensor(obs))
    log_std = leaves[-1]
    inv_std = (-log_std).exp()
    z = (Tensor(actions) - mean) * inv_std
    per_dim = z * z * (-0.5) - log_std - 0.5 * LOG_2PI
    return per_dim.sum(axis=1)


def clipped(leaves: list[Tensor], max_norm: float) -> np.ndarray:
    """The leaves' gradients scaled, leaf by leaf, to a global L2 norm of at
    most ``max_norm`` (the squared norm summed leaf by leaf), then gathered."""
    total = 0.0
    for p in leaves:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in leaves:
            if p.grad is not None:
                p.grad *= scale
    return gather(leaves)


def reinforce_grad(trainer, ep: dict) -> np.ndarray:
    leaves = param_leaves(trainer.actor.net)
    returns = discounted_returns(ep["rewards"], trainer.cfg.gamma)
    logp = log_prob(trainer.actor, leaves, ep["obs"], ep["actions"])
    (-(logp * Tensor(returns)).mean()).backward()
    return gather(leaves)


def ppo_grad(trainer, mb: dict) -> np.ndarray:
    """The clipped gradient of PPO's loss, policy then value net."""
    cfg = trainer.cfg
    policy_leaves = param_leaves(trainer.actor.net)
    value_leaves = param_leaves(trainer.value_net)
    logp = log_prob(trainer.actor, policy_leaves, mb["obs"], mb["actions"])
    ratio = (logp - Tensor(mb["log_probs"])).exp()
    adv = Tensor(mb["advantages"])
    surrogate = minimum(ratio * adv,
                        ratio.clip(1.0 - cfg.clip_coef, 1.0 + cfg.clip_coef) * adv)
    value = node(trainer.value_net, value_leaves, Tensor(mb["obs"])).reshape(-1)
    value_loss = ((value - Tensor(mb["returns"])) ** 2).mean()
    (-surrogate.mean() + cfg.vf_coef * value_loss).backward()
    return clipped(policy_leaves + value_leaves, cfg.max_grad_norm)


def trpo_value_grad(trainer, mb: dict) -> np.ndarray:
    leaves = param_leaves(trainer.value_net)
    value = node(trainer.value_net, leaves, Tensor(mb["obs"])).reshape(-1)
    (((value - Tensor(mb["returns"])) ** 2).mean() * 0.5).backward()
    return clipped(leaves, trainer.cfg.max_grad_norm)


def surrogate_grad(trainer, obs, actions, old_logp, adv) -> np.ndarray:
    leaves = param_leaves(trainer.actor.net)
    logp = log_prob(trainer.actor, leaves, obs, actions)
    ratio = (logp - Tensor(old_logp)).exp()
    (ratio * Tensor(adv)).mean().backward()
    return gather(leaves)


def jvp(net, x: np.ndarray, tangents: list[np.ndarray]) -> np.ndarray:
    """``Mlp.jvp`` along its own forward pass over ``x``."""
    h, t = x, np.zeros_like(x)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        t = t @ w + h @ tangents[2 * i] + tangents[2 * i + 1]
        if i < last:
            h = np.tanh(h @ w + b)
            t = t * (1.0 - h * h)
    return t


def fisher_vector_product(trainer, obs: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """TRPO's damped Fisher-vector product, with the VJP taken on the tape."""
    net = trainer.actor.net
    n_mean = net.flat.size - net.log_std.size
    jv = jvp(net, obs, net.unflatten(vector))
    inv_var = np.exp(-2.0 * net.log_std)
    weighted = jv * inv_var / obs.shape[0]
    leaves = param_leaves(net)
    node(net, leaves, Tensor(obs)).backward(weighted)
    fv_mean = gather(leaves)[:n_mean]
    return np.concatenate([fv_mean, 2.0 * vector[n_mean:]]) \
        + trainer.cfg.cg_damping * vector
