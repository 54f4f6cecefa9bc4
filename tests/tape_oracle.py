"""Oracles on the autodiff tape for the closed-form off-policy gradients.

The off-policy learners once built every critic and actor loss on the tape;
these are those expressions, kept as the reference the closed forms must
match byte for byte. ``critic_grad`` and ``actor_grad`` return one trainer
step's gradient in the optimizer's flat order.
"""

import operator
from functools import reduce
from typing import Sequence

import numpy as np

from climbench.algos.common import LOG_2PI
from climbench.algos.tqc import truncated_quantile_loss
from climbench.nn import Tensor, minimum


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


def q_tensor(critic, s: Tensor, a: Tensor) -> Tensor:
    return critic.net.node(concat([s, a], axis=1))


def rsample_tensor(policy, obs: Tensor, xi: np.ndarray):
    """Reparameterized squashed-Gaussian sample: (action, log_prob)."""
    mean = policy.net.node(obs)
    log_std = policy.net.log_std
    u = mean + log_std.exp() * Tensor(xi)
    t = tanh(u)
    action = t * policy.half + policy.center
    correction = (t * t * (-1.0) + 1.0) * policy.half + 1e-6
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
        return tqc_critic_loss(q, y, trainer.fractions)
    return ((q - Tensor(y[:, None])) ** 2).mean()


def actor_value(trainer, s: Tensor, action: Tensor) -> Tensor:
    qs = [q_tensor(c, s, action) for c in trainer.critics]
    if trainer.algorithm == "sac":
        return reduce(minimum, qs).reshape(-1)
    if trainer.algorithm == "tqc":
        return reduce(operator.add, [q.mean(axis=1) for q in qs]) * (1.0 / len(qs))
    return qs[0]


def _flat_grads(nets) -> np.ndarray:
    g = np.concatenate([net.flat_grad() for net in nets])
    for net in nets:
        net.zero_grad()
    return g


def critic_grad(trainer, batch: dict, y: np.ndarray) -> np.ndarray:
    s, a = Tensor(batch["s"]), Tensor(batch["a"])
    reduce(operator.add, [critic_loss(trainer, q_tensor(c, s, a), y)
                          for c in trainer.critics]).backward()
    return _flat_grads([c.net for c in trainer.critics])


def actor_grad(trainer, batch: dict, xi: np.ndarray | None = None) -> np.ndarray:
    """The actor step's gradient; ``xi`` is a stochastic actor's noise."""
    s = Tensor(batch["s"])
    if xi is not None:
        action, logp = rsample_tensor(trainer.actor, s, xi)
        loss = (logp * trainer.alpha - actor_value(trainer, s, action)).mean()
    else:
        loss = -actor_value(trainer, s, trainer.actor.net.node(s)).mean()
    loss.backward()
    _flat_grads([c.net for c in trainer.critics])
    return _flat_grads([trainer.actor.net])
