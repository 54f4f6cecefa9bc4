"""Truncated quantile critics: SAC with distributional critics.

Each of the N_c critics outputs N_q quantiles at the fractions
tau_k = (2k-1)/(2 N_q). Targets pool every target critic's quantiles at the
next state, sort them, drop the largest n_drop_per_critic * N_c, and shift by
the entropy term; every critic then regresses the shared truncated target set
under the quantile Huber loss. The actor maximizes the mean over all critics'
mean quantiles minus the entropy penalty (Kuznetsov et al. 2020). The shared
off-policy core runs the schedule, the actor step and the alpha tuning; this
module supplies the targets, the loss and the actor's value.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from ..nn import Tensor
from .base import OffPolicyTrainer

__all__ = ["TqcTrainer", "truncated_quantile_loss", "quantile_fractions"]


def quantile_fractions(n_quantiles: int) -> np.ndarray:
    k = np.arange(1, n_quantiles + 1)
    return (2.0 * k - 1.0) / (2.0 * n_quantiles)


def truncated_quantile_loss(q: Tensor, targets: np.ndarray, tau: np.ndarray,
                            kappa: float = 1.0) -> Tensor:
    """mean over (batch, quantiles, targets) of rho_tau(target - quantile).

    rho_tau(u) = |tau - 1{u<0}| * L_kappa(u) with the Huber loss L_kappa, on
    residuals u = target - quantile. One fused graph node: the pairwise
    residual array is the largest object in a TQC update, so the elementwise
    steps are collapsed by hand. The tests check it against the elementwise
    composition.
    """
    u = targets[:, None, :] - q.data[:, :, None]
    abs_u = np.abs(u)
    small = abs_u <= kappa
    np.subtract(abs_u, 0.5 * kappa, out=abs_u)
    np.multiply(abs_u, kappa, out=abs_u)          # linear branch in place
    huber = np.where(small, 0.5 * u * u, abs_u)
    weight = np.abs(tau - (u < 0.0))
    np.multiply(huber, weight, out=huber)
    out = huber.mean()

    def backward(g: np.ndarray) -> None:
        d = np.where(small, u, kappa * np.sign(u))
        np.multiply(d, weight, out=d)
        # d loss / d q = -mean-scaled row sums of the weighted Huber slope
        scale = -float(g) / u.size
        q._accumulate_fresh(d.sum(axis=2) * scale)

    return Tensor._from_op(np.asarray(out), (q,), backward)


class TqcTrainer(OffPolicyTrainer):
    algorithm = "tqc"
    stochastic_actor = True
    lr_fields = ("actor_adam_lr", "critic_adam_lr", "alpha_adam_lr")

    @property
    def n_critics(self) -> int:
        return self.cfg.n_critics

    @property
    def critic_width(self) -> int:
        return self.cfg.n_quantiles

    def _build(self) -> None:
        super()._build()
        self.fractions = quantile_fractions(self.cfg.n_quantiles)[None, :, None]

    def compute_target(self, batch: dict[str, np.ndarray],
                       alpha: float | None = None) -> np.ndarray:
        """Pooled, sorted, truncated target quantiles y of shape (B, kept)."""
        cfg = self.cfg
        alpha = self.alpha if alpha is None else alpha
        a_next, logp_next = self.actor.sample_with_log_prob_np(
            batch["s_next"], self.streams.explore)
        pooled = np.concatenate(
            [tc.q_np(batch["s_next"], a_next) for tc in self.target_critics], axis=1)
        pooled.sort(axis=1)
        drop = cfg.n_drop_per_critic * cfg.n_critics
        kept = pooled[:, :pooled.shape[1] - drop] if drop else pooled
        shifted = kept - alpha * logp_next[:, None]
        return batch["r"][:, None] + cfg.gamma * (1.0 - batch["d"][:, None]) * shifted

    def critic_loss(self, q: Tensor, y: np.ndarray) -> Tensor:
        return truncated_quantile_loss(q, y, self.fractions)

    def actor_value(self, s: Tensor, action: Tensor) -> Tensor:
        """The mean over all critics of each critic's mean quantile."""
        total = reduce(operator.add, [c.q_tensor(s, action).mean(axis=1)
                                      for c in self.critics])
        return total * (1.0 / self.cfg.n_critics)
