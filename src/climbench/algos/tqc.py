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

from .base import OffPolicyTrainer

__all__ = ["TqcTrainer", "truncated_quantile_loss", "quantile_fractions"]


def quantile_fractions(n_quantiles: int) -> np.ndarray:
    k = np.arange(1, n_quantiles + 1)
    return (2.0 * k - 1.0) / (2.0 * n_quantiles)


def truncated_quantile_loss(q: np.ndarray, targets: np.ndarray, tau: np.ndarray,
                            kappa: float = 1.0) -> tuple[float, np.ndarray]:
    """Sum over (batch, quantiles, targets) of rho_tau(target - quantile), and
    its gradient in ``q``.

    rho_tau(u) = |tau - 1{u<0}| * L_kappa(u) with the Huber loss L_kappa, on
    residuals u = target - quantile; ``tau`` holds each column's fraction.
    Against one predicted quantile x, a row's sorted targets y fall into four
    regions: y < x-kappa, x-kappa <= y < x, x <= y <= x+kappa, y > x+kappa.
    On each, the summed loss and its slope in x follow from the region's count
    and its sums of y and y^2, read off prefix sums, so no (batch, quantiles,
    targets) array is built. Rows are centred on their median target first,
    because Q-values reach about 1e4. The tests check it against the pairwise
    sum.
    """
    x, y = q, np.sort(targets, axis=1)
    if not (y.shape[1] and np.isfinite(x).all() and np.isfinite(y).all()):
        # with no targets, or a non-finite value, the regions are undefined:
        # the loss and its gradient are NaN
        return np.nan, np.full_like(x, np.nan)
    (rows, n_q), n_y = x.shape, y.shape[1]
    centre = y[:, n_y // 2, None]
    x, y = x - centre, y - centre
    # Sort each row's thresholds x-kappa, x, x+kappa among its targets; a
    # threshold's count of targets below it indexes the row's prefix sums.
    # Where a target equals a threshold either order will do: the loss and
    # its slope agree there.
    keys = np.concatenate([x - kappa, x, x + kappa, y], axis=1)
    order = np.argsort(keys, axis=1)
    # running count of targets over the flattened rows; row r holds r * n_y
    # targets before it, and its prefix sums start at r * (n_y + 1)
    row = np.arange(rows)[:, None]
    below = np.cumsum(order >= 3 * n_q, axis=None).reshape(keys.shape) + row
    order += row * keys.shape[1]
    index = np.empty(keys.size, dtype=np.intp)
    index[order.ravel()] = below.ravel()
    index = index.reshape(keys.shape)[:, :3 * n_q]
    s1, s2 = np.zeros((2, rows, n_y + 1))
    np.cumsum(y, axis=1, out=s1[:, 1:])
    np.cumsum(y * y, axis=1, out=s2[:, 1:])
    # each as three (rows, n_q) views, one per threshold
    (a1, a2, a3), (b1, b2, b3), (i1, i2, i3) = (
        z.reshape(rows, 3, n_q).swapaxes(0, 1)
        for z in (s1.take(index), s2.take(index), index - row * (n_y + 1)))
    # per region: counts n1..n4 and target sums m1..m4 (of y^2: b2-b1, b3-b2)
    n1, n2, n3, n4 = i1, i2 - i1, i3 - i2, n_y - i3
    m1, m2, m3, m4 = a1, a2 - a1, a3 - a2, s1[:, -1:] - a3
    lower = (1.0 - tau) * (kappa * (n1 * (x - 0.5 * kappa) - m1)
                           + 0.5 * (b2 - b1 - 2.0 * x * m2 + n2 * x * x))
    upper = tau * (0.5 * (b3 - b2 - 2.0 * x * m3 + n3 * x * x)
                   + kappa * (m4 - n4 * (x + 0.5 * kappa)))
    slope = ((1.0 - tau) * (kappa * n1 - m2 + n2 * x)
             - tau * (m3 - n3 * x + kappa * n4))
    return float((lower + upper).sum()), slope


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
        self.fractions = quantile_fractions(self.cfg.n_quantiles)

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
        # a config may drop more than the pooled width: then nothing is kept
        kept = pooled[:, :max(0, pooled.shape[1] - cfg.n_drop_per_critic * cfg.n_critics)]
        shifted = kept - alpha * logp_next[:, None]
        return batch["r"][:, None] + cfg.gamma * shifted

    def critic_losses(self, qs: list[np.ndarray], y: np.ndarray):
        """Summed over the critics, each critic's mean quantile Huber loss
        against the shared targets, from one call over all their quantiles."""
        n_q = self.cfg.n_quantiles
        total, slope = truncated_quantile_loss(np.concatenate(qs, axis=1), y,
                                               np.tile(self.fractions, len(qs)))
        count = y.size * n_q        # the terms of one critic's mean
        if not count:               # a config can truncate every target away
            return total, []
        return total / count, [slope[:, i * n_q:(i + 1) * n_q] * (1.0 / count)
                               for i in range(len(qs))]

    def actor_value(self, qs: list[np.ndarray], g: np.ndarray):
        """The mean over all critics of each critic's mean quantile."""
        n, n_q = len(qs), self.cfg.n_quantiles
        value = reduce(operator.add, [q.mean(axis=1) for q in qs]) * (1.0 / n)
        return value, [np.repeat((g * (1.0 / n) / n_q)[:, None], n_q, axis=1)] * n
