"""Truncated quantile critics: SAC with distributional critics.

Each of the N_c critics outputs N_q quantiles at the fractions
tau_k = (2k-1)/(2 N_q). Targets pool every target critic's quantiles at the
next state, sort them, drop the largest n_drop_per_critic * N_c, and shift by
the entropy term; every critic then regresses the shared truncated target set
under the quantile Huber loss at kappa = 1. The actor maximizes the mean over
all critics' mean quantiles minus the entropy penalty (Kuznetsov et al. 2020).
The shared off-policy core runs the schedule, the actor step and the alpha
tuning; this module supplies the targets, the loss and the actor's value.

The loss works in arrays that each trainer keeps (``LossWorkspace``) rather
than about 1 MiB of fresh ones per update, which the allocator handed back to
the system after every call and faulted in again on the next.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .base import OffPolicyTrainer

__all__ = ["TqcTrainer", "LossWorkspace", "truncated_quantile_loss", "quantile_fractions"]


def quantile_fractions(n_quantiles: int) -> np.ndarray:
    k = np.arange(1, n_quantiles + 1)
    return (2.0 * k - 1.0) / (2.0 * n_quantiles)


class LossWorkspace:
    """The arrays ``truncated_quantile_loss`` works in, kept between calls.

    Allocated afresh, they are about 1 MiB of short-lived heap per call,
    which glibc returns to the system after the call and faults back in on
    the next: some 200 page faults per TQC update. A trainer keeps one
    workspace, whose arrays are reallocated only when the (rows, columns,
    targets) shape changes. It pickles empty, so a shipped trainer carries
    none.
    """

    shape = None

    def __getstate__(self):
        return {}

    def fit(self, rows: int, n_q: int, n_y: int) -> "LossWorkspace":
        if self.shape == (rows, n_q, n_y):
            return self
        self.shape = rows, n_q, n_y
        n3 = 3 * n_q
        row = np.repeat(np.arange(rows), n3)    # of each threshold, row by row
        self.shift = np.arange(rows * n3) - row
        # ``index`` holds threshold j = t * n_q + k of row r at [t, r, k]
        j = np.arange(n3)
        self.block = j + j // n_q * (rows - 1) * n_q
        self.row_offset = row * n_q
        self.slot = np.empty(rows * n3, dtype=np.intp)
        self.index = np.empty((3, rows, n_q), dtype=np.intp)
        # per row: the prefix sums of y and of y^2, and the counts 0..n_y
        self.table = np.zeros((3, rows, n_y + 1))
        self.table[2] = np.arange(n_y + 1)
        self.keys = np.empty((rows, n3 + n_y))
        self.y = np.empty((rows, n_y))
        self.x, self.out = np.empty((2, rows, n_q))
        self.gathered = np.empty((3, 3, rows, n_q))
        self.diff = np.empty((3, 2, rows, n_q))
        self.lin, self.tmp = np.empty((2, 2, rows, n_q))
        return self


def truncated_quantile_loss(q: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                            work: LossWorkspace) -> tuple[float, np.ndarray]:
    """Sum over (batch, quantiles, targets) of rho_tau(target - quantile), and
    its gradient in ``q``.

    rho_tau(u) = |tau - 1{u<0}| * L(u), with the Huber loss L(u) = u^2 / 2 for
    |u| <= 1 and |u| - 1/2 beyond, on residuals u = target - quantile;
    ``weights`` is (2, columns), each column's 1 - tau over its tau. Each row
    of ``targets`` must be non-empty and sorted ascending, as
    ``TqcTrainer.compute_target`` returns it. Against one predicted quantile
    x, a row's targets y fall into four regions: y < x-1, x-1 <= y < x,
    x <= y <= x+1, y > x+1. On each, the summed loss and its slope in x
    follow from the region's count and its sums of y and y^2, read off prefix
    sums, so no (batch, quantiles, targets) array is built. Rows are centred
    on their median target first, because Q-values reach about 1e4.

    Every array lives in ``work``; the gradient returned is one of them,
    overwritten by the next call. Each float is the result of the operations
    in the comments' formulas, in their order, and the tests check it byte
    for byte against those formulas as written and against the pairwise sum.
    """
    (rows, n_q), n_y = q.shape, targets.shape[1]
    if not (np.isfinite(q).all() and np.isfinite(targets).all()):
        # with a non-finite value the regions are undefined: the loss and its
        # gradient are NaN
        return np.nan, np.full_like(q, np.nan)
    w = work.fit(rows, n_q, n_y)
    n3 = 3 * n_q
    centre = targets[:, n_y // 2, None]
    x = np.subtract(q, centre, out=w.x)
    # keys = [x - 1, x, x + 1, y - centre] along each row
    keys = w.keys
    np.subtract(x, 1.0, out=keys[:, :n_q])
    keys[:, n_q:2 * n_q] = x
    np.add(x, 1.0, out=keys[:, 2 * n_q:n3])
    y = np.subtract(targets, centre, out=keys[:, n3:])
    table = w.table
    np.cumsum(y, axis=1, out=table[0, :, 1:])
    np.cumsum(np.multiply(y, y, out=w.y), axis=1, out=table[1, :, 1:])
    # Sort each row's thresholds x-1, x, x+1 among its targets; a
    # threshold's count of targets before it indexes the row's prefix sums.
    # Where a target equals a threshold either order will do: the loss and
    # its slope agree there.
    order = keys.argsort(axis=1).ravel()
    at = np.flatnonzero(order < n3)
    # The i-th threshold found, at sorted position p of row r, has
    # p - (i - r * n3) targets before it, so its table entry is at - i + r.
    # (mode="clip" only skips a bounds check: every index is in range.)
    slot = np.take(order, at, out=w.slot, mode="clip")
    del order               # the largest transient array
    np.take(w.block, slot, out=slot, mode="clip")   # elementwise, so in place
    slot += w.row_offset
    at -= w.shift
    w.index.ravel()[slot] = at
    # g[quantity, threshold], each (rows, n_q): the prefix sums a1, a2, a3 of
    # y, b1, b2, b3 of y^2 and the counts n1 = i1, i2, i3
    g = w.gathered
    np.take(table.reshape(3, -1), w.index, axis=1, out=g.reshape(3, 3, rows, n_q),
            mode="clip")
    # per inner region: the sums m2 = a2 - a1, m3 = a3 - a2, those of y^2,
    # b2 - b1 and b3 - b2, and the counts n2 = i2 - i1, n3 = i3 - i2
    m23, db23, n23 = np.subtract(g[:, 1:], g[:, :2], out=w.diff)
    # the outer regions: m1 = a1, m4 = total - a3; n1 = i1, n4 = n_y - i3
    np.subtract(table[0, :, -1:], g[0, 2], out=g[0, 2])
    np.subtract(n_y, g[2, 2], out=g[2, 2])
    m14, n14 = g[0, ::2], g[2, ::2]
    # lower = (1 - tau) * ((n1 * (x - 0.5) - m1)
    #                      + 0.5 * (b2 - b1 - 2.0 * x * m2 + n2 * x * x))
    # upper = tau * (0.5 * (b3 - b2 - 2.0 * x * m3 + n3 * x * x)
    #                + (m4 - n4 * (x + 0.5)))
    # each computed with its partner, stacked; a + b and b + a are the same
    # bits
    nx = np.multiply(n23, x, out=n23)
    quad = np.subtract(db23, np.multiply(np.multiply(x, 2.0, out=w.out), m23,
                                         out=w.tmp), out=db23)
    quad += np.multiply(nx, x, out=w.tmp)
    quad *= 0.5
    lin = np.multiply(n14, np.add(x, np.array([[[-0.5]], [[0.5]]]), out=w.tmp),
                      out=w.lin)
    np.subtract(lin[0], m14[0], out=lin[0])
    np.subtract(m14[1], lin[1], out=lin[1])
    quad += lin
    weights = weights[:, None, :]
    quad *= weights
    loss = float(np.add(quad[0], quad[1], out=w.out).sum())
    # slope = (1 - tau) * (n1 - m2 + n2 * x) - tau * (m3 - n3 * x + n4)
    part = lin
    np.subtract(n14[0], m23[0], out=part[0])
    part[0] += nx[0]
    np.subtract(m23[1], nx[1], out=part[1])
    part[1] += n14[1]
    part *= weights
    return loss, np.subtract(part[0], part[1], out=w.out)


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
        tau = np.tile(quantile_fractions(self.cfg.n_quantiles), self.cfg.n_critics)
        self.tau_weights = np.stack([1.0 - tau, tau])
        self.loss_work = LossWorkspace()

    def compute_target(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        """Pooled, sorted, truncated target quantiles y of shape (B, kept), with
        kept >= n_critics. A per-row shift, a scale by gamma >= 0 and an offset
        by r keep each row sorted under rounding, as the loss requires."""
        cfg = self.cfg
        a_next, logp_next, _ = self.rsample(batch["s_next"])
        x = np.concatenate([batch["s_next"], a_next], axis=1)
        pooled = np.concatenate([tc.forward_np(x) for tc in self.target_critics], axis=1)
        pooled.sort(axis=1)
        kept = pooled[:, :pooled.shape[1] - cfg.n_drop_per_critic * cfg.n_critics]
        shifted = kept - self.alpha * logp_next[:, None]
        return batch["r"][:, None] + cfg.gamma * shifted

    def critic_losses(self, qs: list[np.ndarray], y: np.ndarray):
        """Summed over the critics, each critic's mean quantile Huber loss
        against the shared targets, from one call over all their quantiles."""
        n_q = self.cfg.n_quantiles
        total, slope = truncated_quantile_loss(np.concatenate(qs, axis=1), y,
                                               self.tau_weights, self.loss_work)
        count = y.size * n_q        # the terms of one critic's mean
        return total / count, [slope[:, i * n_q:(i + 1) * n_q] * (1.0 / count)
                               for i in range(len(qs))]

    def actor_value(self, qs: list[np.ndarray], g: np.ndarray):
        """The mean over all critics of each critic's mean quantile."""
        n, n_q = len(qs), self.cfg.n_quantiles
        value = reduce(operator.add, [q.mean(axis=1) for q in qs]) * (1.0 / n)
        return value, [np.repeat((g * (1.0 / n) / n_q)[:, None], n_q, axis=1)] * n
