"""The closed-form truncated quantile loss as it was before it moved into a
reusable workspace (``climbench.algos.tqc.LossWorkspace``), kept verbatim:
the byte oracle the workspace version must match. It takes each column's
fraction ``tau``, where the trainer's loss takes ``weights``, the stack of
1 - tau and tau (``weights_of``).
"""

import numpy as np


def weights_of(tau: np.ndarray) -> np.ndarray:
    """The (2, columns) ``weights`` of ``truncated_quantile_loss`` for ``tau``."""
    return np.stack([1.0 - tau, tau])


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

