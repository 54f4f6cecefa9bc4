"""Soft actor-critic: twin critics, squashed-Gaussian actor, tuned entropy.

The targets bootstrap from the current actor's sampled next actions, its
log-probabilities scaled by the entropy coefficient alpha, and the minimum of
two target critics; the actor maximizes that minimum at its reparameterized
sample minus the entropy penalty. The shared core tunes alpha towards an
entropy of -dim(action).
"""

from __future__ import annotations

import numpy as np

from .base import OffPolicyTrainer

__all__ = ["SacTrainer"]


class SacTrainer(OffPolicyTrainer):
    algorithm = "sac"
    stochastic_actor = True
    n_critics = 2
    # The entropy coefficient follows the q-network learning rate.
    lr_fields = ("policy_lr", "q_lr", "q_lr")

    def compute_target(self, batch: dict[str, np.ndarray],
                       alpha: float | None = None) -> np.ndarray:
        alpha = self.alpha if alpha is None else alpha
        a_next, logp_next = self.actor.sample_with_log_prob_np(
            batch["s_next"], self.streams.explore)
        q_next = self.min_target_q(batch["s_next"], a_next)
        return batch["r"] + self.cfg.gamma * (q_next - alpha * logp_next)

    def actor_value(self, qs: list[np.ndarray], g: np.ndarray):
        """The minimum over the critics, taken pairwise in critic order; the
        gradient goes to the smaller of each pair, the first on a tie."""
        value, grads = qs[0], [g[:, None]]
        for q in qs[1:]:
            mask = value <= q
            value = np.where(mask, value, q)
            grads = [d * mask for d in grads] + [g[:, None] * ~mask]
        return value[:, 0], grads
