"""Deterministic-actor trainers: DDPG and its two variants, DPG and TD3.

DDPG learns from a replay buffer, bootstraps from slowly blended target
networks, and moves the actor up the gradient of its critic. DPG is DDPG
that learns from each transition as it arrives and has no target networks.
TD3 adds twin critics with a min target, clipped target-policy smoothing,
and delayed actor updates (Fujimoto et al. 2018).
"""

from __future__ import annotations

import numpy as np

from .base import OffPolicyTrainer

__all__ = ["DpgTrainer", "DdpgTrainer", "Td3Trainer"]


class DdpgTrainer(OffPolicyTrainer):
    """Replay buffer + target actor/critic with soft updates."""

    algorithm = "ddpg"
    actor_critics = 1

    def compute_target(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        q_next = self.min_target_q(batch["s_next"],
                                   self.target_actor.act_np(batch["s_next"]))
        return batch["r"] + self.cfg.gamma * q_next

    def actor_value(self, qs: list[np.ndarray], g: np.ndarray):
        """The first critic's value."""
        return qs[0][:, 0], [g[:, None]]


class DpgTrainer(DdpgTrainer):
    """Per-transition TD critic + policy-gradient actor; no target networks."""

    algorithm = "dpg"
    per_transition = True


class Td3Trainer(DdpgTrainer):
    """Twin critics, clipped target-policy smoothing, delayed actor updates."""

    algorithm = "td3"
    n_critics = 2

    def smoothed_target_actions(self, s_next: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        noise = self.streams.explore.normal(0.0, cfg.policy_noise, size=(
            s_next.shape[0], self.env.action_space.dim))
        noise = np.clip(noise, -cfg.noise_clip, cfg.noise_clip)
        return self.env.action_space.clip(self.target_actor.act_np(s_next) + noise)

    def compute_target(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        q_next = self.min_target_q(batch["s_next"],
                                   self.smoothed_target_actions(batch["s_next"]))
        return batch["r"] + self.cfg.gamma * q_next
