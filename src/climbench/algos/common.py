"""Shared pieces for the eight trainers: policies, seed streams, net shapes."""

from __future__ import annotations

import numpy as np

from ..envs.core import (BoxSpace, STREAM_BUFFER, STREAM_EXPLORE, STREAM_INIT,
                         STREAM_SHUFFLE, rng_stream)
from ..nn import Mlp

__all__ = ["SeedStreams", "DeterministicPolicy", "GaussianPolicy",
           "SquashedGaussianPolicy", "LOG_2PI", "hidden_layers"]

LOG_2PI = float(np.log(2.0 * np.pi))


class SeedStreams:
    """The independent random streams of one training run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.init = rng_stream(seed, STREAM_INIT)
        self.explore = rng_stream(seed, STREAM_EXPLORE)
        self.buffer = rng_stream(seed, STREAM_BUFFER)
        self.shuffle = rng_stream(seed, STREAM_SHUFFLE)


def hidden_layers(in_dim: int, layer_size: int, out_dim: int) -> list[int]:
    # Two hidden layers of the shared width knob.
    return [in_dim, layer_size, layer_size, out_dim]


class DeterministicPolicy:
    """Actor whose net's output u maps into the env box as
    tanh(u) * half + center."""

    def __init__(self, obs_dim: int, action_space: BoxSpace, layer_size: int,
                 rng: np.random.Generator):
        self.net = Mlp(hidden_layers(obs_dim, layer_size, action_space.dim),
                       rng=rng, final_scale=1e-2)
        self.action_space = action_space

    def act_np(self, obs: np.ndarray) -> np.ndarray:
        """The action at one state or a batch of states."""
        box = self.action_space
        return np.tanh(self.net.forward_np(obs)) * box.half + box.center

    def forward(self, obs: np.ndarray):
        """The training pass over a (batch, obs_dim) array: the actions, and
        what ``backward`` needs."""
        u, kept = self.net.forward(obs)
        t = np.tanh(u)
        return t * self.action_space.half + self.action_space.center, (kept, t)

    def backward(self, saved, g_action: np.ndarray, grad: np.ndarray) -> None:
        """Write the gradient of a loss in the actions of ``forward`` into
        ``grad``, a ``flat``-shaped vector."""
        kept, t = saved
        self.net.backward(kept, g_action * self.action_space.half * (1.0 - t * t), grad)


class GaussianPolicy:
    """Diagonal-Gaussian policy: affine mean net, free per-dim log-std.

    The distribution lives in a normalized action space; samples map affinely
    onto the env box (identity for a [-1, 1] box), so a freshly built policy
    explores around the box center whatever the bounds. Log-probs, ratios, and
    KLs are computed on the stored normalized samples.
    """

    def __init__(self, obs_dim: int, action_space: BoxSpace, layer_size: int,
                 rng: np.random.Generator):
        act_dim = action_space.dim
        self.net = Mlp(hidden_layers(obs_dim, layer_size, act_dim),
                       with_log_std=True, rng=rng, final_scale=1e-2)
        self.act_dim = act_dim
        self.action_space = action_space

    def std_np(self) -> np.ndarray:
        return np.exp(self.net.log_std)

    def mean_np(self, obs: np.ndarray) -> np.ndarray:
        return self.net.forward_np(obs)

    def to_env(self, raw: np.ndarray) -> np.ndarray:
        box = self.action_space
        return box.clip(box.center + box.half * raw)

    def sample_np(self, obs: np.ndarray, noise: np.ndarray):
        """One step's sample at ``noise``, that step's row of ``std_np()`` times
        standard-normal draws: (env action, raw action, raw mean). Its log-prob
        is ``log_prob_np`` of the raw mean and action, at the same log-std."""
        mean = self.net.forward_np(obs)
        raw = mean + noise
        return self.to_env(raw), raw, mean

    def log_prob_np(self, means: np.ndarray, actions: np.ndarray) -> np.ndarray:
        std = self.std_np()
        z = (actions - means) / std
        return (-0.5 * z * z - np.log(std) - 0.5 * LOG_2PI).sum(axis=1)

    def log_prob(self, means: np.ndarray, kept: list, actions: np.ndarray):
        """log pi(actions) for the means and layer inputs ``kept`` that
        ``forward`` returned, for a loss's gradient: (log-probs, what
        ``log_prob_backward`` needs). The bytes differ from ``log_prob_np``'s,
        which divides by the std where this multiplies by its inverse."""
        inv_std = np.exp(-self.net.log_std)
        diff = actions - means
        z = diff * inv_std
        per_dim = z * z * (-0.5) - self.net.log_std - 0.5 * LOG_2PI
        return per_dim.sum(axis=1), (kept, inv_std, diff, z)

    def log_prob_backward(self, saved, g_logp: np.ndarray, grad: np.ndarray) -> None:
        """Write the gradient of a loss in the log-probs of ``log_prob`` into
        ``grad``, a ``flat``-shaped vector, log-std included.

        Each step repeats the operations, in order, of differentiating
        ``log_prob``'s expression one operation at a time on an autodiff
        tape, so the bytes match the tape's: z takes one term per factor of
        z*z, the log-std its direct term and the one through 1/std.
        """
        kept, inv_std, diff, z = saved
        g_per_dim = np.repeat(g_logp[:, None], self.act_dim, axis=1)
        g_z = g_per_dim * (-0.5) * z
        g_z += g_z
        self.net.backward(kept, -(g_z * inv_std), grad)
        grad[-self.act_dim:] = ((-g_per_dim).sum(axis=0)
                                - (g_z * diff).sum(axis=0) * inv_std)

    def kl_old_new_np(self, old_means: np.ndarray, old_log_std: np.ndarray,
                      new_means: np.ndarray) -> float:
        """Mean analytic KL(old || new) over a batch of states, new = this policy."""
        new_log_std = self.net.log_std
        var_old = np.exp(2.0 * old_log_std)
        var_new = np.exp(2.0 * new_log_std)
        per_dim = (new_log_std - old_log_std
                   + (var_old + (old_means - new_means) ** 2) / (2.0 * var_new) - 0.5)
        return float(per_dim.sum(axis=1).mean())


class SquashedGaussianPolicy:
    """tanh-squashed Gaussian with the change-of-variables log-prob correction."""

    def __init__(self, obs_dim: int, action_space: BoxSpace, layer_size: int,
                 rng: np.random.Generator):
        self.net = Mlp(hidden_layers(obs_dim, layer_size, action_space.dim),
                       with_log_std=True, rng=rng, final_scale=1e-2)
        self.action_space = action_space

    def sample_np(self, obs: np.ndarray, rng: np.random.Generator | None = None):
        """An action in the box: a sample, or without ``rng`` the mean's image."""
        u = self.net.forward_np(obs)
        if rng is not None:
            u = u + np.exp(self.net.log_std) * rng.normal(size=u.shape)
        return self.action_space.center + self.action_space.half * np.tanh(u)

    def rsample(self, obs: np.ndarray, xi: np.ndarray):
        """Reparameterized sample at noise ``xi``, for the actor step and the
        critic targets: (action, log_prob, what ``rsample_backward`` needs)."""
        mean, kept = self.net.forward(obs)
        log_std, box = self.net.log_std, self.action_space
        std = np.exp(log_std)
        t = np.tanh(mean + std * xi)
        action = t * box.half + box.center
        correction = (t * t * (-1.0) + 1.0) * box.half + 1e-6
        per_dim = xi * xi * (-0.5) - log_std - 0.5 * LOG_2PI - np.log(correction)
        return action, per_dim.sum(axis=1), (kept, xi, std, t, correction)

    def rsample_backward(self, saved, g_action: np.ndarray, g_logp: np.ndarray,
                         grad: np.ndarray) -> None:
        """Write the gradient of a loss in the action and log-prob of
        ``rsample`` into ``grad``, a ``flat``-shaped vector, log-std included.

        Each step repeats the operations, in order, of differentiating
        ``rsample``'s expression one operation at a time on the autodiff tape,
        so the bytes match the tape's: into t = tanh(u) flow the two t*t terms
        of the correction first, then the action's term.
        """
        kept, xi, std, t, correction = saved
        half = self.action_space.half
        g_per_dim = np.repeat(g_logp[:, None], t.shape[1], axis=1)
        # -log(correction), correction = (t*t*(-1) + 1) * half + 1e-6
        g_t = (-g_per_dim / correction * half * (-1.0)) * t
        g_t += g_t                      # one term per factor of t*t
        g_t += g_action * half          # action = t * half + center
        g_u = g_t * (1.0 - t * t)
        self.net.backward(kept, g_u, grad)
        grad[-t.shape[1]:] = (-g_per_dim).sum(axis=0) + (g_u * xi).sum(axis=0) * std

