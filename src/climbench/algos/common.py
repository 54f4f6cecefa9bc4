"""Shared pieces for the eight trainers: policies, critics, seed streams."""

from __future__ import annotations

import numpy as np

from ..envs.core import (BoxSpace, STREAM_BUFFER, STREAM_EXPLORE, STREAM_INIT,
                         STREAM_SHUFFLE, rng_stream)
from ..nn import Head, Mlp, Tensor

__all__ = ["SeedStreams", "DeterministicPolicy", "GaussianPolicy",
           "SquashedGaussianPolicy", "QNet", "LOG_2PI", "hidden_layers"]

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
    """tanh-squashed actor emitting actions inside the env box."""

    def __init__(self, obs_dim: int, action_space: BoxSpace, layer_size: int,
                 rng: np.random.Generator):
        head = Head("tanh_scaled", low=action_space.low, high=action_space.high)
        self.net = Mlp(hidden_layers(obs_dim, layer_size, action_space.dim),
                       head=head, rng=rng, final_scale=1e-2)
        self.action_space = action_space

    def act_np(self, obs: np.ndarray) -> np.ndarray:
        return self.net.forward_np(obs)


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
                       head=Head("gaussian"), rng=rng, final_scale=1e-2)
        self.act_dim = act_dim
        self.action_space = action_space
        self.center = (action_space.high + action_space.low) / 2.0
        self.half = (action_space.high - action_space.low) / 2.0

    def std_np(self) -> np.ndarray:
        return np.exp(self.net.log_std)

    def mean_np(self, obs: np.ndarray) -> np.ndarray:
        return self.net.forward_np(obs)

    def to_env(self, raw: np.ndarray) -> np.ndarray:
        return self.action_space.clip(self.center + self.half * raw)

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

    def log_prob_tensor(self, means: np.ndarray, kept: list, actions: np.ndarray):
        """log pi(actions) over fresh tape leaves for ``forward``'s means (its layer
        inputs ``kept``) and the log-std, and the function that, after the loss's
        backward pass, writes the gradient reaching them into a ``flat`` vector."""
        mean = Tensor(means, requires_grad=True)
        log_std = Tensor(self.net.log_std, requires_grad=True)
        inv_std = (-log_std).exp()
        z = (Tensor(actions) - mean) * inv_std
        per_dim = z * z * (-0.5) - log_std - 0.5 * LOG_2PI

        def write_grad(grad: np.ndarray) -> None:
            self.net.backward(kept, mean.grad, grad)
            grad[-self.act_dim:] = log_std.grad

        return per_dim.sum(axis=1), write_grad

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
                       head=Head("gaussian"), rng=rng, final_scale=1e-2)
        self.action_space = action_space
        self.center = (action_space.high + action_space.low) / 2.0
        self.half = (action_space.high - action_space.low) / 2.0

    def sample_np(self, obs: np.ndarray, rng: np.random.Generator | None = None):
        """An action in the box: a sample, or without ``rng`` the mean's image."""
        u = self.net.forward_np(obs)
        if rng is not None:
            u = u + np.exp(self.net.log_std) * rng.normal(size=u.shape)
        return self.center + self.half * np.tanh(u)

    def rsample(self, obs: np.ndarray, xi: np.ndarray):
        """Reparameterized sample at noise ``xi``, for the actor step and the
        critic targets: (action, log_prob, what ``rsample_backward`` needs)."""
        mean, kept = self.net.forward(obs)
        log_std = self.net.log_std
        std = np.exp(log_std)
        t = np.tanh(mean + std * xi)
        action = t * self.half + self.center
        correction = (t * t * (-1.0) + 1.0) * self.half + 1e-6
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
        g_per_dim = np.repeat(g_logp[:, None], t.shape[1], axis=1)
        # -log(correction), correction = (t*t*(-1) + 1) * half + 1e-6
        g_t = (-g_per_dim / correction * self.half * (-1.0)) * t
        g_t += g_t                      # one term per factor of t*t
        g_t += g_action * self.half     # action = t * half + center
        g_u = g_t * (1.0 - t * t)
        self.net.backward(kept, g_u, grad)
        grad[-t.shape[1]:] = (-g_per_dim).sum(axis=0) + (g_u * xi).sum(axis=0) * std


class QNet:
    """State-action value network (scalar or quantile outputs)."""

    def __init__(self, obs_dim: int, act_dim: int, layer_size: int,
                 rng: np.random.Generator, out_dim: int = 1):
        self.net = Mlp(hidden_layers(obs_dim + act_dim, layer_size, out_dim), rng=rng)

    def q_np(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.net.forward_np(np.concatenate([s, a], axis=-1))
