"""Per-algorithm configuration dataclasses.

Each config carries exactly the tunable hyperparameters of its algorithm
(``TUNABLE_FIELDS``) plus shared run-level fields (discount, step budget) and
a few fixed design constants. Fields marked inert are accepted for config
parity but unused by the update rule. ``make_config`` builds one through
``configio.build_config``, so unknown keys, malformed values and values
outside a field's range (``BaseConfig.__post_init__``) raise ``ConfigError``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from ..configio import build_config

__all__ = ["ALGORITHM_TAGS", "TUNABLE_FIELDS", "BaseConfig",
           "ReinforceConfig", "DpgConfig", "DdpgConfig", "Td3Config", "PpoConfig",
           "TrpoConfig", "SacConfig", "TqcConfig", "CONFIG_CLASSES", "make_config",
           "config_repr"]

TUNABLE_FIELDS: dict[str, tuple[str, ...]] = {
    "reinforce": ("learning_rate", "actor_critic_layer_size"),
    "ddpg": ("learning_rate", "tau", "batch_size", "exploration_noise",
             "policy_frequency", "noise_clip", "actor_critic_layer_size"),
    "dpg": ("learning_rate", "exploration_noise", "policy_frequency",
            "actor_critic_layer_size"),
    "td3": ("learning_rate", "tau", "batch_size", "policy_noise",
            "exploration_noise", "policy_frequency", "noise_clip",
            "actor_critic_layer_size"),
    "ppo": ("learning_rate", "num_minibatches", "update_epochs", "clip_coef",
            "max_grad_norm", "actor_critic_layer_size"),
    "trpo": ("learning_rate", "num_minibatches", "update_epochs", "clip_coef",
             "max_grad_norm", "actor_critic_layer_size"),
    "sac": ("tau", "batch_size", "policy_lr", "q_lr", "policy_frequency",
            "target_network_frequency", "noise_clip", "alpha",
            "actor_critic_layer_size"),
    "tqc": ("tau", "batch_size", "n_quantiles", "n_critics", "actor_adam_lr",
            "critic_adam_lr", "alpha_adam_lr", "policy_frequency",
            "target_network_frequency", "actor_critic_layer_size"),
}

# Range rules by field name, for the fields each config has: rates and the
# entropy and trust-region scales are positive, noise scales, clip bounds,
# loss weights and step offsets are non-negative, discount and blend factors
# lie in [0, 1], and sizes and counts are at least 1. Every comparison is
# false for NaN, so NaN fails each rule.
_POSITIVE = ("learning_rate", "policy_lr", "q_lr", "actor_adam_lr", "critic_adam_lr",
             "alpha_adam_lr", "alpha", "kl_limit")
_NON_NEGATIVE = ("exploration_noise", "policy_noise", "noise_clip", "clip_coef",
                 "max_grad_norm", "vf_coef", "cg_damping", "n_drop_per_critic",
                 "learning_starts")
_UNIT_INTERVAL = ("gamma", "tau", "gae_lambda")
_COUNTS = ("total_timesteps", "actor_critic_layer_size", "batch_size", "buffer_size",
           "num_minibatches", "update_epochs", "policy_frequency",
           "target_network_frequency", "n_quantiles", "n_critics", "cg_iterations",
           "backtrack_steps")


@dataclass
class BaseConfig:
    algorithm: ClassVar[str] = ""
    gamma: float = 0.99
    total_timesteps: int = 60_000
    actor_critic_layer_size: int = 64

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _POSITIVE and not value > 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")
            if f.name in _NON_NEGATIVE and not value >= 0:
                raise ValueError(f"{f.name} must be non-negative, got {value!r}")
            if f.name in _UNIT_INTERVAL and not 0 <= value <= 1:
                raise ValueError(f"{f.name} must be in [0, 1], got {value!r}")
            if f.name in _COUNTS and not value >= 1:
                raise ValueError(f"{f.name} must be at least 1, got {value!r}")


@dataclass
class ReinforceConfig(BaseConfig):
    algorithm: ClassVar[str] = "reinforce"
    learning_rate: float = 1e-3


@dataclass
class DpgConfig(BaseConfig):
    algorithm: ClassVar[str] = "dpg"
    learning_rate: float = 1e-3
    exploration_noise: float = 0.1
    policy_frequency: int = 1


@dataclass
class DdpgConfig(BaseConfig):
    algorithm: ClassVar[str] = "ddpg"
    learning_rate: float = 1e-3
    tau: float = 0.005
    batch_size: int = 64
    exploration_noise: float = 0.1
    policy_frequency: int = 1
    noise_clip: float = 0.5        # inert: no target smoothing in this update rule
    buffer_size: int = 100_000
    learning_starts: int = 1000


@dataclass
class Td3Config(BaseConfig):
    algorithm: ClassVar[str] = "td3"
    learning_rate: float = 1e-3
    tau: float = 0.005
    batch_size: int = 64
    policy_noise: float = 0.2
    exploration_noise: float = 0.1
    policy_frequency: int = 2
    noise_clip: float = 0.5
    buffer_size: int = 100_000
    learning_starts: int = 1000


@dataclass
class PpoConfig(BaseConfig):
    algorithm: ClassVar[str] = "ppo"
    learning_rate: float = 3e-4
    num_minibatches: int = 4
    update_epochs: int = 10
    clip_coef: float = 0.2
    max_grad_norm: float = 0.5
    gae_lambda: float = 0.95
    vf_coef: float = 0.5           # c1
    kl_limit: float = 0.02         # delta


@dataclass
class TrpoConfig(BaseConfig):
    algorithm: ClassVar[str] = "trpo"
    learning_rate: float = 1e-3    # value-net Adam rate
    num_minibatches: int = 4
    update_epochs: int = 10
    clip_coef: float = 0.2         # inert: the surrogate here is unclipped
    max_grad_norm: float = 0.5     # applies to the value-net gradient step
    gae_lambda: float = 0.95
    kl_limit: float = 0.02
    cg_iterations: int = 10
    cg_damping: float = 0.1
    backtrack_steps: int = 10


@dataclass
class SacConfig(BaseConfig):
    algorithm: ClassVar[str] = "sac"
    tau: float = 0.005
    batch_size: int = 64
    policy_lr: float = 1e-3
    q_lr: float = 1e-3
    policy_frequency: int = 2
    target_network_frequency: int = 1
    noise_clip: float = 0.5        # inert: no target smoothing in this update rule
    alpha: float = 0.2
    buffer_size: int = 100_000
    learning_starts: int = 1000


@dataclass
class TqcConfig(BaseConfig):
    algorithm: ClassVar[str] = "tqc"
    tau: float = 0.005
    batch_size: int = 64   # set when a pairwise quantile loss dominated update cost
    n_quantiles: int = 25
    n_critics: int = 2
    actor_adam_lr: float = 1e-3
    critic_adam_lr: float = 1e-3
    alpha_adam_lr: float = 3e-4
    policy_frequency: int = 2
    target_network_frequency: int = 1
    n_drop_per_critic: int = 2
    alpha: float = 0.2
    buffer_size: int = 100_000
    learning_starts: int = 1000

    def __post_init__(self):
        super().__post_init__()
        # each critic keeps a quantile, so no target set is empty
        if not self.n_drop_per_critic < self.n_quantiles:
            raise ValueError(f"n_drop_per_critic must be below n_quantiles, got "
                             f"{self.n_drop_per_critic!r} >= {self.n_quantiles!r}")


# Each config class under its own tag; this order is ALGORITHM_TAGS'.
CONFIG_CLASSES = {cls.algorithm: cls for cls in (
    ReinforceConfig, DpgConfig, DdpgConfig, Td3Config, TrpoConfig, PpoConfig,
    SacConfig, TqcConfig)}
ALGORITHM_TAGS = tuple(CONFIG_CLASSES)


def make_config(algorithm: str, /, **overrides) -> BaseConfig:
    if algorithm not in CONFIG_CLASSES:
        raise ValueError(f"unknown algorithm tag {algorithm!r}")
    return build_config(CONFIG_CLASSES[algorithm], overrides)


def config_repr(cfg: BaseConfig) -> str:
    """Canonical text form used for config digests."""
    pairs = sorted((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    body = ",".join(f"{k}={v!r}" for k, v in pairs)
    return f"{cfg.algorithm}({body})"
