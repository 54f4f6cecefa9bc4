"""The eight trainers and their configuration registry."""

from __future__ import annotations

from ..envs.core import ClimateEnv
from .base import OffPolicyTrainer, Trainer
from .config import (ALGORITHM_TAGS, CONFIG_CLASSES, TUNABLE_FIELDS,
                     BaseConfig, DdpgConfig, DpgConfig, PpoConfig, ReinforceConfig,
                     SacConfig, Td3Config, TqcConfig, TrpoConfig, config_repr,
                     make_config)
from .deterministic import DdpgTrainer, DpgTrainer, Td3Trainer
from .onpolicy import OnPolicyTrainer, PpoTrainer, ReinforceTrainer, TrpoTrainer
from .sac import SacTrainer
from .tqc import TqcTrainer

TRAINER_CLASSES = {
    "reinforce": ReinforceTrainer,
    "dpg": DpgTrainer,
    "ddpg": DdpgTrainer,
    "td3": Td3Trainer,
    "trpo": TrpoTrainer,
    "ppo": PpoTrainer,
    "sac": SacTrainer,
    "tqc": TqcTrainer,
}


def make_trainer(algorithm: str, env: ClimateEnv, cfg: BaseConfig, seed: int,
                 experiment_id: str = "adhoc") -> Trainer:
    if algorithm not in TRAINER_CLASSES:
        raise ValueError(f"unknown algorithm tag {algorithm!r}")
    return TRAINER_CLASSES[algorithm](env, cfg, seed, experiment_id)


__all__ = [
    "ALGORITHM_TAGS", "TUNABLE_FIELDS", "CONFIG_CLASSES",
    "TRAINER_CLASSES", "BaseConfig", "ReinforceConfig", "DpgConfig", "DdpgConfig",
    "Td3Config", "PpoConfig", "TrpoConfig", "SacConfig", "TqcConfig", "make_config",
    "make_trainer", "config_repr", "Trainer", "OffPolicyTrainer", "OnPolicyTrainer",
    "ReinforceTrainer", "DpgTrainer", "DdpgTrainer", "Td3Trainer", "TrpoTrainer",
    "PpoTrainer", "SacTrainer", "TqcTrainer",
]
