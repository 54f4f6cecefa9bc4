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

TRAINER_CLASSES = {cls.algorithm: cls for cls in (
    ReinforceTrainer, DpgTrainer, DdpgTrainer, Td3Trainer, TrpoTrainer, PpoTrainer,
    SacTrainer, TqcTrainer)}


def make_trainer(env: ClimateEnv, cfg: BaseConfig, seed: int,
                 experiment_id: str = "adhoc") -> Trainer:
    """The trainer of the algorithm ``cfg`` belongs to."""
    return TRAINER_CLASSES[cfg.algorithm](env, cfg, seed, experiment_id)


__all__ = [
    "ALGORITHM_TAGS", "TUNABLE_FIELDS", "CONFIG_CLASSES",
    "TRAINER_CLASSES", "BaseConfig", "ReinforceConfig", "DpgConfig", "DdpgConfig",
    "Td3Config", "PpoConfig", "TrpoConfig", "SacConfig", "TqcConfig", "make_config",
    "make_trainer", "config_repr", "Trainer", "OffPolicyTrainer", "OnPolicyTrainer",
    "ReinforceTrainer", "DpgTrainer", "DdpgTrainer", "Td3Trainer", "TrpoTrainer",
    "PpoTrainer", "SacTrainer", "TqcTrainer",
]
