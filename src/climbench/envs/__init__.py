from .core import (BoxSpace, ClimateEnv, EpisodeOverError, StepResult, rng_stream,
                   STREAM_BUFFER, STREAM_EXPLORE, STREAM_INIT,
                   STREAM_SHUFFLE)
from .biascorr import (BIASCORR_VERSIONS, BiasCorrectionEnv, BiasCorrParams,
                       biascorr_reward, update_temperature)
from .rce import (AtmosphericColumn, ColumnStateError, PRESSURE_LEVELS_HPA, RceEnv,
                  RcePhysicsParams, column_heights, convective_adjustment,
                  export_profile_with_simulated, grey_longwave_step,
                  standard_atmosphere_temperature)

__all__ = [
    "BoxSpace", "ClimateEnv", "EpisodeOverError", "StepResult", "rng_stream",
    "STREAM_INIT", "STREAM_EXPLORE", "STREAM_BUFFER", "STREAM_SHUFFLE",
    "BiasCorrectionEnv", "BiasCorrParams", "BIASCORR_VERSIONS", "biascorr_reward",
    "update_temperature", "RceEnv", "RcePhysicsParams", "AtmosphericColumn",
    "PRESSURE_LEVELS_HPA", "ColumnStateError", "column_heights", "convective_adjustment",
    "grey_longwave_step", "export_profile_with_simulated",
    "standard_atmosphere_temperature",
]
