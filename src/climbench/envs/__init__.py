from .core import (BoxSpace, ClimateEnv, EpisodeOverError, RngStream, StepResult,
                   STREAM_BUFFER, STREAM_EXPLORE, STREAM_INIT,
                   STREAM_SHUFFLE)
from .biascorr import (BIASCORR_VERSIONS, BiasCorrectionEnv, BiasCorrParams,
                       biascorr_reward, update_temperature)
from .rce import (AtmosphericColumn, ColumnStateError, ObservedProfile,
                  PRESSURE_LEVELS_HPA, ProfileFormatError, RceEnv, RcePhysicsParams,
                  column_heights, convective_adjustment, default_observed_profile,
                  export_profile_with_simulated, grey_longwave_step,
                  load_observed_profile, mean_squared_profile_error,
                  save_observed_profile, standard_atmosphere_temperature)

__all__ = [
    "BoxSpace", "ClimateEnv", "EpisodeOverError", "RngStream", "StepResult",
    "STREAM_INIT", "STREAM_EXPLORE", "STREAM_BUFFER", "STREAM_SHUFFLE",
    "BiasCorrectionEnv", "BiasCorrParams", "BIASCORR_VERSIONS", "biascorr_reward",
    "update_temperature", "RceEnv", "RcePhysicsParams", "AtmosphericColumn",
    "ObservedProfile", "PRESSURE_LEVELS_HPA", "ProfileFormatError", "ColumnStateError",
    "column_heights",
    "convective_adjustment", "default_observed_profile", "grey_longwave_step",
    "load_observed_profile", "save_observed_profile", "export_profile_with_simulated",
    "standard_atmosphere_temperature", "mean_squared_profile_error",
]
