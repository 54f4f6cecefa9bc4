"""Radiative-convective single-column environment.

A 17-level column driven by a grey-gas longwave scheme and a hard convective
adjustment. The agent's two actions are the uniform per-layer longwave
emissivity (0..1) and the critical lapse rate (5.5..9.8 K/km). Shortwave is
absorbed entirely at the surface through a transparent atmosphere. The
reward is minus the mean squared gap between the 17 layer temperatures and
the observed profile, a constant of the task: the international standard
atmosphere on the pressure levels. Each step reports only its outgoing
longwave radiation in ``info``.

Discretization: levels are layer centers; interfaces sit at midpoints between
neighbouring levels, with the bottom interface half a spacing below the lowest
level and the top interface at 0 hPa. Layer mass weights are interface
pressure differences, and the surface slab participates in the convective
energy bookkeeping with the equivalent weight C_s * g / (cp * 100) hPa. The
grid and the physical constants are fixed, so these weights, and the log
pressure ratios of the hydrostatic heights, are computed once, at import.

The per-step energy budget is exact by construction: summed layer heating
equals (surface emission - OLR - back radiation), so column + surface enthalpy
changes by (absorbed shortwave - OLR) * dt each radiation substep, and the
convective adjustment conserves that enthalpy.

The hard adjustment (Manabe & Strickler 1964) is solved directly. With the
dry static temperature s = T + gamma * z over (surface, levels), a column is
stable when s does not decrease upwards, and the adjusted column at fixed
heights is the mass-weighted isotonic regression of s: one
pool-adjacent-violators pass. Heights depend on the temperatures, so passes
repeat with recomputed heights until no adjacent pair is super-critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoxSpace, ClimateEnv

__all__ = [
    "PRESSURE_LEVELS_HPA", "LAYER_DP_HPA", "OBSERVED_PROFILE", "SIGMA", "CP", "G",
    "R_GAS", "RcePhysicsParams", "AtmosphericColumn", "RceEnv", "grey_longwave_step",
    "convective_adjustment", "column_heights", "export_profile_with_simulated",
    "standard_atmosphere_temperature", "ColumnStateError",
]

# 1000..100 hPa in 60 hPa steps, then a refined 10 hPa top level.
PRESSURE_LEVELS_HPA = np.array(
    [1000., 940., 880., 820., 760., 700., 640., 580., 520., 460.,
     400., 340., 280., 220., 160., 100., 10.])
PRESSURE_LEVELS_HPA.flags.writeable = False

N_LEVELS = 17

SIGMA = 5.670374419e-8   # Stefan-Boltzmann, W/m^2/K^4
CP = 1004.0              # J/kg/K
G = 9.81                 # m/s^2
R_GAS = 287.0            # J/kg/K, dry air

TEMPERATURE_FLOOR = 100.0
TEMPERATURE_CEILING = 400.0

# Height passes the adjustment may take. Measured: columns along env
# trajectories settle in at most 5 passes, random 150-380 K columns in at most 8.
MAX_HEIGHT_PASSES = 100

# An adjacent pair counts as super-critical when its dry static temperatures
# s = T + gamma * z fall upwards by more than this (K).
LAPSE_TOLERANCE_K = 1e-12


class ColumnStateError(ValueError):
    """The column left the states its physics is defined for: a temperature
    non-finite or outside (100, 400) K, or an adjustment that did not settle."""


# -- the grid's geometry -----------------------------------------------------------

_IFACE = np.concatenate([
    [PRESSURE_LEVELS_HPA[0] + (PRESSURE_LEVELS_HPA[0] - PRESSURE_LEVELS_HPA[1]) / 2.0],
    (PRESSURE_LEVELS_HPA[:-1] + PRESSURE_LEVELS_HPA[1:]) / 2.0, [0.0]])
LAYER_DP_HPA = _IFACE[:-1] - _IFACE[1:]
LAYER_DP_HPA.flags.writeable = False
_LAYER_DP = tuple(LAYER_DP_HPA.tolist())
_CP_DP = tuple((CP * LAYER_DP_HPA * 100.0).tolist())   # J/kg/K * Pa
_R_OVER_G = R_GAS / G                                   # m/K
# ln(bottom interface / level) and ln(bottom interface / top interface) of
# every layer; the top layer's span is 0, as no height above it is read
_LOG_TO_CENTRE = tuple(math.log(bottom / level)
                       for bottom, level in zip(_IFACE, PRESSURE_LEVELS_HPA))
_LOG_ACROSS = tuple(math.log(bottom / top)
                    for bottom, top in zip(_IFACE, _IFACE[1:-1])) + (0.0,)


@dataclass(frozen=True)
class RcePhysicsParams:
    """The task's settable parameters. The grid and the physical constants are
    the module's; ``pressure_levels``, ``cp`` and ``g`` read them for callers
    that take them from the params, such as the benchmark's enthalpy audit."""

    insolation: float = 120.0          # S0/4 of a dim sun: keeps the whole
                                       # action box inside (100, 400) K
    albedo: float = 0.3
    dt: float = 86400.0                # seconds per env step
    surface_heat_capacity: float = 4.2e6   # 1 m water-equivalent slab, J/m^2/K
    isothermal_init: float = 285.0     # K
    max_steps: int = 500

    pressure_levels = PRESSURE_LEVELS_HPA
    cp = CP
    g = G

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def surface_weight_hpa(self) -> float:
        """Surface slab expressed as an equivalent pressure thickness."""
        return self.surface_heat_capacity * G / (CP * 100.0)

    @property
    def absorbed_shortwave(self) -> float:
        return (1.0 - self.albedo) * self.insolation


@dataclass
class AtmosphericColumn:
    """17 layer temperatures plus the surface slab."""

    temperatures: np.ndarray
    surface_temperature: float
    params: RcePhysicsParams

    def __post_init__(self):
        self.temperatures = np.asarray(self.temperatures, dtype=np.float64)
        if self.temperatures.size != N_LEVELS:
            raise ValueError(f"need exactly {N_LEVELS} temperatures")

    def validate(self) -> None:
        temps = self.temperatures.tolist()
        temps.append(self.surface_temperature)
        # NaN fails every comparison, so this one pass passes only good columns.
        if all(TEMPERATURE_FLOOR < t < TEMPERATURE_CEILING for t in temps):
            return
        temps = np.array(temps)
        if not np.all(np.isfinite(temps)):
            raise ColumnStateError("non-finite temperature in column")
        raise ColumnStateError(
            f"temperature outside ({TEMPERATURE_FLOOR}, {TEMPERATURE_CEILING}) K: "
            f"range [{temps.min():.2f}, {temps.max():.2f}]")

    def copy(self) -> "AtmosphericColumn":
        return AtmosphericColumn(self.temperatures.copy(),
                                 self.surface_temperature, self.params)


# -- radiation ------------------------------------------------------------------


def grey_longwave_step(column: AtmosphericColumn, emissivity: float):
    """Grey longwave heating and the fluxes a step needs.

    Upward flux starts at sigma*Ts^4; every layer absorbs the fraction
    ``emissivity`` of incident longwave and emits emissivity*sigma*T^4 from
    both faces. Returns the per-layer heating rates (K/s), the outgoing
    longwave radiation (W/m^2) and the surface's net flux (W/m^2): absorbed
    shortwave plus back radiation less its own emission.
    """
    if not 0.0 <= emissivity <= 1.0:
        raise ValueError("emissivity must be in [0, 1]")
    eps = emissivity
    keep = 1.0 - eps
    # numpy's power does not round like libm's pow, so T^4 stays one array
    # expression; the recurrences and heating run over Python floats, whose
    # + - * / round exactly as numpy's elementwise ones do.
    emit = (eps * SIGMA * column.temperatures ** 4).tolist()
    flux = float(SIGMA * column.surface_temperature ** 4)
    up = [flux]
    for e in emit:
        flux = flux * keep + e
        up.append(flux)
    flux = 0.0
    down = [flux]
    for e in reversed(emit):
        flux = flux * keep + e
        down.append(flux)
    down.reverse()
    heating = np.array([(eps * (u + d) - 2.0 * e) * G / cp_dp for u, d, e, cp_dp
                        in zip(up, down[1:], emit, _CP_DP)])
    return heating, up[-1], column.params.absorbed_shortwave + down[0] - up[0]


# -- geometry and convection -----------------------------------------------------


def _static_temperatures(temps: list[float], gamma: float
                         ) -> tuple[list[float], list[float], bool]:
    """Heights z (m) of (surface, layer 0, ..., layer 16) at temperatures
    ``temps`` in that order, s = T + gamma * z, and whether s falls upwards
    across any adjacent pair by more than ``LAPSE_TOLERANCE_K``."""
    z_bot = 0.0
    heights = [z_bot]
    s = [temps[0] + gamma * z_bot]
    unstable = False
    for t_i, to_centre, across in zip(temps[1:], _LOG_TO_CENTRE, _LOG_ACROSS):
        scale = _R_OVER_G * t_i
        z = z_bot + scale * to_centre
        z_bot = z_bot + scale * across
        s_i = t_i + gamma * z
        if s[-1] - s_i > LAPSE_TOLERANCE_K:
            unstable = True
        heights.append(z)
        s.append(s_i)
    return heights, s, unstable


def column_heights(column: AtmosphericColumn) -> np.ndarray:
    """Hydrostatic heights of the layer centers above the surface (m).

    dz = -dp / (rho g) with rho = p / (R T), integrated interface to interface
    using each layer's current temperature.
    """
    heights, _, _ = _static_temperatures([0.0] + column.temperatures.tolist(), 0.0)
    return np.array(heights[1:])


def _pool_adjacent_violators(values: list[float],
                             weights: tuple[float, ...]) -> list[tuple[float, float, int]]:
    """Weighted least-squares non-decreasing fit of ``values``, as blocks.

    Returns (sum of weight * value, sum of weight, size) for each run of
    adjacent points that share one fitted value, bottom first.
    """
    blocks: list[tuple[float, float, int]] = []
    for value, weight in zip(values, weights):
        total, mass, size = weight * value, weight, 1
        while blocks and blocks[-1][0] / blocks[-1][1] > total / mass:
            below_total, below_mass, below_size = blocks.pop()
            total += below_total
            mass += below_mass
            size += below_size
        blocks.append((total, mass, size))
    return blocks


def convective_adjustment(column: AtmosphericColumn,
                          critical_lapse: float) -> AtmosphericColumn:
    """Hard convective adjustment to the critical lapse rate (K/km).

    Over (surface, layer 0, ..., layer 16), with the surface at z = 0 and its
    coupling weight, s = T + gamma * z must not decrease upwards. Each pass
    pools adjacent violators at the current heights into blocks at their
    mass-weighted mean s, then sets T = mean - gamma * z inside each block,
    which conserves the weighted temperature sum (the column enthalpy). Points
    in no block keep their exact values, so a stable column is returned
    unchanged. Heights depend on the temperatures, so passes repeat until no
    pair is super-critical; ``ColumnStateError`` if that takes more than
    ``MAX_HEIGHT_PASSES``.
    """
    if not 5.5 <= critical_lapse <= 9.8:
        raise ValueError("critical lapse rate outside [5.5, 9.8] K/km")
    p = column.params
    weights = (p.surface_weight_hpa, *_LAYER_DP)
    gamma = critical_lapse / 1000.0  # K/m
    temps = [float(column.surface_temperature)] + column.temperatures.tolist()

    for _ in range(MAX_HEIGHT_PASSES):
        heights, s, unstable = _static_temperatures(temps, gamma)
        if not unstable:
            return AtmosphericColumn(np.array(temps[1:]), temps[0], p)
        start = 0
        for total, mass, size in _pool_adjacent_violators(s, weights):
            end = start + size
            if size > 1:
                mean = total / mass
                temps[start:end] = [mean - gamma * z for z in heights[start:end]]
            start = end
    raise ColumnStateError(
        f"convective adjustment at {critical_lapse!r} K/km did not settle in "
        f"{MAX_HEIGHT_PASSES} height passes: range [{min(temps):.2f}, {max(temps):.2f}] K")


# -- the observed profile ------------------------------------------------------------

# International-standard-atmosphere constants of the observed profile.
_ISA_T0 = 288.15        # K at the surface
_ISA_P0 = 1013.25       # hPa at the surface
_ISA_LAPSE = 0.0065     # K/m
_ISA_TROPOPAUSE_Z = 11000.0  # m
_ISA_T_STRAT = 216.65   # K, isothermal above the tropopause
_ISA_G = 9.80665
_ISA_R = 287.053


def standard_atmosphere_temperature(pressure_hpa: float) -> float:
    """Temperature of the 6.5 K/km troposphere / isothermal stratosphere profile."""
    exponent = _ISA_R * _ISA_LAPSE / _ISA_G
    z = (_ISA_T0 / _ISA_LAPSE) * (1.0 - (pressure_hpa / _ISA_P0) ** exponent)
    if z >= _ISA_TROPOPAUSE_Z:
        return _ISA_T_STRAT
    return _ISA_T0 - _ISA_LAPSE * z


# the profile the reward scores against: the standard atmosphere on the grid
OBSERVED_PROFILE = np.array([standard_atmosphere_temperature(p)
                             for p in PRESSURE_LEVELS_HPA])
OBSERVED_PROFILE.flags.writeable = False


def export_profile_with_simulated(path, simulated: np.ndarray) -> None:
    """Write pressure_hPa,temperature_K,simulated_K rows, one per level: the
    grid, the observed profile and ``simulated``."""
    simulated = np.asarray(simulated, dtype=np.float64)
    if simulated.size != N_LEVELS:
        raise ValueError("simulated profile must have 17 values")
    lines = ["pressure_hPa,temperature_K,simulated_K"]
    for p, t, s in zip(PRESSURE_LEVELS_HPA, OBSERVED_PROFILE, simulated):
        lines.append(f"{float(p)!r},{float(t)!r},{float(s)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- the environment ---------------------------------------------------------------

OBS_CENTER = 250.0
OBS_SCALE = 150.0


class RceEnv(ClimateEnv):
    """Column model with actions [emissivity, critical lapse rate]."""

    observed = OBSERVED_PROFILE

    def __init__(self, params: RcePhysicsParams | None = None):
        super().__init__()
        self.params = params or RcePhysicsParams()
        self.max_steps = self.params.max_steps
        self.action_space = BoxSpace(low=[0.0, 5.5], high=[1.0, 9.8])
        self.observation_space = BoxSpace(low=[-1.0] * N_LEVELS, high=[1.0] * N_LEVELS)
        self._reset_state()

    def _observe(self) -> np.ndarray:
        return (self.column.temperatures - OBS_CENTER) / OBS_SCALE

    def _reset_state(self) -> np.ndarray:
        self.column = AtmosphericColumn(
            np.full(N_LEVELS, self.params.isothermal_init),
            self.params.isothermal_init, self.params)
        return self._observe()

    def _dynamics(self, action: np.ndarray):
        emissivity, lapse = action.tolist()
        p = self.params
        heating, olr, surface_net = grey_longwave_step(self.column, emissivity)
        self.column.temperatures = self.column.temperatures + heating * p.dt
        self.column.surface_temperature += surface_net * p.dt / p.surface_heat_capacity
        self.column = convective_adjustment(self.column, lapse)
        self.column.validate()
        diffs = self.column.temperatures - self.observed
        reward = -(float((diffs * diffs).sum()) / N_LEVELS)  # np.mean, bit for bit
        return self._observe(), reward, {"olr": olr}
