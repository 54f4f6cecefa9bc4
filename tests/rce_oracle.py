"""Oracles for one RCE step: the column physics as numpy-scalar code.

These are the radiation, height, adjustment, validation and step functions
the Python-float versions in ``climbench.envs.rce`` replaced, kept as the
reference those must match byte for byte. ``OracleRceEnv`` is an ``RceEnv``
whose steps run entirely on them. The oracles derive the grid's geometry
and the observed profile from the pressure levels themselves.
"""

import math

import numpy as np

from climbench.envs.rce import (CP, G, LAPSE_TOLERANCE_K, MAX_HEIGHT_PASSES, N_LEVELS,
                                PRESSURE_LEVELS_HPA, R_GAS, SIGMA, TEMPERATURE_CEILING,
                                TEMPERATURE_FLOOR, AtmosphericColumn, ColumnStateError,
                                RceEnv, standard_atmosphere_temperature)


def grid_geometry(levels):
    """Layer thicknesses (hPa), and per layer ln(bottom interface / level) and
    ln(bottom / top interface); the top interface at 0 hPa is taken at half
    the top level."""
    iface = np.concatenate([[levels[0] + (levels[0] - levels[1]) / 2.0],
                            (levels[:-1] + levels[1:]) / 2.0, [0.0]])
    top = np.where(iface[1:] > 0, iface[1:], levels / 2.0)
    return (iface[:-1] - iface[1:], [math.log(b / p) for b, p in zip(iface, levels)],
            [math.log(b / t) for b, t in zip(iface, top)])


LAYER_DP, LOG_TO_CENTRE, LOG_ACROSS = grid_geometry(PRESSURE_LEVELS_HPA)
OBSERVED = np.array([standard_atmosphere_temperature(p) for p in PRESSURE_LEVELS_HPA])


def grey_longwave_step(column, emissivity):
    if not 0.0 <= emissivity <= 1.0:
        raise ValueError("emissivity must be in [0, 1]")
    p = column.params
    t = column.temperatures
    eps = emissivity
    emit = eps * SIGMA * t ** 4

    up = np.empty(N_LEVELS + 1)
    up[0] = SIGMA * column.surface_temperature ** 4
    for i in range(N_LEVELS):
        up[i + 1] = up[i] * (1.0 - eps) + emit[i]
    down = np.empty(N_LEVELS + 1)
    down[N_LEVELS] = 0.0
    for i in range(N_LEVELS - 1, -1, -1):
        down[i] = down[i + 1] * (1.0 - eps) + emit[i]

    absorbed = eps * (up[:N_LEVELS] + down[1:]) - 2.0 * emit
    heating = absorbed * G / (CP * LAYER_DP * 100.0)
    surface_net = p.absorbed_shortwave + down[0] - up[0]
    return heating, up[N_LEVELS], surface_net


def heights_from_lists(t):
    r_over_g = R_GAS / G
    z = []
    z_bot = 0.0
    for t_i, to_centre, across in zip(t, LOG_TO_CENTRE, LOG_ACROSS):
        scale = r_over_g * t_i
        z.append(z_bot + scale * to_centre)
        z_bot = z_bot + scale * across
    return z


def pool_adjacent_violators(values, weights):
    blocks = []
    for value, weight in zip(values, weights):
        total, mass, size = weight * value, weight, 1
        while blocks and blocks[-1][0] / blocks[-1][1] > total / mass:
            below_total, below_mass, below_size = blocks.pop()
            total += below_total
            mass += below_mass
            size += below_size
        blocks.append((total, mass, size))
    return blocks


def convective_adjustment(column, critical_lapse):
    if not 5.5 <= critical_lapse <= 9.8:
        raise ValueError("critical lapse rate outside [5.5, 9.8] K/km")
    p = column.params
    weights = [p.surface_heat_capacity * G / (CP * 100.0)] + LAYER_DP.tolist()
    gamma = critical_lapse / 1000.0
    temps = [float(column.surface_temperature)] + column.temperatures.tolist()

    for _ in range(MAX_HEIGHT_PASSES):
        heights = [0.0] + heights_from_lists(temps[1:])
        s = [t + gamma * z for t, z in zip(temps, heights)]
        if not any(lower - upper > LAPSE_TOLERANCE_K for lower, upper in zip(s, s[1:])):
            return AtmosphericColumn(np.array(temps[1:]), temps[0], p)
        start = 0
        for total, mass, size in pool_adjacent_violators(s, weights):
            end = start + size
            if size > 1:
                mean = total / mass
                temps[start:end] = [mean - gamma * z for z in heights[start:end]]
            start = end
    raise ColumnStateError(
        f"convective adjustment at {critical_lapse!r} K/km did not settle in "
        f"{MAX_HEIGHT_PASSES} height passes: range [{min(temps):.2f}, {max(temps):.2f}] K")


def validate(column):
    temps = np.concatenate([column.temperatures, [column.surface_temperature]])
    if not np.all(np.isfinite(temps)):
        raise ColumnStateError("non-finite temperature in column")
    if np.any(temps <= TEMPERATURE_FLOOR) or np.any(temps >= TEMPERATURE_CEILING):
        raise ColumnStateError(
            f"temperature outside ({TEMPERATURE_FLOOR}, {TEMPERATURE_CEILING}) K: "
            f"range [{temps.min():.2f}, {temps.max():.2f}]")


class OracleRceEnv(RceEnv):
    def _dynamics(self, action):
        emissivity, lapse = float(action[0]), float(action[1])
        p = self.params
        heating, olr, surface_net = grey_longwave_step(self.column, emissivity)
        self.column.temperatures = self.column.temperatures + heating * p.dt
        self.column.surface_temperature += surface_net * p.dt / p.surface_heat_capacity
        self.column = convective_adjustment(self.column, lapse)
        validate(self.column)
        diffs = self.column.temperatures - OBSERVED
        reward = -float(np.mean(diffs * diffs))
        return self._observe(), reward, {"olr": olr}
