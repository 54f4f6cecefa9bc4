"""Checks of the program's outputs against properties and independent sums.

Nothing here imports climbench. Every expected value is recomputed from the
physics and the rules as the paper states them, so a fault that the program
and its own tests share still shows. Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import configparser
import math

import numpy as np

# Bias correction, paper defaults: observed and physics temperatures, the two
# relaxation coefficients, the normalisation range, the start temperature and
# the episode length.
T_OBSERVED = 321.75
T_PHYSICS = 323.75
RELAX_A = 0.2
RELAX_B = 0.1
NORM_LOW = 310.0
NORM_HIGH = 330.0
T_START = 320.0
BIASCORR_EPISODE = 200

RCE_EPISODE = 500
R_DRY = 287.0           # J/kg/K
GRAVITY = 9.81          # m/s^2
MAX_LAPSE_K_PER_KM = 9.8
TEMPERATURE_RANGE = (100.0, 400.0)

# A convective pair counts as super-critical when its temperature gap exceeds
# the critical gap by more than this (K). The program adjusts to 1e-12 K; the
# heights here are summed in another order, which moves the gap by ~1e-13 K.
LAPSE_SLACK_K = 1e-9


# -- bias correction ------------------------------------------------------------


def implicit_update(t: float, u: float) -> float:
    """Solve T' = T + u + a(Tp - T)/D + b(To - T')/D by fixed-point iteration.

    The map contracts by b/D = 0.05, so iterating to a fixed point needs no
    algebra shared with the program's closed form.
    """
    d = T_PHYSICS - T_OBSERVED
    base = t + u + RELAX_A * (T_PHYSICS - t) / d
    t_new = t
    for _ in range(200):
        nxt = base + RELAX_B * (T_OBSERVED - t_new) / d
        if abs(nxt - t_new) < 1e-13:
            return nxt
        t_new = nxt
    return t_new


def implicit_residual(t_old: float, u: float, t_new: float) -> float:
    """How far (K) a reported T' is from satisfying the implicit relation."""
    d = T_PHYSICS - T_OBSERVED
    rhs = t_old + u + RELAX_A * (T_PHYSICS - t_old) / d + RELAX_B * (T_OBSERVED - t_new) / d
    return abs(t_new - rhs)


def _step_value(t_pre: float) -> float:
    err = (T_OBSERVED - t_pre) / (NORM_HIGH - NORM_LOW)
    return -(err * err)


def v2_return_interval(steps: int = BIASCORR_EPISODE) -> tuple[float, float]:
    """Bounds on a v2 episode return over every action sequence in [-1, 1].

    The update is increasing in both T and u, so the temperature reachable
    before step k lies between the all -1 and the all +1 trajectories. Each
    step's value is bounded on that interval; v2 delays rewards but flushes
    them at truncation, so the episode total is the sum of the values.
    """
    lo = hi = T_START
    low_sum = high_sum = 0.0
    for _ in range(steps):
        ends = (_step_value(lo), _step_value(hi))
        low_sum += min(ends)
        high_sum += 0.0 if lo <= T_OBSERVED <= hi else max(ends)
        lo, hi = implicit_update(lo, -1.0), implicit_update(hi, 1.0)
    return low_sum, high_sum


def parse_record_body(body: bytes) -> list[tuple[int, float]]:
    out = []
    for line in body.decode("utf-8").splitlines():
        fields = line.split(",")
        out.append((int(fields[3]), float(fields[4])))
    return out


def check_record_entries(name: str, body: bytes, steps: int, episode: int,
                         low: float, high: float) -> list[str]:
    """One entry per episode, finite returns inside [low, high]."""
    problems = []
    try:
        entries = parse_record_body(body)
    except (ValueError, IndexError) as exc:
        return [f"{name}: unreadable record body ({exc})"]
    expected = list(range(episode, steps + 1, episode))
    if [s for s, _ in entries] != expected:
        problems.append(f"{name}: entry steps {[s for s, _ in entries]} != {expected}")
    slack = 1e-9 * max(1.0, abs(low)) if math.isfinite(low) else 0.0
    for step, ret in entries:
        if not math.isfinite(ret) or not low - slack <= ret <= high + slack:
            problems.append(f"{name}: return {ret!r} at step {step} "
                            f"outside [{low!r}, {high!r}]")
    return problems


# -- radiative-convective column --------------------------------------------------


def interface_pressures(levels: np.ndarray) -> np.ndarray:
    """Layer interfaces (hPa): midpoints, half a spacing below the lowest
    level, and 0 hPa at the top."""
    levels = np.asarray(levels, dtype=np.float64)
    inner = 0.5 * (levels[1:] + levels[:-1])
    return np.concatenate(([levels[0] + 0.5 * (levels[0] - levels[1])], inner, [0.0]))


def hydrostatic_heights(levels: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """Heights (m) of the level centres above the surface.

    Hypsometric equation, layer by layer: a layer at temperature T spans
    (R/g) T ln(p_bottom / p_top) metres.
    """
    temps = np.asarray(temps, dtype=np.float64)
    bottoms = interface_pressures(levels)[:-1]
    scale = R_DRY / GRAVITY * temps
    to_centre = scale * np.log(bottoms / levels)
    whole = scale[:-1] * np.log(bottoms[:-1] / bottoms[1:])
    base = np.concatenate(([0.0], np.cumsum(whole)))
    return base + to_centre


def supercritical_pairs(levels, temps, surface_temp, lapse_k_per_km: float) -> list[str]:
    """Adjacent pairs (surface first when given) steeper than the lapse rate."""
    temps = np.asarray(temps, dtype=np.float64)
    z = hydrostatic_heights(levels, temps)
    gamma = lapse_k_per_km / 1000.0
    problems = []
    if surface_temp is not None and surface_temp - temps[0] > gamma * z[0] + LAPSE_SLACK_K:
        problems.append(f"surface pair: {surface_temp - temps[0]!r} K over "
                        f"{z[0]:.1f} m exceeds {lapse_k_per_km} K/km")
    gaps = temps[:-1] - temps[1:]
    allowed = gamma * np.diff(z) + LAPSE_SLACK_K
    for i in np.flatnonzero(gaps > allowed):
        problems.append(f"levels {i},{i + 1}: {gaps[i]!r} K over "
                        f"{z[i + 1] - z[i]:.1f} m exceeds {lapse_k_per_km} K/km")
    return problems


def check_profile_csv(name: str, text: str) -> list[str]:
    """A final simulated profile: temperatures in range, no pair over 9.8 K/km."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "pressure_hPa,temperature_K,simulated_K":
        return [f"{name}: unexpected header"]
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        return [f"{name}: unreadable row ({exc})"]
    if rows.shape != (17, 3):
        return [f"{name}: expected 17 rows of 3 values, got {rows.shape}"]
    levels, sim = rows[:, 0], rows[:, 2]
    lo, hi = TEMPERATURE_RANGE
    problems = [f"{name}: level {i} at {t!r} K outside ({lo}, {hi})"
                for i, t in enumerate(sim) if not lo < t < hi]
    if problems:
        return problems
    return [f"{name}: {p}" for p in
            supercritical_pairs(levels, sim, None, MAX_LAPSE_K_PER_KM)]


def column_enthalpy(levels, temps, surface_temp, cp, g, surface_heat_capacity) -> float:
    """Column plus surface-slab enthalpy (J/m^2)."""
    iface = interface_pressures(levels)
    dp_pa = (iface[:-1] - iface[1:]) * 100.0
    return float(cp / g * np.dot(dp_pa, temps) + surface_heat_capacity * surface_temp)


# -- tuner studies -------------------------------------------------------------------


def check_study(study: dict, fragment_text: str, algorithm: str) -> list[str]:
    """Median pruning, the best trial, the step total and the written fragment."""
    problems = []
    trials = study["trials"]
    budget = study["budget_steps"]
    fractions = sorted({f for t in trials for f, _ in t["checkpoints"]})
    for k, frac in enumerate(fractions):
        at = {t["trial_id"]: v for t in trials for f, v in t["checkpoints"] if f == frac}
        if frac == 1.0 or len(at) < 2:
            continue
        median = float(np.median(list(at.values())))
        for t in trials:
            if t["trial_id"] not in at or t["status"] == "failed":
                continue
            continues = any(f > frac for f, _ in t["checkpoints"])
            below = at[t["trial_id"]] < median
            if below and (continues or t["status"] != "pruned"):
                problems.append(f"trial {t['trial_id']} below the median at {frac} "
                                "was not pruned there")
            if not below and not continues:
                problems.append(f"trial {t['trial_id']} at or above the median at "
                                f"{frac} stopped")
    complete = [t for t in trials if t["status"] == "complete"]
    if not complete:
        return problems + ["no complete trial"]
    best = next((t for t in trials if t["trial_id"] == study["best_trial"]), None)
    if best is None or best["status"] != "complete":
        problems.append(f"best trial {study['best_trial']} is not complete")
    elif best["final_score"] != max(t["final_score"] for t in complete) \
            or study["best_score"] != best["final_score"]:
        problems.append("best trial does not have the top final score")
    if study["total_env_steps"] != sum(t["steps_consumed"] for t in trials):
        problems.append(f"total_env_steps {study['total_env_steps']} != sum of "
                        "steps consumed")
    for t in trials:
        if t["status"] in ("complete", "pruned") and t["checkpoints"]:
            last = t["checkpoints"][-1][0]
            if t["steps_consumed"] != max(1, int(round(last * budget))):
                problems.append(f"trial {t['trial_id']} consumed {t['steps_consumed']} "
                                f"steps but stopped at fraction {last}")
    if best is not None:
        problems.extend(check_fragment(fragment_text, algorithm, best["sampled"]))
    return problems


def check_fragment(text: str, algorithm: str, sampled: dict) -> list[str]:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        section = dict(parser[f"algo.{algorithm}"])
    except (configparser.Error, KeyError) as exc:
        return [f"fragment unreadable: {exc}"]
    if set(section) != set(sampled):
        return [f"fragment keys {sorted(section)} != sampled {sorted(sampled)}"]
    return [f"fragment {key} = {section[key]} != sampled {value!r}"
            for key, value in sampled.items()
            if type(value)(section[key]) != value]


# -- per-step properties, collected in a traced round ---------------------------------

# Largest accepted residual of the implicit bias-correction relation (K).
IMPLICIT_TOL_K = 1e-9
# Largest accepted gap between a v2 episode's delayed and undelayed totals,
# relative to the undelayed total (the two sums group the same values).
V2_FLUSH_TOL = 1e-12
# Largest accepted enthalpy-budget error, relative to the column enthalpy.
# Rounding alone reached 1.1e-14 over 1500 steps of random and corner
# actions, so the bound sits one decade above that.
ENTHALPY_TOL = 1e-13


class StepAudit:
    """Per-step properties of env steps and adjustments.

    The tracer calls ``before_step``/``after_step`` around every env step and
    ``after_adjust`` after every convective adjustment. Each check is made on
    the spot and only the worst value or the first fault is kept, so the
    audit holds no per-step history.
    """

    def __init__(self):
        self.implicit_worst = 0.0
        self.biascorr_steps = 0
        self.v2_worst = 0.0
        self.v2_episodes = 0
        self._v2_sums: dict[int, list[float]] = {}
        self.enthalpy_worst = 0.0
        self.rce_steps = 0
        self.adjustments = 0
        self.adjust_fault: str | None = None

    def before_step(self, env, action):
        if hasattr(env, "t_current"):
            u = float(np.asarray(action, dtype=np.float64).reshape(-1)[0])
            return env.t_current, min(1.0, max(-1.0, u))
        if hasattr(env, "column"):
            p = env.params
            return column_enthalpy(p.pressure_levels, env.column.temperatures,
                                   env.column.surface_temperature, p.cp, p.g,
                                   p.surface_heat_capacity)
        return None

    def after_step(self, env, before, result) -> None:
        if before is None:
            return
        if hasattr(env, "t_current"):
            t_old, u = before
            self.implicit_worst = max(self.implicit_worst, implicit_residual(
                t_old, u, result.info["temperature"]))
            self.biascorr_steps += 1
            if env.version == "v2":
                sums = self._v2_sums.setdefault(id(env), [0.0, 0.0])
                sums[0] += result.reward
                sums[1] += result.info["raw_reward"]
                if result.truncated:
                    delayed, raw = self._v2_sums.pop(id(env))
                    self.v2_worst = max(self.v2_worst,
                                        abs(delayed - raw) / max(1.0, abs(raw)))
                    self.v2_episodes += 1
            return
        p = env.params
        h1 = column_enthalpy(p.pressure_levels, env.column.temperatures,
                             env.column.surface_temperature, p.cp, p.g,
                             p.surface_heat_capacity)
        budget = ((1.0 - p.albedo) * p.insolation - float(result.info["olr"])) * p.dt
        self.enthalpy_worst = max(self.enthalpy_worst,
                                  abs((h1 - before) - budget) / abs(before))
        self.rce_steps += 1

    def after_adjust(self, column, critical_lapse: float) -> None:
        self.adjustments += 1
        if self.adjust_fault is None:
            found = supercritical_pairs(column.params.pressure_levels,
                                        column.temperatures,
                                        float(column.surface_temperature),
                                        float(critical_lapse))
            if found:
                self.adjust_fault = f"after adjustment at {critical_lapse!r} K/km: {found[0]}"

    def problems(self) -> list[str]:
        problems = []
        if self.implicit_worst > IMPLICIT_TOL_K:
            problems.append(f"implicit update residual {self.implicit_worst:.3e} K "
                            f"> {IMPLICIT_TOL_K:g} K")
        if self.v2_worst > V2_FLUSH_TOL:
            problems.append(f"v2 delayed total differs from the undelayed total by "
                            f"{self.v2_worst:.3e} relative")
        if self.enthalpy_worst > ENTHALPY_TOL:
            problems.append(f"RCE enthalpy budget error {self.enthalpy_worst:.3e} "
                            f"relative > {ENTHALPY_TOL:g}")
        if self.adjust_fault:
            problems.append(self.adjust_fault)
        return problems
