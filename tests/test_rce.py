"""Column physics: radiation, convective adjustment, the observed profile,
equilibrium shape."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.envs import (AtmosphericColumn, ColumnStateError, PRESSURE_LEVELS_HPA,
                            RceEnv, RcePhysicsParams, column_heights,
                            convective_adjustment, export_profile_with_simulated,
                            grey_longwave_step, standard_atmosphere_temperature)
from climbench.envs import rce
from climbench.envs.rce import N_LEVELS

PARAMS = RcePhysicsParams()


def make_column(temps, ts, params=PARAMS):
    return AtmosphericColumn(np.asarray(temps, dtype=float), float(ts), params)


def weighted_mean(col):
    w = rce.LAYER_DP_HPA
    ws = col.params.surface_weight_hpa
    total = float(np.dot(w, col.temperatures)) + ws * col.surface_temperature
    return total / (float(np.sum(w)) + ws)


# -- radiation -----------------------------------------------------------------


def test_transparent_atmosphere_has_zero_heating():
    col = make_column(np.linspace(280, 200, N_LEVELS), 290.0)
    heating, olr, _ = grey_longwave_step(col, 0.0)
    assert np.array_equal(heating, np.zeros(N_LEVELS))
    assert olr == pytest.approx(rce.SIGMA * 290.0 ** 4)


def test_opaque_isothermal_toa_flux_is_sigma_t4():
    t = 255.0
    col = make_column(np.full(N_LEVELS, t), t)
    heating, olr, _ = grey_longwave_step(col, 1.0)
    # Telescoping oracle: with eps=1 each layer re-emits sigma*T^4, so the TOA
    # flux is the top layer's emission and interior exchanges cancel exactly.
    assert olr == pytest.approx(rce.SIGMA * t ** 4, rel=1e-12)
    assert np.max(np.abs(heating[:-1])) < 1e-12
    assert heating[-1] < 0.0  # the top layer alone cools to space


def test_surface_upward_flux_is_sigma_ts4():
    # A transparent column sends no back radiation, so the surface loses
    # sigma*Ts^4 against the absorbed shortwave, and all of it reaches space.
    col = make_column(np.linspace(280, 180, N_LEVELS), 305.0)
    _, olr, surface_net = grey_longwave_step(col, 0.0)
    upward = rce.SIGMA * 305.0 ** 4
    assert olr == pytest.approx(upward, rel=1e-13)
    assert surface_net == pytest.approx(PARAMS.absorbed_shortwave - upward, rel=1e-13)
    # An opaque column at the surface's temperature sends all of it back.
    col = make_column(np.full(N_LEVELS, 305.0), 305.0)
    _, _, surface_net = grey_longwave_step(col, 1.0)
    assert surface_net == pytest.approx(PARAMS.absorbed_shortwave, rel=1e-13)


def test_all_fluxes_non_negative_random_columns():
    # OLR, and the back radiation the surface's net flux holds
    rng = np.random.default_rng(4)
    for _ in range(200):
        ts = rng.uniform(150, 350)
        col = make_column(rng.uniform(150, 350, N_LEVELS), ts)
        _, olr, surface_net = grey_longwave_step(col, float(rng.uniform(0, 1)))
        assert olr >= 0
        back = surface_net - PARAMS.absorbed_shortwave + rce.SIGMA * ts ** 4
        assert back >= -1e-12 * rce.SIGMA * ts ** 4


def test_energy_budget_exact_over_full_step():
    # Column + surface enthalpy change per env step == (absorbed SW - OLR) * dt.
    env = RceEnv()
    env.reset()
    p = env.params
    c_layer = rce.CP * rce.LAYER_DP_HPA * 100.0 / rce.G
    c_surf = p.surface_heat_capacity
    rng = np.random.default_rng(1)
    for _ in range(50):
        before = float(np.dot(c_layer, env.column.temperatures)) \
            + c_surf * env.column.surface_temperature
        eps = float(rng.uniform(0, 1))
        res = env.step([eps, float(rng.uniform(5.5, 9.8))])
        after = float(np.dot(c_layer, env.column.temperatures)) \
            + c_surf * env.column.surface_temperature
        expected = (p.absorbed_shortwave - res.info["olr"]) * p.dt
        got = after - before
        denom = max(abs(expected), abs(got), 1.0)
        assert abs(got - expected) / denom < 1e-6


def test_black_column_radiative_equilibrium_closed_form():
    # The N-layer black model (e.g. Pierrehumbert 2010, ch. 4): with every
    # emissivity 1 and the shortwave S absorbed at the surface, equilibrium
    # has sigma T^4 = k S in the k-th layer from the top and sigma Ts^4 =
    # (N + 1) S at the surface. There every flux balances: no layer heats,
    # the surface's net flux is zero and OLR equals S.
    params = RcePhysicsParams(insolation=100.0, albedo=0.5)
    s = params.absorbed_shortwave
    assert s == 50.0
    k = np.arange(N_LEVELS, 0, -1)  # layer 0 is the bottom one
    col = make_column((k * s / rce.SIGMA) ** 0.25,
                      ((N_LEVELS + 1) * s / rce.SIGMA) ** 0.25, params)
    assert 100.0 < col.temperatures.min() and col.surface_temperature < 400.0
    heating, olr, surface_net = grey_longwave_step(col, 1.0)
    flux = heating * rce.CP * rce.LAYER_DP_HPA * 100.0 / rce.G  # W/m^2
    assert np.max(np.abs(flux)) < 1e-9
    assert abs(olr - s) < 1e-9
    assert abs(surface_net) < 1e-9


# -- convective adjustment --------------------------------------------------------


def test_stable_column_returned_unchanged():
    # Mild 3 K/km lapse is below every admissible critical value.
    temps = np.array([280.0 - 3e-3 * z for z in np.linspace(0, 16000, N_LEVELS)])
    col = make_column(temps, 280.0)
    out = convective_adjustment(col, 6.5)
    assert np.array_equal(out.temperatures, temps)
    assert out.surface_temperature == 280.0


def test_two_level_pair_closed_form_oracle():
    # One unstable adjacent pair in an otherwise very stable column.
    temps = np.linspace(260, 250, N_LEVELS)  # nearly isothermal: super stable
    temps[7] = 270.0
    temps[8] = 230.0
    col = make_column(temps.copy(), 260.1)  # surface pair kept stable
    gamma = 7.0
    z0 = column_heights(col)  # heights the first sweep operates with
    out = convective_adjustment(col, gamma)
    # Closed form: conserve w7*T7 + w8*T8 while setting the gap to gamma*dz.
    w = rce.LAYER_DP_HPA
    gap = gamma / 1000.0 * (z0[8] - z0[7])
    t7 = (w[7] * temps[7] + w[8] * temps[8] + w[8] * gap) / (w[7] + w[8])
    t8 = t7 - gap
    assert out.temperatures[7] == pytest.approx(t7, abs=1e-12)
    assert out.temperatures[8] == pytest.approx(t8, abs=1e-12)
    before = w[7] * temps[7] + w[8] * temps[8]
    after = w[7] * out.temperatures[7] + w[8] * out.temperatures[8]
    assert after == pytest.approx(before, rel=1e-12)
    untouched = [i for i in range(N_LEVELS) if i not in (7, 8)]
    assert np.array_equal(out.temperatures[untouched], temps[untouched])
    # Under the recomputed heights the pair sits at (or just below) critical.
    z1 = column_heights(out)
    lapse = (out.temperatures[7] - out.temperatures[8]) / (z1[8] - z1[7]) * 1000.0
    assert lapse <= gamma + 1e-9
    assert lapse == pytest.approx(gamma, abs=0.05)


def test_conservation_over_random_unstable_profiles():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        col = make_column(rng.uniform(180, 350, N_LEVELS), rng.uniform(180, 350))
        gamma = float(rng.uniform(5.5, 9.8))
        before = weighted_mean(col)
        out = convective_adjustment(col, gamma)
        after = weighted_mean(out)
        worst = max(worst, abs(after - before) / abs(before))
    assert worst < 1e-10


def test_adjustment_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(100):
        col = make_column(rng.uniform(180, 350, N_LEVELS), rng.uniform(180, 350))
        gamma = float(rng.uniform(5.5, 9.8))
        once = convective_adjustment(col, gamma)
        twice = convective_adjustment(once, gamma)
        assert np.max(np.abs(twice.temperatures - once.temperatures)) < 1e-9
        assert abs(twice.surface_temperature - once.surface_temperature) < 1e-9


def test_post_adjustment_lapse_below_critical_everywhere():
    rng = np.random.default_rng(13)
    for _ in range(200):
        col = make_column(rng.uniform(180, 350, N_LEVELS), rng.uniform(180, 350))
        gamma = float(rng.uniform(5.5, 9.8))
        out = convective_adjustment(col, gamma)
        z = column_heights(out)
        t = out.temperatures
        lapses = (t[:-1] - t[1:]) / (z[1:] - z[:-1]) * 1000.0
        assert np.all(lapses <= gamma + 1e-9)
        surf_lapse = (out.surface_temperature - t[0]) / z[0] * 1000.0
        assert surf_lapse <= gamma + 1e-9


def sweep_oracle(col, critical_lapse):
    """The pairwise sweep the direct solve replaced, with its sweep caps lifted.

    Pairs (layer i, i+1) top-down, then (surface, layer 0), are each set to
    the critical gap at fixed heights, conserving their weighted sum, until a
    sweep changes nothing; heights are then recomputed, until a whole pass at
    new heights changes nothing.
    """
    gamma = critical_lapse / 1000.0
    t = col.temperatures.tolist()
    ts = float(col.surface_temperature)
    w = rce.LAYER_DP_HPA.tolist()
    w_surf = col.params.surface_weight_hpa
    for _outer in range(10_000):
        z = column_heights(make_column(t, ts, col.params)).tolist()
        adjusted_any = False
        for _sweep in range(1_000_000):
            changed = False
            for i in range(N_LEVELS - 2, -1, -1):
                gap = gamma * (z[i + 1] - z[i])
                if t[i] - t[i + 1] > gap + 1e-12:
                    total = w[i] * t[i] + w[i + 1] * t[i + 1]
                    t[i] = (total + w[i + 1] * gap) / (w[i] + w[i + 1])
                    t[i + 1] = t[i] - gap
                    changed = True
            gap = gamma * z[0]
            if ts - t[0] > gap + 1e-12:
                total = w_surf * ts + w[0] * t[0]
                ts = (total + w[0] * gap) / (w_surf + w[0])
                t[0] = ts - gap
                changed = True
            if not changed:
                break
            adjusted_any = True
        else:
            raise AssertionError("sweep oracle did not converge at fixed heights")
        if not adjusted_any:
            return np.array(t), ts
    raise AssertionError("sweep oracle did not converge over height passes")


TEMPERATURE = st.floats(150.0, 380.0)
COLUMNS = st.tuples(st.lists(TEMPERATURE, min_size=N_LEVELS, max_size=N_LEVELS),
                    TEMPERATURE, st.floats(5.5, 9.8))


@given(COLUMNS)
def test_adjustment_matches_uncapped_sweep_oracle(case):
    temps, ts, gamma = case
    col = make_column(temps, ts)
    out = convective_adjustment(col, gamma)
    t_ref, ts_ref = sweep_oracle(col, gamma)
    assert np.max(np.abs(out.temperatures - t_ref)) <= 1e-9
    assert abs(out.surface_temperature - ts_ref) <= 1e-9


def test_adjustment_matches_oracle_along_trajectory():
    # Columns as the env hands them over: after radiation, before adjustment.
    env = RceEnv()
    env.reset()
    p = env.params
    worst = 0.0
    for _ in range(60):
        heating, _, surface_net = grey_longwave_step(env.column, 1.0)
        col = make_column(env.column.temperatures + heating * p.dt,
                          env.column.surface_temperature
                          + surface_net * p.dt / p.surface_heat_capacity)
        out = convective_adjustment(col, 5.5)
        t_ref, ts_ref = sweep_oracle(col, 5.5)
        worst = max(worst, np.max(np.abs(out.temperatures - t_ref)),
                    abs(out.surface_temperature - ts_ref))
        env.step([1.0, 5.5])
    assert worst <= 1e-9


@given(COLUMNS)
def test_adjustment_properties_on_random_columns(case):
    temps, ts, gamma = case
    col = make_column(temps, ts)
    out = convective_adjustment(col, gamma)
    w = rce.LAYER_DP_HPA
    ws = PARAMS.surface_weight_hpa
    before = float(np.dot(w, col.temperatures)) + ws * col.surface_temperature
    after = float(np.dot(w, out.temperatures)) + ws * out.surface_temperature
    assert abs(after - before) <= 1e-12 * abs(before)
    z = column_heights(out)
    slack = 1e-9
    t = out.temperatures
    assert np.all(t[:-1] - t[1:] <= gamma / 1000.0 * (z[1:] - z[:-1]) + slack)
    assert out.surface_temperature - t[0] <= gamma / 1000.0 * z[0] + slack
    again = convective_adjustment(out, gamma)
    assert np.array_equal(again.temperatures, out.temperatures)
    assert again.surface_temperature == out.surface_temperature


def test_unsettled_adjustment_raises_column_state_error(monkeypatch):
    # Random unstable columns need at least two height passes to settle.
    rng = np.random.default_rng(3)
    col = make_column(rng.uniform(180, 350, N_LEVELS), 350.0)
    monkeypatch.setattr(rce, "MAX_HEIGHT_PASSES", 1)
    with pytest.raises(ColumnStateError, match="did not settle"):
        convective_adjustment(col, 6.5)


def test_lapse_rate_out_of_box_rejected():
    col = make_column(np.full(N_LEVELS, 280.0), 280.0)
    with pytest.raises(ValueError):
        convective_adjustment(col, 4.0)


# -- grid geometry ------------------------------------------------------------------


def uncached_heights(temps):
    """The hydrostatic heights with every log taken afresh from the grid."""
    levels = PRESSURE_LEVELS_HPA
    iface = np.concatenate([[levels[0] + (levels[0] - levels[1]) / 2.0],
                            (levels[:-1] + levels[1:]) / 2.0, [0.0]])
    r_over_g = rce.R_GAS / rce.G
    z = []
    z_bot = 0.0
    for i in range(N_LEVELS):
        scale = r_over_g * temps[i]
        z.append(z_bot + scale * math.log(iface[i] / levels[i]))
        top = iface[i + 1] if iface[i + 1] > 0 else levels[i] / 2.0
        z_bot = z_bot + scale * math.log(iface[i] / top)
    return z


def test_cached_geometry_matches_uncached_heights_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(200):
        temps = rng.uniform(150, 380, N_LEVELS)
        got = column_heights(make_column(temps, 280.0)).tolist()
        assert got == uncached_heights(temps.tolist())


def test_geometry_survives_pickling():
    # The tuner ships envs to its workers inside pickled trainers.
    env = RceEnv(RcePhysicsParams(insolation=150.0))
    env.reset()
    env.step([0.7, 6.0])
    clone = pickle.loads(pickle.dumps(env))
    assert clone.params == env.params
    for action in ([0.2, 9.0], [1.0, 5.5]):
        got, want = clone.step(action), env.step(action)
        assert got.observation.tobytes() == want.observation.tobytes()
        assert got.reward == want.reward


def test_params_cannot_change_under_their_geometry():
    params = RcePhysicsParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.g = 9.0
    assert params.pressure_levels is PRESSURE_LEVELS_HPA
    assert (params.cp, params.g) == (rce.CP, rce.G)
    for grid in (PRESSURE_LEVELS_HPA, rce.LAYER_DP_HPA, rce.OBSERVED_PROFILE):
        with pytest.raises(ValueError):
            grid[0] = 990.0
    assert [f.name for f in dataclasses.fields(RcePhysicsParams)] == [
        "insolation", "albedo", "dt", "surface_heat_capacity", "isothermal_init",
        "max_steps"]


# -- environment behaviour --------------------------------------------------------


def test_reset_isothermal_17_levels_idempotent():
    env = RceEnv()
    obs = env.reset()
    assert obs.shape == (17,)
    assert np.all(obs == obs[0])
    assert np.all(env.column.temperatures == env.params.isothermal_init)
    assert env.column.surface_temperature == env.params.isothermal_init
    assert np.array_equal(env.reset(), obs)


def test_reward_zero_iff_profiles_match():
    # Score one step against the very column it produces, then against that
    # column shifted by 0.5 K at every level.
    probe = RceEnv()
    probe.reset()
    probe.step([0.4, 6.5])
    for shift, reward in [(0.0, 0.0), (0.5, -0.25)]:
        env = RceEnv()
        env.observed = probe.column.temperatures + shift
        env.reset()
        assert env.step([0.4, 6.5]).reward == reward


def test_reward_is_negative_mean_squared_level_difference():
    env = RceEnv()
    env.reset()
    res = env.step([0.4, 6.5])
    diffs = env.column.temperatures - env.observed
    assert res.reward == pytest.approx(-float(np.mean(diffs ** 2)), rel=1e-12)
    assert list(res.info) == ["olr"]


def test_threshold_identity_500_steps_at_rms_937():
    assert 500 * 9.37 ** 2 == pytest.approx(43900, rel=0.002)


def test_action_box_corners_stay_inside_temperature_bounds():
    for eps, gam in [(0.0, 5.5), (0.0, 9.8), (1.0, 5.5), (1.0, 9.8)]:
        env = RceEnv()
        env.reset()
        for _ in range(500):
            env.step([eps, gam])  # validate() raises if (100, 400) K is left
        t = env.column.temperatures
        assert t.min() > 100.0 and t.max() < 400.0


def test_runaway_column_raises_column_state_error_at_step_58():
    # Earth's mean insolation with an opaque, stiff column passes 400 K.
    env = RceEnv(RcePhysicsParams(insolation=340.0))
    env.reset()
    for _ in range(57):
        env.step([1.0, 9.8])
    with pytest.raises(ColumnStateError, match="outside"):
        env.step([1.0, 9.8])


def test_fixed_parameters_approach_steady_state():
    env = RceEnv()
    env.reset()
    prev = env.column.temperatures.copy()
    diffs = []
    for _ in range(500):
        env.step([0.5, 6.5])
        cur = env.column.temperatures
        diffs.append(float(np.linalg.norm(cur - prev)))
        prev = cur.copy()
    assert np.mean(diffs[400:450]) < np.mean(diffs[200:250]) < np.mean(diffs[50:100])
    assert diffs[-1] < 0.05


def test_three_regime_structure_with_full_opacity():
    # Convective troposphere at the critical lapse, radiative upper region.
    env = RceEnv(RcePhysicsParams(max_steps=2000))
    env.reset()
    for _ in range(2000):
        env.step([1.0, 6.5])
    z = column_heights(env.column)
    t = env.column.temperatures
    lapses = (t[:-1] - t[1:]) / (z[1:] - z[:-1]) * 1000.0
    at_critical = np.isclose(lapses, 6.5, atol=0.05)
    assert np.all(at_critical[:6])            # deep convective layer
    assert np.any(~at_critical)               # a radiatively controlled top
    assert np.all(lapses[~at_critical] < 6.5)  # sub-critical above the troposphere


def test_greenhouse_monotone_in_emissivity():
    finals = []
    for eps in (0.2, 0.5, 0.9):
        env = RceEnv(RcePhysicsParams(max_steps=900))
        env.reset()
        for _ in range(900):
            env.step([eps, 6.5])
        finals.append(env.column.surface_temperature)
    assert finals[0] < finals[1] < finals[2]


# -- the observed profile ------------------------------------------------------------


def test_default_profile_endpoints():
    observed = RceEnv().observed
    # Test-side recomputation of the analytic profile at the bottom level.
    exponent = 287.053 * 0.0065 / 9.80665
    z0 = (288.15 / 0.0065) * (1.0 - (1000.0 / 1013.25) ** exponent)
    assert observed[0] == pytest.approx(288.15 - 0.0065 * z0, abs=1e-9)
    assert abs(observed[0] - 288.15) < 1.0
    assert observed[-1] == 216.65
    assert standard_atmosphere_temperature(226.32) == pytest.approx(216.65, abs=0.01)


def test_observed_profile_is_the_standard_atmosphere_on_the_grid():
    observed = RceEnv(RcePhysicsParams(insolation=150.0)).observed
    assert observed is rce.OBSERVED_PROFILE
    assert observed.shape == (N_LEVELS,)
    assert observed.tolist() == [standard_atmosphere_temperature(p)
                                 for p in PRESSURE_LEVELS_HPA]


def test_export_with_simulated_column(tmp_path):
    sim = rce.OBSERVED_PROFILE + 1.5
    path = tmp_path / "export.csv"
    export_profile_with_simulated(path, sim)
    lines = path.read_text().splitlines()
    assert lines[0] == "pressure_hPa,temperature_K,simulated_K"
    assert len(lines) == 18
    first = lines[1].split(",")
    assert float(first[0]) == PRESSURE_LEVELS_HPA[0]
    assert float(first[2]) - float(first[1]) == pytest.approx(1.5)
    assert lines[17] == f"10.0,216.65,{216.65 + 1.5!r}"
