"""One RCE step, byte for byte against the numpy-scalar oracles in
``rce_oracle``: radiation, heights, adjustment, validation and whole
trajectories."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rce_oracle
from climbench.envs import (AtmosphericColumn, ColumnStateError, RceEnv, RcePhysicsParams,
                            column_heights, convective_adjustment, grey_longwave_step)
from climbench.envs.rce import N_LEVELS

PARAMS = RcePhysicsParams()

TEMPERATURE = st.floats(150.0, 380.0)
EMISSIVITY = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
LAPSE = st.sampled_from([5.5, 9.8]) | st.floats(5.5, 9.8)
COLUMNS = st.tuples(st.lists(TEMPERATURE, min_size=N_LEVELS, max_size=N_LEVELS),
                    TEMPERATURE)


def same_bytes(a, b) -> bool:
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_flux(got, want) -> bool:
    """A flux reported as a Python float, with the oracle's numpy scalar's bits."""
    return type(got) is float and got.hex() == float(want).hex()


def make_column(temps, ts):
    return AtmosphericColumn(np.asarray(temps, dtype=float), ts, PARAMS)


@given(COLUMNS, EMISSIVITY)
def test_longwave_matches_oracle_bytes(column, emissivity):
    col = make_column(*column)
    heating, olr, surface_net = grey_longwave_step(col, emissivity)
    ref_heating, ref_olr, ref_surface_net = rce_oracle.grey_longwave_step(col, emissivity)
    assert same_bytes(heating, ref_heating)
    assert same_flux(olr, ref_olr)
    assert same_flux(surface_net, ref_surface_net)


@given(COLUMNS, LAPSE)
def test_adjustment_and_heights_match_oracle_bytes(column, lapse):
    col = make_column(*column)
    out = convective_adjustment(col, lapse)
    ref = rce_oracle.convective_adjustment(col, lapse)
    assert same_bytes(out.temperatures, ref.temperatures)
    assert same_bytes(out.surface_temperature, ref.surface_temperature)
    heights = rce_oracle.heights_from_lists(col.temperatures.tolist())
    assert same_bytes(column_heights(col), np.array(heights))


@given(COLUMNS, EMISSIVITY, LAPSE)
def test_radiation_then_adjustment_matches_oracle_bytes(column, emissivity, lapse):
    # the columns the env hands to the adjustment: after one radiation step
    col = make_column(*column)
    heating, _, surface_net = grey_longwave_step(col, emissivity)
    after = make_column(col.temperatures + heating * PARAMS.dt, col.surface_temperature
                        + surface_net * PARAMS.dt / PARAMS.surface_heat_capacity)
    out = convective_adjustment(after, lapse)
    ref = rce_oracle.convective_adjustment(after, lapse)
    assert same_bytes(out.temperatures, ref.temperatures)
    assert same_bytes(out.surface_temperature, ref.surface_temperature)


def outcome(check, col):
    try:
        check(col)
    except ColumnStateError as exc:
        return str(exc)
    return None


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | TEMPERATURE,
                min_size=N_LEVELS + 1, max_size=N_LEVELS + 1))
def test_validate_matches_oracle(values):
    col = make_column(values[:-1], values[-1])
    assert outcome(AtmosphericColumn.validate, col) == outcome(rce_oracle.validate, col)


BAD = [(float("nan"), "non-finite temperature in column"),
       (float("inf"), "non-finite temperature in column"),
       (float("-inf"), "non-finite temperature in column"),
       (100.0, "temperature outside (100.0, 400.0) K: range [100.00, 250.00]"),
       (400.0, "temperature outside (100.0, 400.0) K: range [250.00, 400.00]")]


@pytest.mark.parametrize("where", ["level", "surface"])
@pytest.mark.parametrize("bad, message", BAD)
def test_validate_rejects_with_unchanged_message(bad, message, where):
    temps = np.full(N_LEVELS, 250.0)
    ts = 250.0
    if where == "level":
        temps[7] = bad
    else:
        ts = bad
    col = make_column(temps, ts)
    with pytest.raises(ColumnStateError) as exc:
        col.validate()
    assert str(exc.value) == message == outcome(rce_oracle.validate, col)


def test_validate_reports_non_finite_before_out_of_range():
    temps = np.full(N_LEVELS, 250.0)
    temps[3] = float("nan")
    col = make_column(temps, 500.0)
    with pytest.raises(ColumnStateError, match="^non-finite temperature in column$"):
        col.validate()


def test_open_interval_bounds_pass():
    make_column(np.full(N_LEVELS, np.nextafter(100.0, 200.0)),
                np.nextafter(400.0, 200.0)).validate()


def test_trajectory_matches_oracle_env_bytes():
    # random actions, some beyond the box, and the four box corners
    rng = np.random.default_rng(11)
    corners = [[0.0, 5.5], [0.0, 9.8], [1.0, 5.5], [1.0, 9.8]]
    env, ref = RceEnv(), rce_oracle.OracleRceEnv()
    assert same_bytes(env.reset(), ref.reset())
    for step in range(500):
        if step % 50 < 4:
            action = corners[step % 50]
        else:
            action = [rng.uniform(-0.1, 1.1), rng.uniform(5.0, 10.3)]
        got, want = env.step(action), ref.step(action)
        assert same_bytes(got.observation, want.observation)
        assert same_bytes(got.reward, want.reward)
        assert got.truncated == want.truncated
        assert list(got.info) == list(want.info) == ["olr"]
        assert same_flux(got.info["olr"], want.info["olr"]), step
    assert got.truncated
