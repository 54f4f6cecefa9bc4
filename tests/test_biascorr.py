"""Bias-correction dynamics against root-finding, algebraic, and sweep oracles,
and each version's optimal return against the thresholds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from climbench.envs import BiasCorrectionEnv, BiasCorrParams, biascorr_reward, update_temperature
from climbench.evalharness import THRESHOLDS


P = BiasCorrParams()


def test_update_solves_the_implicit_relation():
    # Residual of the defining relation must vanish at the returned value.
    rng = np.random.default_rng(0)
    d = P.bias_denominator
    for _ in range(200):
        t = rng.uniform(300, 340)
        u = rng.uniform(-1, 1)
        t_new = update_temperature(t, u, P)
        residual = t_new - (t + u + P.relax_a * (P.t_physics - t) / d
                            + P.relax_b * (P.t_observed - t_new) / d)
        assert abs(residual) < 1e-12


def test_fixed_point_matches_bisection_oracle():
    # Independent 1-d root finder on g(T) = update(T, 0) - T.
    lo, hi = 250.0, 400.0
    g = lambda t: update_temperature(t, 0.0, P) - t
    assert g(lo) * g(hi) < 0
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    t_star = (lo + hi) / 2
    assert abs(update_temperature(t_star, 0.0, P) - t_star) < 1e-10


def test_zero_relaxation_reduces_to_additive_update():
    p = BiasCorrParams(relax_a=0.0, relax_b=0.0)
    assert update_temperature(300.0, 0.35, p) == pytest.approx(300.35, abs=1e-12)


def test_update_linearity_in_action():
    d = P.bias_denominator
    gain = 1.0 / (1.0 + P.relax_b / d)
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = rng.uniform(300, 340)
        u1, u2 = rng.uniform(-1, 1, size=2)
        lhs = update_temperature(t, u1 + u2, P) - update_temperature(t, u1, P)
        assert abs(lhs - u2 * gain) < 1e-10


def test_v0_reward_zero_iff_on_target_and_never_positive():
    assert biascorr_reward("v0", P.t_observed, 315.0, P) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(500):
        t_new = rng.uniform(250, 400)
        r = biascorr_reward("v0", t_new, 320.0, P)
        assert r <= 0.0
        if t_new != P.t_observed:
            assert r < 0.0


def test_v0_episodic_return_at_per_step_error_0035():
    # 0.035 error units per step over 200 steps lands just above the -0.25 bar.
    per_step = -(0.035 ** 2)
    episode_return = per_step * 200
    assert episode_return == pytest.approx(-0.245)
    assert episode_return > -0.25


def test_v2_lag_semantics():
    env = BiasCorrectionEnv("v2")
    env.reset()
    values = []
    rewards = []
    rng = np.random.default_rng(2)
    for k in range(10):
        t_before = env.t_current
        res = env.step([float(rng.uniform(-1, 1))])
        values.append(biascorr_reward("v1", env.t_current, t_before, env.params))
        rewards.append(res.reward)
    assert rewards[:5] == [0.0] * 5
    for k in range(5, 10):
        assert rewards[k] == pytest.approx(values[k - 5], abs=1e-15)


def test_v2_total_equals_v1_total_with_truncation_flush():
    rng = np.random.default_rng(7)
    actions = rng.uniform(-1, 1, size=200)
    v1 = BiasCorrectionEnv("v1")
    v2 = BiasCorrectionEnv("v2")
    v1.reset()
    v2.reset()
    tot1 = sum(v1.step([a]).reward for a in actions)
    tot2 = sum(v2.step([a]).reward for a in actions)
    assert tot1 == pytest.approx(tot2, abs=1e-12)


def test_observation_bounds_vectorized_sweep():
    # Oracle: the closed-form update applied to 10^4 random-action episodes at once.
    p = P
    d = p.bias_denominator
    gain = 1.0 / (1.0 + p.relax_b / d)
    rng = np.random.default_rng(11)
    n = 10_000
    t = np.full(n, p.initial_temperature)
    lo, hi = np.inf, -np.inf
    for _ in range(200):
        u = rng.uniform(-1, 1, size=n)
        x = t + u + p.relax_a * (p.t_physics - t) / d
        t = (x + p.relax_b * p.t_observed / d) * gain
        obs = (t - p.norm_low) / (p.norm_high - p.norm_low)
        lo, hi = min(lo, obs.min()), max(hi, obs.max())
    assert lo >= 0.0 and hi <= 1.0


def test_env_matches_vectorized_oracle_exactly():
    p = P
    d = p.bias_denominator
    env = BiasCorrectionEnv("v0")
    env.reset()
    rng = np.random.default_rng(9)
    t = p.initial_temperature
    for _ in range(200):
        u = float(rng.uniform(-1, 1))
        res = env.step([u])
        x = t + u + p.relax_a * (p.t_physics - t) / d
        t = (x + p.relax_b * p.t_observed / d) / (1.0 + p.relax_b / d)
        assert res.observation[0] == pytest.approx((t - 310.0) / 20.0, abs=1e-12)


def test_zero_action_drifts_monotonically_to_fixed_point():
    env = BiasCorrectionEnv("v0")
    env.reset()
    # Fixed point from iterating the closed form to convergence.
    t_star = 320.0
    for _ in range(10_000):
        t_star = update_temperature(t_star, 0.0, P)
    prev_gap = abs(env.t_current - t_star)
    for _ in range(200):
        env.step([0.0])
        gap = abs(env.t_current - t_star)
        assert gap <= prev_gap + 1e-12
        prev_gap = gap
    assert prev_gap < 1e-2


def test_param_validation():
    with pytest.raises(ValueError):
        BiasCorrParams(t_physics=321.75)  # equals t_observed
    with pytest.raises(ValueError):
        BiasCorrParams(norm_low=330.0, norm_high=310.0)
    with pytest.raises(ValueError):
        BiasCorrParams(lag=0)
    with pytest.raises(ValueError):
        BiasCorrectionEnv("v7")


# -- the optimum ----------------------------------------------------------------------


def deadbeat_action(t: float) -> float:
    """The u that puts T_new on T_observed, from the implicit relation alone:
    T_new = T_obs makes its relaxation term vanish, so T_obs = T + u + a(T_phys - T)/D."""
    d = P.bias_denominator
    return P.t_observed - t - P.relax_a * (P.t_physics - t) / d


def episode_return(version: str, policy) -> float:
    """A 200-step episode's return through the env; ``policy(step, T)`` is
    the action before clipping into [-1, 1]."""
    env = BiasCorrectionEnv(version)
    env.reset()
    total = 0.0
    for step in range(env.max_steps):
        u = float(np.clip(policy(step, env.t_current), -1.0, 1.0))
        total += env.step([u]).reward
    return total


# the bounds table: (deadbeat, u = 0, u = -1, u = +1) per version; v2's flush
# makes its totals v1's
BOUNDS = {"v0": (-3.189e-4, -0.8314, -13.738, -30.318),
          "v1": (-7.975e-3, -0.8346, -13.674, -30.166),
          "v2": (-7.975e-3, -0.8346, -13.674, -30.166)}


@pytest.mark.parametrize("version", ["v0", "v1", "v2"])
def test_deadbeat_return_and_constant_actions_match_the_bounds_table(version):
    clipped = []

    def deadbeat(step, t):
        u = deadbeat_action(t)
        if abs(u) > 1.0:
            clipped.append(step)
        return u

    returns = (episode_return(version, deadbeat),
               *(episode_return(version, lambda step, t, c=c: c) for c in (0.0, -1.0, 1.0)))
    assert clipped == [0]  # only the first step clips, at +1
    assert returns == pytest.approx(BOUNDS[version], rel=2e-4)
    # what the thresholds can tell apart: doing nothing misses v0's and passes
    # v1's; every constant action passes v2's
    threshold = THRESHOLDS[f"SimpleClimateBiasCorrection-{version}"]
    assert returns[0] > threshold
    assert (returns[1] > threshold) == (version != "v0")
    assert (min(returns) > threshold) == (version == "v2")


@given(st.lists(st.floats(-1.0, 1.0), min_size=200, max_size=200))
def test_no_action_sequence_beats_the_deadbeat_return(actions):
    for version in ("v0", "v1", "v2"):
        best = episode_return(version, lambda step, t: deadbeat_action(t))
        assert episode_return(version, lambda step, t: actions[step]) <= best
