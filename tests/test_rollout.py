"""Returns/GAE against brute-force oracles; replay buffer ring and uniformity."""

import numpy as np
import pytest

from climbench.envs import RngStream
from climbench.rollout import ReplayBuffer, discounted_returns, gae


def brute_force_returns(rewards, gamma):
    n = len(rewards)
    return np.array([sum(gamma ** (k - t) * rewards[k] for k in range(t, n))
                     for t in range(n)])


def brute_force_gae(rewards, values, gamma, lam):
    n = len(rewards)
    deltas = [rewards[t] + gamma * values[t + 1] - values[t] for t in range(n)]
    adv = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for k in range(t, n):
            adv[t] += coef * deltas[k]
            coef *= gamma * lam
    return adv


def test_discounted_returns_trivial_cases():
    assert np.array_equal(discounted_returns([1.0, 1.0, 1.0], 1.0), [3.0, 2.0, 1.0])
    r = np.array([0.3, -1.2, 4.0])
    assert np.array_equal(discounted_returns(r, 0.0), r)


def test_discounted_returns_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    r = rng.normal(size=50)
    got = discounted_returns(r, 0.97)
    expected = brute_force_returns(r, 0.97)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_gamma_out_of_range():
    with pytest.raises(ValueError):
        discounted_returns([1.0], 1.5)


def test_gae_zero_when_values_self_consistent():
    # Choose values so every TD residual vanishes.
    gamma = 0.9
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.zeros(4)
    values[3] = 5.0
    for t in range(2, -1, -1):
        values[t] = rewards[t] + gamma * values[t + 1]
    adv, ret = gae(rewards, values, gamma, 0.7)
    assert np.max(np.abs(adv)) < 1e-12
    assert np.allclose(ret, values[:-1])


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(1)
    rewards = rng.normal(size=20)
    values = rng.normal(size=21)
    adv, _ = gae(rewards, values, 0.99, 0.0)
    deltas = rewards + 0.99 * values[1:] - values[:-1]
    assert np.max(np.abs(adv - deltas)) < 1e-15


def test_gae_lambda_one_telescopes_to_discounted_returns():
    rng = np.random.default_rng(2)
    rewards = rng.normal(size=30)
    values = rng.normal(size=31)
    gamma = 0.97
    adv, _ = gae(rewards, values, gamma, 1.0)
    disc = discounted_returns(rewards, gamma)
    n = 30
    expected = np.array([disc[t] + gamma ** (n - t) * values[n] - values[t]
                         for t in range(n)])
    assert np.max(np.abs(adv - expected)) < 1e-10


def test_gae_matches_brute_force_on_50_steps():
    rng = np.random.default_rng(3)
    rewards = rng.normal(size=50)
    values = rng.normal(size=51)
    adv, ret = gae(rewards, values, 0.99, 0.95)
    expected = brute_force_gae(rewards, values, 0.99, 0.95)
    assert np.max(np.abs(adv - expected)) < 1e-12
    assert np.allclose(ret, adv + values[:-1])


def test_gae_agrees_with_returns_when_lambda1_v0():
    rng = np.random.default_rng(4)
    rewards = rng.normal(size=25)
    adv, ret = gae(rewards, np.zeros(26), 0.95, 1.0)
    disc = discounted_returns(rewards, 0.95)
    assert np.array_equal(adv, disc)
    assert np.array_equal(ret, disc)


def test_gae_length_mismatch():
    with pytest.raises(ValueError):
        gae(np.zeros(5), np.zeros(5), 0.9, 0.9)


def make_transition(i, obs_dim=2, act_dim=1):
    """(s, a, r, s_next) with every entry tagged by ``i``."""
    return (np.full(obs_dim, float(i)), np.full(act_dim, float(i)),
            float(i), np.full(obs_dim, float(i + 1)))


def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(5, 2, 1, RngStream(0, 4))
    for i in range(6):
        buf.push(*make_transition(i))
    assert len(buf) == 5
    batch = buf.sample(5)
    seen = set(batch["r"].tolist())
    assert 0.0 not in seen
    assert seen == {1.0, 2.0, 3.0, 4.0, 5.0}


def test_buffer_sample_before_enough_items():
    buf = ReplayBuffer(10, 2, 1, RngStream(0, 4))
    buf.push(*make_transition(0))
    with pytest.raises(ValueError):
        buf.sample(2)


def test_buffer_minibatch_without_replacement():
    buf = ReplayBuffer(8, 2, 1, RngStream(1, 4))
    for i in range(8):
        buf.push(*make_transition(i))
    for _ in range(50):
        batch = buf.sample(8)
        assert len(set(batch["r"].tolist())) == 8


def test_buffer_sampling_uniform_chi_squared():
    # 1e5 single draws from a 10-item buffer; chi^2 below the 1% critical
    # value for 9 degrees of freedom (21.666) means uniform at p > 0.01.
    buf = ReplayBuffer(10, 1, 1, RngStream(7, 4))
    for i in range(10):
        buf.push(np.array([float(i)]), np.array([0.0]), float(i), np.array([0.0]))
    counts = np.zeros(10)
    n = 100_000
    for _ in range(n):
        counts[int(buf.sample(1)["r"][0])] += 1
    expected = n / 10
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 21.666


def test_buffer_seeded_sampling_reproducible():
    def draws(seed):
        buf = ReplayBuffer(10, 1, 1, RngStream(seed, 4))
        for i in range(10):
            buf.push(*make_transition(i, obs_dim=1))
        return [buf.sample(3)["r"].tolist() for _ in range(20)]

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)


def test_buffer_never_yields_partial_records():
    # Every sampled transition must be exactly one pushed transition.
    buf = ReplayBuffer(6, 2, 1, RngStream(2, 4))
    pushed = {}
    for i in range(40):
        t = make_transition(i)
        buf.push(*t)
        pushed[float(i)] = t
        if len(buf) >= 3:
            batch = buf.sample(3)
            for k in range(3):
                s, a, _, s_next = pushed[batch["r"][k]]
                assert np.array_equal(batch["s"][k], s)
                assert np.array_equal(batch["a"][k], a)
                assert np.array_equal(batch["s_next"][k], s_next)
