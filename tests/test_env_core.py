"""Shared environment contract: seeding, clipping, truncation, determinism."""

import numpy as np
import pytest

from climbench.envs import (BiasCorrectionEnv, BoxSpace, EpisodeOverError, RceEnv,
                            rng_stream)


def test_box_space_validation_and_clip():
    with pytest.raises(ValueError):
        BoxSpace(low=[0.0, 1.0], high=[1.0, 1.0])
    box = BoxSpace(low=[-1.0], high=[1.0])
    assert box.clip([5.0]) == pytest.approx([1.0])
    assert box.clip([-1.3, 0.3]).tolist() == [-1.0, 0.3]


def test_rng_stream_identical_seeds_identical_sequences():
    a = rng_stream(123, stream=7)
    b = rng_stream(123, stream=7)
    assert np.array_equal(a.normal(size=100), b.normal(size=100))
    c = rng_stream(123, stream=8)
    assert not np.array_equal(rng_stream(123, stream=7).normal(size=10),
                              c.normal(size=10))


def test_rng_stream_is_philox_keyed_by_seed_and_stream():
    for seed, stream in [(123, 7), (0, 2), (-1, 5)]:
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key))
        got = rng_stream(seed, stream)
        assert isinstance(got.bit_generator, np.random.Philox)
        assert got.random(8).tobytes() == expected.random(8).tobytes()


def test_two_resets_same_seed_identical_observation():
    # every episode starts from the task's fixed state, whatever the seed
    for env in (BiasCorrectionEnv("v0"), RceEnv()):
        o1 = env.reset()
        env.step(env.action_space.high)
        assert np.array_equal(env.reset(), o1)
        assert np.array_equal(env.reset(seed=5), o1)


def test_action_beyond_bound_equals_action_at_bound():
    e1 = BiasCorrectionEnv("v0")
    e2 = BiasCorrectionEnv("v0")
    e1.reset()
    e2.reset()
    r1 = e1.step([10.0])
    r2 = e2.step([1.0])
    assert r1.reward == r2.reward
    assert np.array_equal(r1.observation, r2.observation)


def test_biascorr_truncates_at_200():
    env = BiasCorrectionEnv("v0")
    env.reset()
    for k in range(200):
        res = env.step([0.0])
        assert res.truncated is (k == 199)
    with pytest.raises(EpisodeOverError):
        env.step([0.0])


def test_rce_truncates_at_500():
    env = RceEnv()
    env.reset()
    for k in range(500):
        res = env.step([0.3, 6.5])
        assert res.truncated is (k == 499)
    with pytest.raises(EpisodeOverError):
        env.step([0.3, 6.5])


def test_action_length_mismatch():
    env = RceEnv()
    env.reset()
    with pytest.raises(ValueError):
        env.step([0.5])


def test_seeded_trajectory_determinism():
    def rollout(env, actions):
        env.reset()
        out = []
        for a in actions:
            r = env.step(a)
            out.append((r.observation.copy(), r.reward))
        return out

    rng = np.random.default_rng(0)
    actions = rng.uniform(-1, 1, size=(50, 1))
    t1 = rollout(BiasCorrectionEnv("v0"), actions)
    t2 = rollout(BiasCorrectionEnv("v0"), actions)
    for (o1, r1), (o2, r2) in zip(t1, t2):
        assert np.array_equal(o1, o2) and r1 == r2


def test_episode_return_equals_sum_of_step_rewards():
    # Two independent consumers of the same action sequence agree on the
    # episodic return: a running sum and a stored-rewards sum.
    env = BiasCorrectionEnv("v2")
    env.reset()
    rng = np.random.default_rng(21)
    running = 0.0
    stored = []
    for _ in range(env.max_steps):
        res = env.step([float(rng.uniform(-1, 1))])
        running += res.reward
        stored.append(res.reward)
    assert running == sum(stored)
    assert res.truncated
