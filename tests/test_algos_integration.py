"""Cross-algorithm behaviour: record schema, determinism, abort handling."""

import pickle

import numpy as np
import pytest

from climbench.algos import TRAINER_CLASSES, make_config, make_trainer
from climbench.envs import BiasCorrectionEnv, BiasCorrParams, RceEnv, RcePhysicsParams
from climbench.nn import Mlp

ALL_TAGS = tuple(TRAINER_CLASSES)


def short_trainer(tag, steps=600, env=None, seed=1):
    cfg = make_config(tag, total_timesteps=steps)
    if hasattr(cfg, "learning_starts"):
        cfg.learning_starts = 100
    env = env or BiasCorrectionEnv("v0")
    return make_trainer(tag, env, cfg, seed=seed)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_run_records_share_schema(tag):
    rec = short_trainer(tag).train()
    assert rec.algorithm == tag
    assert rec.experiment_id == "adhoc"
    assert rec.seed == 1
    assert len(rec.entries) == 3          # 600 steps / 200-step episodes
    steps = rec.steps
    assert steps == sorted(steps) and len(set(steps)) == len(steps)
    assert steps[-1] == 600
    assert all(np.isfinite(r) for r in rec.returns)
    assert not rec.aborted


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_training_deterministic_given_seed(tag):
    a = short_trainer(tag, steps=400).train()
    b = short_trainer(tag, steps=400).train()
    assert a.entries == b.entries
    assert a.body_bytes() == b.body_bytes()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_different_seeds_differ(tag):
    a = short_trainer(tag, steps=400, seed=1).train()
    b = short_trainer(tag, steps=400, seed=2).train()
    assert a.entries != b.entries


def test_single_update_deterministic_on_frozen_batch():
    # One full update from an identical frozen state must be bit-reproducible.
    for tag in ("ddpg", "td3", "sac", "tqc"):
        outs = []
        for _ in range(2):
            trainer = short_trainer(tag, steps=150)
            transition = (np.array([0.5]), np.array([0.1]), -0.5, np.array([0.52]))
            for _k in range(120):
                trainer.buffer.push(*transition)
            trainer.global_step = 200
            trainer._on_transition(*transition)
            outs.append(trainer.critics[0].net.flat.copy())
        assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_non_finite_poisoning_aborts_with_diagnostic(tag):
    trainer = short_trainer(tag, steps=600)
    # poison one weight: forward values become NaN, the run must mark abort
    trainer.actor_mlp().weights[0][0, 0] = np.nan
    rec = trainer.train()
    assert rec.aborted
    assert "non-finite" in rec.abort_reason


@pytest.mark.parametrize("tag", ["dpg", "ppo", "trpo", "reinforce"])
def test_trainers_run_on_rce(tag):
    env = RceEnv(RcePhysicsParams(max_steps=100))
    cfg = make_config(tag, total_timesteps=200)
    trainer = make_trainer(tag, env, cfg, seed=1)
    rec = trainer.train()
    assert len(rec.entries) == 2
    assert not rec.aborted


class OpaqueStiffRceEnv(RceEnv):
    """Earth's mean insolation, every action replaced by the corner [1, 9.8]."""

    def __init__(self):
        super().__init__(RcePhysicsParams(insolation=340.0))

    def _dynamics(self, action):
        return super()._dynamics(np.array([1.0, 9.8]))


@pytest.mark.parametrize("tag", ["ddpg", "reinforce"])
def test_column_state_error_recorded_as_abort(tag):
    # The column passes 400 K in env step 58; the run ends with a record.
    trainer = make_trainer(tag, OpaqueStiffRceEnv(), make_config(tag, total_timesteps=200),
                           seed=1)
    rec = trainer.train()
    assert rec.aborted
    assert "global step 58" in rec.abort_reason
    assert "400.0) K: range [" in rec.abort_reason
    assert rec.entries == []


@pytest.mark.parametrize("tag", ["ddpg", "ppo"])
def test_aborted_run_stays_aborted(tag):
    # Training on after an abort would start a fresh episode (on-policy) or
    # step the out-of-range column again (off-policy) and overwrite the reason.
    env = OpaqueStiffRceEnv()
    trainer = make_trainer(tag, env, make_config(tag, total_timesteps=600), seed=1)
    rec = trainer.train(300)
    assert rec.aborted
    reason, steps, wall_time = rec.abort_reason, trainer.global_step, rec.wall_time_s

    def step(action):
        pytest.fail("an aborted run stepped its environment")

    env.step = step
    assert trainer.train(600) is rec
    assert (rec.abort_reason, trainer.global_step, rec.wall_time_s) == (
        reason, steps, wall_time)


def test_on_policy_consumes_batch_then_discards():
    # PPO holds no replay storage; each iteration builds a fresh batch.
    trainer = short_trainer("ppo", steps=400)
    trainer.train()
    assert not hasattr(trainer, "buffer")


@pytest.mark.parametrize("tag", ["reinforce", "ppo", "trpo"])
@pytest.mark.parametrize("make_env", [
    lambda: BiasCorrectionEnv("v2", BiasCorrParams(max_steps=7)),
    lambda: RceEnv(RcePhysicsParams(max_steps=5)),
], ids=["biascorr-7", "rce-5"])
def test_collect_episode_fills_arrays_of_the_step_cap(tag, make_env):
    env = make_env()
    trainer = make_trainer(tag, env, make_config(tag, total_timesteps=100), seed=1)
    observed = []
    step = env.step

    def recording_step(action):
        res = step(action)
        observed.append(res.observation)
        return res

    env.step = recording_step
    for episode in (1, 2):
        ep = trainer.collect_episode()
        n = env.max_steps
        obs_dim, act_dim = env.observation_space.dim, env.action_space.dim
        assert {k: v.shape for k, v in ep.items()} == {
            "obs": (n, obs_dim), "actions": (n, act_dim), "rewards": (n,),
            "values": (n + 1,), "log_probs": (n,), "means": (n, act_dim)}
        # the episode runs to the cap and bootstraps from the state after it
        assert len(observed) == episode * n
        bootstrap = (0.0 if trainer.value_net is None
                     else float(trainer.value_net.forward_np(observed[-1])[0]))
        assert ep["values"][-1] == bootstrap
        total = 0.0
        for reward in ep["rewards"].tolist():
            total += reward
        assert trainer.record.entries[-1] == (episode * n, total)


def test_off_policy_never_recomputes_stored_log_probs():
    # Replay buffers store (s, a, r, s') only: no log-prob field exists.
    trainer = short_trainer("sac", steps=150)
    trainer.buffer.push(np.array([0.5]), np.array([0.1]), -0.5, np.array([0.52]))
    batch_keys = set(trainer.buffer.sample(1))
    assert batch_keys == {"s", "a", "r", "s_next"}



def nets_of(trainer):
    """Every distinct network a trainer holds, online and target."""
    nets = {}
    for value in vars(trainer).values():
        for item in value if isinstance(value, list) else [value]:
            net = item if isinstance(item, Mlp) else getattr(item, "net", None)
            if isinstance(net, Mlp):
                nets[id(net)] = net
    return list(nets.values())


def assert_params_view_flat(trainer):
    for net in nets_of(trainer):
        log_std = [] if net.log_std is None else [net.log_std]
        for p in net.weights + net.biases + log_std:
            assert np.shares_memory(p, net.flat)


# policy (+ value net); actor + critics (+ target actor) + target critics
NET_COUNTS = {"reinforce": 1, "ppo": 2, "trpo": 2, "dpg": 2, "ddpg": 4, "td3": 6,
              "sac": 5, "tqc": 5}


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_parameters_stay_views_into_flat_through_training_and_pickle(tag):
    trainer = short_trainer(tag, steps=400)
    assert len(nets_of(trainer)) == NET_COUNTS[tag]
    trainer.train(300)
    assert_params_view_flat(trainer)
    # The tuner ships trainers between processes by pickle and trains on.
    resumed = pickle.loads(pickle.dumps(trainer))
    assert_params_view_flat(resumed)
    resumed.train(400)
    assert_params_view_flat(resumed)
    whole = short_trainer(tag, steps=400)
    whole.train(400)
    assert resumed.record.body_bytes() == whole.record.body_bytes()
    for a, b in zip(nets_of(resumed), nets_of(whole)):
        assert a.flat.tobytes() == b.flat.tobytes()
