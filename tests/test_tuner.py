"""Search spaces, median pruning, and study determinism."""

import json

import numpy as np

from climbench.algos import make_config
from climbench.algos.config import TUNABLE_FIELDS
from climbench.envs.core import RngStream
from climbench.tuner import (PARAMETER_RANGES, STREAM_TUNER, TrainingTrialRunner,
                             _advance_task, build_search_space, run_study,
                             sample_config, sample_parameters, tune_algorithm)


class CurveRunner:
    """Synthetic runner: each trial follows a fixed linear return curve."""

    def __init__(self, slopes):
        self.slopes = slopes
        self.built = 0

    def build(self, cfg):
        trial_index = self.built
        self.built += 1
        return {"trial": trial_index, "step": 0}

    def advance(self, state, target):
        state["step"] = target
        value = self.slopes[state["trial"]] * target
        return state, value, target


# The number of tuned hyperparameters per algorithm in the paper's table.
PAPER_TUNABLE_COUNTS = {"reinforce": 2, "ddpg": 7, "dpg": 4, "td3": 8, "ppo": 6,
                        "trpo": 6, "sac": 9, "tqc": 10}


def test_search_space_counts_match_reference_table():
    for algo, count in PAPER_TUNABLE_COUNTS.items():
        space = build_search_space(algo)
        assert len(space.parameters) == count
        assert set(space.parameters) == set(TUNABLE_FIELDS[algo])


def test_reinforce_has_two_tunables_tqc_ten():
    assert len(build_search_space("reinforce").parameters) == 2
    assert len(build_search_space("tqc").parameters) == 10


def test_sampling_respects_ranges_and_is_reproducible():
    space = build_search_space("tqc")
    a = sample_parameters(space, RngStream(5, STREAM_TUNER))
    b = sample_parameters(space, RngStream(5, STREAM_TUNER))
    assert a == b
    c = sample_parameters(space, RngStream(6, STREAM_TUNER))
    assert a != c
    for name, value in a.items():
        kind, *rest = PARAMETER_RANGES[name]
        if kind in ("log", "uniform", "int"):
            assert rest[0] <= value <= rest[1]
        else:
            assert value in rest[0]


def test_sampled_config_has_inactive_fields_at_defaults():
    space = build_search_space("reinforce")
    cfg, sampled = sample_config(space, RngStream(1, STREAM_TUNER), 5000)
    assert set(sampled) == {"learning_rate", "actor_critic_layer_size"}
    assert cfg.total_timesteps == 5000
    assert cfg.gamma == 0.99  # untouched shared default


def test_single_trial_never_pruned():
    runner = CurveRunner([-1.0])
    result = run_study(runner, build_search_space("reinforce"), n_trials=1,
                       budget_steps=1000)
    assert result.best.trial_id == 0
    assert result.trials[0].status == "complete"


def test_dominated_trial_pruned_by_second_checkpoint():
    runner = CurveRunner([1.0, -1.0])  # trial 1 strictly dominated everywhere
    result = run_study(runner, build_search_space("reinforce"), n_trials=2,
                       budget_steps=1000)
    assert result.trials[1].status == "pruned"
    assert result.trials[1].checkpoints[-1][0] <= 0.4
    assert result.best.trial_id == 0
    # pruning saves environment steps
    assert result.total_env_steps < 2 * 1000


def test_incumbent_best_never_pruned_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        slopes = rng.normal(size=6)
        runner = CurveRunner(slopes.tolist())
        result = run_study(runner, build_search_space("reinforce"), n_trials=6,
                           budget_steps=500)
        best_slope_trial = int(np.argmax(slopes))
        assert result.trials[best_slope_trial].status == "complete"
        assert result.best.trial_id == best_slope_trial


def test_steps_accounting_bounds():
    runner = CurveRunner([3.0, 2.0, 1.0, -1.0])
    result = run_study(runner, build_search_space("reinforce"), n_trials=4,
                       budget_steps=1000)
    assert result.total_env_steps <= 4 * 1000
    pruned = [t for t in result.trials if t.status == "pruned"]
    assert pruned and result.total_env_steps < 4 * 1000


def test_failed_trial_does_not_abort_study():
    class FlakyRunner(CurveRunner):
        def advance(self, state, target):
            if state["trial"] == 1:
                raise RuntimeError("boom")
            return super().advance(state, target)

    runner = FlakyRunner([1.0, 2.0, 0.5])
    result = run_study(runner, build_search_space("reinforce"), n_trials=3,
                       budget_steps=100)
    assert result.trials[1].status == "failed"
    assert result.trials[1].error == "boom"
    assert [t.error for t in result.trials if t.trial_id != 1] == [None, None]
    assert result.best.trial_id == 0


def test_real_training_study_deterministic_and_segment_consistent(tmp_path):
    result1 = tune_algorithm("dpg", "v0-homo-64L", n_trials=3, workers=1, seed=1,
                             out_dir=tmp_path / "a", trial_budget=600)
    result2 = tune_algorithm("dpg", "v0-homo-64L", n_trials=3, workers=1, seed=1,
                             out_dir=tmp_path / "b", trial_budget=600)
    assert [t.checkpoints for t in result1.trials] == \
        [t.checkpoints for t in result2.trials]
    assert result1.best.trial_id == result2.best.trial_id
    frag = tmp_path / "a" / "v0" / "dpg.cfg"
    assert frag.exists()
    study = tmp_path / "a" / "v0" / "dpg.study.json"
    assert [t["error"] for t in json.loads(study.read_text())["trials"]] == [None] * 3


def test_segmented_training_equals_unsegmented():
    # The tuner's resume contract: train(a) then train(b) == train(b).
    from climbench.algos import make_config, make_trainer
    from climbench.envs import BiasCorrectionEnv

    cfg = make_config("ddpg", total_timesteps=800)
    cfg.learning_starts = 100
    seg = make_trainer("ddpg", BiasCorrectionEnv("v0"), cfg, seed=3)
    seg.train(total_steps=400)
    seg.train(total_steps=800)
    cfg2 = make_config("ddpg", total_timesteps=800)
    cfg2.learning_starts = 100
    full = make_trainer("ddpg", BiasCorrectionEnv("v0"), cfg2, seed=3)
    full.train(total_steps=800)
    assert seg.record.entries == full.record.entries
    assert np.array_equal(seg.actor.net.flat, full.actor.net.flat)


def test_aborted_trial_fails_with_its_abort_reason():
    # A policy pinned to the box's corner drives the column past 400 K in
    # step 58; the trial must fail there, not train on in the next wave.
    runner = TrainingTrialRunner("ppo", "rce-v0-homo-64L",
                                 {"insolation": 340.0, "max_steps": 100})
    cfg = make_config("ppo", total_timesteps=600)
    trainer = runner.build(cfg)
    trainer.policy.net.biases[-1][:] = 50.0
    trainer.policy.net.log_std[:] = -5.0
    state, value, steps, error = _advance_task((runner, trainer, cfg, 300))
    assert state is None and value == float("-inf") and steps == 57
    assert error == trainer.record.abort_reason
    assert "global step 58" in error
