"""Experiment registry, config resolution, and the suite runner."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from climbench.algos import ALGORITHM_TAGS, make_config
from climbench.configio import ConfigError, write_algo_fragment
from climbench.envs import BiasCorrParams, RcePhysicsParams
from climbench.experiments import (EXPERIMENTS, experiment_spec, make_experiment_env,
                                   plan_experiment_suite, resolve_config,
                                   run_experiment_suite, tuned_fragment_path)
from climbench.records import load_record, load_records_dir, record_filename


def test_sixteen_experiment_codes():
    assert len(EXPERIMENTS) == 16
    for v in ("v0", "v1", "v2"):
        for suffix in ("optim-L", "optim-L-60k", "homo-64L", "homo-64L-60k"):
            assert f"{v}-{suffix}" in EXPERIMENTS
    for suffix in ("optim-L", "optim-L-10k", "homo-64L", "homo-64L-10k"):
        assert f"rce-v0-{suffix}" in EXPERIMENTS


# The registry in `--list` order: (experiment, environment, version, steps,
# layer policy).
REGISTRY = [
    ("v0-optim-L", "SimpleClimateBiasCorrection-v0", "v0", 20000, "optim"),
    ("v0-optim-L-60k", "SimpleClimateBiasCorrection-v0", "v0", 60000, "optim"),
    ("v0-homo-64L", "SimpleClimateBiasCorrection-v0", "v0", 20000, "homo-64"),
    ("v0-homo-64L-60k", "SimpleClimateBiasCorrection-v0", "v0", 60000, "homo-64"),
    ("v1-optim-L", "SimpleClimateBiasCorrection-v1", "v1", 20000, "optim"),
    ("v1-optim-L-60k", "SimpleClimateBiasCorrection-v1", "v1", 60000, "optim"),
    ("v1-homo-64L", "SimpleClimateBiasCorrection-v1", "v1", 20000, "homo-64"),
    ("v1-homo-64L-60k", "SimpleClimateBiasCorrection-v1", "v1", 60000, "homo-64"),
    ("v2-optim-L", "SimpleClimateBiasCorrection-v2", "v2", 20000, "optim"),
    ("v2-optim-L-60k", "SimpleClimateBiasCorrection-v2", "v2", 60000, "optim"),
    ("v2-homo-64L", "SimpleClimateBiasCorrection-v2", "v2", 20000, "homo-64"),
    ("v2-homo-64L-60k", "SimpleClimateBiasCorrection-v2", "v2", 60000, "homo-64"),
    ("rce-v0-optim-L", "RadiativeConvectiveModel-v0", "rce-v0", 4000, "optim"),
    ("rce-v0-optim-L-10k", "RadiativeConvectiveModel-v0", "rce-v0", 10000, "optim"),
    ("rce-v0-homo-64L", "RadiativeConvectiveModel-v0", "rce-v0", 4000, "homo-64"),
    ("rce-v0-homo-64L-10k", "RadiativeConvectiveModel-v0", "rce-v0", 10000,
     "homo-64"),
]


def test_registry_specs_in_list_order():
    assert [(s.experiment_id, s.environment_id, s.env_version, s.steps,
             s.layer_policy) for s in EXPERIMENTS.values()] == REGISTRY
    assert all(key == s.experiment_id for key, s in EXPERIMENTS.items())


def test_budgets_match_naming():
    assert experiment_spec("v0-homo-64L-60k").steps == 60_000
    assert experiment_spec("v0-homo-64L").steps == 20_000
    assert experiment_spec("rce-v0-optim-L-10k").steps == 10_000
    assert experiment_spec("rce-v0-optim-L").steps == 4_000


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError, match="unknown experiment"):
        experiment_spec("v9-zzz")


def test_plan_cardinality_eight_algorithms_ten_seeds():
    algos = ["reinforce", "dpg", "ddpg", "td3", "trpo", "ppo", "sac", "tqc"]
    plan = plan_experiment_suite("v0-homo-64L-60k", algos, list(range(1, 11)))
    assert len(plan) == 80
    assert len(set(plan)) == 80


@pytest.mark.parametrize("algorithms, seeds", [(["dpg", "dpg"], [1]), (["dpg"], [1, 1])])
@pytest.mark.parametrize("workers", [1, 2])
def test_suite_rejects_repeated_algorithm_seed_pair(tmp_path, algorithms, seeds, workers):
    # two tasks would write, or with workers race to rename, one record file
    with pytest.raises(ValueError, match=r"repeated \(algorithm, seed\) pair \('dpg', 1\)"):
        run_experiment_suite("v0-homo-64L", algorithms, seeds, out_dir=tmp_path,
                             workers=workers, steps=200)
    assert list(tmp_path.iterdir()) == []


def test_homo_64l_forces_layer_size():
    spec = experiment_spec("v1-homo-64L")
    for algo in ("ddpg", "tqc", "ppo"):
        cfg = resolve_config(spec, algo)
        assert cfg.actor_critic_layer_size == 64
        assert cfg.total_timesteps == 20_000


def test_optim_l_requires_and_loads_tuned_fragment(tmp_path):
    spec = experiment_spec("v0-optim-L-60k")
    with pytest.raises(FileNotFoundError, match="tuned"):
        resolve_config(spec, "ddpg")
    with pytest.raises(FileNotFoundError, match="no tuned fragment"):
        resolve_config(spec, "ddpg", tuned_dir=tmp_path)
    path = tuned_fragment_path(tmp_path, "v0", "ddpg")
    write_algo_fragment(path, "ddpg", {"actor_critic_layer_size": 128,
                                       "learning_rate": 0.00025, "tau": 0.02})
    cfg = resolve_config(spec, "ddpg", tuned_dir=tmp_path)
    assert cfg.actor_critic_layer_size == 128
    assert cfg.learning_rate == pytest.approx(0.00025)
    assert cfg.tau == pytest.approx(0.02)


def test_algo_overrides_win_over_width_and_tuned_fragment(tmp_path):
    cfg = resolve_config(experiment_spec("v0-homo-64L"), "dpg",
                         {"actor_critic_layer_size": "32"})
    assert cfg.actor_critic_layer_size == 32
    write_algo_fragment(tuned_fragment_path(tmp_path, "v0", "ddpg"), "ddpg",
                        {"learning_rate": 0.00025, "tau": 0.02})
    cfg = resolve_config(experiment_spec("v0-optim-L"), "ddpg",
                         {"learning_rate": "0.003"}, tuned_dir=tmp_path, steps=500)
    assert (cfg.learning_rate, cfg.tau, cfg.total_timesteps) == (0.003, 0.02, 500)


# (values rejected, values accepted) per range rule of the algorithm configs
_RANGES = {"positive": (["0", "-1e-3", "nan"], ["1e-9"]),
           "non_negative": (["-0.5", "-1e-9", "nan"], ["0", "0.5"]),
           "non_negative_int": (["-1"], ["0", "1"]),
           "unit": (["-0.01", "1.01", "nan"], ["0", "1"]),
           "count": (["0", "-2"], ["1"])}
_RULES = {"learning_rate": "positive", "policy_lr": "positive", "q_lr": "positive",
          "actor_adam_lr": "positive", "critic_adam_lr": "positive",
          "alpha_adam_lr": "positive", "alpha": "positive", "kl_limit": "positive",
          "exploration_noise": "non_negative", "policy_noise": "non_negative",
          "noise_clip": "non_negative", "clip_coef": "non_negative",
          "max_grad_norm": "non_negative", "vf_coef": "non_negative",
          "cg_damping": "non_negative",
          "n_drop_per_critic": "non_negative_int", "learning_starts": "non_negative_int",
          "gamma": "unit", "tau": "unit", "gae_lambda": "unit",
          "total_timesteps": "count", "actor_critic_layer_size": "count",
          "batch_size": "count", "buffer_size": "count",
          "num_minibatches": "count", "update_epochs": "count",
          "policy_frequency": "count", "target_network_frequency": "count",
          "n_quantiles": "count", "n_critics": "count", "cg_iterations": "count",
          "backtrack_steps": "count"}


@pytest.mark.parametrize("tag", ALGORITHM_TAGS)
def test_out_of_range_hyperparameters_fail_when_the_config_is_built(tag):
    names = [f.name for f in dataclasses.fields(make_config(tag))]
    # every field of the config has a rule, so a field added without one fails
    assert set(names) <= set(_RULES)
    for name in names:
        rejected, accepted = _RANGES[_RULES[name]]
        # TQC's n_quantiles is probed with nothing dropped, so that 1 is valid
        others = {"n_drop_per_critic": 0} if name == "n_quantiles" else {}
        for value in rejected:
            with pytest.raises(ConfigError, match=f"{name} = '{value}'.*{name} must"):
                make_config(tag, **{name: value}, **others)
        for value in accepted:
            make_config(tag, **{name: value}, **others)


def test_experiment_env_has_the_task_parameters():
    # the paper fixes each experiment's environment; no run setting changes it
    for spec in EXPERIMENTS.values():
        env = make_experiment_env(spec)
        if spec.is_rce:
            assert env.params == RcePhysicsParams()
        else:
            assert (env.version, env.params) == (spec.env_version, BiasCorrParams())


def test_suite_writes_one_record_per_algo_seed(tmp_path):
    records = run_experiment_suite("v0-homo-64L", ["dpg", "reinforce"], [1, 2],
                                   out_dir=tmp_path, steps=400)
    assert len(records) == 4
    files = sorted(p.name for p in tmp_path.glob("*.rec"))
    assert files == sorted(
        record_filename("v0-homo-64L", a, s)
        for a in ("dpg", "reinforce") for s in (1, 2))
    loaded = load_records_dir(tmp_path)
    assert {(r.algorithm, r.seed) for r in loaded} == {
        ("dpg", 1), ("dpg", 2), ("reinforce", 1), ("reinforce", 2)}
    for rec in loaded:
        assert rec.steps == [200, 400]


def test_suite_rerun_is_byte_identical_apart_from_header(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        run_experiment_suite("v0-homo-64L", ["dpg"], [1], out_dir=out, steps=400)
    name = record_filename("v0-homo-64L", "dpg", 1)
    rec1 = load_record(out1 / name)
    rec2 = load_record(out2 / name)
    assert rec1.body_bytes() == rec2.body_bytes()
    assert rec1.config_digest == rec2.config_digest


def test_parallel_suite_matches_serial(tmp_path):
    serial = run_experiment_suite("v0-homo-64L", ["dpg"], [1, 2], steps=400,
                                  out_dir=tmp_path / "s", workers=1)
    parallel = run_experiment_suite("v0-homo-64L", ["dpg"], [1, 2], steps=400,
                                    out_dir=tmp_path / "p", workers=2)
    for a, b in zip(serial, parallel):
        assert a.entries == b.entries


def test_serial_run_never_loads_the_process_pool(tmp_path):
    # a one-worker suite, through the CLI, in a fresh interpreter
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["train", "--experiment", "v0-homo-64L", "--algo", "reinforce", "--seeds",
            "1", "--steps", "50", "--workers", "1", "--out", str(tmp_path)]
    code = ("import sys\nfrom climbench.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("*.rec"))) == 1


def test_rce_suite_writes_profile_sidecar(tmp_path):
    run_experiment_suite("rce-v0-homo-64L", ["dpg"], [1], out_dir=tmp_path,
                         steps=500)
    sidecar = tmp_path / "rce-v0-homo-64L__dpg__seed1.profile.csv"
    assert sidecar.exists()
    lines = sidecar.read_text().splitlines()
    assert lines[0] == "pressure_hPa,temperature_K,simulated_K"
    assert len(lines) == 18


# sha256 of the sidecar of a 1000-step PPO run on rce-v0-homo-64L, seed 2
PROFILE_SIDECAR_SHA256 = "343301ed5d3ebdca8b3343e53e194ecabc5fd312277da7e258b4f443d5a85c56"


def test_rce_profile_sidecar_bytes_are_pinned(tmp_path):
    # in a child with one BLAS thread, as the golden digests are
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("from climbench.experiments import run_experiment_suite\n"
            "run_experiment_suite('rce-v0-homo-64L', ['ppo'], [2], steps=1000, "
            f"out_dir={str(tmp_path)!r})\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    sidecar = tmp_path / "rce-v0-homo-64L__ppo__seed2.profile.csv"
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == PROFILE_SIDECAR_SHA256
