"""CLI behaviour: flags, exit codes, file outputs, idempotence."""

import json
from pathlib import Path

import numpy as np
import pytest

from climbench.cli import main
from climbench.evalharness import (REFERENCE_TOP3_BIASCORR, REFERENCE_TOP3_RCE,
                                   REFERENCE_TOP3_FREQUENCIES,
                                   REFERENCE_TOP1_FREQUENCIES)
from climbench.records import RunRecord, load_record, record_filename


def run_cli(*argv):
    return main(list(argv))


def test_unknown_algorithm_exits_1(tmp_path):
    code = run_cli("train", "--experiment", "v0-homo-64L", "--algo", "zzz",
                   "--out", str(tmp_path))
    assert code == 1


def test_unknown_experiment_exits_1(tmp_path):
    code = run_cli("train", "--experiment", "vX-nope", "--algo", "dpg",
                   "--out", str(tmp_path))
    assert code == 1


def test_missing_required_flags_exit_1(tmp_path):
    assert run_cli("train", "--algo", "dpg", "--out", str(tmp_path)) == 1
    assert run_cli("evaluate") == 1  # argparse error routed to exit 1


def test_train_has_no_checkpoints_option(tmp_path, capsys):
    # a run writes its record (and, on RCE, its profile sidecar), no networks
    out = tmp_path / "records"
    assert run_cli("train", "--experiment", "v0-homo-64L", "--algo", "dpg",
                   "--seeds", "1", "--steps", "50", "--checkpoints",
                   "--out", str(out)) == 1
    assert "unrecognized arguments: --checkpoints" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--steps", "0"), ("--steps", "-5"),
                                        ("--workers", "0")])
def test_train_non_positive_count_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "records"
    code = run_cli("train", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--seeds", "1", flag, value, "--out", str(out))
    assert code == 1
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section,line,named", [
    ("algo.reinforce", "learning_rate = abc", "learning_rate = 'abc'"),
    ("algo.reinforce", "bogus = 1", "'bogus'"),
    ("algo.reinforce", "learning_rate = -1", "learning_rate must be positive"),
    ("algo.reinforce", "gamma = 1.5", "gamma must be in [0, 1]"),
    ("algo.reinforce", "actor_critic_layer_size = 0", "must be at least 1"),
    ("algo.ppo", "max_grad_norm = -0.5", "max_grad_norm must be non-negative"),
    ("algo.td3", "noise_clip = -0.5", "noise_clip must be non-negative"),
    ("algo.tqc", "n_drop_per_critic = -1", "n_drop_per_critic must be non-negative"),
    ("algo.tqc", "n_drop_per_critic = 25", "n_drop_per_critic must be below n_quantiles"),
    ("algo.dpg", "exploration_noise = -0.1", "exploration_noise must be non-negative"),
    ("algo.nosuch", "x = 1", "[algo.nosuch]"),
    ("runn", "steps = 5", "[runn]"),
    (None, "steps = 5", "no section headers")])
def test_train_config_file_mistake_is_usage_error(tmp_path, capsys, section, line,
                                                  named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{line}\n" if section else f"{line}\n")
    out = tmp_path / "records"
    code = run_cli("train", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--seeds", "1", "--steps", "50", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and named in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("line,named", [
    ("learning_rate = abc", "learning_rate = 'abc'"),
    ("tau = 2", "tau must be in [0, 1]")])
def test_train_checks_the_sections_of_algorithms_it_does_not_run(tmp_path, capsys,
                                                                  line, named):
    # A shared config file's mistake surfaces in every run, not only in a
    # later one that selects the algorithm.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[algo.td3]\n{line}\n")
    out = tmp_path / "records"
    code = run_cli("train", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--seeds", "1", "--steps", "50", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "[algo.td3]" in err and named in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section,line", [("run", "steps = 5"),
                                          ("env", "t_physics = 324.75"),
                                          ("algos.dpg", "learning_rate = 0.01")])
def test_train_config_file_section_other_than_algo_is_usage_error(tmp_path, capsys,
                                                                  section, line):
    # a run's experiment, seeds and environment come from the command line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[algo.dpg]\nlearning_rate = 0.01\n\n[{section}]\n{line}\n")
    out = tmp_path / "records"
    code = run_cli("train", "--experiment", "v0-homo-64L", "--algo", "dpg",
                   "--seeds", "1", "--steps", "50", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and f"not [{section}]" in err
    assert not out.exists()


def test_tune_takes_no_config_file(tmp_path, capsys):
    # tune draws every tuned hyperparameter itself, on the experiment's env
    cfg = tmp_path / "tune.cfg"
    cfg.write_text("[algo.reinforce]\nlearning_rate = 0.01\n")
    out = tmp_path / "tuned"
    code = run_cli("tune", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--trials", "2", "--budget", "50", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algos,workers", [(["ddpg,ddpg"], "1"),
                                           (["ddpg", "reinforce,ddpg"], "2")])
def test_train_repeated_algorithm_is_usage_error(tmp_path, capsys, algos, workers):
    # each (algorithm, seed) has one record path, which two runs would share
    out = tmp_path / "records"
    args = ["train", "--experiment", "v0-homo-64L", "--seeds", "1", "--steps", "50",
            "--workers", workers, "--out", str(out)]
    for value in algos:
        args += ["--algo", value]
    assert run_cli(*args) == 1
    assert "usage error: repeated algorithm 'ddpg'" in capsys.readouterr().err
    assert not out.exists()


def test_tune_repeated_algorithm_is_usage_error(tmp_path, capsys):
    out = tmp_path / "tuned"
    code = run_cli("tune", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--algo", "reinforce", "--trials", "2", "--budget", "50",
                   "--out", str(out))
    assert code == 1
    assert "usage error: repeated algorithm 'reinforce'" in capsys.readouterr().err
    assert not out.exists()


def test_train_optim_experiment_needs_tuned_dir(tmp_path, capsys):
    out = tmp_path / "records"
    args = ["train", "--experiment", "v0-optim-L", "--algo", "ddpg", "--seeds", "1",
            "--steps", "50", "--out", str(out)]
    assert run_cli(*args) == 1
    assert "v0-optim-L needs tuned hyperparameters: pass --tuned-dir" in \
        capsys.readouterr().err
    # a tuned directory without the algorithm's fragment is a runtime failure
    assert run_cli(*args, "--tuned-dir", str(tmp_path / "tuned")) == 2
    assert "no tuned fragment for ddpg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds,message", [
    ("3..1", "no seeds"), ("x", "malformed seeds"), ("1..2..3", "malformed seeds"),
    ("1,,x", "malformed seeds"), (",", "no seeds"), ("1,1", "repeated seed"),
    ("2,1..3", "malformed seeds"), ("1,2,1", "repeated seed")])
def test_train_bad_seeds_are_usage_errors(tmp_path, capsys, seeds, message):
    out = tmp_path / "records"
    assert run_cli("train", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--seeds", seeds, "--steps", "50", "--out", str(out)) == 1
    assert f"usage error: --seeds: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("flag", ["--trials", "--workers", "--budget"])
def test_tune_non_positive_count_is_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "tuned"
    code = run_cli("tune", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   flag, "0", "--out", str(out))
    assert code == 1
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_writes_records_and_rerun_identical(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        code = run_cli("train", "--experiment", "v0-homo-64L", "--algo", "dpg",
                       "--seeds", "1..2", "--steps", "400", "--out", str(out))
        assert code == 0
    names = sorted(p.name for p in out1.glob("*.rec"))
    assert names == [record_filename("v0-homo-64L", "dpg", 1),
                     record_filename("v0-homo-64L", "dpg", 2)]
    for name in names:
        a = load_record(out1 / name)
        b = load_record(out2 / name)
        assert a.body_bytes() == b.body_bytes()


def test_evaluate_empty_dir_exits_2(tmp_path, capsys):
    code = run_cli("evaluate", "--records", str(tmp_path))
    assert code == 2
    assert "no records" in capsys.readouterr().err


def _write_reference_records(records_dir: Path):
    """Synthetic records whose internal ranking reproduces the reference
    top-3 tables: rank-1 crosses earliest, then rank-2, rank-3; all other
    algorithms never cross."""
    records_dir.mkdir(parents=True, exist_ok=True)
    all_algos = ["DDPG", "DPG", "PPO", "REINFORCE", "SAC", "TD3", "TQC", "TRPO"]
    for reference in (REFERENCE_TOP3_BIASCORR, REFERENCE_TOP3_RCE):
        for experiment_id, top3 in reference.items():
            episode = 500 if experiment_id.startswith("rce") else 200
            good = -0.2 if not experiment_id.startswith("rce") else -40_000.0
            if experiment_id.startswith("v1"):
                good = -2.0
            if experiment_id.startswith("v2"):
                good = -162.0
            bad = good * 50
            for algo in all_algos:
                rec = RunRecord(experiment_id, algo, 1)
                if algo in top3:
                    cross_at = (top3.index(algo) + 1) * 2  # episodes 2, 4, 6
                else:
                    cross_at = None
                for ep in range(1, 9):
                    value = good if (cross_at is not None and ep >= cross_at) else bad
                    rec.add(ep * episode, value)
                rec.save(records_dir /
                         record_filename(experiment_id, algo, 1))


def test_rank_reproduces_reference_tables(tmp_path, capsys):
    records_dir = tmp_path / "records"
    _write_reference_records(records_dir)
    out_dir = tmp_path / "tables"
    code = run_cli("rank", "--records", str(records_dir), "--out", str(out_dir))
    assert code == 0
    freq_lines = (out_dir / "top3_frequency.csv").read_text().splitlines()[1:]
    freq = {line.split(",")[0]: int(line.split(",")[1]) for line in freq_lines}
    expected = dict(REFERENCE_TOP3_FREQUENCIES["biascorr"])
    for algo, count in REFERENCE_TOP3_FREQUENCIES["rce"]:
        expected[algo] = expected.get(algo, 0) + count
    assert freq == expected
    top1_lines = (out_dir / "top1_frequency.csv").read_text().splitlines()[1:]
    top1 = {line.split(",")[0]: int(line.split(",")[1]) for line in top1_lines}
    expected1 = dict(REFERENCE_TOP1_FREQUENCIES["biascorr"])
    for algo, count in REFERENCE_TOP1_FREQUENCIES["rce"]:
        expected1[algo] = expected1.get(algo, 0) + count
    assert top1 == expected1
    top3_lines = (out_dir / "top3.csv").read_text().splitlines()[1:]
    by_exp = {line.split(",")[0]: line.split(",")[1:] for line in top3_lines}
    for exp, top in REFERENCE_TOP3_BIASCORR.items():
        assert by_exp[exp] == top
    for exp, top in REFERENCE_TOP3_RCE.items():
        assert by_exp[exp] == top


def test_evaluate_output_columns(tmp_path, capsys):
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    rec = RunRecord("v0-homo-64L", "dpg", 1)
    rec.add(200, -1.0)
    rec.add(400, -0.1)
    rec.save(records_dir / record_filename("v0-homo-64L", "dpg", 1))
    out = tmp_path / "metrics.csv"
    code = run_cli("evaluate", "--records", str(records_dir), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment_id,algorithm,seed,n_to_threshold")
    row = lines[1].split(",")
    assert row[:4] == ["v0-homo-64L", "dpg", "1", "400"]


def test_evaluate_summary_table(tmp_path, capsys):
    # td3 outranks ddpg on v0, so rank order and name order differ there; the
    # summary lists rows by experiment, then algorithm name.
    returns = {
        ("v0-homo-64L", "ddpg", 1): [-1.0, -0.5],
        ("v0-homo-64L", "ddpg", 2): [-1.0, -0.25],
        ("v0-homo-64L", "td3", 1): [-0.125, -0.125],
        ("v0-homo-64L", "td3", 2): [-0.5, 0.0],
        ("v2-homo-64L", "ddpg", 1): [-170.0, -160.0, -150.0],
        ("v2-homo-64L", "ddpg", 2): [-160.0, -170.0, -170.0],
        ("v2-homo-64L", "td3", 1): [-200.0, -180.0, -170.0],
        ("v2-homo-64L", "td3", 2): [-190.0, -180.0, -162.0],
    }
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    for (experiment_id, algo, seed), values in returns.items():
        rec = RunRecord(experiment_id, algo, seed)
        for episode, value in enumerate(values, start=1):
            rec.add(200 * episode, value)
        rec.save(records_dir / record_filename(experiment_id, algo, seed))
    assert run_cli("evaluate", "--records", str(records_dir)) == 0
    summary = capsys.readouterr().out.split("\n\n")[1].splitlines()
    assert summary == [
        "experiment_id,algorithm,seeds,median_n_to_threshold,mean_variance,mean_delta",
        "v0-homo-64L,ddpg,2,inf,0.0,-0.125",
        "v0-homo-64L,td3,2,300.0,0.0,0.1875",
        "v2-homo-64L,ddpg,2,300.0,23.611111111111107,2.7179999999999893",
        "v2-homo-64L,td3,2,inf,0.0,-3.2820000000000107",
    ]


def test_export_curves_ci_halfwidth(tmp_path):
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    values = {1: -1.0, 2: -0.9, 3: -0.8}
    for seed, v in values.items():
        rec = RunRecord("v0-homo-64L", "dpg", seed)
        rec.add(200, v)
        rec.add(400, v + 0.5)
        rec.save(records_dir / record_filename("v0-homo-64L", "dpg", seed))
    out = tmp_path / "curves.csv"
    assert run_cli("export", "curves", "--records", str(records_dir),
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "algorithm,global_step,mean_return,ci_half_width,n_seeds"
    first = lines[1].split(",")
    sd = np.std([-1.0, -0.9, -0.8], ddof=1)
    assert first[0] == "dpg" and int(first[1]) == 200
    assert float(first[2]) == pytest.approx(-0.9)
    assert float(first[3]) == pytest.approx(1.96 * sd / np.sqrt(3))
    assert int(first[4]) == 3


def test_export_curves_refuses_records_of_two_experiments(tmp_path, capsys):
    # one directory holds every experiment's records unless --out says otherwise
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    for experiment, value in (("v0-homo-64L", -0.1), ("rce-v0-homo-64L", -50_000.0)):
        rec = RunRecord(experiment, "ddpg", 1)
        rec.add(200, value)
        rec.save(records_dir / record_filename(experiment, "ddpg", 1))
    out = tmp_path / "curves.csv"
    assert run_cli("export", "curves", "--records", str(records_dir),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "experiments rce-v0-homo-64L, v0-homo-64L;" in err
    assert not out.exists()


@pytest.mark.parametrize("bucket", ["0", "-100"])
def test_export_curves_bucket_below_one_is_usage_error(tmp_path, capsys, bucket):
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    rec = RunRecord("v0-homo-64L", "dpg", 1)
    rec.add(200, -1.0)
    rec.add(400, -0.5)
    rec.save(records_dir / record_filename("v0-homo-64L", "dpg", 1))
    out = tmp_path / "curves.csv"
    assert run_cli("export", "curves", "--records", str(records_dir),
                   "--bucket", bucket, "--out", str(out)) == 1
    assert "--bucket must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_export_profile_four_columns(tmp_path):
    records_dir = tmp_path / "records"
    code = run_cli("train", "--experiment", "rce-v0-homo-64L", "--algo", "dpg",
                   "--seeds", "1", "--steps", "500", "--out", str(records_dir))
    assert code == 0
    out = tmp_path / "profile.csv"
    code = run_cli("export", "profile", "--records", str(records_dir),
                   "--algo", "dpg", "--seed", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pressure_hPa,simulated_K,observed_K,difference_K"
    assert len(lines) == 18
    for row in lines[1:]:
        p, sim, obs, diff = (float(x) for x in row.split(","))
        assert diff == pytest.approx(sim - obs, abs=1e-12)


def test_export_profile_missing_exits_2(tmp_path, capsys):
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    code = run_cli("export", "profile", "--records", str(records_dir),
                   "--algo", "dpg", "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_config_file_algo_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[algo.dpg]\nlearning_rate = 0.0005\n")
    records = []
    for name, extra in (("records", ["--config", str(cfg)]), ("records2", [])):
        out = tmp_path / name
        assert run_cli("train", "--experiment", "v0-homo-64L", "--algo", "dpg",
                       "--seeds", "1", "--steps", "400", "--out", str(out),
                       *extra) == 0
        records.append(load_record(out / record_filename("v0-homo-64L", "dpg", 1)))
    rec, rec2 = records
    assert rec.entries[-1][0] == 400
    # a different learning rate shifts returns vs the default
    assert rec.entries != rec2.entries


def test_tune_cli_writes_fragment(tmp_path):
    out = tmp_path / "tuned"
    code = run_cli("tune", "--experiment", "v0-homo-64L", "--algo", "reinforce",
                   "--trials", "2", "--budget", "400", "--out", str(out))
    assert code == 0
    assert (out / "v0" / "reinforce.cfg").exists()
    study = json.loads((out / "v0" / "reinforce.study.json").read_text())
    assert study["n_trials"] == 2
    assert study["seed"] == 1


def test_train_list_experiments(capsys):
    assert run_cli("train", "--list") == 0
    out = capsys.readouterr().out
    assert "v0-homo-64L-60k" in out and "rce-v0-optim-L-10k" in out


def test_rank_rerun_byte_identical(tmp_path):
    records_dir = tmp_path / "records"
    _write_reference_records(records_dir)
    outs = []
    for name in ("t1", "t2"):
        out_dir = tmp_path / name
        assert run_cli("rank", "--records", str(records_dir),
                       "--out", str(out_dir)) == 0
        outs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outs[0] == outs[1]


# Four returns per seed, two seeds per (experiment, algorithm); several land
# exactly on a threshold (-0.25, -2.718, -162.718, -43900), which counts as
# reaching it.
PINNED_RETURNS = {
    ("v0-homo-64L", "ddpg"): [[-1.0, -0.3, -0.25, -0.125], [-0.5, -0.5, -0.5, -0.75]],
    ("v0-homo-64L", "td3"): [[-0.2, -0.3, -0.1, -0.2], [-2.0, -0.24, -1.0, -0.01]],
    ("v1-homo-64L", "ddpg"): [[-5.0, -2.718, -3.0, -2.5], [-9.0, -8.0, -7.0, -6.0]],
    ("v1-homo-64L", "sac"): [[-3.0, -2.0, -2.5, -1.0], [-2.5, -2.7, -1.5, -0.5]],
    ("v2-homo-64L", "sac"): [[-170.0, -162.718, -165.0, -160.0],
                             [-200.0, -180.0, -170.0, -163.0]],
    ("v2-homo-64L", "tqc"): [[-162.0, -161.0, -170.0, -162.5],
                             [-190.0, -162.7, -162.8, -150.0]],
    ("rce-v0-homo-64L", "ppo"): [[-90_000.0, -60_000.0, -43_900.0, -50_000.0],
                                 [-80_000.0, -70_000.0, -65_000.0, -45_000.0]],
    ("rce-v0-homo-64L", "trpo"): [[-50_000.0, -43_000.0, -44_000.0, -40_000.0],
                                  [-100_000.0, -43_899.5, -43_950.0, -41_000.0]],
}

PINNED_METRICS = """\
experiment_id,algorithm,seed,n_to_threshold,var_after_threshold,delta_from_final
rce-v0-homo-64L,ppo,1,1500,9302500.0,-6100.0
rce-v0-homo-64L,ppo,2,,,-1100.0
rce-v0-homo-64L,trpo,1,1000,2888888.8888888895,3900.0
rce-v0-homo-64L,trpo,2,1000,1901350.0555555557,2900.0
v0-homo-64L,ddpg,1,600,0.00390625,0.125
v0-homo-64L,ddpg,2,,,-0.5
v0-homo-64L,td3,1,200,0.004999999999999999,0.04999999999999999
v0-homo-64L,td3,2,400,0.17895555555555553,0.24
v1-homo-64L,ddpg,1,400,0.04189422222222222,0.21799999999999997
v1-homo-64L,ddpg,2,,,-3.282
v1-homo-64L,sac,1,400,0.38888888888888884,1.718
v1-homo-64L,sac,2,200,0.7700000000000001,2.218
v2-homo-64L,sac,1,400,4.177227555555555,2.7179999999999893
v2-homo-64L,sac,2,,,-0.2820000000000107
v2-homo-64L,tqc,1,200,12.796875,0.2179999999999893
v2-homo-64L,tqc,2,400,36.126666666666665,12.71799999999999

experiment_id,algorithm,seeds,median_n_to_threshold,mean_variance,mean_delta
rce-v0-homo-64L,ppo,2,inf,9302500.0,-3600.0
rce-v0-homo-64L,trpo,2,1000.0,2395119.4722222225,3400.0
v0-homo-64L,ddpg,2,inf,0.00390625,-0.1875
v0-homo-64L,td3,2,300.0,0.09197777777777777,0.145
v1-homo-64L,ddpg,2,inf,0.04189422222222222,-1.532
v1-homo-64L,sac,2,300.0,0.5794444444444444,1.968
v2-homo-64L,sac,2,inf,4.177227555555555,1.2179999999999893
v2-homo-64L,tqc,2,300.0,24.461770833333333,6.467999999999989
"""

PINNED_TABLES = {
    "top3.csv": "experiment_id,rank1,rank2,rank3\nrce-v0-homo-64L,trpo,ppo\n"
                "v0-homo-64L,td3,ddpg\nv1-homo-64L,sac,ddpg\nv2-homo-64L,tqc,sac\n",
    "top3_frequency.csv": "algorithm,frequency\nddpg,2\nsac,2\nppo,1\ntd3,1\n"
                          "tqc,1\ntrpo,1\n",
    "top1_frequency.csv": "algorithm,frequency\nsac,1\ntd3,1\ntqc,1\ntrpo,1\n",
}


def test_evaluate_and_rank_output_bytes_are_pinned(tmp_path, capsys):
    # One experiment of each environment, so every threshold takes part.
    records_dir = tmp_path / "records"
    records_dir.mkdir()
    for (experiment_id, algo), by_seed in PINNED_RETURNS.items():
        episode = 500 if experiment_id.startswith("rce") else 200
        for seed, values in enumerate(by_seed, start=1):
            rec = RunRecord(experiment_id, algo, seed)
            for n, value in enumerate(values, start=1):
                rec.add(n * episode, value)
            rec.save(records_dir / record_filename(experiment_id, algo, seed))
    metrics = tmp_path / "metrics.csv"
    assert run_cli("evaluate", "--records", str(records_dir), "--out", str(metrics)) == 0
    assert capsys.readouterr().out == PINNED_METRICS
    assert metrics.read_bytes() == PINNED_METRICS.encode()
    tables = tmp_path / "tables"
    assert run_cli("rank", "--records", str(records_dir), "--out", str(tables)) == 0
    assert {p.name: p.read_bytes() for p in tables.iterdir()} == {
        name: text.encode() for name, text in PINNED_TABLES.items()}
