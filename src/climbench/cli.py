"""Command-line entry point: train, tune, evaluate, rank, export.

Exit codes: 0 success, 1 usage error (bad flags, unknown ids, config-file
sections, keys or values), 2 runtime failure (missing records, unwritable
output, aborted runs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from .algos.config import ALGORITHM_TAGS, make_config
from .configio import ConfigError, parse_config_file, parse_seeds
from .evalharness import (confidence_curves, delta_from_final, frequency_table,
                          n_to_threshold, rank_algorithms, threshold_for_experiment,
                          top1_table, top3_lists, variance_after_threshold)
from .experiments import EXPERIMENTS, run_experiment_suite
from .records import load_records_dir, record_filename

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="climbench",
                     description="RL algorithm workbench on idealised climate tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train algorithms and write run records")
    train.add_argument("--experiment", choices=EXPERIMENTS, metavar="ID",
                       help="experiment id (see --list)")
    train.add_argument("--algo", dest="algos", action="append", default=None,
                       help="algorithm tag; repeat or comma-separate")
    train.add_argument("--seeds", default="1..10", help="e.g. 1..10 or 1,2,5")
    train.add_argument("--steps", type=int, default=None,
                       help="override the experiment step budget")
    train.add_argument("--workers", type=int, default=1)
    train.add_argument("--config", default=None,
                       help="file of [algo.<tag>] hyperparameter sections")
    train.add_argument("--out", default="records", help="records output directory")
    train.add_argument("--tuned-dir", default=None,
                       help="tuner output directory (required for *-optim-L)")
    train.add_argument("--list", action="store_true", help="list experiment ids")

    tune = sub.add_parser("tune", help="hyperparameter search with pruning")
    tune.add_argument("--experiment", choices=EXPERIMENTS, metavar="ID", required=True)
    tune.add_argument("--algo", action="append", required=True)
    tune.add_argument("--trials", type=int, default=32)
    tune.add_argument("--workers", type=int, default=1)
    tune.add_argument("--seed", type=int, default=1)
    tune.add_argument("--budget", type=int, default=None,
                      help="steps per trial (default: experiment budget)")
    tune.add_argument("--out", required=True, help="tuned-config output directory")

    evaluate = sub.add_parser("evaluate", help="per-run metric table from records")
    evaluate.add_argument("--records", required=True)
    evaluate.add_argument("--out", default=None, help="write CSV here as well")

    rank = sub.add_parser("rank", help="top-3 per experiment + frequency tables")
    rank.add_argument("--records", required=True)
    rank.add_argument("--out", default=None, help="directory for CSV tables")

    export = sub.add_parser("export", help="numeric data exports")
    export_sub = export.add_subparsers(dest="what", required=True)
    curves = export_sub.add_parser("curves", help="mean +- CI learning curves")
    curves.add_argument("--records", required=True)
    curves.add_argument("--out", required=True)
    curves.add_argument("--bucket", type=int, default=None)
    profile = export_sub.add_parser("profile", help="final temperature profile table")
    profile.add_argument("--records", required=True)
    profile.add_argument("--algo", required=True)
    profile.add_argument("--seed", type=int, required=True)
    profile.add_argument("--experiment", default=None,
                         help="needed when the directory holds several experiments")
    profile.add_argument("--out", required=True)
    return parser


def _parse_algos(values) -> list[str]:
    """The tags of the repeated or comma-separated ``--algo`` values; none may
    repeat, since each (algorithm, seed) has one record path."""
    if not values:
        raise UsageError("at least one --algo is required")
    tags = []
    for v in values:
        tags.extend(t.strip() for t in v.split(",") if t.strip())
    for i, t in enumerate(tags):
        if t not in ALGORITHM_TAGS:
            raise UsageError(f"unknown algorithm {t!r}; known: {', '.join(ALGORITHM_TAGS)}")
        if t in tags[:i]:
            raise UsageError(f"repeated algorithm {t!r}")
    return tags


def _require_positive(**values) -> None:
    """Reject a count or step budget below 1; None means the default."""
    for name, value in values.items():
        if value is not None and value < 1:
            raise UsageError(f"--{name} must be at least 1, got {value}")


def _algo_overrides(path) -> dict[str, dict[str, str]]:
    """The ``[algo.<tag>]`` sections of a config file, by tag; each must build,
    and any other section is a usage error."""
    overrides = {}
    for name, values in parse_config_file(path).items():
        tag = name.removeprefix("algo.")
        if tag == name or tag not in ALGORITHM_TAGS:
            raise UsageError(f"{path}: train reads only [algo.<tag>] sections, "
                             f"not [{name}]")
        try:
            make_config(tag, **values)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [{name}] {exc}") from None
        overrides[tag] = values
    return overrides


def cmd_train(args) -> int:
    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    # every [algo.<tag>] section, not only the selected ones, must build
    overrides = _algo_overrides(args.config) if args.config else {}
    if not args.experiment:
        raise UsageError("--experiment is required")
    spec = EXPERIMENTS[args.experiment]
    if spec.layer_policy == "optim" and args.tuned_dir is None:
        raise UsageError(f"{spec.experiment_id} needs tuned hyperparameters: pass "
                         "--tuned-dir, the output directory of 'tune'")
    algos = _parse_algos(args.algos)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        raise UsageError(f"--seeds: {exc}") from exc
    _require_positive(steps=args.steps, workers=args.workers)
    records = run_experiment_suite(
        spec.experiment_id, algos, seeds, out_dir=args.out, workers=args.workers,
        algo_overrides=overrides, tuned_dir=args.tuned_dir, steps=args.steps)
    aborted = [r for r in records if r.aborted]
    for rec in records:
        status = "ABORTED: " + rec.abort_reason if rec.aborted else \
            f"final return {rec.final_return():.4f}"
        print(f"{rec.experiment_id} {rec.algorithm} seed={rec.seed}: {status}")
    print(f"wrote {len(records)} records to {args.out}")
    return 2 if aborted else 0


def cmd_tune(args) -> int:
    _require_positive(trials=args.trials, workers=args.workers, budget=args.budget)
    # imported here: the tuner's process pool stays out of every other command
    from .tuner import tune_algorithm
    for algo in _parse_algos(args.algo):
        result = tune_algorithm(algo, args.experiment, n_trials=args.trials,
                                workers=args.workers, seed=args.seed,
                                out_dir=args.out, trial_budget=args.budget)
        pruned = sum(t.status == "pruned" for t in result.trials)
        print(f"{args.experiment} {algo}: best trial {result.best.trial_id} "
              f"score {result.best.final_score:.4f} "
              f"({pruned}/{len(result.trials)} pruned, "
              f"{result.total_env_steps} env steps)")
    print(f"tuned configs written under {args.out}")
    return 0


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def cmd_evaluate(args) -> int:
    records = load_records_dir(args.records)
    lines = ["experiment_id,algorithm,seed,n_to_threshold,var_after_threshold,"
             "delta_from_final"]
    for rec in sorted(records, key=lambda r: (r.experiment_id, r.algorithm, r.seed)):
        threshold = threshold_for_experiment(rec.experiment_id)
        lines.append(",".join([
            rec.experiment_id, rec.algorithm, str(rec.seed),
            str(n_to_threshold(rec, threshold) or ""),
            _fmt(variance_after_threshold(rec, threshold)),
            _fmt(delta_from_final(rec, threshold)),
        ]))
    lines.append("")
    lines.append("experiment_id,algorithm,seeds,median_n_to_threshold,"
                 "mean_variance,mean_delta")
    for experiment_id, scores in rank_algorithms(records).items():
        for agg in sorted(scores, key=lambda s: s.algorithm):
            lines.append(",".join([
                experiment_id, agg.algorithm, str(agg.seeds),
                _fmt(agg.median_n_to_threshold), _fmt(agg.mean_variance),
                _fmt(agg.mean_delta)]))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_rank(args) -> int:
    records = load_records_dir(args.records)
    ranking = rank_algorithms(records)
    tops = top3_lists(ranking)
    out_lines = []
    for experiment_id, top in tops.items():
        out_lines.append(f"{experiment_id}: " + " ".join(
            f"#{i + 1}={algo}" for i, algo in enumerate(top)))
    freq = frequency_table(tops)
    out_lines.append("")
    out_lines.append("top-3 frequency:")
    out_lines.extend(f"  {algo:12s} {count}" for algo, count in freq)
    top1 = top1_table(tops)
    out_lines.append("top-1 frequency:")
    out_lines.extend(f"  {algo:12s} {count}" for algo, count in top1)
    print("\n".join(out_lines))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        top3_csv = ["experiment_id,rank1,rank2,rank3"]
        top3_csv += [f"{e},{','.join(t[:3])}" for e, t in tops.items()]
        (out_dir / "top3.csv").write_text("\n".join(top3_csv) + "\n", encoding="utf-8")
        (out_dir / "top3_frequency.csv").write_text(
            "algorithm,frequency\n" + "\n".join(f"{a},{c}" for a, c in freq) + "\n",
            encoding="utf-8")
        (out_dir / "top1_frequency.csv").write_text(
            "algorithm,frequency\n" + "\n".join(f"{a},{c}" for a, c in top1) + "\n",
            encoding="utf-8")
    return 0


def cmd_export_curves(args) -> int:
    _require_positive(bucket=args.bucket)
    records = load_records_dir(args.records)
    curves = confidence_curves(records, args.bucket)
    lines = ["algorithm,global_step,mean_return,ci_half_width,n_seeds"]
    for algo, rows in curves.items():
        for step, mean, half, n in rows:
            lines.append(f"{algo},{step},{mean!r},{half!r},{n}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote curves for {len(curves)} algorithms to {args.out}")
    return 0


def cmd_export_profile(args) -> int:
    records_dir = Path(args.records)
    # the sidecar sits beside its record, as ``run_single_task`` writes it
    pattern = Path(record_filename(args.experiment or "*", args.algo,
                                   args.seed)).with_suffix(".profile.csv").name
    matches = sorted(records_dir.glob(pattern))
    if not matches:
        raise FileNotFoundError(
            f"no profile sidecar matching {pattern} in {records_dir} "
            "(profiles are written by RCE training runs)")
    if len(matches) > 1:
        raise UsageError(f"ambiguous profile match {pattern}; pass --experiment")
    lines = Path(matches[0]).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header != ["pressure_hPa", "temperature_K", "simulated_K"]:
        raise ValueError(f"{matches[0]}: unexpected profile format")
    out_lines = ["pressure_hPa,simulated_K,observed_K,difference_K"]
    for row in lines[1:]:
        p, obs, sim = (float(v) for v in row.split(","))
        out_lines.append(f"{p!r},{sim!r},{obs!r},{sim - obs!r}")
    Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    print(f"wrote 17-level profile table to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "tune":
            return cmd_tune(args)
        if args.command == "evaluate":
            return cmd_evaluate(args)
        if args.command == "rank":
            return cmd_rank(args)
        if args.command == "export":
            if args.what == "curves":
                return cmd_export_curves(args)
            return cmd_export_profile(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
