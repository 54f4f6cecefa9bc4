"""Random hyperparameter search with wave-synchronized median pruning.

All live trials advance one segment (20% of the step budget) at a time, in
parallel worker processes when requested. After each checkpoint the
coordinator stops every trial whose interim value is strictly below the median
of the values reported at that checkpoint. Strict comparison guarantees the
incumbent best trial is never pruned, and the wave synchronization makes a
study deterministic for any worker count: every trial is seeded by
(study seed, trial id) and segmented training walks the same trajectory as
unsegmented training.

The interim (and final) value of a trial is the mean episodic return over the
last 10% of the budget's steps, falling back to the most recent episode.
"""

from __future__ import annotations

import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .algos import BaseConfig, make_config, make_trainer
from .algos.config import TUNABLE_FIELDS
from .configio import write_algo_fragment
from .envs.core import RngStream
from .experiments import experiment_spec, make_experiment_env
from .records import RunRecord

__all__ = ["SearchSpace", "PARAMETER_RANGES", "build_search_space", "sample_config",
           "Trial", "StudyResult", "run_study", "TrainingTrialRunner",
           "tune_algorithm", "CHECKPOINT_FRACTIONS", "STREAM_TUNER"]

STREAM_TUNER = 6
CHECKPOINT_FRACTIONS = (0.2, 0.4, 0.6, 0.8)

# (kind, ...) per tunable: log-uniform for learning rates, uniform for
# coefficients, categorical for layer/batch sizes, integer ranges otherwise.
PARAMETER_RANGES: dict[str, tuple] = {
    "learning_rate": ("log", 1e-5, 1e-2),
    "policy_lr": ("log", 1e-5, 1e-2),
    "q_lr": ("log", 1e-5, 1e-2),
    "actor_adam_lr": ("log", 1e-5, 1e-2),
    "critic_adam_lr": ("log", 1e-5, 1e-2),
    "alpha_adam_lr": ("log", 1e-5, 1e-2),
    "tau": ("uniform", 0.001, 0.1),
    "exploration_noise": ("uniform", 0.01, 0.5),
    "policy_noise": ("uniform", 0.05, 0.5),
    "noise_clip": ("uniform", 0.1, 1.0),
    "clip_coef": ("uniform", 0.1, 0.3),
    "max_grad_norm": ("uniform", 0.3, 1.0),
    "alpha": ("uniform", 0.05, 0.5),
    "batch_size": ("choice", (64, 128, 256)),
    "actor_critic_layer_size": ("choice", (16, 32, 64, 128, 256)),
    "num_minibatches": ("int", 1, 8),
    "update_epochs": ("int", 3, 15),
    "policy_frequency": ("int", 1, 4),
    "target_network_frequency": ("int", 1, 4),
    "n_quantiles": ("int", 15, 35),
    "n_critics": ("int", 2, 5),
}


@dataclass(frozen=True)
class SearchSpace:
    algorithm: str
    parameters: dict[str, tuple]


def build_search_space(algorithm: str) -> SearchSpace:
    if algorithm not in TUNABLE_FIELDS:
        raise ValueError(f"unknown algorithm tag {algorithm!r}")
    return SearchSpace(algorithm, {name: PARAMETER_RANGES[name]
                                   for name in TUNABLE_FIELDS[algorithm]})


def sample_parameters(space: SearchSpace, rng: RngStream) -> dict[str, object]:
    sampled: dict[str, object] = {}
    for name, spec in space.parameters.items():
        kind = spec[0]
        if kind == "log":
            lo, hi = math.log(spec[1]), math.log(spec[2])
            sampled[name] = float(math.exp(rng.uniform(lo, hi)))
        elif kind == "uniform":
            sampled[name] = float(rng.uniform(spec[1], spec[2]))
        elif kind == "choice":
            sampled[name] = int(spec[1][int(rng.integers(0, len(spec[1])))])
        elif kind == "int":
            sampled[name] = int(rng.integers(spec[1], spec[2] + 1))
        else:
            raise ValueError(f"unknown range kind {kind!r}")
    return sampled


def sample_config(space: SearchSpace, rng: RngStream,
                  total_timesteps: int) -> tuple[BaseConfig, dict[str, object]]:
    sampled = sample_parameters(space, rng)
    cfg = make_config(space.algorithm, total_timesteps=total_timesteps, **sampled)
    return cfg, sampled


@dataclass
class Trial:
    trial_id: int
    sampled: dict[str, object]
    checkpoints: list[tuple[float, float]] = field(default_factory=list)
    status: str = "running"          # running | pruned | complete | failed
    final_score: float | None = None
    steps_consumed: int = 0
    error: str | None = None         # why a failed trial failed


@dataclass
class StudyResult:
    trials: list[Trial]
    best: Trial
    total_env_steps: int


class TrainingTrialRunner:
    """Builds and advances real trainers; state is the (picklable) trainer."""

    def __init__(self, algorithm: str, experiment_id: str,
                 env_overrides: dict | None = None, trial_seed: int = 1):
        self.algorithm = algorithm
        self.experiment_id = experiment_id
        self.env_overrides = env_overrides
        self.trial_seed = trial_seed  # tuning uses one fixed seed

    def build(self, cfg: BaseConfig):
        spec = experiment_spec(self.experiment_id)
        env = make_experiment_env(spec, self.env_overrides)
        return make_trainer(self.algorithm, env, cfg, self.trial_seed,
                            self.experiment_id)

    def advance(self, state, target_step: int):
        if state.train(total_steps=target_step).aborted:
            raise RuntimeError(state.record.abort_reason)
        return state, trial_value(state.record, target_step), state.global_step


def trial_value(record: RunRecord, current_step: int) -> float:
    """Mean episodic return over the trailing 10% of the budget."""
    if not record.entries:
        return -math.inf
    window_start = current_step - max(1, current_step // 10)
    tail = [ret for step, ret in record.entries if step > window_start]
    if not tail:
        tail = [record.entries[-1][1]]
    return float(statistics.fmean(tail))


def _advance_task(args):
    """(state, value, steps, error): a crashed trial has state None and its
    reason in error, which is None otherwise."""
    runner, state, cfg, target = args
    if state is None:
        state = runner.build(cfg)
    try:
        state, value, steps = runner.advance(state, target)
    except Exception as exc:  # a crashed trial must not sink the study
        return None, float("-inf"), getattr(state, "global_step", 0), str(exc)
    return state, value, steps, None


def run_study(runner, space: SearchSpace, n_trials: int, budget_steps: int,
              workers: int = 1, seed: int = 1,
              checkpoint_fractions: tuple = CHECKPOINT_FRACTIONS) -> StudyResult:
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = RngStream(seed, STREAM_TUNER)
    configs, trials = [], []
    for tid in range(n_trials):
        cfg, sampled = sample_config(space, rng, budget_steps)
        configs.append(cfg)
        trials.append(Trial(tid, sampled))
    states: dict[int, object] = {tid: None for tid in range(n_trials)}
    active = list(range(n_trials))

    fractions = tuple(checkpoint_fractions) + (1.0,)
    for fraction in fractions:
        target = max(1, int(round(fraction * budget_steps)))
        tasks = [(runner, states[tid], configs[tid], target) for tid in active]
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_advance_task, tasks))
        else:
            results = [_advance_task(t) for t in tasks]
        values: dict[int, float] = {}
        for tid, (state, value, steps, error) in zip(list(active), results):
            trials[tid].steps_consumed = steps
            if state is None:
                trials[tid].status = "failed"
                trials[tid].error = error
                active.remove(tid)
                continue
            states[tid] = state
            trials[tid].checkpoints.append((fraction, value))
            values[tid] = value
        if fraction == 1.0:
            for tid in active:
                trials[tid].status = "complete"
                trials[tid].final_score = values[tid]
            break
        if len(values) > 1:
            median = statistics.median(values.values())
            for tid in list(active):
                if tid in values and values[tid] < median:
                    trials[tid].status = "pruned"
                    states[tid] = None
                    active.remove(tid)
    completed = [t for t in trials if t.status == "complete"]
    if not completed:
        raise RuntimeError("study finished with zero completed trials")
    best = max(completed, key=lambda t: t.final_score)
    return StudyResult(trials=trials, best=best,
                       total_env_steps=sum(t.steps_consumed for t in trials))


def tune_algorithm(algorithm: str, experiment_id: str, n_trials: int = 32,
                   workers: int = 1, seed: int = 1, out_dir=None,
                   trial_budget: int | None = None,
                   env_overrides: dict | None = None) -> StudyResult:
    """Run a study and write the best config fragment for *-optim-L runs."""
    spec = experiment_spec(experiment_id)
    budget = spec.steps if trial_budget is None else trial_budget
    space = build_search_space(algorithm)
    runner = TrainingTrialRunner(algorithm, experiment_id, env_overrides)
    result = run_study(runner, space, n_trials, budget, workers=workers, seed=seed)
    if out_dir is not None:
        out_dir = Path(out_dir)
        fragment = out_dir / spec.env_version / f"{algorithm}.cfg"
        write_algo_fragment(fragment, algorithm, result.best.sampled)
        summary = {
            "algorithm": algorithm,
            "experiment_id": experiment_id,
            "budget_steps": budget,
            "n_trials": n_trials,
            "seed": seed,
            "total_env_steps": result.total_env_steps,
            "best_trial": result.best.trial_id,
            "best_score": result.best.final_score,
            "trials": [{
                "trial_id": t.trial_id,
                "status": t.status,
                "final_score": t.final_score,
                "steps_consumed": t.steps_consumed,
                "checkpoints": t.checkpoints,
                "sampled": t.sampled,
                "error": t.error,
            } for t in result.trials],
        }
        study_path = out_dir / spec.env_version / f"{algorithm}.study.json"
        study_path.parent.mkdir(parents=True, exist_ok=True)
        study_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return result
