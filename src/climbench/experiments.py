"""The 16 experiment codes: environment, step budget, and layer-size policy.

Suffix-less codes are the realistic-compute runs (20k steps bias-correction,
4k RCE); the -60k/-10k suffixes mark the ideal-compute budgets. homo-64L
experiments force actor_critic_layer_size=64 with every other hyperparameter
at its algorithm default; optim-L experiments load tuned hyperparameters from
a tuner output directory (one fragment per environment version and algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .algos import BaseConfig, make_config, make_trainer
from .configio import read_algo_fragment
from .envs import BiasCorrectionEnv, RceEnv, export_profile_with_simulated
from .records import RunRecord, record_filename

__all__ = ["ExperimentSpec", "EXPERIMENTS", "experiment_spec", "make_experiment_env",
           "resolve_config", "plan_experiment_suite", "run_experiment_suite",
           "run_single_task", "tuned_fragment_path"]


@dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: str
    environment_id: str
    env_version: str          # "v0" | "v1" | "v2" | "rce-v0"
    steps: int
    layer_policy: str         # "homo-64" | "optim"

    @property
    def is_rce(self) -> bool:
        return self.env_version == "rce-v0"


def _build_registry() -> dict[str, ExperimentSpec]:
    registry: dict[str, ExperimentSpec] = {}
    environments = [(v, f"SimpleClimateBiasCorrection-{v}", 20_000, 60_000)
                    for v in ("v0", "v1", "v2")]
    environments.append(("rce-v0", "RadiativeConvectiveModel-v0", 4_000, 10_000))
    for version, env_id, base, long in environments:
        for policy, name in (("optim", "optim-L"), ("homo-64", "homo-64L")):
            for steps, suffix in ((base, ""), (long, f"-{long // 1000}k")):
                experiment_id = f"{version}-{name}{suffix}"
                registry[experiment_id] = ExperimentSpec(experiment_id, env_id,
                                                         version, steps, policy)
    return registry


EXPERIMENTS = _build_registry()


def experiment_spec(experiment_id: str) -> ExperimentSpec:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment id {experiment_id!r}; "
                       f"known: {', '.join(sorted(EXPERIMENTS))}")
    return EXPERIMENTS[experiment_id]


def make_experiment_env(spec: ExperimentSpec):
    """The experiment's environment, with the task's fixed parameters."""
    return RceEnv() if spec.is_rce else BiasCorrectionEnv(spec.env_version)


def tuned_fragment_path(tuned_dir, env_version: str, algorithm: str) -> Path:
    return Path(tuned_dir) / env_version / f"{algorithm}.cfg"


def resolve_config(spec: ExperimentSpec, algorithm: str,
                   algo_overrides: dict | None = None,
                   tuned_dir=None, steps: int | None = None) -> BaseConfig:
    """The config of one run; later sources win: the step budget (and homo-64L's
    width 64), then the tuned fragment of optim-L runs, then ``algo_overrides``."""
    values = {"total_timesteps": spec.steps if steps is None else steps}
    if spec.layer_policy == "homo-64":
        values["actor_critic_layer_size"] = 64
    else:
        if tuned_dir is None:
            raise FileNotFoundError(
                f"{spec.experiment_id} needs tuned hyperparameters; pass the tuner "
                "output directory (see the 'tune' command)")
        path = tuned_fragment_path(tuned_dir, spec.env_version, algorithm)
        if not path.exists():
            raise FileNotFoundError(f"no tuned fragment for {algorithm} at {path}")
        values.update(read_algo_fragment(path, algorithm))
    values.update(algo_overrides or {})
    return make_config(algorithm, **values)


def plan_experiment_suite(experiment_id: str, algorithms: list[str],
                          seeds: list[int]) -> list[tuple[str, str, int]]:
    """The suite's (experiment, algorithm, seed) tasks. No (algorithm, seed)
    pair may repeat: each has one record path."""
    spec = experiment_spec(experiment_id)
    plan = [(spec.experiment_id, algo, seed) for algo in algorithms for seed in seeds]
    seen = set()
    for task in plan:
        if task in seen:
            raise ValueError(f"repeated (algorithm, seed) pair {task[1:]!r}")
        seen.add(task)
    return plan


def run_single_task(task: tuple) -> RunRecord:
    """Train one (spec, seed, config, out_dir) task and write its record file."""
    spec, seed, cfg, out_dir = task
    env = make_experiment_env(spec)
    record = make_trainer(env, cfg, seed, spec.experiment_id).train()
    path = Path(out_dir) / record_filename(spec.experiment_id, cfg.algorithm, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    record.save(path)
    if spec.is_rce:
        export_profile_with_simulated(path.with_suffix(".profile.csv"),
                                      env.column.temperatures)
    return record


def run_experiment_suite(experiment_id: str, algorithms: list[str], seeds: list[int],
                         out_dir, workers: int = 1,
                         algo_overrides: dict[str, dict] | None = None,
                         tuned_dir=None, steps: int | None = None) -> list[RunRecord]:
    """One RunRecord per (algorithm, seed); tasks run across worker processes."""
    plan = plan_experiment_suite(experiment_id, algorithms, seeds)
    spec = experiment_spec(experiment_id)
    # each config is resolved once, so a bad one fails before any task starts
    configs = {algo: resolve_config(spec, algo, (algo_overrides or {}).get(algo),
                                    tuned_dir, steps) for algo in algorithms}
    tasks = [(spec, seed, configs[algo], out_dir) for _, algo, seed in plan]
    if workers <= 1 or len(tasks) == 1:
        return [run_single_task(t) for t in tasks]
    # imported here, so that a serial run never loads the process pool
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_single_task, tasks))
