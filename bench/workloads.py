"""The two workloads and the tuner study, each driven through climbench's
public entry points.

A workload runs in rounds. Every round repeats the same operations on the
same inputs, so each round's outputs must equal the first round's byte for
byte, and the number of operations per round is fixed:

* ``v2-offpolicy``: one ``run_experiment_suite`` task per off-policy
  algorithm on ``v2-homo-64L``, equal steps each, ``learning_starts``
  lowered so that nearly every step updates;
* ``rce-onpolicy``: one task per on-policy algorithm on ``rce-v0-homo-64L``,
  four 500-step episodes each, so that three of every four steps are taken
  by an updated policy.

``TuneStudy`` is one ``tune_algorithm`` DDPG study on ``v0-homo-64L`` with
two pool workers; a traced run makes it once, for the tuner's layer figures.

The benchmark's ``--seed`` is the training seed of every task and the study
seed. Operation timing covers only the entry-point call; output checks run
between rounds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

__all__ = ["Round", "SuiteWorkload", "TuneStudy", "make_study", "make_workload",
           "WORKLOADS"]


@dataclass
class Round:
    steps: int = 0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    per_algo: dict = field(default_factory=dict)    # tag -> (steps, seconds)
    errors: list = field(default_factory=list)

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.seconds


class SuiteWorkload:
    """One suite task per algorithm and round; an operation is one task."""

    def __init__(self, name: str, experiment: str, algorithms: tuple, steps: int,
                 episode: int, overrides: dict, returns_within: tuple[float, float],
                 seed: int, work_dir: Path):
        self.name = name
        self.experiment = experiment
        self.algorithms = algorithms
        self.steps = steps
        self.episode = episode
        self.overrides = overrides
        self.returns_within = returns_within
        self.seed = seed
        self.out_dir = Path(work_dir) / "records"
        self._first_bodies: dict[str, bytes] = {}

    def setup_code(self, src: Path) -> str:
        """What a fresh interpreter does before the first task can start."""
        configs = [(algo, self.overrides.get(algo)) for algo in self.algorithms]
        return (f"import sys\nsys.path.insert(0, {str(src)!r})\n"
                "from climbench.experiments import experiment_spec, resolve_config\n"
                f"spec = experiment_spec({self.experiment!r})\n"
                f"for algo, overrides in {configs!r}:\n"
                f"    resolve_config(spec, algo, overrides, steps={self.steps})\n"
                "print('ready', flush=True)\n")

    def _task(self, algo: str, steps: int) -> None:
        from climbench.experiments import run_experiment_suite
        run_experiment_suite(self.experiment, [algo], [self.seed], out_dir=self.out_dir,
                             steps=steps, algo_overrides=self.overrides)

    def warmup(self) -> None:
        for algo in self.algorithms:
            self._task(algo, self.episode)

    def run_round(self, between=None) -> Round:
        """One task per algorithm; ``between()``, if given, runs after each
        task, outside its timing."""
        rnd = Round()
        for algo in self.algorithms:
            if between is not None and rnd.attempted:
                between()
            rnd.attempted += 1
            start = time.perf_counter()
            try:
                self._task(algo, self.steps)
            except Exception as exc:  # a failed task is counted, the round goes on
                rnd.failed += 1
                rnd.errors.append(f"{algo}: {type(exc).__name__}: {exc}")
                continue
            seconds = time.perf_counter() - start
            rnd.steps += self.steps
            rnd.seconds += seconds
            rnd.per_algo[algo] = (self.steps, seconds)
        return rnd

    def _path(self, algo: str) -> Path:
        return self.out_dir / f"{self.experiment}__{algo}__seed{self.seed}.rec"

    def check_round(self) -> list[str]:
        """Record entries and returns; bodies equal to the first round's."""
        problems = []
        low, high = self.returns_within
        for algo in self.algorithms:
            path = self._path(algo)
            body = path.read_bytes().split(b"\n", 1)[1]
            problems += checks.check_record_entries(path.name, body, self.steps,
                                                    self.episode, low, high)
            first = self._first_bodies.setdefault(algo, body)
            if body != first:
                problems.append(f"{path.name}: record body differs from the first round")
            profile = path.with_suffix(".profile.csv")
            if profile.exists():
                problems += checks.check_profile_csv(profile.name, profile.read_text())
            elif self.experiment.startswith("rce"):
                problems.append(f"{profile.name}: missing")
        return problems


class TuneStudy:
    """One DDPG study with two pool workers, checked, and compared with the
    same study run by one worker.

    Which trials survive, and so how much work a study does and at which
    network widths, depends on the seed; and the pool workers' BLAS threads
    compete for the cores. So the study is not a timed workload: a traced
    run makes it once for the tuner's layer figures.
    """

    algorithm = "ddpg"
    experiment = "v0-homo-64L"
    workers = 2

    def __init__(self, n_trials: int, budget: int, seed: int, work_dir: Path):
        self.n_trials = n_trials
        self.budget = budget
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.out_dir = self.work_dir / "tuned"

    def run(self, workers: int, out_dir: Path):
        from climbench.tuner import tune_algorithm
        return tune_algorithm(self.algorithm, self.experiment, n_trials=self.n_trials,
                              workers=workers, seed=self.seed, out_dir=out_dir,
                              trial_budget=self.budget)

    def outputs(self, out_dir: Path) -> tuple[bytes, str]:
        base = out_dir / "v0"
        return ((base / f"{self.algorithm}.study.json").read_bytes(),
                (base / f"{self.algorithm}.cfg").read_text())

    def check(self) -> list[str]:
        """The study's rules, and the two-worker study equal to a one-worker
        study with the same seed."""
        study_bytes, fragment = self.outputs(self.out_dir)
        problems = checks.check_study(json.loads(study_bytes), fragment, self.algorithm)
        serial_dir = self.work_dir / "serial"
        self.run(1, serial_dir)
        if self.outputs(serial_dir) != (study_bytes, fragment):
            problems.append("the two-worker study differs from the one-worker study")
        return problems


# Off-policy algorithms start updating after 32 steps, so 92% of a 400-step
# task updates (95% in the paper's 20k-step runs); DPG updates every step.
_LEARNING_STARTS = {algo: {"learning_starts": 32} for algo in ("ddpg", "td3", "sac", "tqc")}

# Four episodes per RCE task: REINFORCE, PPO and TRPO update once per
# episode, so the last three episodes are played by updated policies, whose
# actions set the cost of each step.
_RCE_EPISODES = 4

WORKLOADS = ("v2-offpolicy", "rce-onpolicy")


def make_study(seed: int, work_dir: Path, tiny: bool = False) -> TuneStudy:
    """The tuner study: 8 trials of 2000 steps, or 2 of 1100 for the self-test."""
    return TuneStudy(2 if tiny else 8, 1100 if tiny else 2000, seed, work_dir)


def make_workload(name: str, seed: int, work_dir: Path, tiny: bool = False):
    """A workload at benchmark size, or at a size for the self-test."""
    if name == "v2-offpolicy":
        return SuiteWorkload(name, "v2-homo-64L", ("dpg", "ddpg", "td3", "sac", "tqc"),
                             (1 if tiny else 2) * checks.BIASCORR_EPISODE,
                             checks.BIASCORR_EPISODE,
                             _LEARNING_STARTS, checks.v2_return_interval(), seed,
                             work_dir)
    if name == "rce-onpolicy":
        return SuiteWorkload(name, "rce-v0-homo-64L", ("reinforce", "ppo", "trpo"),
                             (1 if tiny else _RCE_EPISODES) * checks.RCE_EPISODE,
                             checks.RCE_EPISODE, {}, (-float("inf"), 0.0), seed,
                             work_dir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
