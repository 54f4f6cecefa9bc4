"""Run-record metrics, thresholds, and the top-k algorithm ranking.

Three per-run metrics summarize a RunRecord against its environment's
episodic-return threshold:

  * n_to_threshold        global step of the first episode at/above threshold
  * var_after_threshold   population variance of returns from that episode on
  * delta_from_final      final-episode return minus the threshold

Per (experiment, algorithm) the metrics aggregate across seeds as the median
step count (absent counted as +inf), the mean variance over seeds that reached
the threshold, and the mean delta. Algorithms are ordered lexicographically:
fewer steps, then lower variance, then larger delta, with the tag as the final
deterministic tie-break. The top-3 per experiment feed frequency tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .experiments import experiment_spec
from .records import RunRecord

__all__ = [
    "THRESHOLDS", "threshold_for_experiment", "n_to_threshold",
    "variance_after_threshold", "delta_from_final",
    "AggregateScore", "aggregate_scores", "rank_algorithms", "frequency_table",
    "top1_table", "REFERENCE_TOP3_BIASCORR", "REFERENCE_TOP3_RCE",
    "REFERENCE_TOP3_FREQUENCIES", "REFERENCE_TOP1_FREQUENCIES",
    "confidence_curves",
]


# Each environment's episodic-return threshold, as the paper gives it: about
# the return of a 200-step episode off by 0.035 (v0) or 0.116 (v1; v2 adds its
# sparse reward's 160) at every step, or of a 500-step RCE episode off by 9.37 K.
THRESHOLDS = {
    "SimpleClimateBiasCorrection-v0": -0.25,
    "SimpleClimateBiasCorrection-v1": -2.718,
    "SimpleClimateBiasCorrection-v2": -(160.0 + 2.718),
    "RadiativeConvectiveModel-v0": -43_900.0,
}


def threshold_for_experiment(experiment_id: str) -> float:
    """The threshold of the experiment's environment; KeyError for unknown ids."""
    return THRESHOLDS[experiment_spec(experiment_id).environment_id]


# -- per-run metrics ---------------------------------------------------------------


def n_to_threshold(record: RunRecord, threshold: float) -> int | None:
    if not record.entries:
        raise ValueError("empty record")
    for step, ret in record.entries:
        if ret >= threshold:
            return step
    return None


def variance_after_threshold(record: RunRecord, threshold: float) -> float | None:
    """Population variance of returns at and after the first crossing."""
    crossing = n_to_threshold(record, threshold)
    if crossing is None:
        return None
    tail = [ret for step, ret in record.entries if step >= crossing]
    return float(np.var(tail))


def delta_from_final(record: RunRecord, threshold: float) -> float:
    return record.final_return() - threshold


# -- cross-seed aggregation and ranking -------------------------------------------


@dataclass
class AggregateScore:
    algorithm: str
    median_n_to_threshold: float    # +inf when the median seed never crosses
    mean_variance: float            # +inf when no seed crosses
    mean_delta: float
    seeds: int

    def sort_key(self):
        return (self.median_n_to_threshold, self.mean_variance,
                -self.mean_delta, self.algorithm)


def aggregate_scores(records_by_seed: list[RunRecord],
                     threshold: float) -> AggregateScore:
    if not records_by_seed:
        raise ValueError("no records to aggregate")
    ns, variances, deltas = [], [], []
    for rec in records_by_seed:
        n = n_to_threshold(rec, threshold)
        ns.append(math.inf if n is None else float(n))
        v = variance_after_threshold(rec, threshold)
        if v is not None:
            variances.append(v)
        deltas.append(delta_from_final(rec, threshold))
    return AggregateScore(
        algorithm=records_by_seed[0].algorithm,
        median_n_to_threshold=float(np.median(ns)),
        mean_variance=float(np.mean(variances)) if variances else math.inf,
        mean_delta=float(np.mean(deltas)),
        seeds=len(records_by_seed),
    )


def rank_algorithms(records: list[RunRecord]) -> dict[str, list[AggregateScore]]:
    """Group records by experiment and return each experiment's ordered scores."""
    grouped: dict[str, dict[str, list[RunRecord]]] = {}
    for rec in records:
        grouped.setdefault(rec.experiment_id, {}).setdefault(rec.algorithm, []).append(rec)
    ranking: dict[str, list[AggregateScore]] = {}
    for experiment_id, by_algo in sorted(grouped.items()):
        threshold = threshold_for_experiment(experiment_id)
        scores = [aggregate_scores(recs, threshold) for recs in by_algo.values()]
        ranking[experiment_id] = sorted(scores, key=AggregateScore.sort_key)
    return ranking


def top3_lists(ranking: dict[str, list[AggregateScore]]) -> dict[str, list[str]]:
    return {exp: [s.algorithm for s in scores[:3]]
            for exp, scores in ranking.items()}


def frequency_table(top3_by_experiment: dict[str, list[str]]) -> list[tuple[str, int]]:
    """Count top-3 appearances, one per algorithm per experiment."""
    counts: Counter[str] = Counter()
    for algos in top3_by_experiment.values():
        for algo in dict.fromkeys(algos):  # de-duplicate, keep order
            counts[algo] += 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def top1_table(top_lists: dict[str, list[str]]) -> list[tuple[str, int]]:
    counts: Counter[str] = Counter(algos[0] for algos in top_lists.values() if algos)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


# -- reference result tables (ranking-oracle fixtures) ------------------------------

REFERENCE_TOP3_BIASCORR = {
    "v0-optim-L": ["TD3", "TQC", "DPG"],
    "v0-optim-L-60k": ["DDPG", "TD3", "TQC"],
    "v0-homo-64L": ["DPG", "DDPG", "TQC"],
    "v0-homo-64L-60k": ["TQC", "DDPG", "DPG"],
    "v1-optim-L": ["TQC", "DDPG", "TD3"],
    "v1-optim-L-60k": ["TD3", "DDPG", "TQC"],
    "v1-homo-64L": ["DDPG", "TD3", "TQC"],
    "v1-homo-64L-60k": ["DDPG", "TD3", "TQC"],
    "v2-optim-L": ["TD3", "DDPG", "TQC"],
    "v2-optim-L-60k": ["TD3", "SAC", "DDPG"],
    "v2-homo-64L": ["TD3", "DDPG", "TQC"],
    "v2-homo-64L-60k": ["TD3", "SAC", "DDPG"],
}

REFERENCE_TOP3_RCE = {
    "rce-v0-optim-L": ["DPG", "DDPG", "TQC"],
    "rce-v0-optim-L-10k": ["DPG", "PPO", "TQC"],
    "rce-v0-homo-64L": ["TRPO", "PPO", "DPG"],
    "rce-v0-homo-64L-10k": ["TRPO", "PPO", "DPG"],
}

REFERENCE_TOP3_FREQUENCIES = {
    "biascorr": [("DDPG", 11), ("TD3", 10), ("TQC", 10), ("DPG", 3), ("SAC", 2)],
    "rce": [("DPG", 4), ("PPO", 3), ("TQC", 2), ("TRPO", 2), ("DDPG", 1)],
}

REFERENCE_TOP1_FREQUENCIES = {
    "biascorr": [("TD3", 6), ("DDPG", 3), ("TQC", 2), ("DPG", 1)],
    "rce": [("DPG", 2), ("TRPO", 2)],
}


# -- confidence-band curves ----------------------------------------------------------


def confidence_curves(records: list[RunRecord], bucket_width: int | None = None):
    """Per-algorithm (step, mean, 1.96 sd/sqrt(n), n) rows bucketed by step;
    ``bucket_width`` None takes the smallest gap between a record's steps.
    The records are the seeds of one experiment; ValueError if they span more."""
    experiments = sorted({rec.experiment_id for rec in records})
    if len(experiments) > 1:
        raise ValueError(f"records span experiments {', '.join(experiments)}; "
                         "curves average the seeds of one experiment")
    if bucket_width is None:
        widths = [min(np.diff(rec.steps)) for rec in records if len(rec.steps) > 1]
        bucket_width = int(min(widths)) if widths else 1
    elif bucket_width < 1:
        raise ValueError(f"bucket width must be at least 1, got {bucket_width}")
    by_algo: dict[str, dict[int, list[float]]] = {}
    for rec in records:
        buckets = by_algo.setdefault(rec.algorithm, {})
        for step, ret in rec.entries:
            bucket = ((step - 1) // bucket_width + 1) * bucket_width
            buckets.setdefault(bucket, []).append(ret)
    out: dict[str, list[tuple[int, float, float, int]]] = {}
    for algo, buckets in sorted(by_algo.items()):
        rows = []
        for bucket in sorted(buckets):
            values = buckets[bucket]
            n = len(values)
            sd = float(np.std(values, ddof=1)) if n > 1 else 0.0
            rows.append((bucket, float(np.mean(values)),
                         1.96 * sd / math.sqrt(n), n))
        out[algo] = rows
    return out

