"""Metrics, thresholds, ranking, and the published-table oracle fixtures."""

import math

import numpy as np
import pytest

from climbench.evalharness import (REFERENCE_TOP1_FREQUENCIES,
                                   REFERENCE_TOP3_BIASCORR,
                                   REFERENCE_TOP3_FREQUENCIES, REFERENCE_TOP3_RCE,
                                   THRESHOLDS, aggregate_scores,
                                   confidence_curves, delta_from_final,
                                   frequency_table, n_to_threshold, rank_algorithms,
                                   threshold_for_experiment, top1_table, top3_lists,
                                   variance_after_threshold)
from climbench.records import RunRecord


def make_record(returns, steps=None, experiment="v0-homo-64L-60k", algo="ddpg",
                seed=1):
    rec = RunRecord(experiment, algo, seed)
    steps = steps or [200 * (i + 1) for i in range(len(returns))]
    for s, r in zip(steps, returns):
        rec.add(s, r)
    return rec


V0 = THRESHOLDS["SimpleClimateBiasCorrection-v0"]

# The paper's footnotes: each threshold is about the return of an episode of
# ``steps`` steps off by ``error`` at every step, plus v2's constant sparse part.
FOOTNOTES = {  # environment: (per-step error, episode steps, constant offset)
    "SimpleClimateBiasCorrection-v0": (0.035, 200, 0.0),
    "SimpleClimateBiasCorrection-v1": (0.116, 200, 0.0),
    "SimpleClimateBiasCorrection-v2": (0.116, 200, 160.0),
    "RadiativeConvectiveModel-v0": (9.37, 500, 0.0),
}


def implied_error(threshold: float, steps: int, offset: float) -> float:
    return math.sqrt((abs(threshold) - offset) / steps)


def test_threshold_registry_consistency():
    # guards the thresholds against transcription drift
    assert set(THRESHOLDS) == set(FOOTNOTES)
    for env_id, (error, steps, offset) in FOOTNOTES.items():
        assert implied_error(THRESHOLDS[env_id], steps, offset) == pytest.approx(
            error, rel=0.02), env_id


def test_threshold_inconsistent_spec_detected():
    # a per-step error of 0.05 against v0's threshold is out of tolerance
    assert implied_error(V0, 200, 0.0) != pytest.approx(0.05, rel=0.02)


def test_v2_threshold_uses_sparse_offset():
    v2 = THRESHOLDS["SimpleClimateBiasCorrection-v2"]
    assert v2 == -162.718
    assert v2 + 160.0 == pytest.approx(THRESHOLDS["SimpleClimateBiasCorrection-v1"])


def test_threshold_for_experiment_mapping():
    assert threshold_for_experiment("v1-optim-L") == -2.718
    assert threshold_for_experiment("rce-v0-homo-64L-10k") == -43_900
    with pytest.raises(KeyError):
        threshold_for_experiment("nope")


def test_n_to_threshold_first_crossing():
    rec = make_record([-1.0, -0.3, -0.2, -0.1], steps=[200, 400, 600, 800])
    assert n_to_threshold(rec, V0) == 600


def test_n_to_threshold_absent_and_immediate():
    assert n_to_threshold(make_record([-1.0, -0.9]), V0) is None
    assert n_to_threshold(make_record([-0.1, -0.9]), V0) == 200


def test_variance_after_threshold_cases():
    rec = make_record([-1.0, -0.2, -0.2, -0.4])
    got = variance_after_threshold(rec, V0)
    assert got == pytest.approx(np.var([-0.2, -0.2, -0.4]))
    assert got == pytest.approx(0.0088888888888, abs=1e-10)
    assert variance_after_threshold(make_record([-0.9]), V0) is None
    assert variance_after_threshold(make_record([-1.0, -0.1]), V0) == 0.0
    assert variance_after_threshold(make_record([-0.2, -0.2]), V0) == 0.0


def test_delta_from_final_cases():
    assert delta_from_final(make_record([-0.5, -0.25]), V0) == 0.0
    assert delta_from_final(make_record([-0.5, -0.1]), V0) == pytest.approx(0.15)
    rce = THRESHOLDS["RadiativeConvectiveModel-v0"]
    rec = make_record([-50_000.0, -43_000.0], experiment="rce-v0-optim-L-10k")
    assert delta_from_final(rec, rce) == pytest.approx(900.0)


def test_aggregation_median_with_absent_as_infinity():
    recs = [make_record([-1.0, -0.1], seed=1),
            make_record([-1.0, -0.9], seed=2),
            make_record([-0.1], seed=3)]
    agg = aggregate_scores(recs, V0)
    assert agg.median_n_to_threshold == 400.0  # median of (400, inf, 200)
    assert agg.seeds == 3
    none_reached = aggregate_scores([make_record([-1.0])], V0)
    assert none_reached.median_n_to_threshold == math.inf
    assert none_reached.mean_variance == math.inf


def test_ranking_is_deterministic_and_ordered():
    records = []
    # algo a crosses at 200, b at 400, c never
    records.append(make_record([-0.1, -0.1], algo="a", seed=1))
    records.append(make_record([-1.0, -0.1], algo="b", seed=1))
    records.append(make_record([-1.0, -1.0], algo="c", seed=1))
    r1 = rank_algorithms(records)
    r2 = rank_algorithms(list(reversed(records)))
    order1 = [s.algorithm for s in r1["v0-homo-64L-60k"]]
    order2 = [s.algorithm for s in r2["v0-homo-64L-60k"]]
    assert order1 == order2 == ["a", "b", "c"]


def test_n_to_threshold_monotone_under_prepended_failures():
    base = make_record([-0.1], steps=[200])
    worse = make_record([-1.0, -0.1], steps=[200, 400])
    assert n_to_threshold(worse, V0) >= n_to_threshold(base, V0)


def test_metrics_do_not_mutate_records():
    rec = make_record([-1.0, -0.2, -0.1])
    before = list(rec.entries)
    n_to_threshold(rec, V0)
    variance_after_threshold(rec, V0)
    delta_from_final(rec, V0)
    assert rec.entries == before


def test_frequency_table_reproduces_reference_biascorr():
    table = frequency_table(REFERENCE_TOP3_BIASCORR)
    assert dict(table) == dict(REFERENCE_TOP3_FREQUENCIES["biascorr"])
    assert sum(dict(table).values()) == 3 * len(REFERENCE_TOP3_BIASCORR)


def test_frequency_table_reproduces_reference_rce():
    table = frequency_table(REFERENCE_TOP3_RCE)
    assert dict(table) == dict(REFERENCE_TOP3_FREQUENCIES["rce"])
    assert sum(dict(table).values()) == 3 * len(REFERENCE_TOP3_RCE)


def test_top1_tables_reproduce_reference():
    assert dict(top1_table(REFERENCE_TOP3_BIASCORR)) == dict(
        REFERENCE_TOP1_FREQUENCIES["biascorr"])
    assert dict(top1_table(REFERENCE_TOP3_RCE)) == dict(
        REFERENCE_TOP1_FREQUENCIES["rce"])


def test_single_algorithm_is_trivially_top1():
    recs = [make_record([-1.0, -0.2], algo="solo")]
    tops = top3_lists(rank_algorithms(recs))
    assert tops["v0-homo-64L-60k"] == ["solo"]
    assert top1_table(tops) == [("solo", 1)]


def test_frequency_row_sums_equal_three_per_experiment():
    rng = np.random.default_rng(0)
    tops = {}
    algos = ["a", "b", "c", "d", "e"]
    for i in range(20):
        picks = list(rng.choice(algos, size=3, replace=False))
        tops[f"exp{i}"] = picks
    table = frequency_table(tops)
    assert sum(dict(table).values()) == 3 * 20


def test_confidence_curves_formula():
    recs = []
    for seed, offset in ((1, 0.0), (2, 0.1), (3, 0.2)):
        recs.append(make_record([-1.0 + offset, -0.5 + offset], seed=seed))
    curves = confidence_curves(recs)
    rows = curves["ddpg"]
    assert rows[0][0] == 200 and rows[1][0] == 400
    values = [-1.0, -0.9, -0.8]
    assert rows[0][1] == pytest.approx(np.mean(values))
    expected_half = 1.96 * np.std(values, ddof=1) / math.sqrt(3)
    assert rows[0][2] == pytest.approx(expected_half)
    assert rows[0][3] == 3


@pytest.mark.parametrize("width", [0, -100])
def test_confidence_curves_reject_a_bucket_below_one(width):
    with pytest.raises(ValueError, match="at least 1"):
        confidence_curves([make_record([-1.0, -0.5])], width)
