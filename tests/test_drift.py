import math

import numpy as np
import pytest

from streamclust import (
    ClusteringResult,
    DriftConfig,
    DriftVerdict,
    detect,
)


def _result(deltas, outliers=0):
    k = len(deltas)
    lifetimes = [max(d, 1) + 10 for d in deltas]
    return ClusteringResult([(0.5, 0.5)] * k, [0.1] * k, lifetimes, deltas, outliers)


CFG = DriftConfig(k=5, o_thresh=0.18, d_thresh=0.6)


def test_outlier_ratio_trips():
    current = _result([24, 25, 24, 25, 24], outliers=28)
    previous = _result([30, 30, 30, 30, 30])
    verdict = detect(current, previous, 150, CFG)
    assert verdict.is_drift
    assert verdict.cause == "outlier_ratio"


def test_identical_distribution_is_clean():
    current = _result([30, 30, 30, 30, 30])
    previous = _result([30, 30, 30, 30, 30])
    verdict = detect(current, previous, 150, CFG)
    assert not verdict.is_drift
    assert verdict.cause == "none"
    assert verdict.detail == (0.0,) * 5


def test_distribution_shift_trips():
    current = _result([30, 50, 30, 20, 20])
    previous = _result([30, 30, 30, 30, 30])
    verdict = detect(current, previous, 150, CFG)
    assert verdict.is_drift
    assert verdict.cause == "distribution_shift"
    # stops at the first offender: cluster 1 with |50-30|/30
    assert verdict.detail == pytest.approx((0.0, 20 / 30))


def test_shrinkage_counts_like_growth():
    current = _result([30, 10])
    previous = _result([30, 30])
    assert detect(current, previous, 60, CFG).is_drift


def test_dead_cluster_coming_alive_is_drift():
    current = _result([30, 5])
    previous = _result([30, 0])
    verdict = detect(current, previous, 60, CFG)
    assert verdict.is_drift
    assert verdict.detail[-1] == math.inf


def test_cluster_dead_both_times_is_no_change():
    current = _result([30, 0])
    previous = _result([30, 0])
    assert not detect(current, previous, 60, CFG).is_drift


def test_cluster_count_mismatch_is_drift():
    current = _result([30, 30, 30])
    previous = _result([45, 45])
    verdict = detect(current, previous, 90, CFG)
    assert verdict.is_drift
    assert verdict.cause == "distribution_shift"


def test_outlier_check_runs_before_distribution():
    current = _result([0, 0], outliers=50)
    previous = _result([25, 25])
    assert detect(current, previous, 50, CFG).cause == "outlier_ratio"


def test_detect_is_pure():
    current = _result([30, 40], outliers=3)
    previous = _result([30, 30])
    assert detect(current, previous, 73, CFG) == detect(current, previous, 73, CFG)


def test_chunk_size_validation():
    with pytest.raises(ValueError):
        detect(_result([1]), _result([1]), 0, CFG)


def test_verdict_is_drift_is_its_cause():
    # one field decides it, so no verdict can say drift with no cause
    assert list(DriftVerdict._fields) == ["cause", "detail"]
    for cause in ("none", "outlier_ratio", "distribution_shift"):
        assert DriftVerdict(cause).is_drift == (cause != "none")


def _random_pair(rng):
    count = int(rng.integers(1, 7))
    prev_deltas = [int(d) for d in rng.integers(0, 60, size=count)]
    cur_deltas = [int(d) for d in rng.integers(0, 60, size=count)]
    outliers = int(rng.integers(0, 40))
    return _result(cur_deltas, outliers), _result(prev_deltas)


def test_monotonic_in_o_thresh():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        current, previous = _random_pair(rng)
        low, high = sorted(rng.uniform(0.01, 1.0, size=2))
        if low == high:
            continue
        at_low = detect(current, previous, 150, DriftConfig(k=1, o_thresh=low, d_thresh=0.6))
        if not at_low.is_drift:
            at_high = detect(
                current, previous, 150, DriftConfig(k=1, o_thresh=high, d_thresh=0.6)
            )
            assert not at_high.is_drift


def test_monotonic_in_d_thresh():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        current, previous = _random_pair(rng)
        low, high = sorted(rng.uniform(0.05, 3.0, size=2))
        if low == high:
            continue
        at_low = detect(current, previous, 150, DriftConfig(k=1, o_thresh=0.18, d_thresh=low))
        if not at_low.is_drift:
            at_high = detect(
                current, previous, 150, DriftConfig(k=1, o_thresh=0.18, d_thresh=high)
            )
            assert not at_high.is_drift
