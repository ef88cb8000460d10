import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamclust import (
    Chunk,
    ClusteringResult,
    dist_clust_trace,
    summarize_trace,
)
from streamclust import incremental


def _result(centroids, radius=0.1, lifetime=5, timestamp=1):
    k = len(centroids)
    return ClusteringResult(centroids, [radius] * k, [lifetime] * k, [0] * k, 0, timestamp)


def _closest(values, result):
    # the nearest cluster as the absorb pass sees it: a radius no record can
    # exceed turns the first assignment into a pure nearest-centroid query
    wide = _result(result.centroids, radius=math.inf, lifetime=1)
    _, trace = dist_clust_trace(Chunk(2, [values]), wide)
    return trace[0]


def _one(centroid, radius, lifetime, chunk_count):
    return ClusteringResult([centroid], [radius], [lifetime], [chunk_count], 0, 1)


def _absorb_one(prev, values):
    result, _ = dist_clust_trace(Chunk(2, [values]), prev)
    return result


def test_closest_cluster_coincident():
    result = _result([(0.0, 0.0), (1.0, 1.0)])
    assert _closest((0.0, 0.0), result) == (0, 0.0)


def test_closest_cluster_nearer_corner():
    result = _result([(0.0, 0.0), (1.0, 1.0)])
    idx, dist = _closest((0.6, 0.6), result)
    assert idx == 1
    assert dist == pytest.approx(math.sqrt(0.32))


def test_closest_cluster_matches_linear_scan():
    rng = np.random.default_rng(31)
    centroids = [tuple(c) for c in rng.uniform(0, 1, size=(10, 4))]
    result = _result(centroids)
    for _ in range(50):
        values = tuple(rng.uniform(0, 1, size=4).tolist())
        # linear-scan oracle
        dists = [math.dist(values, c) for c in centroids]
        best = dists.index(min(dists))
        assert _closest(values, result) == (best, dists[best])


def test_closest_cluster_tie_breaks_low_index():
    result = _result([(0.5, 0.5), (0.5, 0.5)])
    assert _closest((0.9, 0.9), result)[0] == 0


def test_update_centroid_mean_of_two_points():
    updated = _absorb_one(_one((0.5,), 0.2, 1, 1), (0.7,))
    assert updated.centroids[0] == pytest.approx((0.6,))
    assert updated.lifetime_counts == (2,)
    assert updated.chunk_counts == (1,)  # per-chunk counts restart with each chunk
    assert updated.radii == (0.2,)


def test_update_centroid_fixed_point():
    prev = _one((0.3, 0.4), 0.2, 7, 2)
    updated = _absorb_one(prev, (0.3, 0.4))
    assert updated.centroids == prev.centroids
    assert updated.lifetime_counts == (8,)


def test_update_centroid_dimension_mismatch():
    with pytest.raises(ValueError):
        _absorb_one(_one((0.5,), 0.1, 1, 0), (0.5, 0.5))


def test_update_centroid_equals_batch_mean():
    rng = np.random.default_rng(5)
    base = rng.uniform(0, 1, size=(3, 2))
    result, _ = summarize_trace(Chunk(1, base), 1, 0)
    extra = rng.uniform(0, 1, size=(5, 2))
    for row in extra:
        result = _one(result.centroids[0], math.inf, result.lifetime_counts[0], 0)
        result = _absorb_one(result, row)
    # batch-mean oracle over all eight contributing records
    expected = np.vstack([base, extra]).mean(axis=0)
    assert result.centroids[0] == pytest.approx(tuple(expected), abs=1e-9)
    assert result.lifetime_counts == (8,)


def test_dist_clust_reabsorbs_interior_records():
    # records well inside the radii are re-absorbed even though centroids
    # move during the pass; Sum of deltas accounts for the whole chunk
    rng = np.random.default_rng(23)
    centers = np.array([(0.2, 0.2), (0.8, 0.8), (0.2, 0.8)])
    pts = np.vstack([c + rng.uniform(-0.05, 0.05, size=(10, 2)) for c in centers])
    chunk = Chunk(1, pts)
    prev, _ = summarize_trace(chunk, 3, 0)
    interior = np.vstack([c + rng.uniform(-0.02, 0.02, size=(10, 2)) for c in centers])
    again = Chunk(2, interior)
    result, _ = dist_clust_trace(again, prev)
    assert result.outliers == 0
    assert sum(result.chunk_counts) == 30
    assert result.timestamp == 2


def test_dist_clust_identical_chunk_nearly_self_absorbs():
    # re-feeding the bootstrap chunk is not exactly lossless: absorbing moves
    # the centroid, so records sitting at the radius can fall just outside it
    rng = np.random.default_rng(23)
    chunk = Chunk(1, rng.uniform(0, 1, (30, 2)))
    prev, _ = summarize_trace(chunk, 3, 0)
    result, _ = dist_clust_trace(Chunk(2, chunk.values), prev)
    assert result.outliers <= 3
    assert result.outliers + sum(result.chunk_counts) == 30


def test_dist_clust_total_outlier_chunk():
    prev = _result([(0.1, 0.1), (0.9, 0.9)], radius=0.05)
    chunk = Chunk(2, np.full((10, 2), 0.5))
    result, _ = dist_clust_trace(chunk, prev)
    assert result.outliers == 10
    assert list(result.centroids) == list(prev.centroids)
    assert result.chunk_counts == (0, 0)


def test_dist_clust_boundary_distance_absorbs():
    # distance exactly equal to the radius still counts as inside
    prev = _result([(0.0, 0.0)], radius=0.5, lifetime=1)
    result, _ = dist_clust_trace(Chunk(2, [(0.5, 0.0)]), prev)
    assert result.outliers == 0
    assert result.chunk_counts[0] == 1


def test_dist_clust_resets_chunk_counts_and_keeps_prev():
    rng = np.random.default_rng(3)
    base = Chunk(1, rng.uniform(0, 1, (20, 2)))
    prev, _ = summarize_trace(base, 2, 0)
    prev_deltas = list(prev.chunk_counts)
    one, _ = dist_clust_trace(Chunk(2, base.values[:5]), prev)
    assert list(prev.chunk_counts) == prev_deltas  # prev untouched
    assert sum(one.chunk_counts) + one.outliers == 5
    two, _ = dist_clust_trace(Chunk(3, base.values[:3]), one)
    assert sum(two.chunk_counts) + two.outliers == 3


def test_dist_clust_radius_and_lifetime_rules():
    rng = np.random.default_rng(9)
    base = Chunk(1, rng.uniform(0, 1, (25, 2)))
    prev, _ = summarize_trace(base, 2, 1)
    follow = Chunk(2, rng.uniform(0, 1, (25, 2)))
    result, _ = dist_clust_trace(follow, prev)
    assert result.radii == prev.radii  # radii never grow
    for before, after, absorbed in zip(
        prev.lifetime_counts, result.lifetime_counts, result.chunk_counts
    ):
        assert after >= before
        assert after == before + absorbed


def test_dist_clust_conservation_random():
    rng = np.random.default_rng(41)
    for trial in range(20):
        base = Chunk(1, rng.uniform(0, 1, (30, 2)))
        prev, _ = summarize_trace(base, 3, trial)
        size = int(rng.integers(1, 60))
        chunk = Chunk(2, rng.uniform(0, 1, (size, 2)))
        result, _ = dist_clust_trace(chunk, prev)
        assert result.outliers + sum(result.chunk_counts) == size


def test_dist_clust_running_mean_matches_retained_records():
    rng = np.random.default_rng(77)
    base_pts = rng.uniform(0, 1, size=(12, 2))
    base = Chunk(1, base_pts)
    prev, base_assign = summarize_trace(base, 2, 0)
    buckets = {i: [] for i in range(len(prev.centroids))}
    for values, (idx, _) in zip(base.values.tolist(), base_assign):
        buckets[idx].append(values)
    absorb_pts = base_pts[rng.integers(0, 12, size=40)] + rng.normal(0, 0.01, (40, 2))
    chunk = Chunk(2, absorb_pts)
    result, trace = dist_clust_trace(chunk, prev)
    for values, assignment in zip(chunk.values.tolist(), trace):
        if assignment is not None:
            buckets[assignment[0]].append(values)
    # oracle retains every contributing record and takes the plain mean
    for idx, centroid in enumerate(result.centroids):
        expected = np.array(buckets[idx]).mean(axis=0)
        assert centroid == pytest.approx(tuple(expected), abs=1e-9)


def test_running_mean_stays_exact_over_a_long_lifetime():
    # criterion 1 checks up to 30 absorbs; this one cluster absorbs 15 000,
    # compared at every 1 000th with the fsum mean of every record it holds
    rng = np.random.default_rng(2020)
    records = rng.uniform(0, 1, size=(15_001, 2))
    prev = _one(tuple(records[0].tolist()), math.inf, 1, 1)
    for t, start in enumerate(range(1, len(records), 1_000), 2):
        prev, trace = dist_clust_trace(Chunk(t, records[start:start + 1_000]), prev)
        assert None not in trace
        held = records[:start + 1_000].T.tolist()
        assert prev.lifetime_counts == (start + 1_000,)
        for c, column in zip(prev.centroids[0], held):
            assert abs(c - math.fsum(column) / len(column)) <= 1e-9


def test_dist_clust_deterministic():
    rng = np.random.default_rng(55)
    base = Chunk(1, rng.uniform(0, 1, (20, 2)))
    prev, _ = summarize_trace(base, 2, 0)
    chunk = Chunk(2, rng.uniform(0, 1, (30, 2)))
    assert dist_clust_trace(chunk, prev) == dist_clust_trace(chunk, prev)


def test_dist_clust_dimension_mismatch():
    prev = _result([(0.5, 0.5)])
    with pytest.raises(ValueError):
        dist_clust_trace(Chunk(2, [(0.5, 0.5, 0.5)]), prev)


# ---------------------------------------------------------------- exactness
#
# The absorb pass runs as one generated kernel per (k, d): k clusters in d
# dimensions. It must stay bit-identical to the plain pass below.


def _reference_absorb(rows, prev):
    """The absorb pass written plainly: a nearest-centroid scan with ties to
    the lowest index, and the running mean as a list comprehension."""
    centroids = list(prev.centroids)
    radii = list(prev.radii)
    lifetimes = list(prev.lifetime_counts)
    deltas = [0] * len(centroids)
    outliers = 0
    trace = []
    for values in rows:
        dists = [math.dist(values, c) for c in centroids]
        best = dists.index(min(dists))
        if dists[best] <= radii[best]:
            lifetimes[best] += 1
            deltas[best] += 1
            n = lifetimes[best]
            centroids[best] = tuple(
                [(1 - 1 / n) * c + (1 / n) * v for c, v in zip(centroids[best], values)]
            )
            trace.append((best, dists[best]))
        else:
            outliers += 1
            trace.append(None)
    return centroids, lifetimes, deltas, outliers, trace


def _assert_matches_reference(chunk, prev):
    result, trace = dist_clust_trace(chunk, prev)
    got = (
        list(result.centroids),
        list(result.lifetime_counts),
        list(result.chunk_counts),
        result.outliers,
        list(trace),
    )
    # repr tells every float bit pattern apart, -0.0 from 0.0 included
    assert repr(got) == repr(_reference_absorb(chunk.values.tolist(), prev))


_RADII = (0.0, 0.25, 1.0, 2.5, math.inf)
_ROW_KINDS = ("grid", "centroid", "tie", "float", "outlier")


@st.composite
def _absorb_cases(draw):
    # Hypothesis picks the shape and the mix of row kinds; a seeded generator
    # fills in the coordinates, which keeps 16-D cases cheap to draw. Grid
    # values are quarter steps, so the midpoint of two centroids is exact and
    # lies at exactly the same distance from both: a tie.
    d = draw(st.integers(1, 16))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = (rng.integers(-8, 9, size=(k, d)) / 4).tolist()
    radii = draw(st.lists(st.sampled_from(_RADII), min_size=k, max_size=k))
    lifetimes = draw(st.lists(st.integers(1, 10**6), min_size=k, max_size=k))
    prev = ClusteringResult(centroids, radii, lifetimes, [0] * k, 0, 1)
    rows = []
    for kind in draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=40)):
        if kind == "grid":
            rows.append(rng.integers(-8, 9, size=d) / 4)
        elif kind == "centroid":
            rows.append(centroids[rng.integers(k)])
        elif kind == "tie":
            a, b = rng.integers(k, size=2)
            rows.append([(x + y) / 2 for x, y in zip(centroids[a], centroids[b])])
        elif kind == "float":
            rows.append(rng.uniform(-3.0, 3.0, size=d))
        else:
            rows.append(rng.uniform(1e3, 1e6, size=d))
    return Chunk(2, rows), prev


@settings(max_examples=300, deadline=None)
@given(_absorb_cases())
def test_dist_clust_matches_plain_reference_bit_for_bit(case):
    chunk, prev = case
    _assert_matches_reference(chunk, prev)


def test_dist_clust_one_dimension_matches_reference():
    rng = np.random.default_rng(3)
    prev = _result([(0.1,), (0.5,), (0.9,)], radius=0.3, lifetime=1)
    _assert_matches_reference(Chunk(2, rng.uniform(-0.2, 1.2, size=(2000, 1))), prev)


def test_dist_clust_single_cluster_matches_reference():
    # one cluster absorbing thousands of records: long lifetimes, tiny weights
    rng = np.random.default_rng(4)
    prev = _one((0.5, 0.5, 0.5), 0.6, 10, 0)
    _assert_matches_reference(Chunk(2, rng.uniform(0, 1, size=(5000, 3))), prev)


def test_dist_clust_many_clusters_matches_reference():
    # k = 40 unrolls into 40 distance calls; half the rows sit at exact
    # midpoints of two starting centroids, which tie, and clusters 7 and 39
    # start at one point, so the first record near it must go to 7
    rng = np.random.default_rng(6)
    centroids = (rng.integers(-8, 9, size=(40, 3)) / 4).tolist()
    centroids[39] = centroids[7]
    radii = [_RADII[i % len(_RADII)] for i in range(40)]
    prev = ClusteringResult(centroids, radii, [3] * 40, [0] * 40, 0, 1)
    pairs = rng.integers(40, size=(1500, 2))
    ties = [[(x + y) / 2 for x, y in zip(centroids[a], centroids[b])] for a, b in pairs]
    rows = np.vstack([ties, rng.uniform(-2.5, 2.5, size=(1500, 3))])
    _assert_matches_reference(Chunk(2, rows[rng.permutation(3000)]), prev)


def test_dist_clust_alternating_shapes_match_reference():
    # cached kernels are reused across calls and shapes: none may carry
    # state from one call into the next
    rng = np.random.default_rng(8)
    for k, d in ((3, 2), (5, 2), (3, 2), (1, 4)):
        prev = _result(rng.uniform(0, 1, size=(k, d)).tolist(), radius=0.5, lifetime=2)
        _assert_matches_reference(Chunk(2, rng.uniform(0, 1, size=(200, d))), prev)


def test_absorb_kernel_takes_ints_only(monkeypatch):
    incremental._absorb_kernel(2, 2)  # a cached int shape must not serve 2.0 or True

    def refuse(*args):
        raise AssertionError("kernel source was built from a non-int shape")

    monkeypatch.setattr(incremental, "exec", refuse, raising=False)
    monkeypatch.setattr(incremental, "compile", refuse, raising=False)
    for shape in (("2", 2), (2.0, 2), (True, 2), (2, "1]); import os; (c[0")):
        with pytest.raises(TypeError):
            incremental._absorb_kernel(*shape)
