import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamclust import (
    Chunk,
    ClusteringResult,
    ClusterSummary,
    KMeansParams,
    dist_clust_trace,
    summarize_trace,
)


def _result(centroids, radius=0.1, lifetime=5, timestamp=1):
    return ClusteringResult(
        tuple(ClusterSummary(c, radius, lifetime, 0) for c in centroids), 0, timestamp
    )


def _closest(values, result):
    # the nearest cluster as the absorb pass sees it: a radius no record can
    # exceed turns the first assignment into a pure nearest-centroid query
    wide = ClusteringResult(
        tuple(ClusterSummary(c.centroid, math.inf, 1, 0) for c in result.clusters), 0, 1
    )
    _, trace = dist_clust_trace(Chunk(2, [values]), wide)
    return trace[0]


def _absorb_one(summary, values):
    result, _ = dist_clust_trace(Chunk(2, [values]), ClusteringResult((summary,), 0, 1))
    return result.clusters[0]


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
    summary = ClusterSummary((0.5,), 0.2, 1, 1)
    updated = _absorb_one(summary, (0.7,))
    assert updated.centroid == pytest.approx((0.6,))
    assert updated.lifetime_count == 2
    assert updated.chunk_count == 1  # per-chunk counts restart with each chunk
    assert updated.radius == 0.2


def test_update_centroid_fixed_point():
    summary = ClusterSummary((0.3, 0.4), 0.2, 7, 2)
    updated = _absorb_one(summary, (0.3, 0.4))
    assert updated.centroid == summary.centroid
    assert updated.lifetime_count == 8


def test_update_centroid_dimension_mismatch():
    with pytest.raises(ValueError):
        _absorb_one(ClusterSummary((0.5,), 0.1, 1, 0), (0.5, 0.5))


def test_update_centroid_equals_batch_mean():
    rng = np.random.default_rng(5)
    base = rng.uniform(0, 1, size=(3, 2))
    result, _ = summarize_trace(Chunk(1, base), KMeansParams(k=1, seed=0))
    cluster = result.clusters[0]
    extra = rng.uniform(0, 1, size=(5, 2))
    for row in extra:
        cluster = ClusterSummary(cluster.centroid, math.inf, cluster.lifetime_count, 0)
        cluster = _absorb_one(cluster, row)
    # batch-mean oracle over all eight contributing records
    expected = np.vstack([base, extra]).mean(axis=0)
    assert cluster.centroid == pytest.approx(tuple(expected), abs=1e-9)
    assert cluster.lifetime_count == 8


def test_dist_clust_reabsorbs_interior_records():
    # records well inside the radii are re-absorbed even though centroids
    # move during the pass; Sum of deltas accounts for the whole chunk
    rng = np.random.default_rng(23)
    centers = np.array([(0.2, 0.2), (0.8, 0.8), (0.2, 0.8)])
    pts = np.vstack([c + rng.uniform(-0.05, 0.05, size=(10, 2)) for c in centers])
    chunk = Chunk(1, pts)
    prev, _ = summarize_trace(chunk, KMeansParams(k=3, seed=0))
    interior = np.vstack([c + rng.uniform(-0.02, 0.02, size=(10, 2)) for c in centers])
    again = Chunk(2, interior)
    result, _ = dist_clust_trace(again, prev)
    assert result.outliers == 0
    assert sum(c.chunk_count for c in result.clusters) == 30
    assert result.timestamp == 2


def test_dist_clust_identical_chunk_nearly_self_absorbs():
    # re-feeding the bootstrap chunk is not exactly lossless: absorbing moves
    # the centroid, so records sitting at the radius can fall just outside it
    rng = np.random.default_rng(23)
    chunk = Chunk(1, rng.uniform(0, 1, (30, 2)))
    prev, _ = summarize_trace(chunk, KMeansParams(k=3, seed=0))
    result, _ = dist_clust_trace(Chunk(2, chunk.values), prev)
    assert result.outliers <= 3
    assert result.outliers + sum(c.chunk_count for c in result.clusters) == 30


def test_dist_clust_total_outlier_chunk():
    prev = _result([(0.1, 0.1), (0.9, 0.9)], radius=0.05)
    chunk = Chunk(2, np.full((10, 2), 0.5))
    result, _ = dist_clust_trace(chunk, prev)
    assert result.outliers == 10
    assert [c.centroid for c in result.clusters] == [c.centroid for c in prev.clusters]
    assert all(c.chunk_count == 0 for c in result.clusters)


def test_dist_clust_boundary_distance_absorbs():
    # distance exactly equal to the radius still counts as inside
    prev = _result([(0.0, 0.0)], radius=0.5, lifetime=1)
    result, _ = dist_clust_trace(Chunk(2, [(0.5, 0.0)]), prev)
    assert result.outliers == 0
    assert result.clusters[0].chunk_count == 1


def test_dist_clust_resets_chunk_counts_and_keeps_prev():
    rng = np.random.default_rng(3)
    base = Chunk(1, rng.uniform(0, 1, (20, 2)))
    prev, _ = summarize_trace(base, KMeansParams(k=2, seed=0))
    prev_deltas = [c.chunk_count for c in prev.clusters]
    one, _ = dist_clust_trace(Chunk(2, base.values[:5]), prev)
    assert [c.chunk_count for c in prev.clusters] == prev_deltas  # prev untouched
    assert sum(c.chunk_count for c in one.clusters) + one.outliers == 5
    two, _ = dist_clust_trace(Chunk(3, base.values[:3]), one)
    assert sum(c.chunk_count for c in two.clusters) + two.outliers == 3


def test_dist_clust_radius_and_lifetime_rules():
    rng = np.random.default_rng(9)
    base = Chunk(1, rng.uniform(0, 1, (25, 2)))
    prev, _ = summarize_trace(base, KMeansParams(k=2, seed=1))
    follow = Chunk(2, rng.uniform(0, 1, (25, 2)))
    result, _ = dist_clust_trace(follow, prev)
    for before, after in zip(prev.clusters, result.clusters):
        assert after.radius == before.radius  # radii never grow
        assert after.lifetime_count >= before.lifetime_count
        assert after.lifetime_count == before.lifetime_count + after.chunk_count


def test_dist_clust_conservation_random():
    rng = np.random.default_rng(41)
    for trial in range(20):
        base = Chunk(1, rng.uniform(0, 1, (30, 2)))
        prev, _ = summarize_trace(base, KMeansParams(k=3, seed=trial))
        size = int(rng.integers(1, 60))
        chunk = Chunk(2, rng.uniform(0, 1, (size, 2)))
        result, _ = dist_clust_trace(chunk, prev)
        assert result.outliers + sum(c.chunk_count for c in result.clusters) == size


def test_dist_clust_running_mean_matches_retained_records():
    rng = np.random.default_rng(77)
    base_pts = rng.uniform(0, 1, size=(12, 2))
    base = Chunk(1, base_pts)
    prev, base_assign = summarize_trace(base, KMeansParams(k=2, seed=0))
    buckets = {i: [] for i in range(len(prev.clusters))}
    for values, (idx, _) in zip(base.values.tolist(), base_assign):
        buckets[idx].append(values)
    absorb_pts = base_pts[rng.integers(0, 12, size=40)] + rng.normal(0, 0.01, (40, 2))
    chunk = Chunk(2, absorb_pts)
    result, trace = dist_clust_trace(chunk, prev)
    for values, assignment in zip(chunk.values.tolist(), trace):
        if assignment is not None:
            buckets[assignment[0]].append(values)
    # oracle retains every contributing record and takes the plain mean
    for idx, cluster in enumerate(result.clusters):
        expected = np.array(buckets[idx]).mean(axis=0)
        assert cluster.centroid == pytest.approx(tuple(expected), abs=1e-9)


def test_dist_clust_deterministic():
    rng = np.random.default_rng(55)
    base = Chunk(1, rng.uniform(0, 1, (20, 2)))
    prev, _ = summarize_trace(base, KMeansParams(k=2, seed=0))
    chunk = Chunk(2, rng.uniform(0, 1, (30, 2)))
    assert dist_clust_trace(chunk, prev) == dist_clust_trace(chunk, prev)


def test_dist_clust_dimension_mismatch():
    prev = _result([(0.5, 0.5)])
    with pytest.raises(ValueError):
        dist_clust_trace(Chunk(2, [(0.5, 0.5, 0.5)]), prev)


# ---------------------------------------------------------------- exactness
#
# The absorb pass updates centroids through a generated kernel per
# dimensionality. It must stay bit-identical to the plain update below.


def _reference_absorb(rows, prev):
    """The absorb pass written plainly: a nearest-centroid scan with ties to
    the lowest index, and the running mean as a list comprehension."""
    centroids = [c.centroid for c in prev.clusters]
    radii = [c.radius for c in prev.clusters]
    lifetimes = [c.lifetime_count for c in prev.clusters]
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
        [c.centroid for c in result.clusters],
        [c.lifetime_count for c in result.clusters],
        [c.chunk_count for c in result.clusters],
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
    prev = ClusteringResult(
        tuple(ClusterSummary(c, r, n, 0) for c, r, n in zip(centroids, radii, lifetimes)), 0, 1
    )
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
    prev = ClusteringResult(
        tuple(ClusterSummary((c,), 0.3, 1, 0) for c in (0.1, 0.5, 0.9)), 0, 1
    )
    _assert_matches_reference(Chunk(2, rng.uniform(-0.2, 1.2, size=(2000, 1))), prev)


def test_dist_clust_single_cluster_matches_reference():
    # one cluster absorbing thousands of records: long lifetimes, tiny weights
    rng = np.random.default_rng(4)
    prev = ClusteringResult((ClusterSummary((0.5, 0.5, 0.5), 0.6, 10, 0),), 0, 1)
    _assert_matches_reference(Chunk(2, rng.uniform(0, 1, size=(5000, 3))), prev)
