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
from streamclust.core import BOUND


def _result(centroids, radius=0.1, lifetime=5):
    k = len(centroids)
    return ClusteringResult(centroids, [radius] * k, [lifetime] * k, [0] * k, 0)


def _closest(values, result):
    # the nearest cluster and its squared distance as the absorb pass sees
    # them: a radius no record can exceed turns a one-record chunk into a
    # pure nearest-centroid query, whose SSE is that one squared distance
    wide = _result(result.centroids, radius=math.inf, lifetime=1)
    _, (clusters, sse) = dist_clust_trace(Chunk(2, [values]), wide)
    return clusters[0], sse


def _one(centroid, radius, lifetime, chunk_count):
    return ClusteringResult([centroid], [radius], [lifetime], [chunk_count], 0)


def _absorb_one(prev, values):
    result, _ = dist_clust_trace(Chunk(2, [values]), prev)
    return result


def test_closest_cluster_coincident():
    result = _result([(0.0, 0.0), (1.0, 1.0)])
    assert _closest((0.0, 0.0), result) == (0, 0.0)


def test_closest_cluster_nearer_corner():
    result = _result([(0.0, 0.0), (1.0, 1.0)])
    idx, squared = _closest((0.6, 0.6), result)
    assert idx == 1
    assert squared == pytest.approx(0.32)


def test_closest_cluster_matches_linear_scan():
    rng = np.random.default_rng(31)
    centroids = [tuple(c) for c in rng.uniform(0, 1, size=(10, 4))]
    result = _result(centroids)
    for _ in range(50):
        values = tuple(rng.uniform(0, 1, size=4).tolist())
        # linear-scan oracle
        dists = [math.dist(values, c) for c in centroids]
        best = dists.index(min(dists))
        assert _closest(values, result) == (best, dists[best] * dists[best])


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
    prev, (base_clusters, _) = summarize_trace(base, 2, 0)
    buckets = {i: [] for i in range(len(prev.centroids))}
    for values, idx in zip(base.values.tolist(), base_clusters):
        buckets[idx].append(values)
    absorb_pts = base_pts[rng.integers(0, 12, size=40)] + rng.normal(0, 0.01, (40, 2))
    chunk = Chunk(2, absorb_pts)
    result, (clusters, _) = dist_clust_trace(chunk, prev)
    for values, idx in zip(chunk.values.tolist(), clusters):
        if idx >= 0:
            buckets[idx].append(values)
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
        prev, (clusters, _) = dist_clust_trace(Chunk(t, records[start:start + 1_000]), prev)
        assert -1 not in clusters
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
    the lowest index, the running mean as a list comprehension, and the SSE
    as squared distances added in record order."""
    centroids = list(prev.centroids)
    radii = list(prev.radii)
    lifetimes = list(prev.lifetime_counts)
    deltas = [0] * len(centroids)
    outliers = 0
    clusters = []
    sse = 0.0
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
            clusters.append(best)
            sse += dists[best] * dists[best]
        else:
            outliers += 1
            clusters.append(-1)
    return centroids, lifetimes, deltas, outliers, clusters, sse


def _assert_matches_reference(chunk, prev):
    result, (clusters, sse) = dist_clust_trace(chunk, prev)
    got = (
        list(result.centroids),
        list(result.lifetime_counts),
        list(result.chunk_counts),
        result.outliers,
        list(clusters),
        sse,
    )
    # repr tells every float bit pattern apart, -0.0 from 0.0 included
    assert repr(got) == repr(_reference_absorb(chunk.values.tolist(), prev))


_RADII = (0.0, 0.25, 1.0, 2.5, math.inf)
_ROW_KINDS = ("grid", "centroid", "tie", "float", "outlier", "near", "pull", "gap")


@st.composite
def _absorb_cases(draw):
    # Hypothesis picks the shape and the mix of row kinds; a seeded generator
    # fills in the coordinates, which keeps 16-D cases cheap to draw. Grid
    # values are quarter steps, so the midpoint of two centroids is exact and
    # lies at exactly the same distance from both: a tie. A "near" row is a
    # run of records within 0.1 of one centroid, less than half the 0.25 grid
    # step. In a settled case every cluster has a long lifetime and a finite
    # radius, so the centroids barely move and the half-gap test settles
    # most of such a run with one distance. A "pull" row is a run of records
    # between two centroids that drags the first towards the second, then a
    # record at the second and one past the midpoint: with short lifetimes,
    # the first centroid may have moved nearer to that last record than the
    # second is, which only a test that bounds the moves gets right. A "gap"
    # row is a record at one centroid, then a run of records on the far half
    # of the segment to another centroid, each beyond every radius: the
    # current cluster is not their nearest, and in a settled case the far
    # radius certifies most of them as outliers without a scan.
    d = draw(st.integers(1, 16))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = (rng.integers(-8, 9, size=(k, d)) / 4).tolist()
    settled = draw(st.booleans())
    radius = st.sampled_from(_RADII[:-1] if settled else _RADII)
    radii = draw(st.lists(radius, min_size=k, max_size=k))
    # short lifetimes let a centroid move far within one chunk
    lifetime = (st.integers(10**6, 10**15) if settled
                else st.one_of(st.integers(1, 8), st.integers(1, 10**6)))
    lifetimes = draw(st.lists(lifetime, min_size=k, max_size=k))
    prev = ClusteringResult(centroids, radii, lifetimes, [0] * k, 0)
    rows = []
    for kind in draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=40)):
        if kind == "near":
            home = centroids[rng.integers(k)]
            spread = rng.uniform(-0.1, 0.1, size=(rng.integers(1, 30), d)) / math.sqrt(d)
            rows.extend(home + spread)
        elif kind == "pull":
            i = rng.integers(k)
            a, b = np.array(centroids)[[i, (i + 1 + rng.integers(max(k - 1, 1))) % k]]
            rows.extend(a + t * (b - a) for t in rng.uniform(0.3, 0.5, size=rng.integers(1, 10)))
            rows.extend([b, a + rng.uniform(0.5, 0.7) * (b - a)])
        elif kind == "gap":
            i = rng.integers(k)
            a, b = np.array(centroids)[[i, (i + 1 + rng.integers(max(k - 1, 1))) % k]]
            run = a + rng.uniform(0.5, 1.0, size=(rng.integers(1, 20), 1)) * (b - a)
            gaps = np.linalg.norm(run[:, None] - np.array(centroids)[None], axis=2)
            rows.extend([a, *run[(gaps > max(radii)).all(axis=1)]])
        elif kind == "grid":
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


@settings(max_examples=700, deadline=None, derandomize=True)
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
    prev = ClusteringResult(centroids, radii, [3] * 40, [0] * 40, 0)
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


# The kernel takes the certified distance as hypot() of the coordinate gaps
# and scans with dist(): both hand the same |x_j - c_j| array to one norm,
# so their bits must agree on every Python the package supports.

_EDGE_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308)
_COORDINATE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_EDGE_COORDINATES),
                        st.floats(-1e-300, 1e-300), st.floats(1e307, 1.7976931348623157e308))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=1, max_size=16))
def test_hypot_of_gaps_equals_dist_bit_for_bit(pairs):
    v, q = zip(*pairs)
    assert repr(math.hypot(*(x - c for x, c in zip(v, q)))) == repr(math.dist(v, q))


# Named cases for the half-gap test: each must give the plain pass's bits.

_BIG = BOUND  # the domain's edge


def _walk(radius, records):
    """records rows, each 0.99 * radius to the right of the running mean of
    a cluster at the origin that has absorbed one record and then every
    earlier row: they pull it right as far as one chunk can, to about
    0.99 * radius * (ln(records) - 0.42)."""
    c, rows = 0.0, []
    for n in range(2, records + 2):
        v = c + 0.99 * radius
        rows.append((v, 0.0))
        c += (v - c) / n
    return rows


@pytest.mark.parametrize("centroids, radii, lifetimes, rows", [
    pytest.param([(0.5, 0.5), (0.0, 0.0), (0.0, 0.0)], [0.3] * 3, [10**9] * 3,
                 [(0.1, 0.0), (0.0, 0.0), (0.0, 0.1), (0.0, 0.0), (0.4, 0.4)],
                 id="coincident_centroids"),
    pytest.param([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [math.inf] * 3, [10**9] * 3,
                 [(0.01 * t, 0.0) for t in range(50)] + [(1.0, 0.01 * t) for t in range(50)],
                 id="infinite_radii"),
    pytest.param([(0.25, -0.5)], [0.5], [1], [(0.25, -0.5), (0.5, -0.25), (9.0, 9.0), (0.0, 0.0)],
                 id="one_cluster"),
    pytest.param([(-0.0, 1.0), (1.0, -0.0), (-0.0, -0.0)], [0.5] * 3, [10**9] * 3,
                 [(-0.0, 0.9), (0.0, 0.9), (0.0, 1.0), (0.9, -0.0), (0.9, 0.0), (-0.0, -0.0),
                  (0.0, 0.0), (0.0, -0.0)],
                 id="negative_zero"),
    # centroids at the domain's edge, as far apart as it allows: the record
    # at 0 lies _BIG from both, so half the pair distance must not certify it
    # for cluster 1, and the scan ties it to cluster 0
    pytest.param([(-_BIG,), (_BIG,)], [1.5 * _BIG] * 2, [10**300] * 2,
                 [(_BIG,), (0.0,), (0.0,), (-_BIG,), (0.0,)],
                 id="pair_distance_at_the_domain_edge"),
    pytest.param([(-_BIG, _BIG), (_BIG, -_BIG), (0.0, 0.0)], [_BIG] * 3, [1, 10**300, 10**300],
                 [(-_BIG, _BIG), (_BIG, 0.0), (0.0, _BIG), (_BIG, -_BIG), (0.0, 0.0)],
                 id="coordinates_at_the_domain_edge"),
    # cluster 0 absorbs its way towards cluster 1: a record at 0.6 starts
    # 0.4 from cluster 1 but ends nearer the moved cluster 0, so the test
    # must count how far the centroids can move within the chunk
    pytest.param([(0.0,), (1.0,)], [10.0, 10.0], [1, 1],
                 [(0.45,)] * 6 + [(0.95,), (0.6,)],
                 id="centroid_moving_within_the_chunk"),
    # the kernel keeps the current cluster in locals and writes them back
    # before each scan and after the chunk: the last record leaves a cluster
    # that absorbed records, scans into another and is an outlier there
    pytest.param([(0.0, 0.0), (1.0, 1.0)], [0.5, 0.1], [2, 2],
                 [(0.1, 0.0), (0.0, 0.2), (0.1, 0.1), (0.8, 0.8)],
                 id="last_record_scans_away_as_an_outlier"),
    # records leave cluster 0 for 1 and scan back into 0, whose locals were
    # written back when they left it, then into 1 again
    pytest.param([(0.0,), (1.0,)], [0.6, 0.6], [1, 1],
                 [(0.2,), (0.3,), (0.9,), (0.8,), (0.1,), (0.4,), (0.7,)],
                 id="record_scans_back_into_the_cluster_it_left"),
    # cluster 1 absorbs its way towards 8.2 while the records at 9 come in;
    # the record at 8.2 arrives with cluster 0 current, 8.2 away: from where
    # cluster 1 started it lies beyond its radius, but it is 0.97 from where
    # cluster 1 has moved, so the far radius must count the moves too
    pytest.param([(0.0,), (10.0,)], [1.0, 1.0], [1, 1],
                 [(9.0,)] * 5 + [(0.0,), (8.2,)],
                 id="record_inside_a_ball_that_moved_towards_it"),
    # overlapping balls whose centroids may move past each other within the
    # chunk: every safe and far radius is negative, so each record scans
    pytest.param([(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)], [0.5] * 3, [1] * 3,
                 [(0.05, 0.0), (0.6, 0.0), (0.9, 0.9), (0.0, 0.55), (-2.0, 0.0), (0.1, 0.05)],
                 id="overlapping_balls"),
    # one infinite radius makes every far radius -inf: each failed half-gap
    # test scans, and cluster 1 takes every record nearer it
    pytest.param([(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], [0.5, math.inf, 0.5], [10**9] * 3,
                 [(1.0, 0.0), (1.5, 0.1), (4.0, 0.0), (0.0, 1.5), (0.0, 4.9), (9.0, 9.0)],
                 id="an_infinite_radius"),
    # k = 1: safe = [inf], so every distance, finite within the domain, passes
    # the half-gap test, the farthest ones included
    pytest.param([(0.0, 0.0)], [0.5], [3],
                 [(0.1, 0.0), (1.0, 1.0), (_BIG, _BIG), (-_BIG, _BIG), (0.0, 0.2)],
                 id="one_cluster_at_the_domain_edge"),
    pytest.param([(0.0, 0.0, 0.0), (1.0, 0.5, -0.25), (-0.5, 1.0, 0.75)], [0.8, 0.6, math.inf],
                 [3, 1, 7],
                 [(0.1, 0.0, -0.1), (0.9, 0.5, -0.2), (0.2, 0.1, 0.0), (-0.4, 0.9, 0.8),
                  (0.0, 0.0, 0.05), (5.0, 5.0, 5.0), (1.1, 0.4, -0.3), (0.05, -0.05, 0.0)],
                 id="three_dimensions"),
    # the smallest kernel: one move bound, over one coordinate, and no pair
    pytest.param([(-0.25,)], [0.5], [2],
                 [(-0.25,), (0.0,), (0.3,), (-0.8,), (-0.75,), (_BIG,), (0.1,)],
                 id="one_cluster_in_one_dimension"),
    # cluster 0 has absorbed one record, so under 5 000 records its move
    # bound is r * log1p(5000 / 1), 2.56 here: the safe radius of cluster 1,
    # 3 away, is 0.22. 4 998 records pull cluster 0 to about 2.40; a
    # record at cluster 1 then makes it current, and the last record, 0.55
    # from it, is 0.05 from cluster 0. A move bound that left out the
    # chunk's size, r * log1p(1 / 1) = 0.21, would certify cluster 1 for it
    pytest.param([(0.0, 0.0), (3.0, 0.0)], [0.3, 0.3], [1, 10**9],
                 _walk(0.3, 4998) + [(3.0, 0.0), (2.45, 0.0)],
                 id="lifetime_one_under_5000_records"),
])
def test_half_gap_edge_cases_match_reference(centroids, radii, lifetimes, rows):
    k = len(centroids)
    _assert_matches_reference(Chunk(2, rows), ClusteringResult(centroids, radii, lifetimes,
                                                               [0] * k, 0))


def test_steady_blobs_cost_one_distance_per_record(monkeypatch):
    # five settled clusters and a chunk of their records in blob order: each
    # record after the first of its blob is settled by the half-gap test
    k, per_blob = 5, 40
    rng = np.random.default_rng(12)
    centers = [(0.1, 0.1), (0.9, 0.1), (0.5, 0.5), (0.1, 0.9), (0.9, 0.9)]
    prev = ClusteringResult(centers, [0.15] * k, [10**4] * k, [0] * k, 0)
    order = [0, 3, 1, 4, 2]  # starts at cluster 0, the first one tried
    rows = np.vstack([rng.normal(centers[j], 0.03, size=(per_blob, 2)) for j in order])
    # the kernel takes the certified distance with hypot and scans with dist
    calls = []
    dist, hypot = math.dist, math.hypot
    monkeypatch.setattr(math, "dist", lambda a, b: calls.append(1) or dist(a, b))
    monkeypatch.setattr(math, "hypot", lambda *gaps: calls.append(1) or hypot(*gaps))
    _, (clusters, _) = dist_clust_trace(Chunk(2, rows), prev)
    switches = len(order) - 1
    assert len(calls) <= len(rows) + k * (k - 1) // 2 + (k + 1) * switches
    assert list(clusters) == [j for j in order for _ in range(per_blob)]
    monkeypatch.undo()
    _assert_matches_reference(Chunk(2, rows), prev)


def test_drifted_blobs_cost_one_distance_per_outlier(monkeypatch):
    # five settled clusters and a chunk of records drifted away from them in
    # blob order: each blob lies 0.37 out from its cluster, past the half-gap
    # radius (0.28) and every radius (0.1) but within the far radius (0.47),
    # so after the first of a blob, which scans, each costs one distance
    k, per_blob = 5, 40
    rng = np.random.default_rng(13)
    centers = np.array([(0.1, 0.1), (0.9, 0.1), (0.5, 0.5), (0.1, 0.9), (0.9, 0.9)])
    prev = ClusteringResult(centers.tolist(), [0.1] * k, [10**4] * k, [0] * k, 0)
    out = centers - 0.5
    out[2] = (1.0, 0.0)  # the middle cluster's blob goes right
    drifted = centers + 0.37 * out / np.linalg.norm(out, axis=1)[:, None]
    order = [0, 3, 1, 4, 2]  # starts at cluster 0, the current one at the start
    rows = np.vstack([rng.normal(drifted[j], 0.01, size=(per_blob, 2)) for j in order])
    calls = []
    dist, hypot = math.dist, math.hypot
    monkeypatch.setattr(math, "dist", lambda a, b: calls.append(1) or dist(a, b))
    monkeypatch.setattr(math, "hypot", lambda *gaps: calls.append(1) or hypot(*gaps))
    result, (clusters, _) = dist_clust_trace(Chunk(2, rows), prev)
    switches = len(order) - 1
    assert len(calls) <= len(rows) + k * (k - 1) // 2 + k * switches
    assert result.outliers == len(rows) and set(clusters) == {-1}
    monkeypatch.undo()
    _assert_matches_reference(Chunk(2, rows), prev)


def test_absorb_kernel_source_is_linear_in_k_and_d(monkeypatch):
    # the set-up takes the safe radii in a loop over the cluster pairs:
    # unrolling it would give k(k - 1)/2 more lines, 4 950 at k = 100, whose
    # kernel then takes a third of a second to build
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(incremental, "compile", capture, raising=False)
    for k, d in ((100, 2), (10, 16)):
        incremental._absorb_kernel.__wrapped__(k, d)  # past the cache
        assert sources[-1].count("\n") <= 60 + 5 * (k + d)


def test_absorb_kernel_takes_ints_only(monkeypatch):
    incremental._absorb_kernel(2, 2)  # a cached int shape must not serve 2.0 or True

    def refuse(*args):
        raise AssertionError("kernel source was built from a non-int shape")

    monkeypatch.setattr(incremental, "exec", refuse, raising=False)
    monkeypatch.setattr(incremental, "compile", refuse, raising=False)
    for shape in (("2", 2), (2.0, 2), (True, 2), (2, "1]); import os; (c[0")):
        with pytest.raises(TypeError):
            incremental._absorb_kernel(*shape)
