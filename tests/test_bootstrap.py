import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamclust import Chunk, summarize_trace
from streamclust import bootstrap
from streamclust.bootstrap import _first_draw, _lloyd_first, _lloyd_iterate, _update_centroids
from conftest import chunk_rows

ANCHORS = ((0.117, 0.884), (0.885, 0.885), (0.527, 0.635), (0.117, 0.111), (0.877, 0.117))


def _blob_chunk(rng, anchors, per_cluster, sigma=0.02, timestamp=1):
    blocks = [rng.normal(anchor, sigma, size=(per_cluster, 2)) for anchor in anchors]
    labels = np.repeat(np.arange(1, len(anchors) + 1), per_cluster)
    return Chunk(timestamp, np.vstack(blocks), labels)


def _members(clusters, cluster):
    return [i for i, c in enumerate(clusters) if c == cluster]


def test_kmeans_one_point_per_cluster():
    chunk = Chunk(1, [(i / 10, i / 10) for i in range(4)])
    result, (clusters, _) = summarize_trace(chunk, 4, 0)
    assert set(result.centroids) == set(chunk_rows(chunk))
    for cluster, centroid in enumerate(result.centroids):
        members = _members(clusters, cluster)
        assert len(members) == 1
        assert math.dist(centroid, chunk.values[members[0]]) == 0.0


def test_kmeans_two_separated_pairs():
    chunk = Chunk(1, [(0.0, 0.0), (0.01, 0.0), (1.0, 1.0), (0.99, 1.0)])
    result, _ = summarize_trace(chunk, 2, 3)
    centroids = sorted(result.centroids)
    assert centroids[0] == pytest.approx((0.005, 0.0))
    assert centroids[1] == pytest.approx((0.995, 1.0))


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(11)
    chunk = _blob_chunk(rng, ANCHORS, 30)
    result, (clusters, _) = summarize_trace(chunk, 5, 1)
    # oracle: per-blob sample means computed directly from the raw points
    blob_means = []
    for label in range(1, 6):
        pts = np.array([v for v, lab in zip(chunk_rows(chunk), chunk.labels) if lab == label])
        blob_means.append(pts.mean(axis=0))
    for cluster, centroid in enumerate(result.centroids):
        nearest = min(blob_means, key=lambda m: math.dist(centroid, m))
        assert math.dist(centroid, nearest) < 0.02
        assert len(_members(clusters, cluster)) == 30


def test_kmeans_k_exceeds_chunk_size():
    chunk = Chunk(1, [(0.1,), (0.2,)])
    with pytest.raises(ValueError, match="exceeds chunk size"):
        summarize_trace(chunk, 3, 0)


def test_kmeans_deterministic_bit_for_bit():
    rng = np.random.default_rng(5)
    chunk = _blob_chunk(rng, ANCHORS, 20)
    assert summarize_trace(chunk, 5, 9) == summarize_trace(chunk, 5, 9)


def _lloyd_sse_history(matrix, k, seed):
    """SSE after each Lloyd iteration that changed the labels: the first
    iteration, then one more at a time until the labels stop changing."""
    centroids, labels = _lloyd_first(matrix, k, _first_draw(len(matrix), seed))
    history = []
    for _ in range(bootstrap.MAX_ITERATIONS):
        history.append(float((np.linalg.norm(matrix - centroids[labels], axis=1) ** 2).sum()))
        centroids, new_labels = _lloyd_iterate(matrix, centroids, labels, 1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return history


def test_lloyd_sse_non_increasing():
    rng = np.random.default_rng(13)
    for trial in range(10):
        matrix = rng.uniform(0, 1, size=(60, 2))
        history = _lloyd_sse_history(matrix, 4, trial)
        # relative tolerance: rounding noise scales with the SSE itself
        assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))
    # the same at a scale where an absolute 1e-9 would sit below float noise
    for trial in range(5):
        matrix = rng.uniform(0, 1e6, size=(200, 3))
        history = _lloyd_sse_history(matrix, 6, trial)
        assert history[0] > 1e9
        assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))


_VALUES = st.sampled_from([0.0, -0.0, 0.1, 1e16, -1e16]) | st.floats(-1e6, 1e6)


@st.composite
def _clusterings(draw):
    """(matrix, labels, centroids): rows of 1..4 values with signed zeros and
    duplicate rows, 2..5 clusters, one of them empty, and one cluster whose
    members are all -0.0 in one column."""
    n, d, k = draw(st.integers(1, 60)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    matrix = draw(arrays(np.float64, (n, d), elements=_VALUES))
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=8))
    matrix = np.vstack([matrix, matrix[duplicates]])
    labels = draw(arrays(np.int64, len(matrix), elements=st.integers(0, k - 2)))
    empty = draw(st.integers(0, k - 1))
    labels[labels >= empty] += 1
    matrix[labels == labels[0], draw(st.integers(0, d - 1))] = -0.0
    return matrix, labels, draw(arrays(np.float64, (k, d), elements=_VALUES))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_clusterings())
@example((np.array([[-0.0, 1.0], [-0.0, 3.0]]), np.array([0, 0]), np.ones((2, 2))))
def test_update_centroids_is_the_member_mean_bit_for_bit(case):
    matrix, labels, centroids = case
    expected = centroids.copy()
    for cluster in range(len(centroids)):
        members = matrix[labels == cluster]
        if len(members):
            expected[cluster] = members.mean(axis=0)
    _update_centroids(matrix, labels, centroids)
    # tobytes tells 0.0 from -0.0: the mean of -0.0 members is 0.0
    assert centroids.tobytes() == expected.tobytes()


def test_repair_empty_reseeds_a_cluster_with_the_worst_fit_record():
    # no record is nearest to the centroid at 100: cluster 1 starts empty,
    # and each record is 0.5 from its own centroid, so the stable order
    # picks record 0, whose cluster keeps record 1
    matrix = np.array([[0.0], [1.0], [10.0], [11.0]])
    centroids = np.array([[0.5], [100.0], [10.5]])
    dists = np.linalg.norm(matrix[:, None, :] - centroids[None, :, :], axis=2)
    labels = dists.argmin(axis=1)
    assert labels.tolist() == [0, 0, 2, 2]
    labels = bootstrap._repair_empty(matrix, centroids, labels, dists)
    assert labels.tolist() == [1, 0, 2, 2]
    assert centroids.tolist() == [[0.5], [0.0], [10.5]]
    assert np.bincount(labels, minlength=3).min() == 1


def test_summarize_radius_of_coincident_records_is_zero():
    chunk = Chunk(1, [(0.25, 0.75)] * 3)
    result, trace = summarize_trace(chunk, 1, 0)
    assert list(result.radii) == [0.0]
    assert trace == ((0,) * 3, 0.0)


def test_summarize_radius_takes_maximum():
    # the mean of these four records is the origin; the farthest is 0.5 away
    chunk = Chunk(1, [(0.3, 0.4), (0.1, 0.0), (-0.3, -0.4), (-0.1, 0.0)])
    result, _ = summarize_trace(chunk, 1, 0)
    assert result.centroids[0] == pytest.approx((0.0, 0.0), abs=1e-15)
    assert result.radii[0] == pytest.approx(0.5)


def test_summarize_radius_matches_brute_force():
    rng = np.random.default_rng(21)
    chunk = Chunk(1, rng.uniform(0, 1, size=(50, 3)))
    result, (clusters, _) = summarize_trace(chunk, 3, 4)
    # brute-force oracle: explicit loop over every member of each cluster
    expected = [0.0] * len(result.centroids)
    for row, cluster in zip(chunk.values.tolist(), clusters):
        d = math.dist(result.centroids[cluster], row)
        if d > expected[cluster]:
            expected[cluster] = d
    assert list(result.radii) == expected


def test_summarize_radius_needs_members():
    # a cluster with no member has no radius: k above the record count is
    # refused, and a cluster left empty on coincident records is dropped
    with pytest.raises(ValueError):
        summarize_trace(Chunk(1, [(0.1,), (0.2,)]), 3, 0)
    result, _ = summarize_trace(Chunk(1, [(0.4,)] * 4), 2, 0)
    assert (result.radii, result.chunk_counts) == ((0.0,), (4,))


def test_summarize_counts_equal_membership():
    chunk = Chunk(1, [(0.0, 0.0), (0.02, 0.0), (1.0, 1.0), (0.98, 1.0)])
    result, _ = summarize_trace(chunk, 2, 0)
    assert result.outliers == 0
    assert result.lifetime_counts == result.chunk_counts == (2, 2)


def test_summarize_single_cluster_reduction():
    rng = np.random.default_rng(3)
    chunk = Chunk(2, rng.uniform(0, 1, (25, 2)))
    result, _ = summarize_trace(chunk, 1, 0)
    assert len(result.centroids) == 1
    centroid = result.centroids[0]
    mean = np.array(chunk_rows(chunk)).mean(axis=0)
    assert centroid == pytest.approx(tuple(mean), abs=1e-12)
    assert result.lifetime_counts == result.chunk_counts == (25,)
    assert result.radii[0] == pytest.approx(
        max(math.dist(centroid, row) for row in chunk_rows(chunk))
    )


def test_summarize_toy_dataset_class_means(toy_chunk):
    result, _ = summarize_trace(toy_chunk, 2, 0)
    centroids = sorted(result.centroids)
    assert centroids[0] == pytest.approx((0.0535, 0.19075))
    assert centroids[1] == pytest.approx((0.961, 0.805))
    assert result.chunk_counts == (4, 4)


def test_summarize_every_member_within_radius():
    rng = np.random.default_rng(17)
    for trial in range(5):
        chunk = Chunk(1, rng.uniform(0, 1, (40, 2)))
        result, (clusters, sse) = summarize_trace(chunk, 3, trial)
        assert sum(result.chunk_counts) == len(chunk)
        expected_sse = 0.0
        for values, idx in zip(chunk_rows(chunk), clusters):
            assert idx >= 0
            dist = math.dist(values, result.centroids[idx])
            assert dist <= result.radii[idx]
            expected_sse += dist * dist
        assert sse == expected_sse


def test_summarize_trace_assigns_every_record():
    rng = np.random.default_rng(29)
    chunk = _blob_chunk(rng, ANCHORS[:3], 10)
    result, (clusters, _) = summarize_trace(chunk, 3, 0)
    assert len(clusters) == len(chunk)
    assert -1 not in clusters
    assert set(clusters) == set(range(len(result.centroids)))


def test_kmeans_params_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        summarize_trace(Chunk(1, [(0.1,), (0.2,)]), 0, 0)


# (n, seed, draw): Python keeps random.Random(seed)'s sequence for a given
# seed, so the table checks that promise on every Python the tests run on
_PINNED_DRAWS = [
    (1, 0, 0),
    (1, 10**30, 0),
    (2, 0, 1),
    (2, 7, 0),
    (150, 0, 126),
    (150, 7, 48),
    (150, 2**32 - 1, 95),
    (150, 10**30, 140),
    (1500, 7, 485),
    (2**32 + 1, 7, 1390851134),
    (2**32 + 1, 2**32 - 1, 2728839444),
    (2**32 + 1, 10**30, 4012147344),
]


@pytest.mark.parametrize("n, seed, draw", _PINNED_DRAWS)
def test_first_draw_is_pinned(n, seed, draw):
    assert _first_draw(n, seed) == draw


@settings(derandomize=True, deadline=None)
@given(st.integers(1, 2**53), st.integers(0, 10**40))
@example(2**53, 0)
@example(1, 2**32 - 1)
def test_first_draw_is_an_index_below_n(n, seed):
    assert 0 <= _first_draw(n, seed) < n


def test_first_draw_takes_integer_seeds_only():
    assert _first_draw(150, np.int64(7)) == _first_draw(150, 7) == 48
    for seed in (None, 7.0, "7"):
        with pytest.raises(TypeError):
            _first_draw(150, seed)
