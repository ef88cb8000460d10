import math

import numpy as np
import pytest

from streamclust import (
    Chunk,
    kmeans,
    summarize_trace,
)
from streamclust import bootstrap
from streamclust.bootstrap import _lloyd

ANCHORS = ((0.117, 0.884), (0.885, 0.885), (0.527, 0.635), (0.117, 0.111), (0.877, 0.117))


def _blob_chunk(rng, anchors, per_cluster, sigma=0.02, timestamp=1):
    blocks = [rng.normal(anchor, sigma, size=(per_cluster, 2)) for anchor in anchors]
    labels = np.repeat(np.arange(1, len(anchors) + 1), per_cluster)
    return Chunk(timestamp, np.vstack(blocks), labels)


def test_kmeans_one_point_per_cluster():
    chunk = Chunk(1, [(i / 10, i / 10) for i in range(4)])
    pairs = kmeans(chunk, 4, 0)
    centroids = {c for c, _ in pairs}
    assert centroids == set(chunk.rows())
    for centroid, members in pairs:
        assert len(members) == 1
        assert math.dist(centroid, chunk.values[members[0]]) == 0.0


def test_kmeans_two_separated_pairs():
    chunk = Chunk(1, [(0.0, 0.0), (0.01, 0.0), (1.0, 1.0), (0.99, 1.0)])
    pairs = kmeans(chunk, 2, 3)
    centroids = sorted(c for c, _ in pairs)
    assert centroids[0] == pytest.approx((0.005, 0.0))
    assert centroids[1] == pytest.approx((0.995, 1.0))


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(11)
    chunk = _blob_chunk(rng, ANCHORS, 30)
    pairs = kmeans(chunk, 5, 1)
    # oracle: per-blob sample means computed directly from the raw points
    blob_means = []
    for label in range(1, 6):
        pts = np.array([v for v, lab in zip(chunk.rows(), chunk.labels) if lab == label])
        blob_means.append(pts.mean(axis=0))
    for centroid, members in pairs:
        nearest = min(blob_means, key=lambda m: math.dist(centroid, m))
        assert math.dist(centroid, nearest) < 0.02
        assert len(members) == 30


def test_kmeans_k_exceeds_chunk_size():
    chunk = Chunk(1, [(0.1,), (0.2,)])
    with pytest.raises(ValueError):
        kmeans(chunk, 3, 0)


def test_kmeans_deterministic_bit_for_bit():
    rng = np.random.default_rng(5)
    chunk = _blob_chunk(rng, ANCHORS, 20)
    a = kmeans(chunk, 5, 9)
    b = kmeans(chunk, 5, 9)
    assert a == b


def _lloyd_sse_history(matrix, k, seed):
    """SSE after each Lloyd iteration that changed the labels: _lloyd rerun
    with one more iteration at a time until its labels stop changing."""
    history = []
    previous = None
    with pytest.MonkeyPatch.context() as patch:
        for iterations in range(1, bootstrap.MAX_ITERATIONS + 1):
            patch.setattr(bootstrap, "MAX_ITERATIONS", iterations)
            centroids, labels = _lloyd(matrix, k, seed)
            if previous is not None and np.array_equal(labels, previous):
                break
            history.append(float((np.linalg.norm(matrix - centroids[labels], axis=1) ** 2).sum()))
            previous = labels
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


def test_summarize_radius_of_coincident_records_is_zero():
    chunk = Chunk(1, [(0.25, 0.75)] * 3)
    result, assignments = summarize_trace(chunk, 1, 0)
    assert list(result.radii) == [0.0]
    assert assignments == ((0, 0.0),) * 3


def test_summarize_radius_takes_maximum():
    # the mean of these four records is the origin; the farthest is 0.5 away
    chunk = Chunk(1, [(0.3, 0.4), (0.1, 0.0), (-0.3, -0.4), (-0.1, 0.0)])
    result, _ = summarize_trace(chunk, 1, 0)
    assert result.centroids[0] == pytest.approx((0.0, 0.0), abs=1e-15)
    assert result.radii[0] == pytest.approx(0.5)


def test_summarize_radius_matches_brute_force():
    rng = np.random.default_rng(21)
    chunk = Chunk(1, rng.uniform(0, 1, size=(50, 3)))
    result, assignments = summarize_trace(chunk, 3, 4)
    # brute-force oracle: explicit loop over every member of each cluster
    expected = [0.0] * len(result.centroids)
    for row, (cluster, _) in zip(chunk.values.tolist(), assignments):
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
    assert result.timestamp == 1
    assert result.lifetime_counts == result.chunk_counts == (2, 2)


def test_summarize_single_cluster_reduction():
    rng = np.random.default_rng(3)
    chunk = Chunk(2, rng.uniform(0, 1, (25, 2)))
    result, _ = summarize_trace(chunk, 1, 0)
    assert len(result.centroids) == 1
    centroid = result.centroids[0]
    mean = np.array(chunk.rows()).mean(axis=0)
    assert centroid == pytest.approx(tuple(mean), abs=1e-12)
    assert result.lifetime_counts == result.chunk_counts == (25,)
    assert result.radii[0] == pytest.approx(
        max(math.dist(centroid, row) for row in chunk.rows())
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
        result, assignments = summarize_trace(chunk, 3, trial)
        assert sum(result.chunk_counts) == len(chunk)
        for values, assignment in zip(chunk.rows(), assignments):
            assert assignment is not None
            idx, dist = assignment
            assert dist <= result.radii[idx]
            assert dist == math.dist(values, result.centroids[idx])


def test_summarize_trace_assigns_every_record():
    rng = np.random.default_rng(29)
    chunk = _blob_chunk(rng, ANCHORS[:3], 10)
    result, assignments = summarize_trace(chunk, 3, 0)
    assert len(assignments) == len(chunk)
    assert all(a is not None for a in assignments)
    assert {idx for idx, _ in assignments} == set(range(len(result.centroids)))


def test_kmeans_params_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        kmeans(Chunk(1, [(0.1,), (0.2,)]), 0, 0)
