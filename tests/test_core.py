import math
import sys

import numpy as np
import pytest

from streamclust import Chunk, ClusteringResult, DriftConfig, minmax_normalize

# Absorb, bootstrap and matching all measure with math.dist; these pin the
# properties of the metric they rely on.


def test_euclidean_identity():
    assert math.dist((0.0, 0.0), (0.0, 0.0)) == 0.0


def test_euclidean_345_triangle():
    assert math.dist((0.0, 0.0), (0.3, 0.4)) == pytest.approx(0.5)


def test_euclidean_hand_computed():
    # sqrt(0.034^2 + 0.027^2), worked out by hand
    assert math.dist((0.117, 0.884), (0.151, 0.857)) == pytest.approx(
        0.043416586692184816, abs=1e-12
    )


def test_euclidean_dimension_mismatch():
    with pytest.raises(ValueError):
        math.dist((0.0, 0.0), (0.0, 0.0, 0.0))


def test_euclidean_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b, c = rng.uniform(0, 1, size=(3, 3))
        assert math.dist(a, b) == math.dist(b, a)
        assert math.dist(a, c) <= math.dist(a, b) + math.dist(b, c) + 1e-12
        assert math.dist(a, b) >= 0.0


def test_minmax_linear_rescale():
    out = minmax_normalize([[2.0], [4.0], [6.0]])
    assert out[:, 0].tolist() == [0.0, 0.5, 1.0]


def test_minmax_constant_column_maps_to_zero():
    out = minmax_normalize([[5.0, 1.0], [5.0, 3.0], [5.0, 2.0]])
    assert out[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert out[:, 1].tolist() == [0.0, 1.0, 0.5]


def test_minmax_identity_on_already_normalized():
    out = minmax_normalize([[0.0, 1.0], [1.0, 0.0]])
    assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_minmax_idempotent():
    rng = np.random.default_rng(7)
    once = minmax_normalize(rng.normal(3.0, 10.0, size=(40, 4)))
    twice = minmax_normalize(once)
    assert once.tolist() == twice.tolist()


def test_minmax_preserves_labels_and_dimensions():
    # labels never pass through the normalizer; rows keep their order, so a
    # label vector aligned with the input stays aligned with the output
    values = np.array([[1.0, 2.0], [3.0, 0.0]])
    out = minmax_normalize(values)
    assert out.shape == values.shape
    chunk = Chunk(1, out, [5, 9])
    assert chunk.labels.tolist() == [5, 9]
    assert chunk.dimensions == 2
    assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_minmax_empty_dataset():
    with pytest.raises(ValueError):
        minmax_normalize(np.empty((0, 2)))


def test_minmax_ragged_dimensions():
    with pytest.raises(ValueError):
        minmax_normalize([[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        minmax_normalize([1.0, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_minmax_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="record 2"):
        minmax_normalize([[0.1, 1.0], [bad, 2.0], [0.3, 3.0]])


def test_record_requires_values():
    # a record needs at least one attribute value
    with pytest.raises(ValueError):
        Chunk(1, np.empty((1, 0)))


def test_chunk_validation():
    with pytest.raises(ValueError):
        Chunk(0, [[1.0]])
    with pytest.raises(ValueError):
        Chunk(1, np.empty((0, 2)))
    with pytest.raises(ValueError):
        Chunk(1, [[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        Chunk(1, [0.5, 0.5])  # a vector, not a matrix
    with pytest.raises(ValueError):
        Chunk(1, [[0.5, 0.5], [0.1, 0.1]], [1])  # one label for two records
    chunk = Chunk(3, [[0.5, 0.5]])
    assert len(chunk) == 1 and chunk.dimensions == 2
    assert chunk.labels is None


def test_chunk_rows_are_float_tuples_in_record_order():
    chunk = Chunk(1, np.arange(6.0).reshape(3, 2))
    rows = chunk.rows()
    assert rows == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    assert all(type(row) is tuple and type(row[0]) is float for row in rows)
    assert Chunk(1, [[0.25]]).rows() == [(0.25,)]


def test_chunk_is_columnar_and_read_only():
    source = np.array([[0.5, 0.25], [0.1, 0.9]], dtype=np.float32)
    labels = [3, 4]
    chunk = Chunk(1, source, labels)
    assert chunk.values.dtype == np.float64 and chunk.values.flags.c_contiguous
    assert chunk.labels.dtype == np.int64
    with pytest.raises(ValueError):
        chunk.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        chunk.labels[0] = 1
    source[0, 0] = 9.0  # the chunk holds its own copy
    labels[0] = 9
    assert chunk.values[0, 0] == 0.5 and chunk.labels[0] == 3
    assert chunk != Chunk(1, source, labels)  # equality is identity


def _one_cluster(centroid, radius, lifetime_count, chunk_count):
    return ClusteringResult([centroid], [radius], [lifetime_count], [chunk_count], 0)


def test_cluster_summary_validation():
    with pytest.raises(ValueError):
        _one_cluster((0.5,), -0.1, 1, 0)
    with pytest.raises(ValueError, match="radius"):
        _one_cluster((0.5,), math.nan, 1, 0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            _one_cluster((0.5, bad), 0.1, 1, 0)
    assert _one_cluster((0.5,), math.inf, 1, 0).radii == (math.inf,)  # absorbs everything
    with pytest.raises(ValueError):
        _one_cluster((0.5,), 0.1, 0, 0)
    with pytest.raises(ValueError):
        _one_cluster((0.5,), 0.1, 2, 3)
    # centroids of different lengths, and columns of different lengths
    with pytest.raises(ValueError, match="length"):
        ClusteringResult([(0.0,), (0.5, 0.5)], [1.0, 1.0], [1, 1], [1, 1], 0)
    with pytest.raises(ValueError, match="length"):
        _one_cluster((), 0.1, 1, 0)
    with pytest.raises(ValueError, match="one entry per cluster"):
        ClusteringResult([(0.0,), (0.5,)], [1.0, 1.0], [1], [1, 1], 0)
    with pytest.raises(ValueError, match="at least one cluster"):
        ClusteringResult([], [], [], [], 0)
    with pytest.raises(ValueError, match="outliers"):
        ClusteringResult([(0.5,)], [0.1], [1], [0], -1)
    # columns become tuples and coordinates Python floats
    result = ClusteringResult([np.array([1, 2])], [0.5], [3], [2], 0)
    assert result.centroids == ((1.0, 2.0),)
    assert all(type(x) is float for x in result.centroids[0])
    assert (result.radii, result.lifetime_counts, result.chunk_counts) == ((0.5,), (3,), (2,))
    assert result == ClusteringResult(((1.0, 2.0),), (0.5,), (3,), (2,), 0)


def test_drift_config_bounds():
    with pytest.raises(ValueError):
        DriftConfig(k=0)
    with pytest.raises(ValueError):
        DriftConfig(k=1, o_thresh=0.0)
    with pytest.raises(ValueError):
        DriftConfig(k=1, o_thresh=1.5)
    with pytest.raises(ValueError):
        DriftConfig(k=1, d_thresh=0.0)
    with pytest.raises(ValueError, match="d_thresh"):
        DriftConfig(k=1, d_thresh=math.nan)  # a NaN threshold would never fire
    for infinite in (math.inf, -math.inf):  # JSON has no token for either
        with pytest.raises(ValueError, match="d_thresh"):
            DriftConfig(k=1, d_thresh=infinite)
    assert DriftConfig(k=1, d_thresh=sys.float_info.max).d_thresh == sys.float_info.max
    cfg = DriftConfig(k=3)
    assert (cfg.o_thresh, cfg.d_thresh) == (0.18, 0.6)
