import math
import sys
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamclust import (
    Chunk, ClusteringResult, DriftCause, DriftConfig, DriftKind, DriftVerdict, EngineState,
    StreamData, StreamSpec, TimestepSpec, dist_clust_trace, engine, minmax_normalize,
    summarize_trace, tcv_distance,
)
from streamclust.core import BOUND, class_means
from streamclust.engine import StepReport
from streamclust.metrics import step_metrics
from conftest import TOY_LABELS, TOY_VALUES, chunk_rows

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e101])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, math.nextafter(BOUND, math.inf),
                                 -1e101, 1e308])
def test_chunk_refuses_values_outside_the_domain(bad):
    # a NaN or infinity would reach the absorb kernel silently, and a value
    # past BOUND could overflow a distance, an SSE or a class sum
    values = np.full((4, 3), 0.5)
    values[2, 1] = bad
    with pytest.raises(ValueError, match=r"^record 3 of chunk 5: attribute values must be "
                                         r"finite, within ±1e\+100$"):
        Chunk(5, values)
    edge = Chunk(5, [[BOUND, -BOUND, 5e-324], [-0.0, 0.0, BOUND / 3]])
    assert edge.values.tolist() == [[BOUND, -BOUND, 5e-324], [-0.0, 0.0, BOUND / 3]]


_EDGE_VALUES = (BOUND, -BOUND, BOUND / 3, -BOUND / 3, 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308)


@st.composite
def _edge_chunks(draw):
    """A chunk to bootstrap with its k and a chunk to absorb: 1-12 labeled
    records each of 1-4 attributes, every value at an edge of the domain."""
    d = draw(st.integers(1, 4))
    chunks = []
    for t in (1, 2):
        rows = draw(st.lists(st.tuples(*[st.sampled_from(_EDGE_VALUES)] * d),
                             min_size=1, max_size=12))
        chunks.append(Chunk(t, rows, draw(st.lists(st.integers(0, 2), min_size=len(rows),
                                                   max_size=len(rows)))))
    return (*chunks, draw(st.integers(1, len(chunks[0]))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_edge_chunks())
@example((Chunk(1, [[BOUND, -BOUND]] * 10, [0] * 10), Chunk(2, [[BOUND, -BOUND]] * 37, [0] * 37),
          1))  # means that round an ulp past BOUND
def test_values_at_the_domain_edge_never_overflow(case):
    # the evidence that no overflow path is needed past the domain check:
    # every radius, SSE, centroid, mean and distance a run takes is finite
    first, second, k = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow and invalid warnings
        result, trace = summarize_trace(first, k, seed=7)
        absorbed, absorb_trace = dist_clust_trace(second, result)
        rows = [step_metrics(chunk, StepReport("none", r.outliers, r.chunk_counts, None, False,
                                               *t, 0.0))
                for chunk, r, t in ((first, result, trace), (second, absorbed, absorb_trace))]
        values = np.concatenate([first.values, second.values])
        means = [mean for _, mean in class_means(values, np.concatenate([first.labels,
                                                                         second.labels]))]
        match = tcv_distance(absorbed.centroids, means)
        scaled = minmax_normalize(values)
    numbers = [*result.radii, *chain(*result.centroids, *absorbed.centroids, *means),
               *(row[key] for row in rows for key in ("sse", "entropy")),
               *(distance for _, _, distance in match.pairs)]
    assert all(map(math.isfinite, numbers))
    assert ((0 <= scaled) & (scaled <= 1)).all()


def test_chunk_rows_are_float_tuples_in_record_order():
    chunk = Chunk(1, np.arange(6.0).reshape(3, 2))
    rows = chunk_rows(chunk)
    assert rows == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    assert all(type(row) is tuple and type(row[0]) is float for row in rows)
    assert chunk_rows(Chunk(1, [[0.25]])) == [(0.25,)]


def test_chunk_is_columnar_and_read_only():
    source = np.array([[0.5, 0.25], [0.1, 0.9]], dtype=np.float32)
    labels = [3, 4]
    classes = np.array([[1, 2], [2, 1]], dtype=np.int32)
    chunk = Chunk(1, source, labels, classes)
    assert chunk.values.dtype == np.float64 and chunk.values.flags.c_contiguous
    assert chunk.labels.dtype == np.int64 and chunk.artificial_classes.dtype == np.int64
    with pytest.raises(ValueError):
        chunk.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        chunk.labels[0] = 1
    with pytest.raises(ValueError):
        chunk.artificial_classes[0, 0] = 3
    source[0, 0] = 9.0  # the chunk holds its own copy
    labels[0] = 9
    classes[0, 0] = 9
    assert chunk.values[0, 0] == 0.5 and chunk.labels[0] == 3
    assert chunk.artificial_classes[0, 0] == 1
    assert chunk != Chunk(1, source, labels)  # equality is identity


def test_chunk_copies_a_read_only_view_of_a_writeable_array():
    base = np.array([[0.5, 0.25], [0.1, 0.9], [0.3, 0.7]])
    labels = np.array([1, 2, 1])
    values_view, labels_view = base[:2], labels[:2]
    values_view.flags.writeable = labels_view.flags.writeable = False
    chunk = Chunk(1, values_view, labels_view)
    base[0, 0] = 9.0  # through the base, which the views cannot stop
    labels[0] = 9
    assert chunk.values[0, 0] == 0.5 and chunk.labels[0] == 1
    assert not np.shares_memory(chunk.values, base)


def test_chunk_keeps_a_view_of_a_read_only_array():
    base = np.array([[0.5, 0.25], [0.1, 0.9], [0.3, 0.7]])
    classes = np.array([[1, 2], [2, 1], [1, 1]])
    base.flags.writeable = classes.flags.writeable = False
    chunk = Chunk(1, base[1:], [3, 4], classes[1:])
    assert chunk.values.base is base and chunk.artificial_classes.base is classes
    # an array that owns its memory, or one of another dtype, is copied
    assert Chunk(1, base).values is not base
    assert Chunk(1, base[1:].astype(np.float32)).values.base is None
    with pytest.raises(ValueError):
        chunk.values.flags.writeable = True


@pytest.mark.parametrize("classes, shape", [
    (np.ones((1, 2)), r"\(1, 2\)"),
    (np.ones((3, 2)), r"\(3, 2\)"),
    (np.ones(2), r"\(2,\)"),
    (np.ones((2, 0)), r"\(2, 0\)"),
], ids=["too_few_rows", "too_many_rows", "vector", "no_columns"])
def test_chunk_refuses_artificial_classes_of_another_shape(classes, shape):
    # no columns used to write an ac.npy that the manifest disowned
    with pytest.raises(ValueError, match=r"values of shape \(2, 2\), artificial classes of "
                                         r"shape " + shape):
        Chunk(1, np.ones((2, 2)), [1, 2], classes)


def _one_cluster(centroid, radius, lifetime_count, chunk_count):
    return ClusteringResult([centroid], [radius], [lifetime_count], [chunk_count], 0)


def test_cluster_summary_validation():
    with pytest.raises(ValueError):
        _one_cluster((0.5,), -0.1, 1, 0)
    with pytest.raises(ValueError, match="radii"):
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


# The value types: named tuples, and Chunk, a class with slots


def _one_of_each_value_type():
    chunk = Chunk(1, TOY_VALUES, TOY_LABELS)
    state, report = engine.bootstrap(chunk, DriftConfig(k=2), 2)
    return [chunk, state.main, state.config, state, report, DriftVerdict(DriftCause.NONE),
            tcv_distance(state.main.centroids, state.main.centroids), TimestepSpec(1, 5),
            StreamSpec([TimestepSpec(1, 5)]), StreamData((chunk,), {"origin": "synthetic"})]


def test_value_types_refuse_assignment():
    values = _one_of_each_value_type()
    assert len({type(value) for value in values}) == 10
    for value in values:
        field = getattr(value, "_fields", ("timestamp",))[0]
        before = getattr(value, field)
        for name in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize(("value", "changes", "message"), [
    (_one_cluster((0.5,), 0.1, 1, 0), {"radii": (-1.0,)}, "radii must be >= 0"),
    (_one_cluster((0.5,), 0.1, 1, 0), {"centroids": [(math.inf,)]}, "must be finite"),
    (DriftConfig(k=1), {"d_thresh": math.nan}, "d_thresh must be finite"),
    (DriftConfig(k=1), {"k": 0}, "k must be >= 1"),
    (EngineState(_one_cluster((0.5,), 0.1, 1, 0), None, 0, DriftConfig(k=1), 1), {"strike": 5},
     "strike must be 0 without a parallel model"),
    (EngineState(_one_cluster((0.5,), 0.1, 1, 0), None, 0, DriftConfig(k=1), 1),
     {"timestamp": 0}, "state timestamp must be >= 1"),
    (TimestepSpec(2, 5), {"drift_kind": DriftKind.MERGE}, "exactly one cluster"),
    (StreamSpec([TimestepSpec(1, 5)]), {"sigma": -1.0}, "sigma must be finite and > 0"),
    (StreamSpec([TimestepSpec(1, 5)]), {"anchors": [(0.5,)]}, "an \\(x, y\\) pair"),
], ids=["radii", "centroids", "d_thresh", "k", "strike", "timestamp", "merge", "sigma",
        "anchors"])
def test_replace_runs_the_constructors_checks(value, changes, message):
    with pytest.raises(ValueError, match=message):
        value._replace(**changes)


def test_replace_converts_like_the_constructor():
    result = _one_cluster((0.5,), 0.1, 1, 0)._replace(centroids=[np.array([1, 2])], radii=[0.2])
    assert type(result) is ClusteringResult
    assert result.centroids == ((1.0, 2.0),) and result.radii == (0.2,)
    assert type(result.centroids[0][0]) is float
    spec = StreamSpec([TimestepSpec(1, 5)])._replace(entries=[TimestepSpec(1, 3)])
    assert spec.entries == (TimestepSpec(1, 3),) and spec.entries[0].chunk_size == 3


def test_results_compare_by_value_and_chunks_by_identity():
    assert _one_cluster((0.5,), 0.1, 1, 0) == _one_cluster((0.5,), 0.1, 1, 0)
    assert len({_one_cluster((0.5,), 0.1, 1, 0), _one_cluster((0.5,), 0.1, 1, 0)}) == 1
    assert _one_cluster((0.5,), 0.1, 1, 0) != _one_cluster((0.5,), 0.1, 2, 0)
    base = np.array([[0.5, 0.25], [0.1, 0.9]])
    base.flags.writeable = False
    a, b = Chunk(1, base[:], [1, 2]), Chunk(1, base[:], [1, 2])
    assert a.values.base is b.values.base is base
    assert a == a and a != b and len({a, b}) == 2
