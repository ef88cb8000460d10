from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamclust import (
    StreamSpec,
    TimestepSpec,
    chunk_dataset,
    generate_synthetic,
    make_artificial_classes,
    ncd100_spec,
    sdccl_spec,
    sdwcd_spec,
    wcd1000_spec,
)
from streamclust.streams import DRIFT_KINDS, MERGED_LABEL
from conftest import (
    BINNING_ROWS,
    EXPECTED_BINS,
    TOY_LABELS,
    TOY_ROWS,
    TOY_VALUES,
    chunk_rows,
    same_chunk,
)


def _label_counts(chunk):
    return Counter(chunk.labels.tolist())


def _same_stream(a, b):
    return len(a) == len(b) and all(same_chunk(x, y) for x, y in zip(a, b))


def test_sdwcd_shape():
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    assert [c.timestamp for c in chunks] == list(range(1, 11))
    assert all(len(c) == 150 for c in chunks)
    cluster_counts = [len(_label_counts(c)) for c in chunks]
    assert cluster_counts == [5, 5, 1, 5, 5, 3, 3, 3, 3, 3]
    per_cluster = [sorted(_label_counts(c).values()) for c in chunks]
    assert per_cluster[0] == [30] * 5
    assert per_cluster[2] == [150]
    assert per_cluster[5] == [50] * 3
    # the collapse affects only its own chunk: labels revert at t=4
    assert set(_label_counts(chunks[2])) == {MERGED_LABEL}
    assert set(_label_counts(chunks[3])) == {1, 2, 3, 4, 5}
    # sustained relabel from t=6 onward uses the 3-cluster label set
    for c in chunks[5:]:
        assert set(_label_counts(c)) == {1, 2, 3}


def test_sdwcd_sustained_phase_moves_the_clusters():
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    early = {tuple(round(v, 1) for v in row) for row in chunk_rows(chunks[0])}
    late = {tuple(round(v, 1) for v in row) for row in chunk_rows(chunks[5])}
    assert not early & late  # drifted phase lives somewhere else entirely


def test_sdccl_shape():
    chunks = generate_synthetic(sdccl_spec(seed=7))
    assert [len(_label_counts(c)) for c in chunks] == [5, 5, 5, 5, 1, 5, 5]
    assert all(len(c) == 150 for c in chunks)
    assert set(_label_counts(chunks[4])) == {MERGED_LABEL}


def test_ncd100_shape():
    chunks = generate_synthetic(ncd100_spec(seed=7))
    assert len(chunks) == 100
    assert all(len(_label_counts(c)) == 5 for c in chunks)
    assert all(sorted(_label_counts(c).values()) == [30] * 5 for c in chunks)


def test_wcd1000_shape():
    chunks = generate_synthetic(wcd1000_spec(seed=7))
    assert len(chunks) == 1000
    assert all(len(c) == 150 for c in chunks)
    block_counts = [len(_label_counts(chunks[b * 100])) for b in range(10)]
    assert block_counts == [5, 4, 5, 3, 5, 4, 5, 2, 3, 5]
    # the fractional four-cluster blocks split 150 records as 38/38/37/37
    assert sorted(_label_counts(chunks[100]).values()) == [37, 37, 38, 38]
    assert sorted(_label_counts(chunks[700]).values()) == [75, 75]


def test_generation_is_reproducible():
    a = generate_synthetic(sdccl_spec(seed=12))
    b = generate_synthetic(sdccl_spec(seed=12))
    assert _same_stream(a, b)
    c = generate_synthetic(sdccl_spec(seed=13))
    assert not _same_stream(a, c)


def test_generated_chunks_are_views_of_one_draw():
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    for name in ("values", "labels"):
        base = getattr(chunks[0], name).base
        assert isinstance(base, np.ndarray) and not base.flags.writeable
        assert all(getattr(c, name).base is base for c in chunks)


def test_generated_values_stay_in_unit_square():
    for spec in (sdwcd_spec(seed=3), sdccl_spec(seed=3)):
        for chunk in generate_synthetic(spec):
            for row in chunk_rows(chunk):
                assert all(0.0 <= v <= 1.0 for v in row)


def test_spec_validation():
    with pytest.raises(ValueError):
        StreamSpec(())
    with pytest.raises(ValueError):
        TimestepSpec(2, (30,))
    with pytest.raises(ValueError):
        TimestepSpec(2, 30, "merge")
    with pytest.raises(ValueError):
        StreamSpec((TimestepSpec(9, 10),))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            StreamSpec((TimestepSpec(1, 10),), sigma=bad)
    with pytest.raises(ValueError, match="relocate_offset"):
        StreamSpec((TimestepSpec(1, 10),), relocate_offset=float("nan"))
    with pytest.raises(ValueError, match="anchor"):
        StreamSpec((TimestepSpec(1, 10),), anchors=[(0.1, float("-inf"))])


def _per_blob_values(spec):
    """Oracle: each chunk's records drawn one blob at a time, one
    Generator.normal call of shape (size, 2) per blob, clipped per blob."""
    rng = np.random.default_rng(spec.seed & 0xFFFFFFFF)
    base_count = spec.entries[0].cluster_count
    matrices = []
    for entry in spec.entries:
        shift = entry.offset_steps * spec.relocate_offset
        if entry.drift_kind == "merge":
            xs, ys = zip(*spec.anchors)
            anchors = [(sum(xs) / len(xs), sum(ys) / len(ys))]
        else:
            bank = spec.anchors if entry.cluster_count == base_count else spec.alt_anchors
            anchors = bank[: entry.cluster_count]
        blocks = []
        for anchor, size in zip(anchors, entry.cluster_sizes):
            center = (anchor[0] + shift, anchor[1] + shift)
            points = rng.normal(loc=center, scale=spec.sigma, size=(size, 2))
            np.clip(points, 0.0, 1.0, out=points)
            blocks.append(points)
        matrices.append(np.concatenate(blocks))
    return matrices


@st.composite
def _stream_specs(draw):
    entries = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(DRIFT_KINDS))
        count = 1 if kind == "merge" else draw(st.integers(1, 5))
        sizes = draw(st.integers(1, 12) | st.tuples(*[st.integers(1, 12)] * count))
        entries.append(TimestepSpec(count, sizes, kind, draw(st.integers(-2, 2))))
    return StreamSpec(
        tuple(entries),
        sigma=draw(st.sampled_from([1e-9, 1e-3, 0.02, 0.5, 30.0, 1e6])
                   | st.floats(1e-12, 1e12, exclude_min=True)),
        seed=draw(st.integers(-2**70, -1) | st.integers(0, 2**32) | st.integers(2**32, 2**70)),
        relocate_offset=draw(st.floats(-0.5, 0.5)),
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_stream_specs())
def test_one_call_draw_equals_per_blob_draws(spec):
    chunks = generate_synthetic(spec)
    expected = _per_blob_values(spec)
    assert [c.values.shape for c in chunks] == [m.shape for m in expected]
    assert all(c.values.tobytes() == m.tobytes() for c, m in zip(chunks, expected))
    assert [len(c.labels) for c in chunks] == [e.chunk_size for e in spec.entries]


def _relabel_streams(counts, relabel_at, seed=0, size=3):
    """One chunk per cluster count, with "relabel" entries at the given
    timestamps, and the same stream without them."""
    def stream(relabel):
        kinds = ["relabel" if t in relabel else "none"
                 for t in range(1, len(counts) + 1)]
        return generate_synthetic(
            StreamSpec(tuple(map(TimestepSpec, counts, [size] * len(counts), kinds)), seed=seed))

    return stream(relabel_at), stream(())


def test_label_drift_two_labels_swap():
    out, plain = _relabel_streams([2], {1})
    assert np.array_equal(out[0].values, plain[0].values)
    assert _label_counts(out[0]) == {1: 3, 2: 3}
    # with two labels the only non-identity permutation is the swap
    for before, after in zip(plain[0].labels.tolist(), out[0].labels.tolist()):
        assert after == (2 if before == 1 else 1)


def test_label_drift_single_label_is_identity():
    out, plain = _relabel_streams([1], {1}, size=5)
    assert same_chunk(out[0], plain[0])


def test_label_drift_sustained_persists():
    out, plain = _relabel_streams([2, 2, 2, 2], {2})
    assert same_chunk(out[0], plain[0])
    for later, before in zip(out[1:], plain[1:]):
        assert later.labels.tolist() == [3 - label for label in before.labels.tolist()]


def test_label_drift_composes_like_relabeling_chunk_by_chunk():
    # oracle: the per-chunk dict remap, applied to every later chunk in turn,
    # with the relabel generator seeded at seed + 1; the 3-cluster chunks
    # see only part of an earlier 4-label permutation
    counts = [4, 4, 3, 4, 3, 3, 4, 4]
    relabel_at = {2, 5, 7}
    out, plain = _relabel_streams(counts, relabel_at, seed=3)
    expected = [c.labels.tolist() for c in plain]
    perm_rng = np.random.default_rng(4)
    for t in sorted(relabel_at):
        present = sorted(set(expected[t - 1]))
        permuted = list(present)
        if len(present) > 1:
            while permuted == present:
                permuted = list(perm_rng.permutation(present))
        mapping = dict(zip(present, (int(v) for v in permuted)))
        for i in range(t - 1, len(counts)):
            expected[i] = [mapping.get(v, v) for v in expected[i]]
    assert [c.labels.tolist() for c in out] == expected
    assert expected != [c.labels.tolist() for c in plain]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(out, plain))


def test_label_drift_validation():
    # label drift is scheduled only by "relabel" entries: a kind outside
    # DRIFT_KINDS, such as a one-chunk "temporary" scramble, is refused
    for name in ("temporary", "sustained", "forever", "bogus", "MERGE", 3, None):
        with pytest.raises(ValueError, match="one of none, relabel, relocate, merge, got"):
            TimestepSpec(5, 30, name)


def test_merge_entry_is_one_merged_cluster():
    chunks = generate_synthetic(StreamSpec((TimestepSpec(5, 30), TimestepSpec(1, 150, "merge"))))
    assert _label_counts(chunks[1]) == {MERGED_LABEL: 150}


def test_chunk_dataset_toy_split():
    chunks = chunk_dataset(TOY_VALUES, TOY_LABELS, 2)
    assert chunk_rows(chunks[0]) == [
        TOY_ROWS[0][0], TOY_ROWS[1][0], TOY_ROWS[4][0], TOY_ROWS[5][0]
    ]
    assert chunk_rows(chunks[1]) == [
        TOY_ROWS[2][0], TOY_ROWS[3][0], TOY_ROWS[6][0], TOY_ROWS[7][0]
    ]


def test_chunk_dataset_single_chunk_is_identity():
    chunks = chunk_dataset(TOY_VALUES, TOY_LABELS, 1)
    assert len(chunks) == 1
    assert sorted(chunk_rows(chunks[0])) == sorted(v for v, _ in TOY_ROWS)


def test_chunk_dataset_balances_classes():
    rows, labels = [], []
    for label, size in ((1, 103), (2, 57), (3, 88)):
        rows.extend((i / 1000, label / 10) for i in range(size))
        labels.extend([label] * size)
    chunks = chunk_dataset(rows, labels, 10)
    assert sum(len(c) for c in chunks) == len(rows)
    seen = Counter()
    for chunk in chunks:
        counts = _label_counts(chunk)
        seen.update(counts)
        for label, size in ((1, 103), (2, 57), (3, 88)):
            assert abs(counts[label] - size / 10) <= 1
    assert seen == {1: 103, 2: 57, 3: 88}
    # partition: nothing duplicated or dropped
    flat = [row for c in chunks for row in chunk_rows(c)]
    assert Counter(flat) == Counter(rows)


def test_chunk_dataset_class_too_small():
    with pytest.raises(ValueError):
        chunk_dataset([(0.1,), (0.2,), (0.9,)], [1, 1, 2], 2)
    with pytest.raises(ValueError, match="^cannot chunk an empty dataset$"):
        chunk_dataset(np.empty((0, 2)), [], 2)


@pytest.mark.parametrize("records, labels, classes", [(12, 10, None), (8, 10, None), (10, 10, 14)],
                         ids=["more_values", "fewer_values", "more_artificial_classes"])
def test_chunk_dataset_refuses_rows_that_do_not_match(records, labels, classes):
    values = [(i / 20, 0.5) for i in range(records)]
    artificial = None if classes is None else np.ones((classes, 2), dtype=np.int64)
    counted = labels if classes is None else classes
    with pytest.raises(ValueError, match=rf"^{records} records but {counted} "):
        chunk_dataset(values, [i % 2 for i in range(labels)], 2, artificial)


@pytest.mark.parametrize("labels, classes, message", [
    ([[0]] * 10, None, r"^labels must be 1-D, one row per record, got shape \(10, 1\)$"),
    ([0, 1] * 5, 5, r"^artificial class rows must be 2-D, one row per record, got shape \(\)$"),
], ids=["labels_as_a_column", "scalar_artificial_classes"])
def test_chunk_dataset_refuses_rows_of_the_wrong_shape(labels, classes, message):
    values = [(i / 20, 0.5) for i in range(10)]
    with pytest.raises(ValueError, match=message):
        chunk_dataset(values, labels, 2, classes)


def test_artificial_classes_known_cells():
    got = make_artificial_classes(BINNING_ROWS, 3)
    # spot values called out by the worked example
    assert got[0][0] == 1  # 0.052 -> bin 1
    assert got[0][2] == 3  # 0.772 -> bin 3
    assert got[4][0] == 2  # 0.543 -> bin 2


def test_artificial_classes_full_grid():
    got = make_artificial_classes(BINNING_ROWS, 3)
    assert got.tolist() == [list(row) for row in EXPECTED_BINS]


def test_artificial_classes_boundaries():
    # on an evenly spread column, 0 lands in bin 1 and 1 in bin n
    values = [(i / 10,) for i in range(11)]
    for n in (1, 2, 3, 5):
        bins = make_artificial_classes(values, n)[:, 0].tolist()
        assert bins[0] == 1
        assert bins[-1] == n
        assert bins == sorted(bins)  # monotone in the value
        assert set(bins) == set(range(1, n + 1))  # every bin non-empty


def test_artificial_classes_balanced_on_distinct_values():
    rng = __import__("numpy").random.default_rng(6)
    values = rng.uniform(0, 1, size=(90, 1))
    for n in (2, 3, 5):
        bins = make_artificial_classes(values, n)[:, 0].tolist()
        counts = Counter(bins)
        assert set(counts) == set(range(1, n + 1))
        assert max(counts.values()) - min(counts.values()) <= 1


def test_artificial_classes_ties_never_empty_bin_one():
    bins = make_artificial_classes([(0.0,)] * 5 + [(1.0,)], 3)[:, 0].tolist()
    assert bins[:5] == [1] * 5
    assert bins[5] > 1


def test_artificial_classes_requires_normalized_values():
    with pytest.raises(ValueError):
        make_artificial_classes([(1.2,)], 3)
    with pytest.raises(ValueError):
        make_artificial_classes([(-0.1,)], 3)
    with pytest.raises(ValueError):
        make_artificial_classes([(float("nan"),)], 3)
    with pytest.raises(ValueError):
        make_artificial_classes([(0.5,)], 0)
    with pytest.raises(ValueError):
        make_artificial_classes(np.empty((0, 1)), 3)
