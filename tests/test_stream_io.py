import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import streamclust
from streamclust import (
    Chunk,
    chunk_dataset,
    generate_synthetic,
    load_dataset,
    load_stream,
    make_artificial_classes,
    minmax_normalize,
    sdccl_spec,
    true_cluster_values,
    write_stream,
)
from streamclust.core import BOUND
from streamclust.jsondoc import _MANIFEST_FIELDS, JSON_NUMBER, json_field
from conftest import merged_class_means, same_chunk


def test_stream_round_trip_is_bit_exact(tmp_path):
    chunks = generate_synthetic(sdccl_spec(seed=9))
    manifest = write_stream(tmp_path / "s", chunks, seed=9, origin="synthetic")
    data = load_stream(manifest)
    assert len(data.chunks) == len(chunks)
    for original, loaded in zip(chunks, data.chunks):
        assert same_chunk(loaded, original)  # float-exact values and labels
    assert data.origin == "synthetic"
    assert data.manifest["seed"] == 9
    assert data.manifest["dimensions"] == 2
    assert data.manifest["chunk_sizes"] == [150] * 7
    assert data.manifest["labeled"] is True
    assert all(c.artificial_classes is None for c in data.chunks)
    # the writer's key order is the table the reader goes by
    assert list(data.manifest) == list(_MANIFEST_FIELDS)


def _chunked_dataset():
    """Three classes of 4-attribute rows on different scales, normalized and
    split into 5 chunks with artificial classes, as chunk does."""
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.normal(scale, scale / 3, size=(25, 4))
                             for scale in (1.0, 20.0, 0.1)])
    values = minmax_normalize(values)
    labels = np.repeat([3, 8, 5], 25)
    return chunk_dataset(values, labels, 5, make_artificial_classes(values, 3))


@pytest.mark.parametrize("name", ["sdwcd", "sdccl", "ncd100", "wcd1000", "chunked"])
def test_manifest_holds_the_class_means_and_the_digests_of_its_files(tmp_path, name):
    # what eval reads in place of the arrays: the means bit for bit, and
    # the SHA-256 of each array file
    chunks = (_chunked_dataset() if name == "chunked" else
              generate_synthetic(getattr(streamclust, f"{name}_spec")(seed=7)))
    manifest = write_stream(tmp_path / name, chunks, seed=7)
    doc = json.loads(manifest.read_text())
    stored = [(label, [m.hex() for m in mean])
              for label, mean in zip(doc["class_labels"], doc["class_means"])]
    means = merged_class_means(load_stream(manifest).chunks)
    assert stored == [(label, [m.hex() for m in mean]) for label, mean in means]
    files = sorted(p.name for p in manifest.parent.iterdir() if p.suffix == ".npy")
    assert sorted(doc["sha256"]) == files
    for file, digest in doc["sha256"].items():
        assert hashlib.sha256((manifest.parent / file).read_bytes()).hexdigest() == digest


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def test_round_trip_is_bit_exact_over_the_whole_float_range(tmp_path):
    # random bit patterns, the float range as far as the domain takes it,
    # cover subnormals, exponents up to ±BOUND and -0.0; a stream without
    # labels reads back with None and writes no labels.npy
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**63, size=(2, 40, 3), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~(np.abs(values) <= BOUND)] = 0.5
    values[0, 0] = (5e-324, -0.0, BOUND)
    values[1, 0] = (-BOUND, -5e-324, np.nextafter(BOUND, 0))
    for case, labels in enumerate((rng.integers(-3, 9, size=(2, 40)), [None, None])):
        chunks = [Chunk(t, values[t - 1], labels[t - 1]) for t in (1, 2)]
        manifest = write_stream(tmp_path / f"a{case}", chunks, seed=0)
        data = load_stream(manifest)
        for original, loaded in zip(chunks, data.chunks):
            assert same_chunk(loaded, original)
            assert loaded.values.tobytes() == original.values.tobytes()
        again = write_stream(tmp_path / f"b{case}", data.chunks, seed=0)
        assert _files(manifest.parent) == _files(again.parent)
        assert ("labels.npy" in _files(manifest.parent)) == (labels[0] is not None)


def test_stream_files_are_reproducible(tmp_path):
    chunks = generate_synthetic(sdccl_spec(seed=4))
    write_stream(tmp_path / "a", chunks, seed=4, origin="synthetic")
    write_stream(tmp_path / "b", chunks, seed=4, origin="synthetic")
    files = _files(tmp_path / "a")
    assert sorted(files) == ["labels.npy", "manifest.json", "values.npy"]
    assert files == _files(tmp_path / "b")


_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.225e-308, BOUND, -BOUND]),
    st.floats(-BOUND, BOUND),
)
_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _streams(draw):
    """1-6 chunks of 1-4 dims, with 0-2 artificial class columns each."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    dims, ac_count, labeled = draw(st.integers(1, 4)), draw(st.integers(0, 2)), draw(st.booleans())
    chunks = []
    for t, size in enumerate(sizes, start=1):
        labels = draw(arrays(np.int64, size, elements=_INT64)) if labeled else None
        classes = draw(arrays(np.int64, (size, ac_count), elements=_INT64)) if ac_count else None
        values = draw(arrays(np.float64, (size, dims), elements=_FLOATS))
        chunks.append(Chunk(t, values, labels, classes))
    return chunks


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_streams())
@example([Chunk(1, [[BOUND], [0.5]], [3, 1]), Chunk(2, [[BOUND]], [3])])
def test_write_then_load_gives_bit_equal_chunks_and_ac(chunks):
    # values at ±BOUND sum to a finite class mean, so every stream of the
    # domain is written and read back
    with tempfile.TemporaryDirectory() as tmp:
        data = load_stream(write_stream(Path(tmp), chunks, seed=0))
    assert len(data.chunks) == len(chunks)
    for original, loaded in zip(chunks, data.chunks):
        assert loaded.timestamp == original.timestamp
        for name in ("values", "labels", "artificial_classes"):
            a, b = getattr(original, name), getattr(loaded, name)
            assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())


def test_stream_round_trip_with_artificial_classes(tmp_path):
    chunks = [Chunk(c.timestamp, c.values, c.labels, make_artificial_classes(c.values, 5))
              for c in generate_synthetic(sdccl_spec(seed=2))[:2]]
    manifest = write_stream(tmp_path / "s", chunks, seed=2, origin="real-world")
    data = load_stream(manifest)
    assert data.origin == "real-world"
    assert data.manifest["artificial_class_sets"] == 2
    assert np.load(tmp_path / "s" / "ac.npy").tolist() == np.concatenate(
        [c.artificial_classes for c in chunks]).tolist()
    assert all(c.artificial_classes.dtype == np.int64 for c in data.chunks)
    for original, loaded in zip(chunks, data.chunks):
        assert same_chunk(loaded, original)


def test_write_stream_validation(tmp_path):
    chunks = generate_synthetic(sdccl_spec(seed=2))[:1]
    # the writer checks its manifest by the reader's own check
    with pytest.raises(ValueError, match="manifest field 'origin' must be 'synthetic' or "
                                         "'real-world', got 'weird'"):
        write_stream(tmp_path / "s", chunks, seed=0, origin="weird")
    with pytest.raises(ValueError):
        write_stream(tmp_path / "s", [], seed=0)
    with pytest.raises(ValueError, match="all labeled or all unlabeled"):
        write_stream(tmp_path / "s", [chunks[0], Chunk(2, chunks[0].values)], seed=0)
    # a manifest load_stream would refuse is not written either
    with pytest.raises(ValueError, match="manifest field 'seed' holds a number beyond"):
        write_stream(tmp_path / "s", chunks, seed=10**400)
    values, labels = chunks[0].values, chunks[0].labels
    two, one = np.ones((len(values), 2), int), np.ones((len(values), 1), int)
    for classes, message in (((two, None), "chunk 1 has 2 columns, chunk 2 has 0"),
                             ((None, two), "chunk 1 has 0 columns, chunk 2 has 2"),
                             ((two, two, one), "chunk 1 has 2 columns, chunk 3 has 1")):
        mixed = [Chunk(t, values, labels, c) for t, c in enumerate(classes, start=1)]
        with pytest.raises(ValueError, match="artificial classes of one width or none: " + message):
            write_stream(tmp_path / "s", mixed, seed=0)
    assert not (tmp_path / "s").exists()


def test_load_stream_rejects_foreign_manifest(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(ValueError):
        load_stream(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_dataset_with_header_and_commas(tmp_path):
    path = _write(tmp_path, "d.csv", "a,b,class\n0.1,0.2,1\n0.3,0.4,2\n")
    values, labels, label_map = load_dataset(path)
    assert values.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert labels.tolist() == [1, 2]
    assert label_map == {}


def test_load_dataset_headerless_semicolons(tmp_path):
    path = _write(tmp_path, "d.txt", "0.1;0.2;1\n0.3;0.4;2\n")
    _, labels, _ = load_dataset(path)
    assert labels.tolist() == [1, 2]


def test_load_dataset_maps_string_labels(tmp_path):
    path = _write(tmp_path, "d.csv", "0.1,0.2,apple\n0.3,0.4,pear\n0.5,0.6,apple\n")
    _, labels, label_map = load_dataset(path)
    assert labels.tolist() == [0, 1, 0]
    assert label_map == {"apple": 0, "pear": 1}


def test_load_dataset_float_labels_become_ints(tmp_path):
    path = _write(tmp_path, "d.csv", "0.1,0.2,5.0\n0.3,0.4,6.0\n")
    _, labels, _ = load_dataset(path)
    assert labels.tolist() == [5, 6]


@pytest.mark.parametrize("column, ids, label_map", [
    # two fractions that int() would fold into one class
    (["1.5", "1.7", "1.5"], [0, 1, 0], {"1.5": 0, "1.7": 1}),
    # a number and a string that would both have become 0
    (["0", "apple", "0"], [0, 1, 0], {"0": 0, "apple": 1}),
    # an integral label past int64
    (["1e19", "2", "1e19"], [0, 1, 0], {"1e19": 0, "2": 1}),
])
def test_load_dataset_maps_non_integer_labels_one_to_one(tmp_path, column, ids, label_map):
    rows = [f"0.{i},0.{i + 1},{label}" for i, label in enumerate(column)]
    path = _write(tmp_path, "d.csv", "\n".join(rows) + "\n")
    _, labels, found_map = load_dataset(path)
    assert labels.tolist() == ids
    assert found_map == label_map


def test_load_dataset_ignores_a_leading_byte_order_mark(tmp_path):
    # the mark would make the first field non-numeric, and the first row a header
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf0.1,0.2,1\n0.3,0.4,2\n0.5,0.6,1\n0.7,0.8,2\n")
    values, labels, label_map = load_dataset(path)
    assert values.tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]
    assert labels.tolist() == [1, 2, 1, 2]
    assert label_map == {}


@pytest.mark.parametrize("label", ["", "  "])
def test_load_dataset_refuses_an_empty_label(tmp_path, label):
    # it would be a class of its own, and renumber every class
    path = _write(tmp_path, "d.csv", f"0.1,0.2,1\n0.5,0.6,{label}\n0.3,0.4,2\n")
    with pytest.raises(ValueError, match=f"^{path} row 2: empty label$"):
        load_dataset(path)


@pytest.mark.parametrize("text, message", [
    ("a,b,class\n", "has no data rows"),
    ("0.1,0.2,1\n0.3,x,2\n", "row 2: non-numeric attribute"),
], ids=["header_only", "non_numeric_attribute"])
def test_load_dataset_refusal_names_the_file(tmp_path, text, message):
    path = _write(tmp_path, "d.csv", text)
    with pytest.raises(ValueError, match=f"^{path} {message}"):
        load_dataset(path)


def test_load_dataset_ragged_row(tmp_path):
    path = _write(tmp_path, "d.csv", "0.1,0.2,1\n0.3,1\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_load_dataset_empty_file(tmp_path):
    path = _write(tmp_path, "d.csv", "\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_load_dataset_needs_two_columns(tmp_path):
    path = _write(tmp_path, "d.csv", "1\n2\n")
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "-1e101"])
def test_load_dataset_rejects_non_finite_values(tmp_path, bad):
    path = _write(tmp_path, "d.csv", f"a,b,class\n0.1,0.2,1\n0.3,{bad},2\n")
    with pytest.raises(ValueError, match="row 3.*finite"):
        load_dataset(path)


def _sdccl_stream(tmp_path):
    manifest = write_stream(tmp_path / "s", generate_synthetic(sdccl_spec(seed=3)), seed=3)
    return manifest, tmp_path / "s"


def test_load_stream_refuses_class_means_one_ulp_off(tmp_path):
    # every reader takes the means from the manifest, so the library's
    # loader refuses a mean that is not its records', by the last bit
    manifest, _ = _sdccl_stream(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["class_means"][2][1] = math.nextafter(doc["class_means"][2][1], 1.0)
    manifest.write_text(json.dumps(doc, indent=2))
    with pytest.raises(ValueError, match=f"^{manifest}: class_means are not the per-class "
                                         "means of the stream's records"):
        load_stream(manifest)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e101"])
def test_load_stream_rejects_non_finite_value(tmp_path, bad):
    manifest, stream = _sdccl_stream(tmp_path)
    values = np.load(stream / "values.npy")
    values[150 + 6, 1] = float(bad)  # chunk 2, record 7
    np.save(stream / "values.npy", values)
    with pytest.raises(ValueError, match=r"values\.npy record 7 of chunk 2: .*finite"):
        load_stream(manifest)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_stream_refuses_non_finite_value(tmp_path, bad):
    # the chunk refuses it, as load_stream's chunks do, so write_stream is
    # never handed a stream that load_stream would refuse
    chunks = generate_synthetic(sdccl_spec(seed=3))
    values = chunks[1].values.copy()
    values[6, 1] = bad
    with pytest.raises(ValueError, match=r"record 7 of chunk 2: .*finite"):
        chunks[1] = Chunk(2, values, chunks[1].labels)
        write_stream(tmp_path / "s", chunks, seed=3)
    assert not (tmp_path / "s").exists()


def test_load_stream_rejects_truncated_row(tmp_path):
    manifest, stream = _sdccl_stream(tmp_path)
    path = stream / "values.npy"
    path.write_bytes(path.read_bytes()[:-8])  # the last record loses its last value
    with pytest.raises(ValueError, match=r"values\.npy is not a readable \.npy array"):
        load_stream(manifest)


@pytest.mark.parametrize(
    "edit, message",
    [
        # each class mean gains a coordinate too, so only the array disagrees
        pytest.param(lambda doc: {"dimensions": 3,
                                  "class_means": [[*mean, 0.5] for mean in doc["class_means"]]},
                     r"values\.npy has shape \(1050, 2\), but the manifest's "
                     r"chunk_sizes and dimensions give \(1050, 3\)", id="dimensions"),
        ({"dimensions": 0}, "positive integer"),
        pytest.param({"chunk_sizes": [150] * 6}, r"values\.npy has shape \(1050, 2\).*\(900, 2\)",
                     id="rows_vs_sizes"),
        pytest.param({"chunk_sizes": "150"}, r"manifest field 'chunk_sizes' must be list\[int\]",
                     id="sizes_string"),
        ({"chunk_sizes": []}, "non-empty list"),
        pytest.param({"chunk_sizes": [0] + [150] * 7}, "positive record counts", id="empty_chunk"),
        pytest.param({"artificial_class_sets": 1}, r"ac\.npy", id="ac_without_file"),
        pytest.param({"artificial_class_sets": "2"},
                     "manifest field 'artificial_class_sets' must be int", id="edit6-must be a count"),
        pytest.param({"labeled": 1}, "manifest field 'labeled' must be bool", id="labeled_int"),
        pytest.param({"chunk_size": 150}, "manifest has unknown key 'chunk_size'",
                     id="unknown_key"),
        pytest.param({"seed": "7"}, "manifest field 'seed' must be int", id="seed_string"),
        pytest.param({"source": []}, "manifest field 'source' must be dict", id="source_list"),
        pytest.param({"class_labels": []}, "class_labels and class_means must hold one label "
                     "and one mean per class", id="means_without_labels"),
        pytest.param({"labeled": False}, "class_labels and class_means", id="unlabeled_means"),
        pytest.param({"class_means": [[0.5, "x"]]}, r"manifest field 'class_means' must be list",
                     id="means_string"),
        pytest.param({"sha256": {"values.npy": "0" * 64}}, "sha256 must give the digests of "
                     "values.npy, labels.npy, got values.npy", id="digest_missing"),
        pytest.param({"sha256": {"values.npz": "0" * 64}},
                     "manifest field 'sha256' has unknown key 'values.npz'", id="digest_unknown"),
        pytest.param({"dimensions": 3}, "class_means do not hold 3-D means like its dimensions",
                     id="dimensions_vs_means"),
    ],
)
def test_load_stream_rejects_manifest_that_does_not_match_files(tmp_path, edit, message):
    manifest, _ = _sdccl_stream(tmp_path)
    doc = json.loads(manifest.read_text())
    doc.update(edit(doc) if callable(edit) else edit)
    manifest.write_text(json.dumps(doc))
    with pytest.raises((ValueError, OSError), match=message):
        load_stream(manifest)


@pytest.mark.parametrize(
    "key", ["dimensions", "chunk_sizes", "labeled", "artificial_class_sets", "origin"])
def test_load_stream_rejects_manifest_missing_field(tmp_path, key):
    manifest, _ = _sdccl_stream(tmp_path)
    doc = json.loads(manifest.read_text())
    del doc[key]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"manifest field '{key}' is missing"):
        load_stream(manifest)


def test_load_stream_returns_read_only_matrices(tmp_path):
    manifest, _ = _sdccl_stream(tmp_path)
    chunk = load_stream(manifest).chunks[0]
    assert chunk.values.shape == (150, 2) and chunk.values.dtype == np.float64
    assert chunk.labels.shape == (150,) and chunk.labels.dtype == np.int64
    assert not chunk.values.flags.writeable


def test_loaded_chunks_share_one_buffer_per_array(tmp_path):
    # the stream is in memory once: every chunk's rows are a view of it
    chunks = [Chunk(c.timestamp, c.values, c.labels, make_artificial_classes(c.values, 2))
              for c in generate_synthetic(sdccl_spec(seed=2))[:3]]
    data = load_stream(write_stream(tmp_path / "s", chunks, seed=2))
    for name in ("values", "labels", "artificial_classes"):
        arrays = [getattr(c, name) for c in data.chunks]
        base = arrays[0].base
        assert isinstance(base, np.ndarray) and not base.flags.writeable
        assert all(a.base is base and not a.flags.owndata for a in arrays)
        assert base.nbytes == sum(a.nbytes for a in arrays)
    values, labels = data.chunks[0].values.base, data.chunks[2].labels.base
    assert np.shares_memory(values, data.chunks[2].values)
    assert np.shares_memory(labels, data.chunks[0].labels)
    # the manifest's means, which load_stream checked, are the merged chunks'
    assert true_cluster_values(data.manifest) == merged_class_means(chunks)


@pytest.mark.parametrize(
    "text, key, kind, message",
    [
        ('{"a": 1}', "b", int, "doc field 'b' is missing"),
        ("[1]", "a", int, "doc is a list, not an object holding 'a'"),
        ('{"a": true}', "a", int, "doc field 'a' must be int, got True"),
        ('{"a": [1, "2"]}', "a", list[int], r"doc field 'a' must be list\[int\], got \[1, '2'\]"),
        ('{"a": [[0.5], [1, null]]}', "a", list[list[JSON_NUMBER]], r"must be list\[list\[int"),
        ('{"a": [[0.5], [1' + "0" * 400 + ']]}', "a", list[list[JSON_NUMBER]],
         "doc field 'a' holds a number beyond the float64 range"),
        ('{"a": -1' + "0" * 400 + "}", "a", JSON_NUMBER, "beyond the float64 range"),
    ],
)
def test_json_field_rejects(text, key, kind, message):
    with pytest.raises(ValueError, match=message):
        json_field("doc", json.loads(text), key, kind)


def test_json_field_returns_values_of_the_kind():
    big = "1" + "0" * 308  # 1e308, below the float64 maximum of about 1.8e308
    doc = json.loads('{"r": Infinity, "n": NaN, "k": null, "c": [[1, 0.5]], "big": ' + big + "}")
    assert json_field("doc", doc, "r", JSON_NUMBER) == math.inf
    assert math.isnan(json_field("doc", doc, "n", float))
    assert json_field("doc", doc, "k", int | None) is None
    assert json_field("doc", doc, "c", list[list[JSON_NUMBER]]) == [[1, 0.5]]
    assert json_field("doc", doc, "big") == 10**308
