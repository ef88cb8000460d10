import json
import math

import numpy as np
import pytest

from streamclust import (
    Chunk,
    generate_synthetic,
    load_dataset,
    load_stream,
    make_artificial_classes,
    sdccl_spec,
    write_stream,
)
from streamclust.stream_io import JSON_NUMBER, json_field
from conftest import same_chunk


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
    assert data.manifest["chunk_count"] == 7
    assert data.ac_sets is None


def test_round_trip_is_bit_exact_over_the_whole_float_range(tmp_path):
    # random bit patterns cover subnormals, huge exponents and 17-digit reprs;
    # the second chunk has no labels, which must read back as None
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**63, size=(2, 40, 3), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 0.5
    values[0, 0] = (5e-324, -0.0, 1.7976931348623157e308)
    chunks = [Chunk(1, values[0], rng.integers(-3, 9, size=40)), Chunk(2, values[1])]
    manifest = write_stream(tmp_path / "a", chunks, seed=0)
    data = load_stream(manifest)
    for original, loaded in zip(chunks, data.chunks):
        assert same_chunk(loaded, original)
        assert np.array_equal(loaded.values.view(np.uint64), original.values.view(np.uint64))
    again = write_stream(tmp_path / "b", data.chunks, seed=0)
    for name in json.loads(manifest.read_text())["chunks"] + ["manifest.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (again.parent / name).read_bytes()


def test_stream_files_are_reproducible(tmp_path):
    chunks = generate_synthetic(sdccl_spec(seed=4))
    m1 = write_stream(tmp_path / "a", chunks, seed=4, origin="synthetic")
    m2 = write_stream(tmp_path / "b", chunks, seed=4, origin="synthetic")
    for name in json.loads(m1.read_text())["chunks"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert m1.read_bytes() == m2.read_bytes()


def test_stream_round_trip_with_artificial_classes(tmp_path):
    chunks = generate_synthetic(sdccl_spec(seed=2))[:2]
    ac_sets = [make_artificial_classes(c.values, 5) for c in chunks]
    manifest = write_stream(
        tmp_path / "s", chunks, seed=2, origin="real-world", ac_sets=ac_sets
    )
    data = load_stream(manifest)
    assert data.origin == "real-world"
    assert data.manifest["artificial_class_sets"] == 2
    assert [rows.tolist() for rows in data.ac_sets] == [rows.tolist() for rows in ac_sets]
    for original, loaded in zip(chunks, data.chunks):
        assert same_chunk(loaded, original)


def test_write_stream_validation(tmp_path):
    chunks = generate_synthetic(sdccl_spec(seed=2))[:1]
    with pytest.raises(ValueError):
        write_stream(tmp_path / "s", chunks, seed=0, origin="weird")
    with pytest.raises(ValueError):
        write_stream(tmp_path / "s", [], seed=0)
    with pytest.raises(ValueError):
        write_stream(tmp_path / "s", chunks, seed=0, ac_sets=[])


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_load_dataset_rejects_non_finite_values(tmp_path, bad):
    path = _write(tmp_path, "d.csv", f"a,b,class\n0.1,0.2,1\n0.3,{bad},2\n")
    with pytest.raises(ValueError, match="row 3.*finite"):
        load_dataset(path)


def _sdccl_stream(tmp_path):
    manifest = write_stream(tmp_path / "s", generate_synthetic(sdccl_spec(seed=3)), seed=3)
    return manifest, tmp_path / "s"


def _edit_row(path, line, edit):
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")


def test_load_stream_rejects_truncated_row(tmp_path):
    manifest, stream = _sdccl_stream(tmp_path)
    _edit_row(stream / "chunk_00004.csv", 5, lambda row: row.rsplit(",", 1)[0])
    with pytest.raises(ValueError, match=r"chunk_00004\.csv row 5: expected 3 fields, got 2"):
        load_stream(manifest)


def test_load_stream_rejects_short_row_balanced_by_long_row(tmp_path):
    # the file's total field count is right; only the per-row widths are not
    manifest, stream = _sdccl_stream(tmp_path)
    _edit_row(stream / "chunk_00001.csv", 3, lambda row: row.rsplit(",", 1)[0])
    _edit_row(stream / "chunk_00001.csv", 8, lambda row: row + ",1")
    with pytest.raises(ValueError, match=r"chunk_00001\.csv row 3: expected 3 fields, got 2"):
        load_stream(manifest)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_stream_rejects_non_finite_value(tmp_path, bad):
    manifest, stream = _sdccl_stream(tmp_path)
    _edit_row(stream / "chunk_00002.csv", 7, lambda row: f"{bad}," + row.split(",", 1)[1])
    with pytest.raises(ValueError, match=r"chunk_00002\.csv row 7: .*finite"):
        load_stream(manifest)


@pytest.mark.parametrize("field", ["abc", ""])
def test_load_stream_rejects_unparsable_field(tmp_path, field):
    manifest, stream = _sdccl_stream(tmp_path)
    _edit_row(stream / "chunk_00003.csv", 9, lambda row: ",".join(row.split(",")[:2] + [field]))
    with pytest.raises(ValueError, match=r"chunk_00003\.csv row 9: "):
        load_stream(manifest)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"dimensions": 3}, "4 columns|need 4"),
        ({"dimensions": 0}, "positive integer"),
        ({"chunk_count": 9}, "chunk_count is 9 but 7"),
        pytest.param({"chunks": "chunk_00001.csv"}, r"manifest field 'chunks' must be list\[str\]",
                     id="edit3-non-empty list"),
        ({"chunks": []}, "non-empty list"),
        ({"artificial_class_sets": 1}, "need 4"),
        pytest.param({"artificial_class_sets": "2"},
                     "manifest field 'artificial_class_sets' must be int", id="edit6-must be a count"),
    ],
)
def test_load_stream_rejects_manifest_that_does_not_match_files(tmp_path, edit, message):
    manifest, _ = _sdccl_stream(tmp_path)
    doc = json.loads(manifest.read_text())
    doc.update(edit)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_stream(manifest)


@pytest.mark.parametrize("key", ["dimensions", "chunk_count", "chunks"])
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
