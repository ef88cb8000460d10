"""File formats: a stream as NumPy arrays plus a JSON manifest, and dataset loading.

A stream directory holds its records in stream order as .npy arrays:
values.npy (float64, records x dimensions), labels.npy (int64, labeled
streams only) and ac.npy (int64, records x artificial_class_sets). The
manifest's chunk_sizes splits the rows into chunks. A .npy file holds the
float64 bits themselves, so a stream reads back exactly and regenerating it
from the same seed gives byte-identical files. Writes go through a temp file
and os.replace, so a failed write never leaves a half-written file behind.
On the way in, each array must have its exact dtype, byte order included,
and the shape the manifest gives it, and every value must be finite; a
failed check raises ValueError naming the file.
"""

import csv
import functools
import json
import os
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, get_args, get_origin

import numpy as np

from . import __version__
from .core import Chunk, first_nonfinite_row

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "streamclust-stream"
MANIFEST_VERSION = 2  # 2: three .npy arrays in place of one CSV file per chunk
ORIGINS = ("synthetic", "real-world")
JSON_NUMBER = int | float  # the types json.loads gives numbers; bool is neither


def _has_kind(value, kind, limit=sys.float_info.max) -> bool:
    """Whether a json.loads value has the JSON type kind, a class (True is not
    an int), list[kind] or a union such as int | None; ints lie within limit."""
    if type(kind) is type:
        return type(value) is kind and (kind is not int or abs(value) <= limit)
    if get_origin(kind) is list:
        return type(value) is list and all(_has_kind(v, get_args(kind)[0], limit) for v in value)
    return any(_has_kind(value, k, limit) for k in get_args(kind))


def json_field(document: str, doc, key: str, kind=int):
    """doc[key] if doc is a JSON object and doc[key] has the JSON type kind
    with every int in the float64 range, else a ValueError naming the document
    and field. NaN and infinities are left to the caller's domain checks."""
    if type(doc) is not dict:
        raise ValueError(f"{document} is a {type(doc).__name__}, not an object holding {key!r}")
    if key not in doc:
        raise ValueError(f"{document} field {key!r} is missing")
    value = doc[key]
    if not _has_kind(value, kind):
        if _has_kind(value, kind, float("inf")):
            raise ValueError(f"{document} field {key!r} holds a number beyond the float64 range")
        name = kind.__name__ if type(kind) is type else kind
        raise ValueError(f"{document} field {key!r} must be {name}, got {reprlib.repr(value)}")
    return value


def read_text(path) -> str:
    """The UTF-8 text of the file at path; a decode error names the file and
    the line that holds the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at line {line}") from None


def parse_json(text: str, document, line: int | None = None):
    """json.loads(text); a decode error names the document and the line it
    is on, which is the given line when text is that one line of a file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{document} is not valid JSON: {exc.msg} at line "
                         f"{line or exc.lineno} column {exc.colno}") from None


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _save_array(path: Path, array: np.ndarray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:  # a file object, so np.save appends no .npy suffix
        np.save(f, array, allow_pickle=False)
    os.replace(tmp, path)


def _require_finite(values: np.ndarray, sizes: Sequence[int], where) -> None:
    """Refuse a NaN or infinite value, naming where, its record and its chunk."""
    bad = first_nonfinite_row(values)
    if bad is not None:
        t = int(np.searchsorted(np.cumsum(sizes), bad, side="right"))
        raise ValueError(f"{where} record {bad - sum(sizes[:t]) + 1} of chunk {t + 1}: "
                         "attribute values must be finite")


def write_stream(
    directory,
    chunks: Sequence[Chunk],
    *,
    seed: int,
    origin: str = "synthetic",
    source: dict | None = None,
    ac_sets: Sequence[Sequence[tuple[int, ...]]] | None = None,
) -> Path:
    """Write the stream's arrays and its manifest; returns the manifest path.

    The chunks must be all labeled or all unlabeled. ac_sets, when given,
    holds one int matrix per chunk with a row of artificial class labels per
    record; they are stored in ac.npy.
    """
    if origin not in ORIGINS:
        raise ValueError(f"origin must be 'synthetic' or 'real-world', got {origin!r}")
    chunks = list(chunks)
    if not chunks:
        raise ValueError("cannot write an empty stream")
    sizes = [len(c) for c in chunks]
    if ac_sets is not None and [len(a) for a in ac_sets] != sizes:
        raise ValueError("ac_sets must align with chunks")
    labeled = chunks[0].labels is not None
    if any((c.labels is not None) != labeled for c in chunks):
        raise ValueError("a stream's chunks must be all labeled or all unlabeled")

    values = np.concatenate([c.values for c in chunks])
    directory = Path(directory)
    _require_finite(values, sizes, directory)  # what load_stream would refuse
    directory.mkdir(parents=True, exist_ok=True)
    _save_array(directory / "values.npy", values)
    if labeled:
        _save_array(directory / "labels.npy", np.concatenate([c.labels for c in chunks]))
    ac_count = 0
    if ac_sets is not None:
        ac = np.concatenate([np.asarray(a, dtype=np.int64) for a in ac_sets])
        ac_count = ac.shape[1]
        _save_array(directory / "ac.npy", ac)

    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "tool_version": __version__,
        "origin": origin,
        "seed": seed,
        "dimensions": values.shape[1],
        "labeled": labeled,
        "chunk_sizes": sizes,
        "artificial_class_sets": ac_count,
        "source": source or {},
    }
    manifest_path = directory / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path


@dataclass(frozen=True)
class StreamData:
    chunks: tuple[Chunk, ...]
    manifest: dict
    # Per chunk: an int64 matrix with one row of artificial class labels per
    # record, or None for streams without artificial classes.
    ac_sets: tuple[np.ndarray, ...] | None

    @property
    def origin(self) -> str:
        return self.manifest["origin"]


def _read_array(path: Path, dtype, shape: tuple, fields: str) -> np.ndarray:
    """The array in the .npy file at path, refused unless it holds exactly
    dtype, byte order included, in the shape the manifest's fields give."""
    try:
        with open(path, "rb") as f:  # reads the .npy format only: never a pickle or an .npz
            array = np.lib.format.read_array(f, allow_pickle=False)
    except ValueError as exc:
        raise ValueError(f"{path} is not a readable .npy array: {exc}") from None
    if array.dtype != dtype:
        raise ValueError(f"{path} holds {array.dtype.str} values, not {np.dtype(dtype).str}")
    if array.shape != shape:
        raise ValueError(f"{path} has shape {array.shape}, "
                         f"but the manifest's {fields} give {shape}")
    return array


def load_stream(manifest_path) -> StreamData:
    manifest_path = Path(manifest_path)
    manifest = parse_json(read_text(manifest_path), manifest_path)
    field = functools.partial(json_field, "manifest", manifest)
    if field("format", str) != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path} is not a {MANIFEST_FORMAT} manifest")
    if field("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest['version']}, expected "
                         f"{MANIFEST_VERSION}; write the stream again with gen or chunk")
    origin = field("origin", str)
    if origin not in ORIGINS:
        raise ValueError(f"manifest field 'origin' must be 'synthetic' or 'real-world', "
                         f"got {origin!r}")
    dims = field("dimensions")
    labeled = field("labeled", bool)
    sizes = field("chunk_sizes", list[int])
    ac_count = field("artificial_class_sets")
    if dims < 1:
        raise ValueError(f"{manifest_path}: dimensions must be a positive integer, got {dims!r}")
    if ac_count < 0:
        raise ValueError(f"{manifest_path}: artificial_class_sets must be a count, got {ac_count}")
    if not sizes or min(sizes) < 1:
        raise ValueError(f"{manifest_path}: chunk_sizes must be a non-empty list of "
                         "positive record counts")

    directory, rows = manifest_path.parent, sum(sizes)
    path = directory / "values.npy"
    values = _read_array(path, np.float64, (rows, dims), "chunk_sizes and dimensions")
    _require_finite(values, sizes, path)
    labels = ac = None
    if labeled:
        labels = _read_array(directory / "labels.npy", np.int64, (rows,), "chunk_sizes")
    if ac_count:
        ac = _read_array(directory / "ac.npy", np.int64, (rows, ac_count),
                         "chunk_sizes and artificial_class_sets")

    bounds = np.cumsum(sizes[:-1])
    label_parts = np.split(labels, bounds) if labeled else [None] * len(sizes)
    chunks = tuple(Chunk(t, v, y) for t, (v, y)
                   in enumerate(zip(np.split(values, bounds), label_parts), start=1))
    return StreamData(chunks, manifest, tuple(np.split(ac, bounds)) if ac_count else None)


def _looks_numeric(field: str) -> bool:
    try:
        float(field)
        return True
    except ValueError:
        return False


def load_dataset(path) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Read a delimiter-separated dataset whose last column is the class label.

    The delimiter is sniffed from the first line (a comma when that fails), a
    header row is skipped when the first row is not fully numeric, and
    non-integer labels are mapped to integers in first-appearance order.
    Attribute values must be finite.
    Returns (float64 value matrix, int64 label vector, label mapping).
    """
    path = Path(path)
    text = read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    try:
        delimiter = csv.Sniffer().sniff(lines[0], delimiters=",;\t ").delimiter
    except csv.Error:
        delimiter = ","
    rows = list(csv.reader(lines, delimiter=delimiter))
    rows = [[f.strip() for f in row] for row in rows if row]
    start = 0
    if not all(_looks_numeric(f) for f in rows[0][:-1]):
        start = 1
    if start >= len(rows):
        raise ValueError(f"{path} has no data rows")

    width = len(rows[start])
    if width < 2:
        raise ValueError("dataset needs at least one attribute column plus a label")
    values = []
    labels = []
    label_map: dict[str, int] = {}
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ValueError(f"{path} row {i}: expected {width} fields, got {len(row)}")
        try:
            values.append([float(v) for v in row[:-1]])
        except ValueError as exc:
            raise ValueError(f"{path} row {i}: non-numeric attribute ({exc})") from None
        raw = row[-1]
        try:
            label = int(float(raw))
        except (ValueError, OverflowError):
            label = label_map.setdefault(raw, len(label_map))
        labels.append(label)
    matrix = np.array(values, dtype=np.float64)
    bad = first_nonfinite_row(matrix)
    if bad is not None:
        raise ValueError(f"{path} row {start + 1 + bad}: attribute values must be finite")
    return matrix, np.array(labels, dtype=np.int64), label_map
