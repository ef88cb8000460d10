"""File formats: one CSV per chunk plus a JSON manifest, and dataset loading.

Floats are written with repr() so that parsing them back yields bit-identical
values; regenerating a stream from the same seed produces byte-identical
files. All writes go through a temp file and os.replace, so a failed write
never leaves a half-written file behind.

Chunk files are parsed in bulk and checked whole on the way in: every row
has the manifest's column count, every attribute value is finite, labels are
all present or all absent, and the manifest's dimensions and chunk_count
match the files. A failed check raises ValueError naming the file and row.
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

from .core import Chunk, first_nonfinite_row

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "streamclust-stream"
MANIFEST_VERSION = 1
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


def _tool_version() -> str:
    from . import __version__

    return __version__


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _chunk_file_name(timestamp: int) -> str:
    return f"chunk_{timestamp:05d}.csv"


def write_stream(
    directory,
    chunks: Sequence[Chunk],
    *,
    seed: int,
    origin: str = "synthetic",
    source: dict | None = None,
    ac_sets: Sequence[Sequence[tuple[int, ...]]] | None = None,
) -> Path:
    """Write chunk files and a manifest; returns the manifest path.

    ac_sets, when given, holds one int matrix per chunk with a row of
    artificial class labels per record; they are stored as extra columns
    after the label column.
    """
    if origin not in ("synthetic", "real-world"):
        raise ValueError(f"origin must be 'synthetic' or 'real-world', got {origin!r}")
    chunks = list(chunks)
    if not chunks:
        raise ValueError("cannot write an empty stream")
    if ac_sets is not None and len(ac_sets) != len(chunks):
        raise ValueError("ac_sets must align with chunks")

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dims = chunks[0].dimensions
    ac_count = len(ac_sets[0][0]) if ac_sets else 0
    header = [f"a{i + 1}" for i in range(dims)] + ["label"]
    header += [f"ac{i + 1}" for i in range(ac_count)]

    names = []
    for pos, chunk in enumerate(chunks):
        # repr() of Python floats (never of numpy scalars) round-trips exactly
        rows = [",".join(map(repr, row)) for row in chunk.values.tolist()]
        labels = [""] * len(chunk) if chunk.labels is None else map(str, chunk.labels.tolist())
        rows = [f"{row},{label}" for row, label in zip(rows, labels)]
        if ac_sets:
            extra = [",".join(map(str, r)) for r in np.asarray(ac_sets[pos]).tolist()]
            rows = [f"{row},{ac}" for row, ac in zip(rows, extra)]
        name = _chunk_file_name(chunk.timestamp)
        names.append(name)
        atomic_write_text(directory / name, "\n".join([",".join(header), *rows]) + "\n")

    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "tool_version": _tool_version(),
        "origin": origin,
        "seed": seed,
        "dimensions": dims,
        "chunk_count": len(chunks),
        "chunks": names,
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
        return json_field("manifest", {"origin": "synthetic", **self.manifest}, "origin", str)


def _row_error(path: Path, rows: list[str], dims: int, labeled: bool, exc: Exception) -> ValueError:
    """Name the first row holding a field the bulk conversion rejected."""
    for line, row in enumerate(rows, start=2):
        fields = row.split(",")
        try:
            for v in fields[:dims]:
                float(v)
            if labeled:
                int(fields[dims])
            for v in fields[dims + 1 :]:
                int(v)
        except ValueError as err:
            return ValueError(f"{path} row {line}: {err}")
    return ValueError(f"{path}: {exc}")


def _parse_chunk(path: Path, dims: int, ac_count: int):
    """Read one chunk file into (values, labels or None, ac matrix or None).

    The file is split once into a flat row-major field list; the label and
    artificial-class columns are sliced out of it, and each part is converted
    in one call. Row numbers in errors count the header as row 1.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise ValueError(f"chunk file {path} is empty")
    width = dims + 1 + ac_count
    columns = lines[0].count(",") + 1
    if columns != width:
        raise ValueError(
            f"{path} has {columns} columns, but the manifest's dimensions={dims} "
            f"and artificial_class_sets={ac_count} need {width}"
        )
    rows = lines[1:]
    # A "\n" field between rows marks their ends: every row has exactly
    # width fields iff the markers sit at every (width + 1)-th position.
    fields = ",\n,".join(rows).split(",")
    markers = fields[width :: width + 1]
    if len(fields) != len(rows) * (width + 1) - 1 or markers != ["\n"] * (len(rows) - 1):
        line, row = next(
            (line, row) for line, row in enumerate(rows, start=2) if row.count(",") != width - 1
        )
        raise ValueError(f"{path} row {line}: expected {width} fields, got {row.count(',') + 1}")
    del fields[width :: width + 1]
    label_fields = fields[dims::width]
    labeled = any(label_fields)
    ac_columns = [fields[dims + 1 + a :: width] for a in range(ac_count)]
    for j in range(width - 1, dims - 1, -1):  # drop label and ac columns
        del fields[j :: j + 1]
    # numpy converts each str with Python's own float() / int(), so values
    # parse exactly as float(field) does, just without a Python-level loop
    try:
        values = np.array(fields, dtype=np.float64).reshape(len(rows), dims)
        labels = np.array(label_fields, dtype=np.int64) if labeled else None
        ac = np.array(ac_columns, dtype=np.int64).T.copy() if ac_count else None
    except (ValueError, OverflowError) as exc:
        raise _row_error(path, rows, dims, labeled, exc) from None
    bad = first_nonfinite_row(values)
    if bad is not None:
        raise ValueError(f"{path} row {bad + 2}: attribute values must be finite")
    return values, labels, ac


def load_stream(manifest_path) -> StreamData:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    field = functools.partial(json_field, "manifest", manifest)
    if field("format", str) != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path} is not a {MANIFEST_FORMAT} manifest")
    if field("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest['version']!r}")
    dims = field("dimensions")
    ac_count = field("artificial_class_sets") if "artificial_class_sets" in manifest else 0
    names = field("chunks", list[str])
    if dims < 1:
        raise ValueError(f"{manifest_path}: dimensions must be a positive integer, got {dims!r}")
    if ac_count < 0:
        raise ValueError(f"{manifest_path}: artificial_class_sets must be a count, got {ac_count}")
    if not names:
        raise ValueError(f"{manifest_path}: chunks must be a non-empty list of file names")
    if field("chunk_count") != len(names):
        raise ValueError(f"{manifest_path}: chunk_count is {manifest['chunk_count']!r} "
                         f"but {len(names)} chunk files are listed")

    chunks = []
    ac_sets = []
    for t, name in enumerate(names, start=1):
        values, labels, ac = _parse_chunk(manifest_path.parent / name, dims, ac_count)
        chunks.append(Chunk(t, values, labels))
        ac_sets.append(ac)
    return StreamData(tuple(chunks), manifest, tuple(ac_sets) if ac_count else None)


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
    text = path.read_text(encoding="utf-8")
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
