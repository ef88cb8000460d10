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

Every JSON object read back (manifest, gen spec, engine snapshot) goes by one
table of its keys and JSON kinds: from_doc reads it, refusing a key the table
does not name, so a document's version is checked before it; to_doc writes it.
"""

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
# The manifest's keys in the order write_stream writes them, with their JSON kinds
_MANIFEST_FIELDS = {"format": str, "version": int, "tool_version": str, "origin": str,
                    "seed": int, "dimensions": int, "labeled": bool, "chunk_sizes": list[int],
                    "artificial_class_sets": int, "source": dict}


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


def to_doc(obj, fields: dict) -> dict:
    """The JSON object of obj's attributes named in the table fields, in its order."""
    return {name: getattr(obj, name) for name in fields}


def from_doc(document: str, doc, fields: dict, optional=()) -> dict:
    """doc's fields by its table of keys and JSON kinds, each through json_field;
    a key of optional may be left out, and a key the table does not name is refused."""
    unknown = [key for key in doc if key not in fields] if type(doc) is dict else []
    if unknown:
        raise ValueError(f"{document} has unknown key {unknown[0]!r}; it takes {', '.join(fields)}")
    return {name: json_field(document, doc, name, kind) for name, kind in fields.items()
            if name not in optional or name in doc}


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
) -> Path:
    """Write the stream's arrays and its manifest; returns the manifest path.

    The chunks must be all labeled or all unlabeled, and carry artificial
    classes of one width or none; those are stored in ac.npy.
    """
    if origin not in ORIGINS:
        raise ValueError(f"origin must be 'synthetic' or 'real-world', got {origin!r}")
    chunks = list(chunks)
    if not chunks:
        raise ValueError("cannot write an empty stream")
    sizes = [len(c) for c in chunks]
    labeled = chunks[0].labels is not None
    if any((c.labels is not None) != labeled for c in chunks):
        raise ValueError("a stream's chunks must be all labeled or all unlabeled")
    widths = [0 if c.artificial_classes is None else c.artificial_classes.shape[1] for c in chunks]
    for t, width in enumerate(widths, start=1):
        if width != widths[0]:
            raise ValueError(f"a stream's chunks must carry artificial classes of one width or "
                             f"none: chunk 1 has {widths[0]} columns, chunk {t} has {width}")

    values = np.concatenate([c.values for c in chunks])
    directory = Path(directory)
    _require_finite(values, sizes, directory)  # what load_stream would refuse
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "tool_version": __version__,
        "origin": origin,
        "seed": seed,
        "dimensions": values.shape[1],
        "labeled": labeled,
        "chunk_sizes": sizes,
        "artificial_class_sets": widths[0],
        "source": source or {},
    }
    from_doc("manifest", manifest, _MANIFEST_FIELDS)  # and so is a seed past the float64 range
    directory.mkdir(parents=True, exist_ok=True)
    _save_array(directory / "values.npy", values)
    if labeled:
        _save_array(directory / "labels.npy", np.concatenate([c.labels for c in chunks]))
    if widths[0]:
        _save_array(directory / "ac.npy", np.concatenate([c.artificial_classes for c in chunks]))
    manifest_path = directory / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path


@dataclass(frozen=True)
class StreamData:
    chunks: tuple[Chunk, ...]
    manifest: dict

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
    if json_field("manifest", manifest, "format", str) != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path} is not a {MANIFEST_FORMAT} manifest")
    if json_field("manifest", manifest, "version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest['version']}, expected "
                         f"{MANIFEST_VERSION}; write the stream again with gen or chunk")
    fields = from_doc("manifest", manifest, _MANIFEST_FIELDS)
    if fields["origin"] not in ORIGINS:
        raise ValueError(f"manifest field 'origin' must be 'synthetic' or 'real-world', "
                         f"got {fields['origin']!r}")
    dims, labeled = fields["dimensions"], fields["labeled"]
    sizes, ac_count = fields["chunk_sizes"], fields["artificial_class_sets"]
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
    parts = [[None] * len(sizes) if a is None else np.split(a, bounds) for a in (values, labels, ac)]
    return StreamData(tuple(Chunk(t, *p) for t, p in enumerate(zip(*parts), start=1)), manifest)


def _looks_numeric(field: str) -> bool:
    try:
        float(field)
        return True
    except ValueError:
        return False


def load_dataset(path) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Read a delimiter-separated dataset whose last column is the class label.

    The delimiter is sniffed from the first line (a comma when that fails), a
    header row is skipped when the first row is not fully numeric. Labels
    that are all integral numbers within int64 keep their values (5.0 gives
    5) and the mapping is empty; otherwise every distinct label gets an id in
    first-appearance order, each recorded in the mapping.
    Attribute values must be finite.
    Returns (float64 value matrix, int64 label vector, label mapping).
    """
    import csv  # only chunk reads a dataset; run and eval never load csv
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
    raw_labels = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ValueError(f"{path} row {i}: expected {width} fields, got {len(row)}")
        try:
            values.append([float(v) for v in row[:-1]])
        except ValueError as exc:
            raise ValueError(f"{path} row {i}: non-numeric attribute ({exc})") from None
        raw_labels.append(row[-1])
    matrix = np.array(values, dtype=np.float64)
    bad = first_nonfinite_row(matrix)
    if bad is not None:
        raise ValueError(f"{path} row {start + 1 + bad}: attribute values must be finite")
    try:
        numbers = [float(raw) for raw in raw_labels]
    except ValueError:
        numbers = []
    label_map: dict[str, int] = {}
    if numbers and all(x.is_integer() and -2**63 <= x < 2**63 for x in numbers):
        labels = [int(x) for x in numbers]
    else:  # one id per distinct label, so no two labels share a class
        labels = [label_map.setdefault(raw, len(label_map)) for raw in raw_labels]
    return matrix, np.array(labels, dtype=np.int64), label_map
