"""File formats: a stream as NumPy arrays plus a JSON manifest, and dataset loading.

A stream directory holds its records in stream order as .npy arrays:
values.npy (float64, records x dimensions), labels.npy (int64, labeled
streams only) and ac.npy (int64, records x artificial_class_sets). The
manifest (see jsondoc) splits the rows into chunks by its chunk_sizes. A .npy
file holds the float64 bits themselves, so a stream reads back exactly and
regenerating it from the same seed gives byte-identical files. Writes go
through a temp file and os.replace, so a failed write never leaves a
half-written file behind. On the way in, each array must have its exact
dtype, byte order included, and the shape the manifest gives it, and every
value must lie in the domain (see core.BOUND), as in every Chunk; a failed
check raises ValueError naming the file.
The manifest's class means must be the per-class means of the records, so
every reader of a loaded stream may take them from the manifest. load_stream
reads each array once and marks it read-only, so every chunk holds views of
it, not copies; the stream is in memory once.
"""

import json
import os
from collections import namedtuple
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import BOUND, Chunk, class_means, first_row_out_of_domain
from .jsondoc import (
    _MANIFEST_FIELDS,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ORIGINS,
    atomic_write_text,
    from_doc,
    read_manifest,
    read_text,
)


def _save_array(path: Path, array: np.ndarray) -> str:
    """Write array as the .npy file at path; returns the SHA-256 of the file."""
    import hashlib  # here, not on load_stream's path: reading a stream takes no digest
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:  # a file object, so np.save appends no .npy suffix
        np.save(f, array, allow_pickle=False)
    os.replace(tmp, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    arrays = {"values.npy": values}
    if labeled:
        arrays["labels.npy"] = np.concatenate([c.labels for c in chunks])
    if widths[0]:
        arrays["ac.npy"] = np.concatenate([c.artificial_classes for c in chunks])
    means = class_means(values, arrays["labels.npy"]) if labeled else []
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
        "class_labels": [label for label, _ in means],
        "class_means": [list(mean) for _, mean in means],
        "sha256": {},  # each file's, as it is written
    }
    from_doc("manifest", manifest, _MANIFEST_FIELDS)  # and so is a seed past the float64 range
    directory.mkdir(parents=True, exist_ok=True)
    manifest["sha256"] = {name: _save_array(directory / name, a) for name, a in arrays.items()}
    manifest_path = directory / MANIFEST_NAME
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return manifest_path


class StreamData(namedtuple("StreamData", "chunks manifest")):
    """A loaded stream: its chunks, read-only views of one buffer per array,
    and its manifest, whose class means load_stream checked against them."""

    __slots__ = ()

    @property
    def origin(self) -> str:
        return self.manifest["origin"]


def _read_array(path: Path, dtype, shape: tuple, fields: str) -> np.ndarray:
    """The array in the .npy file at path, refused unless it holds exactly
    dtype, byte order included, in the shape the manifest's fields give.
    It is read-only, and so is the buffer it reshapes, so a chunk keeps its
    rows of it as a view."""
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
    array.flags.writeable = False
    if isinstance(array.base, np.ndarray):  # the buffer read_array filled
        array.base.flags.writeable = False
    return array


def load_stream(manifest_path) -> StreamData:
    """The stream of the manifest at manifest_path, its arrays checked
    against the manifest (see read_manifest) and split into chunks. A labeled
    stream's class_labels and class_means must be core.class_means of its
    records, bit for bit."""
    manifest_path = Path(manifest_path)
    manifest = read_manifest(manifest_path)
    dims, labeled = manifest["dimensions"], manifest["labeled"]
    sizes, ac_count = manifest["chunk_sizes"], manifest["artificial_class_sets"]
    directory, rows = manifest_path.parent, sum(sizes)
    path = directory / "values.npy"
    values = _read_array(path, np.float64, (rows, dims), "chunk_sizes and dimensions")
    labels = ac = None
    if labeled:
        labels = _read_array(directory / "labels.npy", np.int64, (rows,), "chunk_sizes")
    if ac_count:
        ac = _read_array(directory / "ac.npy", np.int64, (rows, ac_count),
                         "chunk_sizes and artificial_class_sets")
    bounds = np.cumsum(sizes[:-1])
    parts = [[None] * len(sizes) if a is None else np.split(a, bounds) for a in (values, labels, ac)]
    try:  # each chunk checks that its values lie in the domain
        chunks = tuple(Chunk(t, *p) for t, p in enumerate(zip(*parts), start=1))
    except ValueError as exc:
        raise ValueError(f"{path} {exc}") from None
    stored = zip(manifest["class_labels"], map(tuple, manifest["class_means"]))
    if labeled and class_means(values, labels) != list(stored):
        raise ValueError(f"{manifest_path}: class_means are not the per-class means of the "
                         "stream's records; write the stream again with gen or chunk")
    return StreamData(chunks, manifest)


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
    Attribute values must lie in the domain (see core.BOUND).
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
    bad = first_row_out_of_domain(matrix)
    if bad is not None:
        raise ValueError(f"{path} row {start + 1 + bad}: attribute values must be finite, "
                         f"within ±{BOUND:g}")
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
