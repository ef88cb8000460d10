"""Benchmark stream construction.

Two families:

* synthetic streams of 2-D Gaussian blob chunks with scripted drifts, built
  from a per-timestamp schedule (cluster count, per-cluster sizes, drift
  kind). Four named streams ship with the package:
    sdwcd    10 chunks: a one-chunk collapse at t=3 (temporary drift), then a
             switch from 5 clusters to 3 relocated ones from t=6 on with the
             labels reshuffled (sustained drift)
    sdccl    7 chunks: a one-chunk collapse at t=5, then the 5 clusters return
             slightly shifted for t=6..7
    ncd100   100 identical 5-cluster chunks, no drift
    wcd1000  1000 chunks in ten 100-chunk blocks whose cluster count,
             placement and labeling change at every block boundary
* chunked real datasets: class-interleaved splitting plus optional artificial
  class labels derived from binned attribute values.

All generation is driven by a seed and is byte-for-byte reproducible.
"""

import math
from collections import namedtuple

import numpy as np

from .core import checked_make, Chunk, left_sum
from .jsondoc import JSON_NUMBER, from_doc, parse_json, read_text

# Anchor layouts for blob centers. Clusters sit far enough apart that a blob
# is never absorbed by a foreign cluster and k-means recovers blobs exactly.
BASE_ANCHORS = (
    (0.117, 0.884),
    (0.885, 0.885),
    (0.527, 0.635),
    (0.117, 0.111),
    (0.877, 0.117),
)
# Used whenever a schedule entry's cluster count differs from the stream's
# base count: a drifted phase must not be absorbable by the old model.
DRIFT_ANCHORS = (
    (0.30, 0.35),
    (0.70, 0.65),
    (0.50, 0.15),
    (0.12, 0.60),
    (0.88, 0.40),
)

# Class id given to the single cluster of a merged chunk. Distinct from the
# regular 1..k ids so a one-chunk collapse does not pollute per-class means.
MERGED_LABEL = 0

DEFAULT_SIGMA = 0.02
DEFAULT_RELOCATE_OFFSET = 0.01
# A TimestepSpec's drift_kind is one of these, as spec files spell them
DRIFT_KINDS = ("none", "relabel", "relocate", "merge")


class TimestepSpec(namedtuple("TimestepSpec",
                              "cluster_count records_per_cluster drift_kind offset_steps",
                              defaults=("none", 0))):
    """One chunk's blueprint, checked on construction and by _replace.

    records_per_cluster may be a single size or one size per cluster.
    offset_steps scales the stream's relocate_offset and is applied to every
    anchor of this chunk (merge included), so +1/-1 entries cancel in the
    per-class means of the whole stream. It alone moves the anchors:
    "relocate" only marks the chunk, and generate_synthetic never reads it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.cluster_count < 1:
            raise ValueError("cluster_count must be >= 1")
        sizes = self.cluster_sizes
        if len(sizes) != self.cluster_count:
            raise ValueError(
                f"{len(sizes)} cluster sizes given for {self.cluster_count} clusters"
            )
        if any(s < 1 for s in sizes):
            raise ValueError("every cluster size must be >= 1")
        if self.drift_kind not in DRIFT_KINDS:
            raise ValueError(f"drift_kind must be one of {', '.join(DRIFT_KINDS)}, "
                             f"got {self.drift_kind!r}")
        if self.drift_kind == "merge" and self.cluster_count != 1:
            raise ValueError("a merge chunk has exactly one cluster")
        return self

    _make = checked_make

    @property
    def cluster_sizes(self) -> tuple[int, ...]:
        if isinstance(self.records_per_cluster, int):
            return (self.records_per_cluster,) * self.cluster_count
        return tuple(self.records_per_cluster)

    @property
    def chunk_size(self) -> int:
        return sum(self.cluster_sizes)


class StreamSpec(namedtuple("StreamSpec",
                            "entries sigma seed anchors alt_anchors relocate_offset")):
    """A synthetic stream's schedule, checked on construction and by _replace."""

    __slots__ = ()

    def __new__(cls, entries, sigma=DEFAULT_SIGMA, seed=0, anchors=BASE_ANCHORS,
                alt_anchors=DRIFT_ANCHORS, relocate_offset=DEFAULT_RELOCATE_OFFSET):
        self = super().__new__(cls, tuple(entries), sigma, seed, tuple(map(tuple, anchors)),
                               tuple(map(tuple, alt_anchors)), relocate_offset)
        if not self.entries:
            raise ValueError("StreamSpec needs at least one entry")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not math.isfinite(self.relocate_offset):
            raise ValueError(f"relocate_offset must be finite, got {self.relocate_offset!r}")
        for anchor in (*self.anchors, *self.alt_anchors):
            if len(anchor) != 2:
                raise ValueError(f"every anchor must be an (x, y) pair, got {anchor!r}")
            if not all(map(math.isfinite, anchor)):
                raise ValueError(f"anchor coordinates must be finite, got {anchor!r}")
        base = self.entries[0].cluster_count
        for entry in self.entries:
            bank = self.anchors if entry.cluster_count == base else self.alt_anchors
            if entry.drift_kind != "merge" and entry.cluster_count > len(bank):
                raise ValueError(
                    f"cluster_count {entry.cluster_count} exceeds available anchors"
                )
        return self

    _make = checked_make


# A spec file's keys and an entry's, with their JSON kinds; those past the first
# one and two may be left out, for StreamSpec's and TimestepSpec's defaults.
_SPEC_FIELDS = {"entries": list[dict], "sigma": JSON_NUMBER, "relocate_offset": JSON_NUMBER,
                "seed": int, "anchors": list[list[JSON_NUMBER]],
                "alt_anchors": list[list[JSON_NUMBER]]}
_ENTRY_FIELDS = {"cluster_count": int, "records_per_cluster": int | list[int],
                 "drift_kind": str, "offset_steps": int}


def spec_from_file(path, seed: int) -> StreamSpec:
    """The StreamSpec of the JSON spec file at path, with seed unless the file
    gives its own; a refusal names the file, and an entry's the entry too."""
    doc = parse_json(read_text(path), path)
    try:
        fields = from_doc("spec", doc, _SPEC_FIELDS, optional=list(_SPEC_FIELDS)[1:])
        entries = []
        for i, e in enumerate(fields.pop("entries"), 1):
            e = from_doc(f"spec entry {i}", e, _ENTRY_FIELDS, optional=list(_ENTRY_FIELDS)[2:])
            if type(e["records_per_cluster"]) is list:
                e["records_per_cluster"] = tuple(e["records_per_cluster"])
            try:
                entries.append(TimestepSpec(**e))
            except ValueError as exc:
                raise ValueError(f"spec entry {i}: {exc}") from None
        return StreamSpec(entries, **{"seed": seed, **fields})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _merge_anchor(anchors) -> tuple[float, float]:
    xs = [a[0] for a in anchors]
    ys = [a[1] for a in anchors]
    return (left_sum(xs) / len(xs), left_sum(ys) / len(ys))


def generate_synthetic(spec: StreamSpec) -> list[Chunk]:
    """Materialize a synthetic stream from its schedule.

    Chunk records are isotropic Gaussian blobs (clipped to the unit square)
    around fixed anchors; merged chunks collapse to one blob at the anchors'
    centroid. A relabel entry permutes the class ids present in its chunk,
    from that chunk to the end of the stream; whenever the chunk has two or
    more distinct labels the permutation is never the identity (with exactly
    two labels that means a swap). Same spec and seed, same records, always.

    The whole stream is one Generator.normal call, with each blob's center
    repeated once per record as loc. It draws one standard normal per element
    in C order and rounds loc + scale * normal in the same C code whatever the
    shapes, so it gives the same bits as one call per blob of shape (size, 2).
    The drawn matrix and label vector are made read-only, and every chunk
    holds views of them (see Chunk), so the stream is in memory once.
    """
    rng = np.random.default_rng(spec.seed & 0xFFFFFFFF)
    base_count = spec.entries[0].cluster_count
    centers, blob_labels, blob_sizes, relabel_at = [], [], [], []

    for t, entry in enumerate(spec.entries, start=1):
        shift = entry.offset_steps * spec.relocate_offset
        if entry.drift_kind == "merge":
            anchors = [_merge_anchor(spec.anchors)]
            labels = [MERGED_LABEL]
        else:
            bank = spec.anchors if entry.cluster_count == base_count else spec.alt_anchors
            anchors = list(bank[: entry.cluster_count])
            labels = list(range(1, entry.cluster_count + 1))
            if entry.drift_kind == "relabel":
                relabel_at.append(t - 1)
        centers += [(x + shift, y + shift) for x, y in anchors]
        blob_labels += labels
        blob_sizes += entry.cluster_sizes

    values = rng.normal(loc=np.repeat(centers, blob_sizes, axis=0), scale=spec.sigma)
    np.clip(values, 0.0, 1.0, out=values)
    labels = np.repeat(blob_labels, blob_sizes)

    # All labels in one vector: a relabel remaps the whole tail at once, with
    # its own generator so the records do not depend on the relabels.
    perm_rng = np.random.default_rng((spec.seed + 1) & 0xFFFFFFFF)
    bounds = np.cumsum([0] + [entry.chunk_size for entry in spec.entries])
    for i in relabel_at:
        present = np.array(sorted(set(labels[bounds[i] : bounds[i + 1]].tolist())))
        permuted = present
        if len(present) > 1:
            while np.array_equal(permuted, present):
                permuted = perm_rng.permutation(present)
        tail = labels[bounds[i] :]
        slot = np.minimum(np.searchsorted(present, tail), len(present) - 1)
        tail[:] = np.where(present[slot] == tail, permuted[slot], tail)
    values.flags.writeable = labels.flags.writeable = False  # chunks keep views, not copies
    return [
        Chunk(i + 1, values[bounds[i] : bounds[i + 1]], labels[bounds[i] : bounds[i + 1]])
        for i in range(len(spec.entries))
    ]


def sdwcd_spec(seed: int = 0) -> StreamSpec:
    """10 chunks: temporary collapse at t=3, sustained 3-cluster drift from t=6."""
    entries = [
        TimestepSpec(5, 30),
        TimestepSpec(5, 30),
        TimestepSpec(1, 150, "merge"),
        TimestepSpec(5, 30),
        TimestepSpec(5, 30),
        TimestepSpec(3, 50, "relabel"),
    ] + [TimestepSpec(3, 50) for _ in range(4)]
    return StreamSpec(tuple(entries), seed=seed)


def sdccl_spec(seed: int = 0) -> StreamSpec:
    """7 chunks: shifted collapse at t=5, clusters return slightly moved."""
    entries = (
        TimestepSpec(5, 30),
        TimestepSpec(5, 30),
        TimestepSpec(5, 30),
        TimestepSpec(5, 30),
        TimestepSpec(1, 150, "merge", offset_steps=1),
        TimestepSpec(5, 30, "relocate", offset_steps=1),
        TimestepSpec(5, 30, "relocate", offset_steps=-1),
    )
    return StreamSpec(entries, seed=seed)


def ncd100_spec(seed: int = 0) -> StreamSpec:
    """100 stable 5-cluster chunks, no drift of any kind."""
    return StreamSpec(tuple(TimestepSpec(5, 30) for _ in range(100)), seed=seed)


_WCD_BLOCK_COUNTS = (5, 4, 5, 3, 5, 4, 5, 2, 3, 5)
_WCD_BLOCK_SIZES = {
    5: 30,
    4: (38, 38, 37, 37),
    3: 50,
    2: 75,
}


def wcd1000_spec(seed: int = 0) -> StreamSpec:
    """1000 chunks in ten blocks of 100; every block boundary is a sustained
    drift that changes the cluster count, placement and labeling."""
    entries: list[TimestepSpec] = []
    for block, count in enumerate(_WCD_BLOCK_COUNTS):
        sizes = _WCD_BLOCK_SIZES[count]
        for i in range(100):
            kind = "relabel" if block > 0 and i == 0 else "none"
            entries.append(TimestepSpec(count, sizes, kind))
    return StreamSpec(tuple(entries), seed=seed)


def chunk_dataset(values, labels, chunk_count: int, artificial_classes=None) -> list[Chunk]:
    """Split a labeled (records, dimensions) matrix into chunks that preserve
    class proportions. labels, a vector, and artificial_classes when given,
    a matrix, hold one row per record; another shape is refused, naming it,
    and another row count, naming both counts.

    Classes are kept in first-appearance order; chunk i takes the i-th
    contiguous slice of each class's positions, so per-class counts differ by
    at most one across chunks and the union is the whole dataset in order.
    artificial_classes is split the same way.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = None if artificial_classes is None else np.asarray(artificial_classes)
    if len(values) == 0:
        raise ValueError("cannot chunk an empty dataset")
    for name, rows, ndim in (("labels", labels, 1), ("artificial class rows", classes, 2)):
        if rows is not None and rows.ndim != ndim:
            raise ValueError(f"{name} must be {ndim}-D, one row per record, got shape {rows.shape}")
        if rows is not None and len(rows) != len(values):
            raise ValueError(f"{len(values)} records but {len(rows)} {name}; "
                             f"each record needs one")
    if chunk_count < 1:
        raise ValueError("chunk_count must be >= 1")
    by_class: dict[int, list[int]] = {}
    for pos, label in enumerate(labels.tolist()):
        by_class.setdefault(label, []).append(pos)
    for label, positions in by_class.items():
        if len(positions) < chunk_count:
            raise ValueError(
                f"class {label} has {len(positions)} records, fewer than {chunk_count} chunks"
            )
    chunks = []
    for i in range(chunk_count):
        part: list[int] = []
        for positions in by_class.values():
            n = len(positions)
            part.extend(positions[i * n // chunk_count : (i + 1) * n // chunk_count])
        chunks.append(Chunk(i + 1, values[part], labels[part],
                            None if classes is None else classes[part]))
    return chunks


def make_artificial_classes(values, class_count: int) -> np.ndarray:
    """Derive one artificial class column per attribute by binning its values.

    Each attribute's observed values are divided into class_count
    equal-frequency bins: cut points sit at the value ranks i*m/n, and a value
    lands in bin 1 plus the number of cuts at or below it. Bins are 1-based,
    total on the column (no value falls in a gap), and the column minimum is
    always bin 1. Requires min-max normalized data; returns an int64 matrix
    of the same shape as values.
    """
    if class_count < 1:
        raise ValueError("class_count must be >= 1")
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2 or len(matrix) == 0:
        raise ValueError("cannot bin an empty dataset")
    outside = ~((matrix >= 0.0) & (matrix <= 1.0))
    if outside.any():
        raise ValueError(
            f"attribute value {matrix[outside][0]} outside [0, 1]; normalize the dataset first"
        )
    m = len(matrix)
    bins = np.empty(matrix.shape, dtype=np.int64)
    for a, column in enumerate(matrix.T):
        ordered = np.sort(column)
        cuts: list[float] = []
        for i in range(1, class_count):
            idx = i * m // class_count
            # ties: a cut must exceed both the column minimum (bin 1 stays
            # non-empty) and the previous cut; scan forward past duplicates
            floor = cuts[-1] if cuts else ordered[0]
            while idx < m and ordered[idx] <= floor:
                idx += 1
            if idx < m:
                cuts.append(ordered[idx])
        bins[:, a] = 1 + np.searchsorted(cuts, column, side="right")
    return bins
