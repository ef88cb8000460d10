"""Shared domain types and numeric primitives.

Every type here is immutable and the functions are pure, which makes results
safe to hand between threads. Results compare by value; a chunk holds
read-only numpy arrays and compares by identity. Both are columnar: a chunk
is one matrix of records, a result one column per cluster field.
"""

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np


@dataclass(frozen=True, eq=False)
class Chunk:
    """A timestamped batch of records, the unit of incremental processing.

    values holds one row per record: a read-only, C-contiguous float64
    matrix of shape (records, dimensions). labels, when given, is a read-only
    int64 vector with one class label per row. Labels are opaque integers used
    only by stream construction and external evaluation; no clustering code
    path ever reads them. Both are copied on construction, so a chunk never
    changes. Equality is identity: compare the arrays to compare contents.
    """

    timestamp: int
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.timestamp < 1:
            raise ValueError(f"chunk timestamp must be >= 1, got {self.timestamp}")
        values = np.array(self.values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise ValueError(f"chunk values must be a 2-D matrix, got {values.ndim}-D")
        if values.shape[0] == 0:
            raise ValueError("Chunk needs at least one record")
        if values.shape[1] == 0:
            raise ValueError("a record needs at least one attribute value")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.shape != (values.shape[0],):
                raise ValueError(
                    f"chunk needs one label per record: {values.shape[0]} records, "
                    f"labels of shape {labels.shape}"
                )
            labels.flags.writeable = False
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dimensions(self) -> int:
        return self.values.shape[1]

    def rows(self) -> list[tuple[float, ...]]:
        """The records as tuples of Python floats, built afresh on each call.

        Tuples, because math.dist converts any other sequence to a tuple on
        every call; zipping the column lists builds them without an
        intermediate list per row.
        """
        return list(zip(*self.values.T.tolist()))


def left_sum(values):
    """The values added left to right from 0: Python 3.11's sum() bits on
    every version, where 3.12's sum() compensates float rounding."""
    return reduce(operator.add, values, 0)


def first_nonfinite_row(matrix: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, or None."""
    finite = np.isfinite(matrix)
    return None if finite.all() else int(finite.all(axis=1).argmin())


@dataclass(frozen=True)
class ClusteringResult:
    """The compact stand-in for a set of clusters once their records are
    discarded: one tuple per field, one entry per cluster; no timestamp.

    centroids        running mean of every record each cluster absorbed
    radii            absorption thresholds, fixed when each cluster was built
    lifetime_counts  records absorbed over each cluster's whole life
    chunk_counts     records absorbed from the current chunk only
    outliers         records of the current chunk that no cluster absorbed

    Checked once, on construction: centroids share one non-zero length and
    hold finite Python floats, radii are >= 0 (not NaN; inf absorbs all), and
    every cluster has 1 <= lifetime count and 0 <= chunk count <= lifetime.
    """

    centroids: tuple[tuple[float, ...], ...]
    radii: tuple[float, ...]
    lifetime_counts: tuple[int, ...]
    chunk_counts: tuple[int, ...]
    outliers: int

    def __post_init__(self):
        object.__setattr__(self, "centroids", tuple(tuple(map(float, c)) for c in self.centroids))
        for name in ("radii", "lifetime_counts", "chunk_counts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        lifetimes, deltas = self.lifetime_counts, self.chunk_counts
        if not self.centroids:
            raise ValueError("ClusteringResult needs at least one cluster")
        columns = (self.centroids, self.radii, lifetimes, deltas)
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"one entry per cluster in every column, got {[*map(len, columns)]}")
        lengths = sorted(set(map(len, self.centroids)))
        if len(lengths) > 1 or lengths[0] == 0:
            raise ValueError(f"centroids need one common, non-zero length, got {lengths}")
        if not all(map(math.isfinite, chain.from_iterable(self.centroids))):
            raise ValueError(f"centroid coordinates must be finite, got {self.centroids}")
        if not all(r >= 0 for r in self.radii):  # also rejects NaN
            raise ValueError(f"radius must be >= 0, got {self.radii}")
        if not all(n >= 1 for n in lifetimes):
            raise ValueError(f"lifetime_count must be >= 1, got {lifetimes}")
        if not all(0 <= m <= n for m, n in zip(deltas, lifetimes)):
            raise ValueError(f"need 0 <= chunk_count <= lifetime_count, got {deltas}, {lifetimes}")
        if self.outliers < 0:
            raise ValueError("outliers must be >= 0")

    @property
    def dimensions(self) -> int:
        return len(self.centroids[0])


@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs shared by the drift detector and the engine.

    o_thresh is the maximum tolerated outlier ratio per chunk, d_thresh the
    maximum tolerated per-cluster distribution change; seed controls every
    internal k-means bootstrap so runs are reproducible. k is the cluster
    count of every bootstrap, or None when the caller injects one per chunk
    (the k-from-labels policy).
    """

    k: int | None
    o_thresh: float = 0.18
    d_thresh: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.o_thresh <= 1:
            raise ValueError(f"o_thresh must be in (0, 1], got {self.o_thresh}")
        # NaN would never fire, and JSON has no token for NaN or an infinity
        if not 0 < self.d_thresh < math.inf:
            raise ValueError(f"d_thresh must be finite and > 0, got {self.d_thresh}")


def minmax_normalize(values) -> np.ndarray:
    """Rescale every attribute column of a (records, dimensions) matrix to [0, 1].

    Statistics come from the whole dataset, so call this before chunking.
    Constant columns map to 0 rather than dividing by zero. NaN and infinite
    values are rejected: one of them would turn its whole column into NaN.
    """
    matrix = np.asarray(values, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D (records, dimensions) matrix, got {matrix.ndim}-D")
    if len(matrix) == 0:
        raise ValueError("cannot normalize an empty dataset")
    bad = first_nonfinite_row(matrix)
    if bad is not None:
        raise ValueError(f"record {bad + 1} holds a NaN or infinite value")
    lo = matrix.min(axis=0)
    span = matrix.max(axis=0) - lo
    keep = span > 0
    return np.where(keep, (matrix - lo) / np.where(keep, span, 1.0), 0.0)
