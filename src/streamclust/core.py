"""Shared domain types and numeric primitives.

Every type here is immutable and the functions are pure, which makes results
safe to hand between threads. Results and configs are named tuples, compared
by value; a chunk holds read-only numpy arrays and compares by identity.
Both are columnar: a chunk is one matrix of records, a result one column per
cluster field.

numpy is imported by the functions that use it, so a command that builds no
chunk, such as eval, starts without it.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import reduce
from itertools import chain


class Chunk:
    """A timestamped batch of records, the unit of incremental processing.

    values holds one row per record: a read-only, C-contiguous float64
    matrix of shape (records, dimensions). labels, when given, is a read-only
    int64 vector with one class label per row; artificial_classes, when
    given, a read-only int64 matrix with one row of artificial class labels
    per record and at least one column (see make_artificial_classes). Both
    are opaque integers used only by stream construction and evaluation; no
    clustering code path ever reads them. An array is kept as given only
    when nothing can change it: it has the right dtype, is C-contiguous and
    read-only, and so is the array it is a view of; load_stream and
    generate_synthetic give their chunks such views of the stream's arrays.
    Every other array is copied, so a chunk never changes (unless its owner
    sets the writeable flag back on that base array), and assigning to a
    field raises AttributeError. Equality is identity, which the engine's
    shared work keys on: compare the arrays to compare contents.
    """

    __slots__ = ("timestamp", "values", "labels", "artificial_classes")

    def __init__(self, timestamp: int, values, labels=None, artificial_classes=None):
        import numpy as np
        if timestamp < 1:
            raise ValueError(f"chunk timestamp must be >= 1, got {timestamp}")
        values = _frozen(values, np.float64)
        if values.ndim != 2:
            raise ValueError(f"chunk values must be a 2-D matrix, got {values.ndim}-D")
        if values.shape[0] == 0:
            raise ValueError("Chunk needs at least one record")
        if values.shape[1] == 0:
            raise ValueError("a record needs at least one attribute value")
        if labels is not None:
            labels = _frozen(labels, np.int64)
            if labels.shape != (values.shape[0],):
                raise ValueError(
                    f"chunk needs one label per record: {values.shape[0]} records, "
                    f"labels of shape {labels.shape}"
                )
        if artificial_classes is not None:
            classes = artificial_classes = _frozen(artificial_classes, np.int64)
            if classes.ndim != 2 or classes.shape[0] != values.shape[0] or not classes.shape[1]:
                raise ValueError(
                    f"chunk needs one row of at least one artificial class per record: "
                    f"values of shape {values.shape}, artificial classes of shape {classes.shape}"
                )
        for name, value in zip(self.__slots__, (timestamp, values, labels, artificial_classes)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"a Chunk is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dimensions(self) -> int:
        return self.values.shape[1]


def _frozen(array, dtype) -> np.ndarray:
    """array as a read-only, C-contiguous array of dtype: array itself when it
    is one already and a view of a read-only array, a copy otherwise."""
    import numpy as np
    if (type(array) is np.ndarray and array.dtype == dtype and array.flags.c_contiguous
            and not array.flags.writeable
            and isinstance(array.base, np.ndarray) and not array.base.flags.writeable):
        return array
    array = np.array(array, dtype=dtype, order="C")
    array.flags.writeable = False
    return array


def left_sum(values):
    """The values added left to right from 0: Python 3.11's sum() bits on
    every version, where 3.12's sum() compensates float rounding."""
    return reduce(operator.add, values, 0)


def first_nonfinite_row(matrix: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity, or None."""
    import numpy as np
    finite = np.isfinite(matrix)
    return None if finite.all() else int(finite.all(axis=1).argmin())


def class_means(values: np.ndarray, labels: np.ndarray) -> list[tuple[int, tuple[float, ...]]]:
    """Each class's mean record, sorted by class label: values is a float64
    (records, dimensions) matrix, labels its int64 vector of class labels.
    A class whose sum overflows float64, so that its mean is not finite, is
    refused: JSON holds no such number, and no centroid is matched to one."""
    import numpy as np
    # A row-major matrix reduces along axis 0 row by row, in record order.
    # (np.unique would import numpy.ma, about 1 MB of resident memory.)
    means = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        for label in sorted(set(labels.tolist())):
            mean = tuple(values[labels == label].mean(axis=0).tolist())
            if not all(map(math.isfinite, mean)):
                raise ValueError(f"the values of class {label} sum past the float64 range, "
                                 "so its mean is not finite")
            means.append((label, mean))
    return means


# namedtuple's _replace builds its tuple through _make, which skips a
# subclass's __new__: a checked type's _make calls the type, so the checks run
checked_make = classmethod(lambda cls, fields: cls(*fields))


class ClusteringResult(namedtuple("ClusteringResult",
                                  "centroids radii lifetime_counts chunk_counts outliers")):
    """The compact stand-in for a set of clusters once their records are
    discarded: one tuple per field, one entry per cluster; no timestamp.

    centroids        running mean of every record each cluster absorbed
    radii            absorption thresholds, fixed when each cluster was built
    lifetime_counts  records absorbed over each cluster's whole life
    chunk_counts     records absorbed from the current chunk only
    outliers         records of the current chunk that no cluster absorbed

    Checked whenever built, by _replace too: centroids share one non-zero
    length and hold finite Python floats, radii are >= 0 (not NaN; inf absorbs
    all), and every cluster has 1 <= lifetime count and 0 <= chunk count <= lifetime.
    """

    __slots__ = ()

    def __new__(cls, centroids, radii, lifetime_counts, chunk_counts, outliers):
        self = super().__new__(cls, tuple(tuple(map(float, c)) for c in centroids),
                               tuple(radii), tuple(lifetime_counts), tuple(chunk_counts), outliers)
        centroids, radii, lifetimes, deltas, _ = self
        if not centroids:
            raise ValueError("ClusteringResult needs at least one cluster")
        columns = (centroids, radii, lifetimes, deltas)
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"one entry per cluster in every column, got {[*map(len, columns)]}")
        lengths = sorted(set(map(len, centroids)))
        if len(lengths) > 1 or lengths[0] == 0:
            raise ValueError(f"centroids need one common, non-zero length, got {lengths}")
        if not all(map(math.isfinite, chain.from_iterable(centroids))):
            raise ValueError(f"centroid coordinates must be finite, got {centroids}")
        if not all(r >= 0 for r in radii):  # also rejects NaN
            raise ValueError(f"radii must be >= 0, got {radii}")
        if not all(n >= 1 for n in lifetimes):
            raise ValueError(f"lifetime_counts must be >= 1, got {lifetimes}")
        if not all(0 <= m <= n for m, n in zip(deltas, lifetimes)):
            raise ValueError(f"need 0 <= chunk_counts <= lifetime_counts, got {deltas}, {lifetimes}")
        if outliers < 0:
            raise ValueError("outliers must be >= 0")
        return self

    _make = checked_make

    @property
    def dimensions(self) -> int:
        return len(self.centroids[0])


class DriftConfig(namedtuple("DriftConfig", "k o_thresh d_thresh seed", defaults=(0.18, 0.6, 0))):
    """Tuning knobs shared by the drift detector and the engine.

    o_thresh is the maximum tolerated outlier ratio per chunk, d_thresh the
    maximum tolerated per-cluster distribution change; seed controls every
    internal k-means bootstrap so runs are reproducible. k is the cluster
    count of every bootstrap, or None when the caller injects one per chunk
    (the k-from-labels policy). Checked on construction and by _replace.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.o_thresh <= 1:
            raise ValueError(f"o_thresh must be in (0, 1], got {self.o_thresh}")
        # NaN would never fire, and JSON has no token for NaN or an infinity
        if not 0 < self.d_thresh < math.inf:
            raise ValueError(f"d_thresh must be finite and > 0, got {self.d_thresh}")
        return self

    _make = checked_make


def minmax_normalize(values) -> np.ndarray:
    """Rescale every attribute column of a (records, dimensions) matrix to [0, 1].

    Statistics come from the whole dataset, so call this before chunking.
    Constant columns map to 0 rather than dividing by zero. NaN and infinite
    values are rejected: one of them would turn its whole column into NaN.
    """
    import numpy as np
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
