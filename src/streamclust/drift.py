"""Concept-drift detection between two consecutive clustering results.

Two triggers: the chunk's outlier ratio exceeds o_thresh (new structure the
current clusters cannot absorb), or some cluster's share of the chunk changed
by more than d_thresh relative to the previous chunk (the structure still
absorbs records but differently).
"""

import math
from dataclasses import dataclass
from enum import Enum

from .core import ClusteringResult, DriftConfig


class DriftCause(Enum):
    NONE = "none"
    OUTLIER_RATIO = "outlier_ratio"
    DISTRIBUTION_SHIFT = "distribution_shift"


@dataclass(frozen=True)
class DriftVerdict:
    is_drift: bool
    cause: DriftCause
    # Per-cluster relative change in chunk counts, up to the first offender.
    detail: tuple[float, ...] = ()

    def __post_init__(self):
        if self.is_drift == (self.cause is DriftCause.NONE):
            raise ValueError("cause must be NONE exactly when is_drift is False")


def detect(
    current: ClusteringResult,
    previous: ClusteringResult,
    chunk_size: int,
    config: DriftConfig,
) -> DriftVerdict:
    """Compare the current result against the previous one for drift.

    Outlier check first: the ratio outliers/chunk_size is compared against
    o_thresh (a ratio, so thresholds port across chunk sizes). Otherwise each
    cluster's |chunk_count - previous chunk_count| / previous chunk_count is
    compared against d_thresh, stopping at the first offender. Shrinkage
    counts as much as growth. A cluster that was dead and came back is an
    infinite change, hence drift; dead both times is no change. Results with
    different cluster counts are incomparable and reported as drift.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if current.outliers / chunk_size > config.o_thresh:
        return DriftVerdict(True, DriftCause.OUTLIER_RATIO)
    if len(current.chunk_counts) != len(previous.chunk_counts):
        return DriftVerdict(True, DriftCause.DISTRIBUTION_SHIFT)
    changes: list[float] = []
    for cur, prior in zip(current.chunk_counts, previous.chunk_counts):
        diff = cur - prior
        if prior == 0:
            pct = 0.0 if diff == 0 else math.inf
        else:
            pct = abs(diff) / prior
        changes.append(pct)
        if pct > config.d_thresh:
            return DriftVerdict(True, DriftCause.DISTRIBUTION_SHIFT, tuple(changes))
    return DriftVerdict(False, DriftCause.NONE, tuple(changes))
