"""Single-pass absorption of a chunk into an existing set of cluster summaries.

Each record goes to its nearest centroid if it falls within that cluster's
radius, nudging the centroid by a running mean; otherwise it counts as an
outlier and is discarded. Radii never change here, so clusters cannot inflate
between retrains. The pass is inherently sequential: centroids move as records
arrive, and the same input order always yields bit-identical output.
"""

import math

from .core import Chunk, ClusteringResult, ClusterSummary

# (cluster index, distance at assignment time) per record, None for outliers.
Assignment = tuple[int, float] | None


def _shift_centroid(centroid, values, updated_lifetime: int) -> tuple[float, ...]:
    # updated_lifetime is the count *after* absorbing the record; its
    # reciprocal is the learning rate. (1 - 1/n) * c + (1/n) * v keeps the
    # centroid an exact running mean.
    w = 1.0 / updated_lifetime
    keep = 1.0 - w
    # a list comprehension, not a generator: same values, less call overhead
    return tuple([keep * c + w * v for c, v in zip(centroid, values)])


def dist_clust_trace(chunk: Chunk, prev: ClusteringResult) -> tuple[ClusteringResult, tuple[Assignment, ...]]:
    """dist_clust() plus the per-record (cluster, distance) assignments."""
    if chunk.dimensions != prev.dimensions:
        raise ValueError(
            f"chunk has {chunk.dimensions} dimensions, clusters have {prev.dimensions}"
        )
    centroids = [c.centroid for c in prev.clusters]
    radii = [c.radius for c in prev.clusters]
    lifetimes = [c.lifetime_count for c in prev.clusters]
    deltas = [0] * len(prev.clusters)  # per-chunk counts restart each call
    outliers = 0
    trace: list[Assignment] = []

    dist = math.dist
    for values in chunk.rows():
        best = 0
        best_dist = dist(values, centroids[0])
        for idx in range(1, len(centroids)):
            d = dist(values, centroids[idx])
            if d < best_dist:
                best, best_dist = idx, d
        if best_dist <= radii[best]:
            lifetimes[best] += 1
            deltas[best] += 1
            centroids[best] = _shift_centroid(centroids[best], values, lifetimes[best])
            trace.append((best, best_dist))
        else:
            outliers += 1
            trace.append(None)

    clusters = tuple(
        ClusterSummary(centroids[i], radii[i], lifetimes[i], deltas[i])
        for i in range(len(centroids))
    )
    return ClusteringResult(clusters, outliers, chunk.timestamp), tuple(trace)


def dist_clust(chunk: Chunk, prev: ClusteringResult) -> ClusteringResult:
    """Absorb a chunk into the previous result and return the updated one.

    Starts from prev's clusters with every per-chunk count and the outlier
    counter reset to zero (prev itself is never mutated, so its counts remain
    available for drift comparison). The chunk's rows are processed in order:
    the nearest centroid wins (ties go to the lowest cluster index),
    absorption requires distance <= that cluster's radius, and everything
    else is counted as an outlier and dropped.
    """
    result, _ = dist_clust_trace(chunk, prev)
    return result
