"""Single-pass absorption of a chunk into an existing set of cluster summaries.

Each record goes to its nearest centroid if it falls within that cluster's
radius, nudging the centroid by a running mean; otherwise it counts as an
outlier and is discarded. Radii never change here, so clusters cannot inflate
between retrains. The pass is inherently sequential: centroids move as records
arrive, and the same input order always yields bit-identical output.

A cluster that absorbs its n-th record moves its centroid c towards the
record v by (1 - 1/n) * c + (1/n) * v, coordinate by coordinate, which keeps
it the exact running mean. The update goes through one generated function per
dimensionality, built on first use and cached, so the loop pays one call per
absorbed record and no per-coordinate iteration. dist_clust_trace is the one
absorb function; the engine reports its per-record trace and metrics score it.
"""

import functools
import math

from .core import Assignment, Chunk, ClusteringResult, ClusterSummary


@functools.cache
def _lerp_kernel(dimensions: int):
    """The centroid update for one dimensionality d, as generated code:

        lambda c, v, keep, w: (keep * c[0] + w * v[0], ..., keep * c[d-1] + w * v[d-1],)

    Generated from the integer alone, because the alternatives cost more per
    call on Python 3.11: a list comprehension gets its own frame, and map
    chains over operator.mul/operator.add measured slower too.
    """
    terms = "".join(f"keep * c[{i}] + w * v[{i}], " for i in range(dimensions))
    return eval(f"lambda c, v, keep, w: ({terms})")


def dist_clust_trace(chunk: Chunk, prev: ClusteringResult) -> tuple[ClusteringResult, tuple[Assignment, ...]]:
    """Absorb a chunk into the previous result; return the updated result and
    the per-record (cluster, distance) assignments, None for each outlier.

    Starts from prev's clusters with every per-chunk count and the outlier
    counter reset to zero (prev itself is never mutated, so its counts remain
    available for drift comparison). The chunk's rows are processed in order:
    the nearest centroid wins (ties go to the lowest cluster index),
    absorption requires distance <= that cluster's radius, and everything
    else is counted as an outlier and dropped.
    """
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
    lerp = _lerp_kernel(chunk.dimensions)
    for values in chunk.rows():
        best = 0
        best_dist = dist(values, centroids[0])
        for idx in range(1, len(centroids)):
            d = dist(values, centroids[idx])
            if d < best_dist:
                best, best_dist = idx, d
        if best_dist <= radii[best]:
            n = lifetimes[best] = lifetimes[best] + 1
            deltas[best] += 1
            w = 1.0 / n
            centroids[best] = lerp(centroids[best], values, 1.0 - w, w)
            trace.append((best, best_dist))
        else:
            outliers += 1
            trace.append(None)

    clusters = tuple(
        ClusterSummary(centroids[i], radii[i], lifetimes[i], deltas[i])
        for i in range(len(centroids))
    )
    return ClusteringResult(clusters, outliers, chunk.timestamp), tuple(trace)
