"""Single-pass absorption of a chunk into an existing set of cluster summaries.

Each record goes to its nearest centroid if it falls within that cluster's
radius, nudging the centroid by a running mean; otherwise it counts as an
outlier and is discarded. Radii never change here, so clusters cannot inflate
between retrains. The pass is inherently sequential: centroids move as records
arrive, and the same input order always yields bit-identical output.

A cluster that absorbs its n-th record moves its centroid c towards the
record v by (1 - 1/n) * c + (1/n) * v, coordinate by coordinate, which keeps
it the exact running mean. The whole pass over a chunk is one generated
function per (k clusters, d dimensions), built from the two integers on first
use and cached: the nearest-centroid scan is unrolled into k distance calls
and the update into one tuple of d terms, so the loop pays no per-cluster or
per-coordinate iteration and no call beyond math.dist. dist_clust_trace is
the one absorb function; the engine reports its per-record trace and metrics
score it.
"""

import functools
import math

from .core import Assignment, Chunk, ClusteringResult


@functools.lru_cache(maxsize=None, typed=True)
def _absorb_kernel(clusters: int, dimensions: int):
    """The absorb pass for k clusters in d dimensions, as generated code.

    absorb(rows, centroids, radii, lifetimes, deltas) updates centroids,
    lifetimes and deltas in place and returns the outlier count and the
    per-record trace. Its scan holds k dist() calls, each followed by
    `if x < b`, so ties keep the lowest index; its update is one tuple of d
    `keep * c[j] + w * v[j]` terms. The source comes from the two integers
    alone, checked before any code is built; typed caching keeps 2.0 or True
    from reusing the kernel cached for 2 or 1. Generated, because on Python
    3.11 range(), list indexing and a call per absorbed record cost more than
    the distance work at small k and d.
    """
    if type(clusters) is not int or type(dimensions) is not int:
        raise TypeError(f"kernel shape must be two ints, got {clusters!r}, {dimensions!r}")
    scan = "".join(
        f"        x = dist(v, centroids[{j}])\n"
        f"        if x < b: b = x; i = {j}\n"
        for j in range(1, clusters)
    )
    mean = "".join(f"keep * c[{j}] + w * v[{j}], " for j in range(dimensions))
    source = (
        "def absorb(rows, centroids, radii, lifetimes, deltas):\n"
        "    dist = math.dist\n"
        "    trace = []\n"
        "    append = trace.append\n"
        "    outliers = 0\n"
        "    for v in rows:\n"
        "        b = dist(v, centroids[0]); i = 0\n"
        f"{scan}"
        "        if b <= radii[i]:\n"
        "            n = lifetimes[i] = lifetimes[i] + 1\n"
        "            deltas[i] += 1\n"
        "            w = 1.0 / n\n"
        "            keep = 1.0 - w\n"
        "            c = centroids[i]\n"
        f"            centroids[i] = ({mean})\n"
        "            append((i, b))\n"
        "        else:\n"
        "            outliers += 1\n"
        "            append(None)\n"
        "    return outliers, trace\n"
    )
    namespace = {"math": math}
    exec(compile(source, f"<absorb kernel k={clusters} d={dimensions}>", "exec"), namespace)
    return namespace["absorb"]


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
    centroids = list(prev.centroids)
    lifetimes = list(prev.lifetime_counts)
    deltas = [0] * len(centroids)  # per-chunk counts restart each call
    absorb = _absorb_kernel(len(centroids), chunk.dimensions)
    outliers, trace = absorb(chunk.rows(), centroids, prev.radii, lifetimes, deltas)
    result = ClusteringResult(centroids, prev.radii, lifetimes, deltas, outliers, chunk.timestamp)
    return result, tuple(trace)
