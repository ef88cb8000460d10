"""Batch clustering of a single chunk, condensed into cluster summaries.

Used to build the very first model and to retrain a fresh model whenever the
engine decides the current one is stale. Plain Lloyd k-means with greedy
farthest-point seeding: deterministic for a fixed seed, which the rest of the
system relies on for reproducible runs. summarize_trace is the one bootstrap
function: it returns the cluster summaries with each record's cluster and
the SSE, and can share its work between bootstraps that draw the same first
center or reach the same state after Lloyd's first iteration.

A bootstrap's one random draw, the index of its first center, is
random.Random(seed).random() scaled to the chunk: Python keeps that sequence
for a given seed, and numpy already imports random, so run and resume load
no numpy.random, which would load OpenSSL through the secrets module.
"""

import math
import operator
import random

import numpy as np

from .core import Chunk, ClusteringResult

# Lloyd iterations stop here even if assignments still change.
MAX_ITERATIONS = 100


def _norms(x: np.ndarray) -> np.ndarray:
    """Norms along the last axis: np.linalg.norm's float64 path, undispatched."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _first_draw(n: int, seed: int) -> int:
    """The bootstrap's one random draw, the index of its first seeded center:
    below n for every n <= 2**53, as random() is below 1 in steps of 2**-53."""
    # Random would seed None from the clock and hash a float; an integer
    # seed of numpy's works as Python's does
    return int(random.Random(operator.index(seed)).random() * n)


def _farthest_point_init(matrix: np.ndarray, k: int, first: int) -> np.ndarray:
    """Greedy seeding: record `first`, then repeatedly the record farthest
    from every center chosen so far. Ties break toward the lowest index."""
    chosen = [first]
    min_dist = _norms(matrix - matrix[first])
    min_dist[first] = -1.0  # never re-pick a chosen record
    while len(chosen) < k:
        nxt = int(min_dist.argmax())
        chosen.append(nxt)
        np.minimum(min_dist, _norms(matrix - matrix[nxt]), out=min_dist)
        min_dist[nxt] = -1.0
    return matrix[chosen]


def _repair_empty(matrix, centroids, labels, dists):
    """Re-seed clusters that lost all members with the worst-fit record.

    The record farthest from its currently assigned centroid becomes the empty
    cluster's new sole member. Clusters that cannot be repaired (only zero
    distances left) stay empty and are dropped later by summarize_trace().
    """
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    if counts.min() > 0:
        return labels
    assigned_dist = dists[np.arange(len(labels)), labels].copy()
    for cluster in range(k):
        if counts[cluster] > 0:
            continue
        order = np.argsort(-assigned_dist, kind="stable")
        for idx in order:
            idx = int(idx)
            if assigned_dist[idx] <= 0.0 or counts[labels[idx]] <= 1:
                continue
            counts[labels[idx]] -= 1
            labels[idx] = cluster
            counts[cluster] = 1
            assigned_dist[idx] = 0.0
            centroids[cluster] = matrix[idx]
            break
    return labels


def _update_centroids(matrix: np.ndarray, labels: np.ndarray, centroids: np.ndarray):
    """Move each cluster with members to their mean, in place, bit for bit
    matrix[labels == c].mean(axis=0): numpy sums a cluster's rows in record
    order from +0.0, as bincount does, but sums a lone column pairwise."""
    k = len(centroids)
    counts = np.bincount(labels, minlength=k)
    if matrix.shape[1] == 1:
        for cluster in np.flatnonzero(counts):
            centroids[cluster] = matrix[labels == cluster].mean(axis=0)
    else:
        sums = np.column_stack([np.bincount(labels, col, minlength=k) for col in matrix.T])
        kept = counts > 0
        centroids[kept] = sums[kept] / counts[kept, None]


def _lloyd_iterate(matrix: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
                   iterations: int):
    """Run up to `iterations` Lloyd iterations from (centroids, labels),
    stopping early once the labels stop changing; returns (centroids, labels).

    Reads nothing but its arguments, and updates centroids in place.
    """
    for _ in range(iterations):
        dists = _norms(matrix[:, None, :] - centroids[None, :, :])
        new_labels = dists.argmin(axis=1)
        new_labels = _repair_empty(matrix, centroids, new_labels, dists)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        _update_centroids(matrix, labels, centroids)
    return centroids, labels


def _lloyd_first(matrix: np.ndarray, k: int, first: int):
    """Seeding from record `first`, then Lloyd's first iteration: (centroids, labels).

    Every later iteration reads only this pair: the first labelling after
    _repair_empty, and the centroids after the first update. A cluster that
    stayed empty keeps its seeded centroid, so that centroid is part of it.
    """
    centroids = _farthest_point_init(matrix, k, first)
    return _lloyd_iterate(matrix, centroids, np.full(len(matrix), -1, dtype=int), 1)


def _finish(chunk: Chunk, centroids: np.ndarray, labels: np.ndarray):
    """Lloyd's remaining iterations from its first, then the summary: what
    summarize_trace returns."""
    centroids, labels = _lloyd_iterate(chunk.values, centroids, labels, MAX_ITERATIONS - 1)
    counts = np.bincount(labels, minlength=len(centroids))
    kept = np.flatnonzero(counts)  # drop unrepairable empties, renumber the rest
    position = np.cumsum(counts > 0) - 1
    centroids = [tuple(c) for c in centroids[kept].tolist()]
    clusters = tuple(position[labels].tolist())
    radii, sse = [0.0] * len(kept), 0.0
    # the records as tuples, which math.dist takes without converting;
    # zipping the column lists builds them without a list per row
    rows = zip(*chunk.values.T.tolist())
    for c, d in zip(clusters, map(math.dist, [centroids[c] for c in clusters], rows)):
        sse += d * d
        if d > radii[c]:
            radii[c] = d
    counts = counts[kept].tolist()
    result = ClusteringResult(centroids, radii, counts, counts, 0)
    return result, (clusters, sse)


def summarize_trace(chunk: Chunk, k: int, seed: int,
                    shared: dict | None = None) -> tuple[ClusteringResult, tuple]:
    """Cluster a chunk into k groups and keep only the summaries; the records
    are dropped.

    Every record lands in exactly one group; Lloyd iterations stop when
    assignments are stable or after MAX_ITERATIONS. Deterministic for a fixed
    seed. Each cluster's lifetime and per-chunk counts start at its member
    count and its radius is the farthest member's distance from the centroid.
    Also returns the trace (clusters, sse): each record's cluster index and
    the squared distances to the centroids added in record order.

    The seed reaches a bootstrap only through its one random draw, the first
    center's index. shared, when given, is a dict the caller owns for this
    chunk only: the seeding and Lloyd's first iteration run once per distinct
    (chunk, k, first index) in it, and the rest, a pure function of the chunk,
    k and that iteration's labels and centroids, once per distinct such state,
    keyed on the arrays' bytes so 0.0 and -0.0 never share. Shared calls get
    the same (result, trace) objects. Without shared, a fresh dict takes its
    place, so every bootstrap is computed in full along the same path.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(chunk):
        raise ValueError(f"k={k} exceeds chunk size {len(chunk)}")
    first = _first_draw(len(chunk), seed)
    shared = {} if shared is None else shared
    seeded = "seeded", chunk, k, first
    if seeded not in shared:
        centroids, labels = _lloyd_first(chunk.values, k, first)
        key = "bootstrap", chunk, k, labels.tobytes(), centroids.tobytes()
        if key not in shared:
            shared[key] = _finish(chunk, centroids, labels)
        shared[seeded] = shared[key]
    return shared[seeded]
