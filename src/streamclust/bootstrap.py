"""Batch clustering of a single chunk, condensed into cluster summaries.

Used to build the very first model and to retrain a fresh model whenever the
engine decides the current one is stale. Plain Lloyd k-means with greedy
farthest-point seeding: deterministic for a fixed seed, which the rest of the
system relies on for reproducible runs. summarize_trace is the one bootstrap
function: it returns the cluster summaries together with each record's
assignment.
"""

import math

import numpy as np

from .core import Assignment, Chunk, ClusteringResult

# Lloyd iterations stop here even if assignments still change.
MAX_ITERATIONS = 100


def _farthest_point_init(matrix: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Greedy seeding: random first center, then repeatedly the record farthest
    from every center chosen so far. Ties break toward the lowest index."""
    rng = np.random.default_rng(seed & 0xFFFFFFFF)
    chosen = [int(rng.integers(len(matrix)))]
    min_dist = np.linalg.norm(matrix - matrix[chosen[0]], axis=1)
    min_dist[chosen[0]] = -1.0  # never re-pick a chosen record
    while len(chosen) < k:
        nxt = int(min_dist.argmax())
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(matrix - matrix[nxt], axis=1))
        min_dist[nxt] = -1.0
    return matrix[chosen].copy()


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


def _lloyd(matrix: np.ndarray, k: int, seed: int):
    """Run Lloyd iterations; returns (centroids, labels)."""
    centroids = _farthest_point_init(matrix, k, seed)
    labels = np.full(len(matrix), -1, dtype=int)
    for _ in range(MAX_ITERATIONS):
        dists = np.linalg.norm(matrix[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = dists.argmin(axis=1)
        new_labels = _repair_empty(matrix, centroids, new_labels, dists)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(k):
            members = matrix[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids, labels


def kmeans(chunk: Chunk, k: int, seed: int) -> list[tuple[tuple[float, ...], tuple[int, ...]]]:
    """Cluster one chunk into k groups.

    Returns k (centroid, member record indices) pairs. Every record lands in
    exactly one group; iteration stops when assignments are stable or after
    MAX_ITERATIONS. Deterministic for a fixed seed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(chunk):
        raise ValueError(f"k={k} exceeds chunk size {len(chunk)}")
    centroids, labels = _lloyd(chunk.values, k, seed)
    return [
        (tuple(centroids[c].tolist()), tuple(np.flatnonzero(labels == c).tolist()))
        for c in range(k)
    ]


def summarize_trace(chunk: Chunk, k: int, seed: int) -> tuple[ClusteringResult, tuple[Assignment, ...]]:
    """Cluster a chunk and keep only the summaries; the records are dropped.

    Each cluster's lifetime and per-chunk counts start at its member count and
    its radius is the farthest member's distance from the centroid. Also
    returns every record's (cluster, distance to its centroid) assignment.
    """
    pairs = [pair for pair in kmeans(chunk, k, seed) if pair[1]]  # drop unrepairable empties
    rows = chunk.rows()
    radii = []
    assignments: list[Assignment] = [None] * len(chunk)
    for position, (centroid, member_idx) in enumerate(pairs):
        dists = [math.dist(centroid, rows[i]) for i in member_idx]
        for i, d in zip(member_idx, dists):
            assignments[i] = (position, d)
        radii.append(max(dists))
    counts = [len(member_idx) for _, member_idx in pairs]
    result = ClusteringResult([c for c, _ in pairs], radii, counts, counts, 0, chunk.timestamp)
    return result, tuple(assignments)
