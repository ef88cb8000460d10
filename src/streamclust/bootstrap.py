"""Batch clustering of a single chunk, condensed into cluster summaries.

Used to build the very first model and to retrain a fresh model whenever the
engine decides the current one is stale. Plain Lloyd k-means with greedy
farthest-point seeding: deterministic for a fixed seed, which the rest of the
system relies on for reproducible runs. summarize_trace is the one bootstrap
function: it returns the cluster summaries together with each record's
assignment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Assignment, Chunk, ClusteringResult, ClusterSummary


@dataclass(frozen=True)
class KMeansParams:
    k: int
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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


def _lloyd(matrix: np.ndarray, params: KMeansParams):
    """Run Lloyd iterations; returns (centroids, labels)."""
    centroids = _farthest_point_init(matrix, params.k, params.seed)
    labels = np.full(len(matrix), -1, dtype=int)
    for _ in range(params.max_iterations):
        dists = np.linalg.norm(matrix[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = dists.argmin(axis=1)
        new_labels = _repair_empty(matrix, centroids, new_labels, dists)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(params.k):
            members = matrix[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids, labels


def kmeans(chunk: Chunk, params: KMeansParams) -> list[tuple[tuple[float, ...], tuple[int, ...]]]:
    """Cluster one chunk into k groups.

    Returns k (centroid, member record indices) pairs. Every record lands in
    exactly one group; iteration stops when assignments are stable or after
    max_iterations. Deterministic for a fixed seed.
    """
    if params.k > len(chunk):
        raise ValueError(f"k={params.k} exceeds chunk size {len(chunk)}")
    centroids, labels = _lloyd(chunk.values, params)
    return [
        (tuple(centroids[c].tolist()), tuple(np.flatnonzero(labels == c).tolist()))
        for c in range(params.k)
    ]


def summarize_trace(chunk: Chunk, params: KMeansParams) -> tuple[ClusteringResult, tuple[Assignment, ...]]:
    """Cluster a chunk and keep only the summaries; the records are dropped.

    Each cluster's lifetime and per-chunk counts start at its member count and
    its radius is the farthest member's distance from the centroid. Also
    returns every record's (cluster, distance to its centroid) assignment.
    """
    pairs = kmeans(chunk, params)
    rows = chunk.rows()
    summaries = []
    assignments: list[Assignment] = [None] * len(chunk)
    for centroid, member_idx in pairs:
        if not member_idx:
            continue  # unrepairable empty cluster: drop it
        position = len(summaries)
        dists = [math.dist(centroid, rows[i]) for i in member_idx]
        for i, d in zip(member_idx, dists):
            assignments[i] = (position, d)
        count = len(member_idx)
        summaries.append(ClusterSummary(centroid, max(dists), count, count))
    result = ClusteringResult(tuple(summaries), 0, chunk.timestamp)
    return result, tuple(assignments)
