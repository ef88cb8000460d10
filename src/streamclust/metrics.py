"""Clustering quality metrics and per-run reporting.

Entropy works on the cluster index of each record of a step, and the absorb
and bootstrap passes fold the step's SSE, so nothing here requires retained
records. A run is scored as it goes: step_metrics turns each step's report
into one small TimestepMetrics row as soon as the step ends, and build_report
folds those rows and the final clustering into the run's report. Reference
centroids for a labeled stream are the per-class means over all chunks
merged; a run is scored by matching its final centroids against them
one-to-one, with the exact minimum-total-distance assignment (Kuhn-Munkres)
for any count on either side; average_runs averages the runs once. Float
sums are left_sum folds, the same bits on every Python. The engine's
StepReports are only read here, through their fields, so this module does
not import the engine.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Chunk, ClusteringResult, left_sum
from .stream_io import json_field, parse_json


def entropy(assignments) -> float:
    """Size-weighted label entropy of a clustering, in bits; 0 is label-pure.

    assignments: iterable of (cluster index, class label) pairs. A pair with
    a negative cluster index, an outlier in a step's trace, counts nowhere.
    """
    # One count per pair, then grouped per cluster in first-appearance order,
    # so clusters and labels are summed in the order the pairs arrived.
    per_cluster: dict[int, list[int]] = {}
    for (cluster, label), count in Counter(assignments).items():
        if cluster < 0:
            continue
        if label is None:
            raise ValueError("entropy needs labeled assignments")
        per_cluster.setdefault(cluster, []).append(count)
    if not per_cluster:
        raise ValueError("entropy needs at least one assignment to a cluster")
    total = sum(map(sum, per_cluster.values()))
    value = 0.0
    for counts in per_cluster.values():
        size = sum(counts)
        cluster_entropy = -left_sum((c / size) * math.log2(c / size) for c in counts)
        value += (size / total) * cluster_entropy
    return value


def true_cluster_values(all_chunks: Sequence[Chunk]) -> list[tuple[int, tuple[float, ...]]]:
    """Per-class mean vectors over every chunk merged, sorted by class label."""
    chunks = list(all_chunks)
    if not chunks:
        return []
    if any(c.labels is None for c in chunks):
        raise ValueError("true cluster values need a labeled stream")
    matrix = np.concatenate([c.values for c in chunks])
    labels = np.concatenate([c.labels for c in chunks])
    # A row-major matrix reduces along axis 0 row by row, in record order.
    # (np.unique would import numpy.ma, about 1 MB of resident memory.)
    return [
        (label, tuple(matrix[labels == label].mean(axis=0).tolist()))
        for label in sorted(set(labels.tolist()))
    ]


@dataclass(frozen=True)
class TcvMatch:
    # (cluster index, reference index, distance), sorted by cluster index.
    pairs: tuple[tuple[int, int, float], ...]
    unmatched_clusters: tuple[int, ...]
    unmatched_references: tuple[int, ...]

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(d for _, _, d in self.pairs)


def _min_cost_assignment(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Kuhn-Munkres with row and column potentials, for n rows <= m columns.

    Returns the (row, column) pairs, in column order, of the one-to-one
    assignment of every row with the least total cost. Each row enters in
    turn along the shortest augmenting path under the reduced costs:
    O(n * n * m), and the same costs always give the same pairs. Costs must
    be finite: a row of NaN or inf never finds a column and the search spins.
    """
    n, m = len(cost), len(cost[0])
    u = [0.0] * (n + 1)  # row potentials; index 0 is unused
    v = [0.0] * (m + 1)  # column potentials; column 0 is the entering row's slot
    owner = [0] * (m + 1)  # row (1-based) holding each column, 0 when free
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = [math.inf] * (m + 1)
        back = [0] * (m + 1)
        seen = [False] * (m + 1)
        while owner[col]:
            seen[col] = True
            i = owner[col]
            costs = cost[i - 1]
            delta, nxt = math.inf, 0
            for j in range(1, m + 1):
                if not seen[j]:
                    reduced = costs[j - 1] - u[i] - v[j]
                    if reduced < slack[j]:
                        slack[j], back[j] = reduced, col
                    if slack[j] < delta:
                        delta, nxt = slack[j], j
            for j in range(m + 1):
                if seen[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nxt
        while col:  # flip the augmenting path back to the entering row
            prev = back[col]
            owner[col] = owner[prev]
            col = prev
    return [(owner[j] - 1, j - 1) for j in range(1, m + 1) if owner[j]]


def tcv_distance(
    centroids: Sequence[Sequence[float]], tcvs: Sequence[Sequence[float]]
) -> TcvMatch:
    """Match centroids to reference centroids, minimizing total distance.

    One-to-one over min(len(centroids), len(tcvs)) pairs, solved exactly for
    any count. Leftovers on either side are reported as unmatched. Every
    coordinate must be finite.
    """
    found = [tuple(float(v) for v in c) for c in centroids]
    refs = [tuple(float(v) for v in t) for t in tcvs]
    if not found:
        raise ValueError("need at least one centroid to match")
    if not refs:
        raise ValueError("need at least one reference centroid")
    if not all(map(math.isfinite, (v for c in found + refs for v in c))):
        raise ValueError("centroids to match must have finite coordinates")
    dist = [[math.dist(c, r) for r in refs] for c in found]
    n, m = len(found), len(refs)
    if n <= m:
        pairs = sorted((i, j, dist[i][j]) for i, j in _min_cost_assignment(dist))
    else:  # more clusters than references: each reference gets one cluster
        transposed = [list(column) for column in zip(*dist)]
        pairs = [(i, j, dist[i][j]) for j, i in _min_cost_assignment(transposed)]
    matched_c = {i for i, _, _ in pairs}
    matched_r = {j for _, j, _ in pairs}
    return TcvMatch(
        tuple(pairs),
        tuple(i for i in range(n) if i not in matched_c),
        tuple(j for j in range(m) if j not in matched_r),
    )


@dataclass(frozen=True)
class TimestepMetrics:
    timestamp: int
    entropy: float
    sse: float
    cluster_count: int
    outliers: int
    duration_s: float
    event: str


@dataclass(frozen=True)
class MetricsReport:
    """Per-timestamp metrics plus stream-level aggregates for one run."""

    steps: tuple[TimestepMetrics, ...]
    mean_entropy: float
    mean_sse: float
    total_runtime_s: float
    final_centroids: tuple[tuple[float, ...], ...]
    events: tuple[str, ...]
    tcv: TcvMatch | None = None

    @property
    def cluster_counts(self) -> tuple[int, ...]:
        return tuple(s.cluster_count for s in self.steps)


def _score(chunk: Chunk, clusters, label_sets) -> float:
    """The entropy of one step's absorbed records; see step_metrics."""
    if max(clusters, default=-1) < 0:  # every record an outlier
        return 0.0
    if label_sets is None and chunk.labels is None:
        raise ValueError("entropy needs labeled assignments")
    # without label_sets, the chunk's own labels are the one column
    columns = ([chunk.labels.tolist()] if label_sets is None
               else np.asarray(label_sets).T.tolist())
    return left_sum(entropy(zip(clusters, column)) for column in columns) / len(columns)


def step_metrics(
    chunk: Chunk,
    report,
    label_sets: Sequence[tuple[int, ...]] | None = None,
    scored: dict | None = None,
) -> TimestepMetrics:
    """Metrics for one processed chunk, from the engine's StepReport for it.

    Labels default to the chunk's own; when label_sets gives a matrix of
    per-record artificial class rows, entropy is the unweighted mean over its
    columns. Outliers count in neither metric; the SSE is the report's.

    scored, when given, is a dict the caller owns for this chunk and these
    label_sets only: the entropy is computed once per distinct clusters
    value in it. The other fields are always taken from the report.
    """
    scored = {} if scored is None else scored
    entropy_value = scored.get(report.clusters)
    if entropy_value is None:
        entropy_value = scored[report.clusters] = _score(chunk, report.clusters, label_sets)
    return TimestepMetrics(
        timestamp=report.timestamp,
        entropy=entropy_value,
        sse=report.sse,
        cluster_count=report.cluster_count,
        outliers=report.outliers,
        duration_s=report.duration_s,
        event=report.event,
    )


def build_report(
    steps: Sequence[TimestepMetrics],
    final: ClusteringResult,
    tcvs: Sequence[Sequence[float]] | None = None,
) -> MetricsReport:
    """Fold one run's per-step rows, in step order, and its final clustering
    into the run's report.

    The means and the runtime are sums over the rows in order; the final
    centroids are matched against tcvs, the reference centroids, when given.
    Only the rows are needed, so a caller can score each step as it ends and
    let its StepReport go.
    """
    steps = tuple(steps)
    if not steps:
        raise ValueError("a report needs at least one step")
    return MetricsReport(
        steps=steps,
        mean_entropy=left_sum(s.entropy for s in steps) / len(steps),
        mean_sse=left_sum(s.sse for s in steps) / len(steps),
        total_runtime_s=left_sum(s.duration_s for s in steps),
        final_centroids=final.centroids,
        events=tuple(s.event for s in steps),
        tcv=tcv_distance(final.centroids, tcvs) if tcvs else None,
    )


def average_runs(runs: Sequence[MetricsReport]) -> tuple[Iterator[dict], dict]:
    """The rows of one or more runs' report: each timestamp's step row
    averaged across runs, built one at a time as it is read, and the summary
    row, which carries the per-run payloads."""
    if not runs:
        raise ValueError("need at least one run")
    if len({len(r.steps) for r in runs}) != 1:
        raise ValueError("all runs must cover the same timestamps")

    def steps():
        for rows in zip(*(r.steps for r in runs)):
            yield {
                "type": "step",
                "timestamp": rows[0].timestamp,
                "entropy": left_sum(s.entropy for s in rows) / len(rows),
                "sse": left_sum(s.sse for s in rows) / len(rows),
                "cluster_count": sum(s.cluster_count for s in rows) / len(rows),
                "outliers": sum(s.outliers for s in rows) / len(rows),
                "duration_s": left_sum(s.duration_s for s in rows) / len(rows),
            }

    summary = {
        "type": "summary",
        "mean_entropy": left_sum(r.mean_entropy for r in runs) / len(runs),
        "mean_sse": left_sum(r.mean_sse for r in runs) / len(runs),
        "total_runtime_s": left_sum(r.total_runtime_s for r in runs) / len(runs),
        "runs": [
            {
                "cluster_counts": list(r.cluster_counts),
                "events": list(r.events),
                "final_centroids": [list(c) for c in r.final_centroids],
                "tcv_distances": list(r.tcv.distances) if r.tcv else None,
                "mean_entropy": r.mean_entropy,
                "mean_sse": r.mean_sse,
                "total_runtime_s": r.total_runtime_s,
            }
            for r in runs
        ],
    }
    return steps(), summary


def reports_to_jsonl(meta: dict, steps: Iterable[dict], summary: dict) -> str:
    """Serialize a report: a meta line, then average_runs' step rows and
    summary, one JSON line each."""
    lines = [json.dumps({"type": "meta", **meta}), *map(json.dumps, steps)]
    lines += [json.dumps(summary), ""]  # a final newline, with no copy of the text to add it
    return "\n".join(lines)


def parse_jsonl(text: str) -> tuple[dict, list[dict], dict]:
    """Split a serialized report back into (meta, step rows, summary)."""
    meta: dict = {}
    steps: list[dict] = []
    summary: dict = {}
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        doc = parse_json(line, "report", n)
        kind = json_field(f"report line {n}", doc, "type", str)
        if kind == "meta":
            meta = doc
        elif kind == "step":
            steps.append(doc)
        elif kind == "summary":
            summary = doc
    if not summary:
        raise ValueError("report has no summary line")
    return meta, steps, summary
