"""Clustering quality metrics and per-run reporting.

Entropy works on the cluster index of each record of a step, and the absorb
and bootstrap passes fold the step's SSE, so nothing here requires retained
records. A run is scored as it goes: step_metrics turns each step's chunk
and report into the step's row, a small dict, as soon as the step ends, and
build_report folds those rows and the final clustering into the run's entry
of the report's summary row, a dict of JSON values. Reference centroids for a
labeled stream are the per-class means its manifest holds, which
load_stream checks against the records; a run is scored by matching its
final centroids against them one-to-one, with the exact
minimum-total-distance assignment (Kuhn-Munkres) for any count on either
side; average_runs averages the runs' step rows and entries once.
Float sums are left_sum folds, the same bits on every Python. The engine's
StepReports are only read here, through their fields, so this module does
not import the engine.
"""

import json
import math
from collections import Counter, namedtuple
from typing import Iterable, Iterator, Sequence

from .core import Chunk, ClusteringResult, left_sum
from .jsondoc import json_field, parse_json


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


def true_cluster_values(manifest: dict) -> list[tuple[int, tuple[float, ...]]]:
    """The (class label, mean vector) pairs of a labeled stream's manifest,
    as read_manifest returns it, sorted by class label: the per-class means
    of its records, which write_stream stores and load_stream checks."""
    if not manifest["labeled"]:
        raise ValueError("true cluster values need a labeled stream")
    return list(zip(manifest["class_labels"], map(tuple, manifest["class_means"])))


# pairs: (cluster index, reference index, distance), sorted by cluster index
TcvMatch = namedtuple("TcvMatch", "pairs unmatched_clusters unmatched_references")


def _min_cost_assignment(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Kuhn-Munkres with row and column potentials, for n rows <= m columns.

    Returns the (row, column) pairs, in column order, of the one-to-one
    assignment of every row with the least total cost. Each row enters in
    turn along the shortest augmenting path under the reduced costs:
    O(n * n * m), and the same costs always give the same pairs. A row that
    can reach no free column at a finite cost, such as a distance that
    overflowed to inf, is refused: the search would spin.
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
            if delta == math.inf:
                raise ValueError("centroids to match lie too far apart: every way to match "
                                 "them has a distance past the float64 range")
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


def _score(chunk: Chunk, clusters) -> float:
    """The entropy of one step's absorbed records; see step_metrics."""
    if max(clusters, default=-1) < 0:  # every record an outlier
        return 0.0
    classes = chunk.artificial_classes
    if classes is None and chunk.labels is None:
        raise ValueError("entropy needs labeled assignments")
    # without artificial classes, the chunk's own labels are the one column
    columns = (chunk.labels[None] if classes is None else classes.T).tolist()
    return left_sum(entropy(zip(clusters, column)) for column in columns) / len(columns)


def step_metrics(chunk: Chunk, report, scored: dict | None = None) -> dict:
    """The row of one processed chunk, from the engine's StepReport for it:
    a dict of its timestamp, entropy, sse, cluster_count, outliers,
    duration_s and event.

    Entropy is on the chunk's artificial classes when it has them, the
    unweighted mean over their columns, and on its labels otherwise.
    Outliers count in neither metric; the SSE is the report's.

    scored, when given, is a dict the caller owns for this chunk only: the
    entropy is computed once per distinct clusters value in it. The
    timestamp is the chunk's; the other values are the report's.
    """
    scored = {} if scored is None else scored
    entropy_value = scored.get(report.clusters)
    if entropy_value is None:
        entropy_value = scored[report.clusters] = _score(chunk, report.clusters)
    return {
        "timestamp": chunk.timestamp,
        "entropy": entropy_value,
        "sse": report.sse,
        "cluster_count": len(report.cluster_deltas),
        "outliers": report.outliers,
        "duration_s": report.duration_s,
        "event": report.event,
    }


def build_report(
    steps: Sequence[dict], final: ClusteringResult, tcvs: Sequence[Sequence[float]]
) -> dict:
    """Fold one run's per-step rows, in step order, and its final clustering
    into the run's entry of the summary row.

    The means and the runtime are sums over the rows in order; the final
    centroids are matched against tcvs, the reference centroids.
    Only the rows are needed, so a caller can score each step as it ends and
    let its StepReport go.
    """
    if not steps:
        raise ValueError("a report needs at least one step")
    return {
        "cluster_counts": [s["cluster_count"] for s in steps],
        "events": [s["event"] for s in steps],
        "final_centroids": [list(c) for c in final.centroids],
        "tcv_distances": [d for _, _, d in tcv_distance(final.centroids, tcvs).pairs],
        "mean_entropy": left_sum(s["entropy"] for s in steps) / len(steps),
        "mean_sse": left_sum(s["sse"] for s in steps) / len(steps),
        "total_runtime_s": left_sum(s["duration_s"] for s in steps),
    }


def average_runs(
    rows: Sequence[Sequence[dict]], runs: Sequence[dict]
) -> tuple[Iterator[dict], dict]:
    """The rows of one or more runs' report, from each run's step rows and
    its build_report entry: each timestamp's step row averaged across runs,
    built one at a time as it is read, and the summary row, which carries
    the run entries as they are."""
    if not runs or len(rows) != len(runs):
        raise ValueError("need the step rows and the entry of at least one run")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("all runs must cover the same timestamps")
    steps = (
        {"type": "step", "timestamp": same[0]["timestamp"],
         **{key: left_sum(s[key] for s in same) / len(same)
            for key in ("entropy", "sse", "cluster_count", "outliers", "duration_s")}}
        for same in zip(*rows)
    )
    summary = {
        "type": "summary",
        **{key: left_sum(r[key] for r in runs) / len(runs)
           for key in ("mean_entropy", "mean_sse", "total_runtime_s")},
        "runs": list(runs),
    }
    return steps, summary


def reports_to_jsonl(meta: dict, steps: Iterable[dict], summary: dict) -> str:
    """Serialize a report: a meta line, then average_runs' step rows and
    summary, one JSON line each. A NaN or infinity, which JSON holds no
    token for, is refused."""
    encode = json.JSONEncoder(allow_nan=False).encode  # json.dumps's bytes otherwise
    lines = [encode({"type": "meta", **meta}), *map(encode, steps)]
    lines += [encode(summary), ""]  # a final newline, with no copy of the text to add it
    return "\n".join(lines)


def parse_jsonl(text: str) -> tuple[dict, list[dict], dict]:
    """Split a serialized report back into (meta, step rows, summary)."""
    meta, steps, summary = {}, [], {}
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
        else:
            raise ValueError(f"report line {n} has type {kind!r}, not meta, step or summary")
    if not summary:
        raise ValueError("report has no summary line")
    return meta, steps, summary
