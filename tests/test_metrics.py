import math
import sys
from collections import Counter
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from streamclust import (
    Chunk,
    DriftConfig,
    build_report,
    engine,
    entropy,
    generate_synthetic,
    load_stream,
    metrics,
    sdccl_spec,
    sdwcd_spec,
    step_metrics,
    tcv_distance,
    true_cluster_values,
    write_stream,
)
from streamclust.core import BOUND, left_sum
from streamclust.metrics import average_runs, parse_jsonl, reports_to_jsonl
from streamclust.streams import BASE_ANCHORS
from conftest import labels_k, match_distances, merged_class_means, run_all, run_python


def test_entropy_pure_clusters():
    assignments = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3)]
    assert entropy(assignments) == 0.0


def test_entropy_uniform_binary():
    assert entropy([(0, 1), (0, 2)]) == pytest.approx(1.0)


def test_entropy_weighted_mixture():
    # cluster 0: labels {a:3, b:1}; cluster 1: {b:4} -> 0.5 * H(3/4,1/4)
    assignments = [(0, "a")] * 3 + [(0, "b")] + [(1, "b")] * 4
    assert entropy(assignments) == pytest.approx(0.4056390622295664, abs=1e-12)


def test_entropy_invariant_under_relabeling():
    rng = np.random.default_rng(8)
    assignments = [(int(c), int(l)) for c, l in rng.integers(0, 4, size=(200, 2))]
    base = entropy(assignments)
    relabel = {0: 13, 1: 7, 2: 99, 3: -2}
    recluster = {0: 3, 1: 2, 2: 1, 3: 0}
    assert entropy([(c, relabel[l]) for c, l in assignments]) == pytest.approx(base)
    assert entropy([(recluster[c], l) for c, l in assignments]) == pytest.approx(base)


def test_entropy_validation():
    with pytest.raises(ValueError):
        entropy([])
    with pytest.raises(ValueError):
        entropy([(0, None)])


def test_entropy_counts_negative_clusters_nowhere():
    pairs = [(0, 1), (0, 2), (1, 2), (0, 1), (2, 3), (1, 2)]
    # an outlier's label is never read, not even a missing one
    outliers = [(-1, 3), (-1, None), (-2, 1)]
    mixed = outliers[:1] + pairs[:3] + outliers[1:] + pairs[3:]
    assert repr(entropy(mixed)) == repr(entropy(pairs))
    assert entropy([(-1, 1), (0, 2), (-1, 2)]) == 0.0


def test_entropy_of_outliers_only_is_an_error():
    for outliers in ([(-1, 1)], [(-1, 1), (-1, 2), (-3, 1)], [(-1, None)]):
        with pytest.raises(ValueError, match="at least one assignment"):
            entropy(outliers)
    with pytest.raises(ValueError, match="labeled"):
        entropy([(-1, 1), (0, None)])


def _entropy_of_pairs(assignments):
    """entropy as it was before it skipped outliers: every pair counts."""
    pairs = Counter(assignments)
    per_cluster = {}
    for (cluster, label), count in pairs.items():
        if label is None:
            raise ValueError("entropy needs labeled assignments")
        per_cluster.setdefault(cluster, []).append(count)
    if not per_cluster:
        raise ValueError("entropy needs at least one assignment")
    total = pairs.total()
    value = 0.0
    for counts in per_cluster.values():
        size = sum(counts)
        cluster_entropy = -left_sum((c / size) * math.log2(c / size) for c in counts)
        value += (size / total) * cluster_entropy
    return value


def _two_pass_score(chunk, clusters):
    """A step's entropy as it was scored before the one-pass score: the
    absorbed records picked out of the trace and of each label column, the
    chunk's artificial classes or else its labels."""
    hits = [c >= 0 for c in clusters]
    absorbed = list(compress(clusters, hits))
    if not absorbed:
        return 0.0
    label_sets = chunk.artificial_classes
    if label_sets is None and chunk.labels is None:
        raise ValueError("entropy needs labeled assignments")
    columns = ([chunk.labels.tolist()] if label_sets is None
               else np.asarray(label_sets).T.tolist())
    return left_sum(
        _entropy_of_pairs(zip(absorbed, compress(column, hits))) for column in columns
    ) / len(columns)


@st.composite
def _scored_steps(draw):
    """A chunk, a trace over it with -1 outliers (every record one, at times)
    and 1-3 label columns: artificial classes, or the chunk's own labels."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 5))
    if draw(st.integers(0, 5)) == 0:
        clusters = (-1,) * n
    else:
        clusters = tuple(draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n)))
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * width), min_size=n, max_size=n))
    label_sets = rows if width > 1 or draw(st.booleans()) else None
    return Chunk(1, np.zeros((n, 2)), [row[0] for row in rows], label_sets), clusters


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_scored_steps())
@example((Chunk(1, np.zeros((3, 2)), [1, 2, 1]), (-1, -1, -1)))
@example((Chunk(1, np.zeros((3, 2)), [1, 2, 1], [(1, 0), (2, 0), (1, 1)]), (-1, -1, -1)))
@example((Chunk(1, np.zeros((4, 2)), [1, 2, 1, 2], [(1, 0, 3)] * 4), (0, -1, 1, 0)))
def test_one_pass_score_equals_two_pass_score(step):
    chunk, clusters = step
    assert repr(metrics._score(chunk, clusters)) == repr(_two_pass_score(chunk, clusters))


def _bootstrap_sse(rows, k):
    """The SSE of one bootstrap step, as its report and its metrics row hold it."""
    chunk = Chunk(1, rows, [1] * len(rows))
    _, report = engine.bootstrap(chunk, DriftConfig(k=k))
    assert step_metrics(chunk, report)["sse"] == report.sse
    return report.sse


def test_sse_zero_for_coincident_records():
    # each cluster's records sit on its centroid
    assert _bootstrap_sse([(0.3, 0.3), (0.3, 0.3), (0.6, 0.6)], 2) == 0.0


def test_sse_squares_distances():
    # one cluster at (0.5, 0): each record is 0.5 from it
    assert _bootstrap_sse([(0.0, 0.0), (1.0, 0.0)], 1) == pytest.approx(0.5)


def test_sse_online_equals_offline_replay():
    rng = np.random.default_rng(19)
    base = Chunk(1, rng.uniform(0, 1, (20, 2)))
    # thresholds no chunk can exceed: the step absorbs into the main model (the
    # bootstrap leaves no cluster empty, so no relative change is infinite)
    config = DriftConfig(k=2, o_thresh=1.0, d_thresh=sys.float_info.max)
    state, _ = engine.bootstrap(base, config)
    prev = state.main
    chunk = Chunk(2, rng.uniform(0, 1, (40, 2)), [1] * 40)
    _, report = engine.step(state, chunk)
    assert report.event == "none"
    online = step_metrics(chunk, report)["sse"]
    assert online == report.sse

    # oracle: replay the pass with retained records and an evolving centroid
    centroids = [list(c) for c in prev.centroids]
    lifetimes = list(prev.lifetime_counts)
    radii = list(prev.radii)
    offline = 0.0
    for values in chunk.values.tolist():
        dists = [math.dist(values, c) for c in centroids]
        best = dists.index(min(dists))
        if dists[best] <= radii[best]:
            offline += dists[best] ** 2
            lifetimes[best] += 1
            w = 1.0 / lifetimes[best]
            centroids[best] = [
                (1 - w) * c + w * v for c, v in zip(centroids[best], values)
            ]
    assert online == pytest.approx(offline, abs=1e-9)


def _stored_means(directory, chunks):
    """true_cluster_values of the stream of chunks, written and loaded back:
    the means its manifest holds, which load_stream checked."""
    return true_cluster_values(load_stream(write_stream(directory, chunks, seed=0)).manifest)


def test_true_cluster_values_single_class(tmp_path):
    chunks = [Chunk(1, [(0.2, 0.4), (0.4, 0.6)], [1, 1])]
    assert _stored_means(tmp_path, chunks) == [(1, (0.30000000000000004, 0.5))]


def test_true_cluster_values_symmetric_midpoint(tmp_path):
    chunks = [
        Chunk(1, [(0.0, 0.0), (0.5, 0.5)], [1, 2]),
        Chunk(2, [(1.0, 1.0), (0.7, 0.3)], [1, 2]),
    ]
    tcvs = dict(_stored_means(tmp_path, chunks))
    assert tcvs[1] == pytest.approx((0.5, 0.5))
    assert tcvs[2] == pytest.approx((0.6, 0.4))


def test_true_cluster_values_requires_labels(tmp_path):
    manifest = load_stream(write_stream(tmp_path, [Chunk(1, [(0.1,)])], seed=0)).manifest
    with pytest.raises(ValueError):
        true_cluster_values(manifest)


def test_true_cluster_values_match_sequential_running_sums(tmp_path):
    # oracle: the per-record accumulation in record order; the vectorized
    # per-class mean must agree to the last bit, in 2 and in 16 dimensions
    rng = np.random.default_rng(61)
    for dims in (2, 16):
        chunks = []
        for t in range(1, 30):
            size = int(rng.integers(1, 40))
            chunks.append(Chunk(t, rng.normal(0.5, 0.2, size=(size, dims)),
                                rng.integers(-2, 5, size=size)))
        sums, counts = {}, {}
        for chunk in chunks:
            for values, label in zip(chunk.values, chunk.labels.tolist()):
                if label not in sums:
                    sums[label] = np.zeros(dims)
                    counts[label] = 0
                sums[label] += values
                counts[label] += 1
        expected = [(label, tuple(sums[label] / counts[label])) for label in sorted(sums)]
        assert _stored_means(tmp_path / str(dims), chunks) == expected


def test_sdccl_class_means_sit_on_the_anchors():
    chunks = generate_synthetic(sdccl_spec(seed=7))
    tcvs = dict(merged_class_means(chunks))
    assert set(tcvs) == {0, 1, 2, 3, 4, 5}
    # each class mean pools 180 draws at sigma 0.02 (the +/- relocation
    # offsets cancel), so deviations sit within ~5 standard errors: 0.0075
    for label, anchor in zip(range(1, 6), BASE_ANCHORS):
        assert math.dist(tcvs[label], anchor) < 0.0075


def test_tcv_distance_exact_match():
    refs = [(0.1, 0.1), (0.9, 0.9), (0.5, 0.5)]
    match = tcv_distance(refs, refs)
    assert match_distances(match) == (0.0, 0.0, 0.0)
    assert match.unmatched_clusters == () and match.unmatched_references == ()


def test_tcv_distance_single_offset():
    match = tcv_distance([(0.53, 0.54)], [(0.5, 0.5)])
    assert match_distances(match)[0] == pytest.approx(0.05)


def test_tcv_distance_matches_hungarian_oracle():
    # every shape up to 12 x 12 on both sides of the diagonal
    rng = np.random.default_rng(33)
    cases = [
        (rng.uniform(0, 1, size=(n, 2)).tolist(), rng.uniform(0, 1, size=(m, 2)).tolist())
        for n in range(1, 13)
        for m in range(1, 13)
        for _ in range(3)
    ]
    for centroids, refs in cases:
        match = tcv_distance(centroids, refs)
        cost = np.array([[math.dist(c, r) for r in refs] for c in centroids])
        rows, cols = linear_sum_assignment(cost)
        assert sum(match_distances(match)) == pytest.approx(cost[rows, cols].sum(), abs=1e-12)
        # random points have one optimum, so the pairs themselves must agree
        assert [(i, j) for i, j, _ in match.pairs] == sorted(zip(rows.tolist(), cols.tolist()))
        for i, j, d in match.pairs:
            assert d == cost[i, j]
        matched = {i for i, _, _ in match.pairs} | set(match.unmatched_clusters)
        assert matched == set(range(len(centroids)))
        matched = {j for _, j, _ in match.pairs} | set(match.unmatched_references)
        assert matched == set(range(len(refs)))


def test_tcv_distance_greedy_path_for_many_clusters():
    # 12 centroids on 12 references pair i to i at distance 0
    rng = np.random.default_rng(3)
    pts = [tuple(c) for c in rng.uniform(0, 1, size=(12, 2))]
    match = tcv_distance(pts, pts)
    assert match_distances(match) == (0.0,) * 12
    assert [(i, j) for i, j, _ in match.pairs] == [(i, i) for i in range(12)]


def test_tcv_distance_partial_when_counts_differ():
    centroids = [(0.1, 0.1), (0.9, 0.9)]
    refs = [(0.1, 0.1), (0.9, 0.9), (0.5, 0.5)]
    match = tcv_distance(centroids, refs)
    assert len(match.pairs) == 2
    assert match.unmatched_references == (2,)
    match = tcv_distance(refs, refs[:2])
    assert len(match.pairs) == 2
    assert match.unmatched_clusters == (2,)


def test_tcv_distance_exact_tie_is_deterministic():
    # two identical centroids tie for either reference
    centroids = [(0.5, 0.5), (0.5, 0.5)]
    refs = [(0.4, 0.5), (0.6, 0.5), (0.5, 0.9)]
    first = tcv_distance(centroids, refs)
    assert sum(match_distances(first)) == pytest.approx(0.2, abs=1e-12)
    assert first.unmatched_references == (2,)
    for _ in range(5):
        assert tcv_distance(centroids, refs) == first
        assert match_distances(tcv_distance(refs, centroids)) == match_distances(first)


def test_tcv_distance_needs_both_sides():
    with pytest.raises(ValueError, match="centroid to match"):
        tcv_distance([], [(0.5, 0.5)])
    with pytest.raises(ValueError, match="reference"):
        tcv_distance([(0.5, 0.5)], [])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            tcv_distance([(0.5, bad), (0.1, 0.1)], [(0.5, 0.5)])
        with pytest.raises(ValueError, match="finite"):
            tcv_distance([(0.5, 0.5)], [(bad, 0.5)])


def test_tcv_distance_refuses_distances_past_float64():
    # finite coordinates past the domain, whose every distance overflows to
    # inf: refused before matching, where the assignment once spun forever
    code = ("from streamclust import tcv_distance\n"
            "try:\n"
            "    tcv_distance([(1.5e308, 1.5e308)], [(0.5, 0.5), (0.2, 0.1)])\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "centroids to match must have finite coordinates, within ±2e+100\n"


def test_tcv_distance_matches_centroids_at_the_domain_edge():
    # centroids as far apart as the domain allows, 2 * BOUND on each side:
    # every distance is finite, and each point has its twin at 0
    edge = 2 * BOUND
    points = [(edge, edge), (-edge, -edge)]
    match = tcv_distance(points, points)
    assert match_distances(match) == (0.0, 0.0)
    assert [(i, j) for i, j, _ in match.pairs] == [(0, 0), (1, 1)]
    far = tcv_distance([(edge, -edge)], [(-edge, edge), (0.5, 0.5)])
    assert far.pairs == ((0, 1, math.dist((edge, -edge), (0.5, 0.5))),)
    assert math.isfinite(far.pairs[0][2]) and far.unmatched_references == (0,)


def test_build_report_and_jsonl_round_trip():
    chunks = generate_synthetic(sdccl_spec(seed=7))
    cfg = DriftConfig(k=5, seed=7)
    state, reports = run_all(chunks, cfg, labels_k)
    tcvs = [c for _, c in merged_class_means(chunks)]
    rows = [step_metrics(chunk, rep) for chunk, rep in zip(chunks, reports)]
    report = build_report(rows, state.main, tcvs=tcvs)

    assert len(report["cluster_counts"]) == 7
    assert report["cluster_counts"] == [5, 5, 5, 5, 1, 5, 5]
    assert report["events"] == [rep.event for rep in reports]
    assert report["events"][0] == "bootstrap"
    assert report["events"].count("activated") == 1
    assert report["mean_sse"] >= 0.0
    assert report["total_runtime_s"] > 0.0
    assert all(s["duration_s"] > 0.0 for s in rows)
    assert report["tcv_distances"] is not None and len(report["tcv_distances"]) == 5

    text = reports_to_jsonl({"note": "unit"}, *average_runs([rows], [report]))
    meta, steps, summary = parse_jsonl(text)
    assert meta["note"] == "unit"
    assert len(steps) == 7
    assert steps[0]["timestamp"] == 1
    assert not any("event" in row for row in steps)  # events live in the summary
    assert summary["runs"][0]["cluster_counts"] == [5, 5, 5, 5, 1, 5, 5]
    assert summary["runs"][0]["tcv_distances"] == report["tcv_distances"]


def test_step_whose_active_model_absorbs_no_record_scores_zero():
    # `run sdwcd --seed 7 --o-thresh 1 --d-thresh 1`: no outlier ratio
    # exceeds 1, so the main model stays active on chunks that fall wholly
    # outside its radii: the collapse at t=3, and every chunk after the
    # parallel model is dropped at t=5
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    cfg = DriftConfig(k=None, o_thresh=1.0, d_thresh=1.0, seed=7)
    _, reports = run_all(chunks, cfg, labels_k)
    empty = []
    for chunk, report in zip(chunks, reports):
        assert report.outliers + sum(report.cluster_deltas) == len(chunk)
        row = step_metrics(chunk, report)
        if report.outliers == len(chunk):
            empty.append(chunk.timestamp)
            assert (row["entropy"], row["sse"], row["outliers"]) == (0.0, 0.0, 150)
    assert empty == [3, 6, 7, 8, 9, 10]


def test_step_metrics_averages_artificial_label_sets():
    chunks = generate_synthetic(sdccl_spec(seed=7))[:1]
    cfg = DriftConfig(k=5, seed=7)
    state, reports = run_all(chunks, cfg, labels_k)
    # two artificial label columns: one equal to the true labels (entropy 0),
    # one constant (entropy of a single shared label is also 0 per cluster)
    sets = np.column_stack([chunks[0].labels, np.ones(len(chunks[0]), dtype=int)])
    row = step_metrics(Chunk(1, chunks[0].values, chunks[0].labels, sets), reports[0])
    assert row["entropy"] == pytest.approx(0.0)
    assert row["cluster_count"] == 5
