"""End-to-end acceptance suite.

Each test pins one shipping criterion at its stated tolerance and prints a
one-line verdict; run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they pass.
"""

import math
import time

import numpy as np
from streamclust import (
    Chunk,
    ClusteringResult,
    DriftConfig,
    detect,
    dist_clust_trace,
    engine,
    generate_synthetic,
    make_artificial_classes,
    ncd100_spec,
    sdccl_spec,
    sdwcd_spec,
    summarize_trace,
    tcv_distance,
    wcd1000_spec,
)
from streamclust import chunk_dataset
from streamclust.cli import main
from streamclust.metrics import parse_jsonl
from conftest import (
    BINNING_ROWS,
    EXPECTED_BINS,
    TOY_LABELS,
    TOY_ROWS,
    TOY_VALUES,
    chunk_rows,
    match_distances,
    merged_class_means,
    run_all,
)


def _ok(number, message):
    print(f"[criterion {number:02d}] PASS {message}")


def test_criterion_01_running_mean_oracle():
    rng = np.random.default_rng(4242)
    cases = 0
    while cases < 500:
        dims = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        anchors = rng.uniform(0, 1, size=(k, dims)) * 10  # spread out
        base_pts = np.vstack(
            [a + rng.normal(0, 0.05, size=(int(rng.integers(4, 10)), dims)) for a in anchors]
        )
        base = Chunk(1, base_pts)
        prev, (base_clusters, _) = summarize_trace(base, k, cases)

        buckets = [[] for _ in prev.centroids]
        for values, idx in zip(chunk_rows(base), base_clusters):
            buckets[idx].append(values)

        pick = rng.integers(0, len(base_pts), size=int(rng.integers(5, 30)))
        absorb_pts = base_pts[pick] + rng.normal(0, 0.02, size=(len(pick), dims))
        chunk = Chunk(2, absorb_pts)
        result, (clusters, _) = dist_clust_trace(chunk, prev)
        for values, idx in zip(chunk_rows(chunk), clusters):
            if idx >= 0:
                buckets[idx].append(values)

        for idx, centroid in enumerate(result.centroids):
            expected = np.array(buckets[idx]).mean(axis=0)
            for got, want in zip(centroid, expected):
                assert abs(got - want) <= 1e-9
        cases += 1
    _ok(1, "500 random absorb sequences: centroids equal batch means within 1e-9")


def test_criterion_02_conservation_exhaustive():
    checked = 0
    for spec in (sdwcd_spec(seed=7), sdccl_spec(seed=7), ncd100_spec(seed=7)):
        chunks = generate_synthetic(spec)
        _, reports = run_all(chunks, DriftConfig(k=None, seed=7))
        for chunk, report in zip(chunks, reports):
            assert report.outliers + sum(report.cluster_deltas) == len(chunk)
            checked += 1
    _ok(2, f"outliers + sum(deltas) == chunk size over {checked} steps of 3 streams")


def test_criterion_03_sdwcd_counts_and_entropy_over_20_runs(tmp_path, capsys):
    out = tmp_path / "sdwcd"
    assert main(["gen", "sdwcd", "--seed", "7", "--out", str(out)]) == 0
    run_out = tmp_path / "run"
    started = time.perf_counter()
    assert main(
        ["run", str(out / "manifest.json"), "--seed", "7", "--repeat", "20",
         "--out", str(run_out)]
    ) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    _, steps, summary = parse_jsonl((run_out / "metrics.jsonl").read_text())
    expected = [5, 5, 1, 5, 5, 3, 3, 3, 3, 3]
    assert len(summary["runs"]) == 20
    for run in summary["runs"]:
        assert run["cluster_counts"] == expected
    for row in steps:
        assert row["entropy"] == 0.0
    assert elapsed < 5.0
    _ok(3, f"20 seeded runs: counts {expected}, entropy 0 at every t, {elapsed:.2f}s < 5s")


def test_criterion_04_sdccl_tcv_and_single_activation():
    started = time.perf_counter()
    chunks = generate_synthetic(sdccl_spec(seed=7))
    state, reports = run_all(chunks, DriftConfig(k=None, seed=7))
    elapsed = time.perf_counter() - started

    events = [r.event for r in reports]
    assert events.count("activated") == 1
    assert events.count("stabilized") == 1
    assert events.count("swapped") == 0
    assert reports[4].event == "activated"  # the collapsed chunk at t=5

    tcvs = merged_class_means(chunks)
    match = tcv_distance(list(state.main.centroids), [c for _, c in tcvs])
    assert len(match.pairs) == 5
    assert all(d <= 0.005 for d in match_distances(match))
    assert elapsed < 2.0
    worst = max(match_distances(match))
    _ok(4, f"one activation, one stabilization, no swap; max TCV distance {worst:.4f} <= 0.005")


def test_criterion_05_drift_timelines_on_sdwcd():
    for seed in range(7, 27):
        chunks = generate_synthetic(sdwcd_spec(seed=seed))
        _, reports = run_all(chunks, DriftConfig(k=None, seed=seed))
        events = {c.timestamp: r.event for c, r in zip(chunks, reports)}
        # temporary drift: activation at t=3, stabilization follows, no swap
        assert events[3] == "activated"
        stabilized = [t for t, e in events.items() if e == "stabilized"]
        assert stabilized and min(stabilized) < 6
        # sustained drift: activation at t=6, swap exactly three chunks later
        assert events[6] == "activated"
        swapped = [t for t, e in events.items() if e == "swapped"]
        assert swapped == [9]
        assert swapped[0] - 6 == 3
    _ok(5, "activation t=3 then stabilization; activation t=6 then swap at t=9 (20 seeds)")


def test_criterion_06_thousand_chunk_scale():
    chunks = generate_synthetic(wcd1000_spec(seed=7))
    started = time.perf_counter()
    state, reports = run_all(chunks, DriftConfig(k=None, seed=7))
    elapsed = time.perf_counter() - started
    assert len(reports) == 1000
    assert elapsed < 10.0
    assert len(state.main.centroids) == 5  # final block runs 5 clusters
    _ok(6, f"1000-chunk stream end-to-end in {elapsed:.2f}s < 10s")


def test_criterion_07_golden_toy_tables():
    chunks = chunk_dataset(TOY_VALUES, TOY_LABELS, 2)
    assert chunk_rows(chunks[0]) == [TOY_ROWS[i][0] for i in (0, 1, 4, 5)]
    assert chunk_rows(chunks[1]) == [TOY_ROWS[i][0] for i in (2, 3, 6, 7)]
    binned = make_artificial_classes(BINNING_ROWS, 3)
    assert binned.tolist() == [list(row) for row in EXPECTED_BINS]
    _ok(7, "class-interleaved toy split and every artificial-class cell reproduced")


def _drift_result(deltas, outliers=0):
    k = len(deltas)
    lifetimes = [max(d, 1) + 10 for d in deltas]
    return ClusteringResult([(0.5, 0.5)] * k, [0.1] * k, lifetimes, deltas, outliers)


def test_criterion_08_drift_detector_suite():
    cfg = DriftConfig(k=5, o_thresh=0.18, d_thresh=0.6)
    verdict = detect(_drift_result([24, 25, 24, 25, 24], outliers=28),
                     _drift_result([30] * 5), 150, cfg)
    assert verdict.is_drift and verdict.cause == "outlier_ratio"

    verdict = detect(_drift_result([30] * 5), _drift_result([30] * 5), 150, cfg)
    assert not verdict.is_drift

    verdict = detect(_drift_result([30, 50, 30, 20, 20]),
                     _drift_result([30] * 5), 150, cfg)
    assert verdict.is_drift and verdict.cause == "distribution_shift"

    rng = np.random.default_rng(808)
    for _ in range(1000):
        count = int(rng.integers(1, 7))
        current = _drift_result(
            [int(d) for d in rng.integers(0, 60, size=count)], int(rng.integers(0, 40))
        )
        previous = _drift_result(
            [int(d) for d in rng.integers(0, 60, size=count)]
        )
        lo_o, hi_o = sorted(rng.uniform(0.01, 1.0, size=2))
        lo_d, hi_d = sorted(rng.uniform(0.05, 3.0, size=2))
        if not detect(current, previous, 150, DriftConfig(k=1, o_thresh=lo_o, d_thresh=lo_d)).is_drift:
            assert not detect(
                current, previous, 150, DriftConfig(k=1, o_thresh=hi_o, d_thresh=lo_d)
            ).is_drift
            assert not detect(
                current, previous, 150, DriftConfig(k=1, o_thresh=lo_o, d_thresh=hi_d)
            ).is_drift
    _ok(8, "worked examples exact; threshold monotonicity over 1000 random inputs")


def _surrogate_dataset(tmp_path, name, attrs, classes, per_class, rng):
    # operator-shaped stand-in: same column/class structure as the real files
    rows = []
    for label in range(classes):
        center = rng.uniform(0, 10, size=attrs)
        for _ in range(per_class):
            values = center + rng.normal(0, 1.0, size=attrs)
            rows.append(",".join(f"{v:.4f}" for v in values) + f",{label}")
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def test_criterion_09_real_world_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(99)
    shapes = (("pen_like.csv", 16, 10, 40), ("wine_like.csv", 11, 7, 64))
    for name, attrs, classes, per_class in shapes:
        dataset = _surrogate_dataset(tmp_path, name, attrs, classes, per_class, rng)
        stream_dir = tmp_path / (name + "_stream")
        assert main(["chunk", str(dataset), "--chunks", "10", "--artificial-classes",
                     "--out", str(stream_dir)]) == 0
        run_dir = tmp_path / (name + "_run")
        assert main(["run", str(stream_dir / "manifest.json"), "--seed", "7",
                     "--out", str(run_dir)]) == 0
        assert main(["eval", str(stream_dir / "manifest.json"),
                     str(run_dir / "metrics.jsonl")]) == 0
        capsys.readouterr()

        meta, steps, summary = parse_jsonl((run_dir / "metrics.jsonl").read_text())
        assert meta["d_thresh"] == 0.4  # real-world default
        assert len(steps) == 10
        assert math.isfinite(summary["mean_entropy"]) and summary["mean_entropy"] >= 0
        assert math.isfinite(summary["mean_sse"]) and summary["mean_sse"] >= 0
        assert summary["total_runtime_s"] > 0
    _ok(9, "chunk+run+eval complete on operator-shaped files with finite metrics")


def test_criterion_10_snapshot_round_trip():
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    cfg = DriftConfig(k=None, seed=7)
    _, full = run_all(chunks, cfg)

    state, reports = run_all(chunks[:5], cfg)
    document = engine.state_to_json(state, chunks)
    restored = engine.state_from_json(document, chunks)
    assert restored == state
    for chunk in chunks[5:]:
        restored, report = engine.step(restored, chunk)
        reports.append(report)

    def strip(r):
        return r._replace(duration_s=0.0)

    # wall-clock durations aside, the sequences must be bit-identical
    assert [strip(r) for r in reports] == [strip(r) for r in full]
    _ok(10, "mid-stream snapshot + resume reproduces the uninterrupted report sequence")
