import dataclasses
import json

import pytest

from streamclust import Chunk, DriftConfig, engine, generate_synthetic, sdwcd_spec
from conftest import labels_k

# Hand-built two-cluster world: a wide bootstrap chunk fixes the radii, later
# "normal" chunks sit comfortably inside them.
A, B, AWAY = (0.1, 0.1), (0.9, 0.9), (0.5, 0.5)


def _spread(center, offsets, label):
    return [((center[0] + dx, center[1] + dy), label) for dx, dy in offsets]


def _chunk(t, records):
    return Chunk(t, [values for values, _ in records], [label for _, label in records])


def _boot_chunk(t=1):
    wide = [(-0.02, 0.0), (0.02, 0.0), (0.0, -0.02), (0.0, 0.02)]
    return _chunk(t, _spread(A, wide, 1) + _spread(B, wide, 2))


def _normal_chunk(t):
    tight = [(-0.01, 0.0), (0.01, 0.0), (0.0, -0.01), (0.0, 0.01)]
    return _chunk(t, _spread(A, tight, 1) + _spread(B, tight, 2))


def _noisy_chunk(t):
    # normal structure plus four far-away records: outlier ratio 4/12 > 0.18
    tight = [(-0.01, 0.0), (0.01, 0.0), (0.0, -0.01), (0.0, 0.01)]
    return _chunk(t, _spread(A, tight, 1) + _spread(B, tight, 2) + _spread(AWAY, tight, 9))


def _moved_chunk(t, center=AWAY, label=9, wide=False):
    # wide markers pin the radius at 0.02; tight points sit well inside it
    rim = 0.02 if wide else 0.01
    offsets = [(-rim, 0.0), (rim, 0.0), (0.0, -rim), (0.0, rim),
               (-0.005, 0.005), (0.005, -0.005), (0.005, 0.005), (-0.005, -0.005)]
    return _chunk(t, _spread(center, offsets, label))


CFG = DriftConfig(k=2, o_thresh=0.18, d_thresh=0.6, seed=3)


def test_init_bootstrap_conservation():
    state = engine.init(_boot_chunk(), CFG)
    assert state.timestamp == 1
    assert state.parallel is None and not state.is_concept_drift
    assert state.main.outliers == 0
    assert sum(state.main.chunk_counts) == 8


def test_init_on_five_blob_benchmark_chunk():
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    state = engine.init(chunks[0], DriftConfig(k=5, seed=7))
    assert len(state.main.centroids) == 5
    assert list(state.main.chunk_counts) == [30] * 5


def test_no_drift_benchmark_stream_stays_quiet():
    from streamclust import ncd100_spec

    chunks = generate_synthetic(ncd100_spec(seed=7))
    _, reports = engine.run(chunks, DriftConfig(k=5, seed=7), labels_k)
    assert len(reports) == 100
    assert all(r.event in ("bootstrap", "none") for r in reports)
    assert all(not r.parallel_active for r in reports)
    assert all(r.cluster_count == 5 for r in reports)


def test_init_singleton_clusters():
    chunk = Chunk(1, [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9)])
    state = engine.init(chunk, DriftConfig(k=3, seed=0))
    assert len(state.main.centroids) == 3
    assert state.main.radii == (0.0, 0.0, 0.0)
    assert state.main.lifetime_counts == (1, 1, 1)


def test_quiet_stream_never_activates():
    state = engine.init(_boot_chunk(), CFG)
    for t in range(2, 8):
        state, report = engine.step(state, _normal_chunk(t))
        assert report.event == "none"
        assert not report.parallel_active and report.strike == 0
        assert not state.is_concept_drift


def test_temporary_drift_activates_then_stabilizes():
    state = engine.init(_boot_chunk(), CFG)
    state, _ = engine.step(state, _normal_chunk(2))
    main_before = state.main

    state, report = engine.step(state, _noisy_chunk(3), k=3)
    assert report.event == "activated"
    assert report.parallel_active and report.strike == 1
    assert state.is_concept_drift
    assert report.cluster_count == 3  # the freshly bootstrapped parallel model
    # the main model absorbed the normal records and was kept
    assert len(state.main.centroids) == 2
    assert sum(state.main.chunk_counts) == 8
    assert state.main.outliers == 4

    state, report = engine.step(state, _normal_chunk(4))
    assert report.event == "stabilized"
    assert not state.is_concept_drift and state.parallel is None
    assert len(state.main.centroids) == 2
    # continuity: the main model's lifetime kept growing through the episode
    for before, after in zip(main_before.lifetime_counts, state.main.lifetime_counts):
        assert after == before + 8


def _clusters(result):
    return result.centroids, result.radii, result.lifetime_counts, result.chunk_counts


def test_sustained_drift_swaps_after_three_strikes():
    state = engine.init(_boot_chunk(), CFG)
    state, _ = engine.step(state, _normal_chunk(2))

    state, report = engine.step(state, _moved_chunk(3, wide=True), k=1)
    assert report.event == "activated" and report.strike == 1
    old_main = state.main

    for t, expected_strike in ((4, 2), (5, 3)):
        state, report = engine.step(state, _moved_chunk(t), k=1)
        assert report.event == "none"
        assert report.parallel_active and report.strike == expected_strike
        assert not report.parallel_retrained
        # every cluster untouched by parallel work
        assert _clusters(state.main) == _clusters(old_main)
        old_main = state.main

    state, report = engine.step(state, _moved_chunk(6), k=1)
    assert report.event == "swapped"
    assert report.strike == 4
    assert not report.parallel_active and state.parallel is None
    assert not state.is_concept_drift
    assert len(state.main.centroids) == 1
    assert state.main.centroids[0] == pytest.approx(AWAY, abs=0.02)

    # swap is three drifted chunks after activation, and the stream goes on
    state, report = engine.step(state, _moved_chunk(7), k=1)
    assert report.event == "none"
    assert report.cluster_count == 1


def test_parallel_retrains_when_it_drifts_itself():
    state = engine.init(_boot_chunk(), CFG)
    state, _ = engine.step(state, _normal_chunk(2))
    state, report = engine.step(state, _moved_chunk(3, center=(0.5, 0.5), wide=True), k=1)
    assert report.event == "activated"
    # next chunk sits somewhere new again: the parallel model cannot absorb it
    state, report = engine.step(state, _moved_chunk(4, center=(0.2, 0.8), wide=True), k=1)
    assert report.parallel_retrained
    assert report.parallel_active and report.strike == 2
    assert state.parallel.result.centroids[0] == pytest.approx((0.2, 0.8), abs=0.02)


def test_step_timestamp_continuity():
    state = engine.init(_boot_chunk(), CFG)
    with pytest.raises(ValueError):
        engine.step(state, _normal_chunk(5))


def test_step_dimension_mismatch():
    state = engine.init(_boot_chunk(), CFG)
    with pytest.raises(ValueError):
        engine.step(state, Chunk(2, [(0.1, 0.1, 0.1)]))


def test_bootstrap_reports_the_state_init_returns():
    chunk = _boot_chunk()
    state, report = engine.bootstrap(chunk, CFG)
    assert state == engine.init(chunk, CFG)
    assert report.event == "bootstrap" and report.timestamp == 1
    assert len(report.assignments) == len(chunk)
    assert report.outliers + sum(report.cluster_deltas) == len(chunk)


def test_run_empty_stream():
    with pytest.raises(ValueError):
        engine.run([], CFG)


def test_run_single_chunk_stream():
    state, reports = engine.run([_boot_chunk()], CFG)
    assert len(reports) == 1
    assert reports[0].event == "bootstrap"
    assert state.timestamp == 1


def _strip_duration(report):
    return dataclasses.replace(report, duration_s=0.0)


def test_run_deterministic_for_fixed_seed():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    _, first = engine.run(chunks, cfg, labels_k)
    _, second = engine.run(chunks, cfg, labels_k)
    assert [_strip_duration(r) for r in first] == [_strip_duration(r) for r in second]


def test_state_json_round_trip():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:4]:
        state, _ = engine.step(state, chunk, labels_k(chunk))
    assert state.is_concept_drift  # mid-episode, the interesting case
    restored = engine.state_from_json(engine.state_to_json(state))
    assert restored == state


def test_resume_matches_uninterrupted_run():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    _, full = engine.run(chunks, cfg, labels_k)

    state, reports = engine.run(chunks[:4], cfg, labels_k)
    state = engine.state_from_json(engine.state_to_json(state))
    for chunk in chunks[4:]:
        state, report = engine.step(state, chunk, labels_k(chunk))
        reports.append(report)
    assert [_strip_duration(r) for r in reports] == [_strip_duration(r) for r in full]


def test_snapshot_rejects_foreign_documents():
    with pytest.raises(ValueError):
        engine.state_from_json('{"format": "something-else", "version": 1}')


def test_snapshot_rejects_drift_flag_that_disagrees_with_parallel():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:4]:
        state, _ = engine.step(state, chunk, labels_k(chunk))
        doc = json.loads(engine.state_to_json(state))
        assert doc["is_concept_drift"] == (doc["parallel"] is not None)
        doc["is_concept_drift"] = not doc["is_concept_drift"]
        with pytest.raises(ValueError, match="parallel"):
            engine.state_from_json(json.dumps(doc))


def test_parallel_state_invariants():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:]:
        state, report = engine.step(state, chunk, labels_k(chunk))
        assert (state.parallel is not None) == state.is_concept_drift
        if state.parallel is not None:
            assert 1 <= state.parallel.strike <= 3
        if report.event == "swapped":
            assert report.strike == 4 and state.parallel is None


def test_snapshot_rejects_centroids_of_different_lengths():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:4]:
        state, _ = engine.step(state, chunk, labels_k(chunk))
    assert state.is_concept_drift
    text = engine.state_to_json(state)
    # one cluster of one result, and every cluster of the parallel result
    ragged = json.loads(text)
    ragged["main"]["clusters"][1]["centroid"].append(0.5)
    parallel_only = json.loads(text)
    for cluster in parallel_only["parallel"]["result"]["clusters"]:
        cluster["centroid"].append(0.5)
    for doc in (ragged, parallel_only):
        with pytest.raises(ValueError, match="'centroid'"):
            engine.state_from_json(json.dumps(doc))
