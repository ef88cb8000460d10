import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamclust import (
    Chunk, ClusteringResult, DriftConfig, EngineState, StreamSpec,
    TimestepSpec, dist_clust_trace, engine, generate_synthetic, sdccl_spec, sdwcd_spec,
    summarize_trace, wcd1000_spec,
)
from streamclust import bootstrap as kmeans_bootstrap
from streamclust.streams import DRIFT_KINDS
from conftest import labels_k, run_all

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
    assert state.parallel is None
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
    steps = [(state, report) for _, state, report
             in engine.run(chunks, [DriftConfig(k=5, seed=7)], labels_k)]
    assert len(steps) == 100
    assert all(r.event in ("bootstrap", "none") for _, r in steps)
    assert all(s.parallel is None for s, _ in steps)
    assert all(len(r.cluster_deltas) == 5 for _, r in steps)


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
        assert state.parallel is None and state.strike == 0


def test_temporary_drift_activates_then_stabilizes():
    state = engine.init(_boot_chunk(), CFG)
    state, _ = engine.step(state, _normal_chunk(2))
    main_before = state.main

    state, report = engine.step(state, _noisy_chunk(3), k=3)
    assert report.event == "activated"
    assert state.parallel is not None and state.strike == 1
    assert len(report.cluster_deltas) == 3  # the freshly bootstrapped parallel model
    # the main model absorbed the normal records and was kept
    assert len(state.main.centroids) == 2
    assert sum(state.main.chunk_counts) == 8
    assert state.main.outliers == 4

    state, report = engine.step(state, _normal_chunk(4))
    assert report.event == "stabilized"
    assert state.parallel is None
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
    assert report.event == "activated" and state.strike == 1
    old_main = state.main

    for t, expected_strike in ((4, 2), (5, 3)):
        state, report = engine.step(state, _moved_chunk(t), k=1)
        assert report.event == "none"
        assert state.parallel is not None and state.strike == expected_strike
        assert not report.parallel_retrained
        # every cluster untouched by parallel work
        assert _clusters(state.main) == _clusters(old_main)
        old_main = state.main

    state, report = engine.step(state, _moved_chunk(6), k=1)
    assert report.event == "swapped"
    assert state.strike == 0 and state.parallel is None
    assert len(state.main.centroids) == 1
    assert state.main.centroids[0] == pytest.approx(AWAY, abs=0.02)

    # swap is three drifted chunks after activation, and the stream goes on
    state, report = engine.step(state, _moved_chunk(7), k=1)
    assert report.event == "none"
    assert len(report.cluster_deltas) == 1


def test_parallel_retrains_when_it_drifts_itself():
    state = engine.init(_boot_chunk(), CFG)
    state, _ = engine.step(state, _normal_chunk(2))
    state, report = engine.step(state, _moved_chunk(3, center=(0.5, 0.5), wide=True), k=1)
    assert report.event == "activated"
    # next chunk sits somewhere new again: the parallel model cannot absorb it
    state, report = engine.step(state, _moved_chunk(4, center=(0.2, 0.8), wide=True), k=1)
    assert report.parallel_retrained
    assert state.parallel is not None and state.strike == 2
    assert state.parallel.centroids[0] == pytest.approx((0.2, 0.8), abs=0.02)


def test_labels_policy_config_needs_a_k_from_the_caller():
    # k=None leaves k to the caller; a caller that gives none is refused
    labels_cfg = CFG._replace(k=None)
    with pytest.raises(ValueError, match="no k"):
        engine.init(_boot_chunk(), labels_cfg)
    state = engine.init(_boot_chunk(), labels_cfg, 2)
    with pytest.raises(ValueError, match="no k"):
        engine.step(state, _normal_chunk(2))
    state, report = engine.step(state, _normal_chunk(2), 2)
    assert report.event == "none" and state.config.k is None


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
    assert report.event == "bootstrap" and state.timestamp == 1
    assert len(report.clusters) == len(chunk)
    assert report.outliers + sum(report.cluster_deltas) == len(chunk)


def test_run_empty_stream():
    with pytest.raises(ValueError):
        list(engine.run([], [CFG]))


def test_run_needs_a_config_or_a_state_but_not_both():
    state = engine.init(_boot_chunk(), CFG)
    for kwargs in ({}, {"configs": [CFG], "states": [state]}):
        with pytest.raises(ValueError, match="config"):
            list(engine.run([_normal_chunk(2)], **kwargs))


def test_run_single_chunk_stream():
    state, reports = run_all([_boot_chunk()], CFG)
    assert len(reports) == 1
    assert reports[0].event == "bootstrap"
    assert state.timestamp == 1


def _strip_duration(report):
    return report._replace(duration_s=0.0)


def test_run_deterministic_for_fixed_seed():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    _, first = run_all(chunks, cfg, labels_k)
    _, second = run_all(chunks, cfg, labels_k)
    assert [_strip_duration(r) for r in first] == [_strip_duration(r) for r in second]


@pytest.mark.parametrize("spec", [sdwcd_spec, sdccl_spec, wcd1000_spec],
                         ids=["sdwcd", "sdccl", "wcd1000"])
def test_report_counts_are_the_active_results(spec):
    # the report holds no cluster count, strike or drift flag of its own:
    # its counts are those of state.parallel or state.main at every step
    chunks = generate_synthetic(spec(seed=7))
    configs = [DriftConfig(k=None, seed=seed) for seed in range(7, 17)]
    steps = 0
    for _, state, report in engine.run(chunks, configs, labels_k):
        active = state.parallel or state.main
        assert report.outliers == active.outliers
        assert report.cluster_deltas == active.chunk_counts
        steps += 1
    assert steps == 10 * len(chunks)


def test_verdicts_of_sdwcd_seed_7():
    # `run sdwcd --seed 7` with k from labels: the main model's verdict at
    # every step, which no output reads yet
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    steps = [(state.timestamp, report) for _, state, report
             in engine.run(chunks, [DriftConfig(k=None, seed=7)], labels_k)]
    assert steps[0][1].event == "bootstrap" and steps[0][1].verdict is None
    causes = {t: report.verdict.cause for t, report in steps[1:]}
    none, ratio, shift = "none", "outlier_ratio", "distribution_shift"
    assert causes == {2: none, 3: ratio, 4: shift, 5: none, 6: ratio, 7: ratio, 8: ratio,
                      9: ratio, 10: none}
    reports = dict(steps)
    assert reports[4].verdict.detail == (math.inf,)  # a dead cluster came back
    assert [t for t, report in steps if report.parallel_retrained] == [4]
    assert reports[5].event == "stabilized"
    assert all(reports[t].verdict.detail == () for t in (3, 6, 7, 8, 9))


def test_state_json_round_trip():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:4]:
        state, _ = engine.step(state, chunk, labels_k(chunk))
    assert state.parallel is not None  # mid-episode, the interesting case
    restored = engine.state_from_json(engine.state_to_json(state, chunks), chunks)
    assert restored == state


def test_resume_matches_uninterrupted_run():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    _, full = run_all(chunks, cfg, labels_k)

    state, reports = run_all(chunks[:4], cfg, labels_k)
    state = engine.state_from_json(engine.state_to_json(state, chunks), chunks)
    reports += [r for _, _, r in engine.run(chunks[4:], k_for_chunk=labels_k, states=[state])]
    assert [_strip_duration(r) for r in reports] == [_strip_duration(r) for r in full]


def _check_step(chunk, state, report, previous_t):
    assert state.timestamp == chunk.timestamp == previous_t + 1
    assert report.outliers + sum(report.cluster_deltas) == len(chunk)
    # the report's counts are the active result's
    active = state.parallel or state.main
    assert (report.outliers, report.cluster_deltas) == (active.outliers, active.chunk_counts)
    # a parallel model exists exactly while drift is active, with its strike
    if state.parallel is not None:
        assert 1 <= state.strike <= 3


_POLICIES = {"fixed": (5, None), "labels": (None, labels_k)}


@pytest.mark.parametrize("policy", sorted(_POLICIES))
@pytest.mark.parametrize("spec", [sdwcd_spec, sdccl_spec], ids=["sdwcd", "sdccl"])
def test_resume_at_every_cut_point_matches_uninterrupted_run(spec, policy):
    chunks = generate_synthetic(spec(seed=5))
    k, k_for_chunk = _POLICIES[policy]
    cfg = DriftConfig(k=k, seed=5)
    full = [(state, report) for _, state, report in engine.run(chunks, [cfg], k_for_chunk)]
    for i, (state, report) in enumerate(full):
        _check_step(chunks[i], state, report, i)
    expected = [(state, _strip_duration(report)) for state, report in full]
    for cut in range(1, len(chunks)):
        text = engine.state_to_json(full[cut - 1][0], chunks)
        doc = json.loads(text)
        assert (doc["parallel"] is not None) == (full[cut - 1][0].parallel is not None)
        assert doc["config"]["k"] == k
        state = engine.state_from_json(text, chunks)
        assert state == full[cut - 1][0]
        tail = []
        for i, (_, state, report) in enumerate(
                engine.run(chunks[cut:], k_for_chunk=k_for_chunk, states=[state]), cut):
            _check_step(chunks[i], state, report, i)
            tail.append((state, _strip_duration(report)))
        assert tail == expected[cut:]


def _with_main(state, centroids):
    return state._replace(main=state.main._replace(centroids=centroids))


def _hex(result):
    return [[x.hex() for x in c] for c in result.centroids]


def _absorbs(shared):
    return sum(key[0] == "absorb" for key in shared)


def test_shared_absorb_keeps_the_sign_of_zero_apart():
    # equal by value, not bit for bit: absorbing (-0.0, 1.0) into (-0.0, 1.0)
    # gives -0.0, into (0.0, 1.0) gives 0.0
    state = engine.init(_boot_chunk(), CFG)
    far = state.main.centroids[1]
    negative = _with_main(state, [(-0.0, 1.0), far])
    positive = _with_main(state, [(0.0, 1.0), far])
    assert negative.main == positive.main
    chunk = _chunk(2, [((-0.0, 1.0), 1)])
    shared = {}
    stepped = [engine.step(s, chunk, 1, shared)[0] for s in (negative, positive)]
    # the chunk also activates drift, so shared holds a bootstrap too
    assert _absorbs(shared) == 2
    for before, after in zip((negative, positive), stepped):
        alone, _ = dist_clust_trace(chunk, before.main)
        assert _hex(after.main) == _hex(alone)
    assert _hex(stepped[0].main)[0][0] != _hex(stepped[1].main)[0][0]


def test_shared_absorb_is_reused_for_one_model_object():
    # two runs that shared their bootstrap hold its result object
    state = engine.init(_boot_chunk(), CFG)
    other = state._replace(config=CFG._replace(seed=CFG.seed + 1))
    assert other.main is state.main
    chunk, shared = _normal_chunk(2), {}
    first, first_report = engine.step(state, chunk, shared=shared)
    second, second_report = engine.step(other, chunk, shared=shared)
    assert _absorbs(shared) == 1
    assert second.main is first.main
    assert second_report.clusters is first_report.clusters
    assert second_report.sse == first_report.sse


def test_shared_absorb_is_computed_again_for_an_equal_twin():
    # the snapshot twin is equal, bit for bit, but another object
    boot = [_boot_chunk()]
    state = engine.init(boot[0], CFG)
    twin = engine.state_from_json(engine.state_to_json(state, boot), boot)
    assert twin.main is not state.main
    assert repr(twin.main) == repr(state.main)
    chunk, shared = _normal_chunk(2), {}
    first, first_report = engine.step(state, chunk, shared=shared)
    second, second_report = engine.step(twin, chunk, shared=shared)
    assert _absorbs(shared) == 2
    assert second.main is not first.main
    assert _hex(second.main) == _hex(first.main)
    assert [r.hex() for r in second.main.radii] == [r.hex() for r in first.main.radii]
    assert second_report.clusters == first_report.clusters
    assert second_report.sse.hex() == first_report.sse.hex()


def _bootstraps(shared):
    return sum(key[0] == "bootstrap" for key in shared)


def test_bootstraps_with_equal_first_labellings_share_one_result():
    # two blobs, k=2: every seed's first labelling splits them, but the
    # seeds start from different records
    chunk = _boot_chunk()
    firsts = {}
    for seed in range(40):
        config = CFG._replace(seed=seed)
        s = engine._bootstrap_seed(config, chunk.timestamp)
        first = kmeans_bootstrap._first_draw(len(chunk), s)
        seeded = kmeans_bootstrap._farthest_point_init(chunk.values, 2, first)
        _, labels = kmeans_bootstrap._lloyd_first(chunk.values, 2, first)
        firsts.setdefault(labels.tobytes(), {}).setdefault(seeded.tobytes(), (config, s))
    (a, seed_a), (b, seed_b) = next(
        list(by_start.values())[:2] for by_start in firsts.values() if len(by_start) > 1)
    shared = {}
    state_a, report_a = engine.bootstrap(chunk, a, shared=shared)
    state_b, report_b = engine.bootstrap(chunk, b, shared=shared)
    assert _bootstraps(shared) == 1
    assert report_b.clusters is report_a.clusters
    assert report_b.sse == report_a.sse
    assert state_b.main is state_a.main
    for state, report, seed in ((state_a, report_a, seed_a), (state_b, report_b, seed_b)):
        alone = summarize_trace(chunk, 2, seed)
        assert repr((state.main, (report.clusters, report.sse))) == repr(alone)


def test_shared_bootstrap_keeps_the_sign_of_an_empty_centroid_apart():
    # two equal records: the second seeded center finds no record to take,
    # so its cluster stays empty with the other record's bits as centroid
    chunk = Chunk(1, [(0.0, 0.0), (-0.0, 0.0)])
    seeds = {}
    for seed in range(40):
        first = kmeans_bootstrap._first_draw(len(chunk), seed)
        seeded = kmeans_bootstrap._farthest_point_init(chunk.values, 2, first)
        seeds.setdefault(math.copysign(1.0, seeded[1][0]), seed)
    firsts = [kmeans_bootstrap._lloyd_first(chunk.values, 2,
                                            kmeans_bootstrap._first_draw(len(chunk), seed))
              for seed in seeds.values()]
    assert len(firsts) == 2
    assert firsts[0][1].tobytes() == firsts[1][1].tobytes()  # one labelling
    assert firsts[0][0].tolist() == firsts[1][0].tolist()  # equal by value only
    shared = {}
    for seed in seeds.values():
        alone = summarize_trace(chunk, 2, seed)
        assert repr(summarize_trace(chunk, 2, seed, shared)) == repr(alone)
    assert _bootstraps(shared) == 2


def test_bootstraps_with_one_first_draw_share_one_seeding(monkeypatch):
    chunk = _boot_chunk()
    by_first = {}
    for seed in range(40):
        config = CFG._replace(seed=seed)
        s = engine._bootstrap_seed(config, chunk.timestamp)
        by_first.setdefault(kmeans_bootstrap._first_draw(len(chunk), s), []).append((config, s))
    (a, seed_a), (b, seed_b) = next(same[:2] for same in by_first.values() if len(same) > 1)
    seedings = []
    seeding = kmeans_bootstrap._lloyd_first

    def spy(matrix, k, first):
        seedings.append(first)
        return seeding(matrix, k, first)

    monkeypatch.setattr(kmeans_bootstrap, "_lloyd_first", spy)
    shared = {}
    state_a, report_a = engine.bootstrap(chunk, a, shared=shared)
    state_b, report_b = engine.bootstrap(chunk, b, shared=shared)
    assert sum(key[0] == "seeded" for key in shared) == len(seedings) == 1
    assert report_b.clusters is report_a.clusters
    assert report_b.sse == report_a.sse
    assert state_b.main is state_a.main
    for state, report, seed in ((state_a, report_a, seed_a), (state_b, report_b, seed_b)):
        alone = summarize_trace(chunk, 2, seed)
        assert repr((state.main, (report.clusters, report.sse))) == repr(alone)


@st.composite
def _lockstep_cases(draw):
    """A small stream, a k policy, drift thresholds and 2..5 seeds."""
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(DRIFT_KINDS))
        count = 1 if kind == "merge" else draw(st.integers(1, 4))
        sizes = tuple(draw(st.integers(1, 12)) for _ in range(count))
        entries.append(TimestepSpec(count, sizes, kind, draw(st.integers(-1, 1))))
    spec = StreamSpec(entries, sigma=draw(st.floats(0.005, 0.1)),
                      seed=draw(st.integers(0, 2**16)))
    chunks = generate_synthetic(spec)
    smallest = min(len(c) for c in chunks)
    k = draw(st.none() | st.integers(1, min(4, smallest)))
    o_thresh = draw(st.floats(0.01, 1.0))
    d_thresh = draw(st.floats(0.05, 2.0))
    first = draw(st.integers(0, 2**20))
    configs = [DriftConfig(k, o_thresh, d_thresh, seed)
               for seed in range(first, first + draw(st.integers(2, 5)))]
    return chunks, configs, None if k is not None else labels_k


def _alone(chunks, config, k_for_chunk):
    """One run through bootstrap and step with nothing shared."""
    k = k_for_chunk or (lambda chunk: None)
    state, report = engine.bootstrap(chunks[0], config, k(chunks[0]))
    out = [(state, report)]
    for chunk in chunks[1:]:
        state, report = engine.step(state, chunk, k(chunk))
        out.append((state, report))
    return out


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_lockstep_cases())
def test_lockstep_runs_equal_each_seed_run_alone(case):
    chunks, configs, k_for_chunk = case
    together = [[] for _ in configs]
    for i, state, report in engine.run(chunks, configs, k_for_chunk):
        t = len(together[i])
        _check_step(chunks[t], state, report, t)  # records conserved, among others
        together[i].append((state, _strip_duration(report)))
    for config, steps in zip(configs, together):
        alone = [(state, _strip_duration(report))
                 for state, report in _alone(chunks, config, k_for_chunk)]
        # repr spells every float's bits, the sign of zero included
        assert repr(steps) == repr(alone)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_lockstep_cases(), st.data())
def test_resume_at_a_drawn_cut_matches_the_uninterrupted_tail(case, data):
    chunks, configs, k_for_chunk = case
    full = [[] for _ in configs]
    for i, state, report in engine.run(chunks, configs, k_for_chunk):
        full[i].append((state, _strip_duration(report)))
    cut = data.draw(st.integers(1, len(chunks)), label="cut")
    restored = [engine.state_from_json(engine.state_to_json(steps[cut - 1][0], chunks), chunks)
                for steps in full]
    assert repr(restored) == repr([steps[cut - 1][0] for steps in full])
    tail = [[] for _ in configs]
    for i, state, report in engine.run(chunks[cut:], k_for_chunk=k_for_chunk, states=restored):
        tail[i].append((state, _strip_duration(report)))
    # repr spells every float's bits, the sign of zero included
    assert repr(tail) == repr([steps[cut:] for steps in full])


def test_step_without_a_share_always_absorbs(monkeypatch):
    calls = []
    absorb = engine.dist_clust_trace

    def spy(chunk, prev):
        calls.append(chunk.timestamp)
        return absorb(chunk, prev)

    monkeypatch.setattr(engine, "dist_clust_trace", spy)
    state = engine.init(_boot_chunk(), CFG)
    chunk = _normal_chunk(2)
    for _ in range(3):
        engine.step(state, chunk)
    assert calls == [2, 2, 2]


def test_run_steps_every_run_through_a_chunk_before_the_next():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    configs = [DriftConfig(k=5, seed=seed) for seed in (5, 6, 7)]
    order, together = [], [[] for _ in configs]
    for i, state, report in engine.run(chunks, configs, labels_k):
        order.append((state.timestamp, i))
        together[i].append(_strip_duration(report))
    assert order == [(c.timestamp, i) for c in chunks for i in range(3)]
    for cfg, reports in zip(configs, together):
        _, alone = run_all(chunks, cfg, labels_k)
        assert reports == [_strip_duration(r) for r in alone]


def test_snapshot_rejects_a_timestamp_its_results_do_not_have():
    # the results hold chunks 1-4 and carry no timestamp of their own: a
    # stale top-level one names chunks 1-2, whose digest is not the recorded one
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    state, _ = run_all(chunks[:4], DriftConfig(k=5, seed=5), labels_k)
    assert state.parallel is not None
    stale = json.loads(engine.state_to_json(state, chunks))
    assert "timestamp" not in stale["main"] and "timestamp" not in stale["parallel"]
    stale["timestamp"] = 2
    with pytest.raises(ValueError, match=r"another stream than this stream: its chunks 1\.\.2"):
        engine.state_from_json(json.dumps(stale), chunks)


def test_snapshot_resumes_only_on_the_chunks_it_was_taken_on():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    state, _ = run_all(chunks[:4], DriftConfig(k=5, seed=5), labels_k)
    text = engine.state_to_json(state, chunks)
    # only the chunks it covers count: chunks after t=4 may differ
    assert engine.state_from_json(text, chunks[:4]) == state
    values = [c.values.copy() for c in chunks[:4]]
    values[3][-1, 1] = math.nextafter(values[3][-1, 1], 2.0)  # one bit of the last record
    labels = [c.labels.copy() for c in chunks[:4]]
    labels[0][0] += 1
    others = (
        generate_synthetic(sdwcd_spec(seed=6)),
        [Chunk(c.timestamp, v, c.labels) for c, v in zip(chunks, values)],
        [Chunk(c.timestamp, c.values, y) for c, y in zip(chunks, labels)],
        [Chunk(c.timestamp, c.values) for c in chunks[:4]],  # the labels dropped
    )
    for other in others:
        with pytest.raises(ValueError, match="another stream than this stream"):
            engine.state_from_json(text, other)
    # a stream too short to hold the chunks it covers, named in the error
    with pytest.raises(ValueError, match="covers chunks 1..4, got 3 chunks in s/manifest.json"):
        engine.state_from_json(text, chunks[:3], stream="s/manifest.json")
    with pytest.raises(ValueError, match="covers chunks 1..4, got 3 chunks"):
        engine.state_to_json(state, chunks[:3])
    with pytest.raises(ValueError, match="but this stream has 0 dimensions"):
        engine.state_from_json(text, [])


def test_snapshot_of_other_dimensionality_than_its_stream_names_the_stream():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    state, _ = run_all(chunks[:4], DriftConfig(k=5, seed=5), labels_k)
    assert state.parallel is not None
    # 3-D centroids on the 2-D chunks the snapshot records: only the
    # dimensionality check stands between it and a resume
    doc = json.loads(engine.state_to_json(state, chunks))
    for result in (doc["main"], doc["parallel"]):
        for centroid in result["centroids"]:
            centroid.append(0.5)
    text = json.dumps(doc)
    with pytest.raises(ValueError, match="3-D centroids but s/manifest.json has 2 dimensions"):
        engine.state_from_json(text, chunks, stream="s/manifest.json")
    with pytest.raises(ValueError, match="but this stream has 2 dimensions"):
        engine.state_from_json(text, chunks)


def test_state_timestamp_is_a_chunk_timestamp():
    # like a chunk's, a state's timestamp starts at 1: no step makes one at t < 1
    state = engine.init(_boot_chunk(), CFG)
    for timestamp in (0, -1):
        with pytest.raises(ValueError, match=f"state timestamp must be >= 1, got {timestamp}"):
            EngineState(state.main, None, 0, CFG, timestamp)
    assert EngineState(state.main, None, 0, CFG, 1) == state


def test_state_timestamp_is_its_chunks_timestamp():
    # a bootstrap or a step gives the state its chunk's timestamp, with or
    # without a parallel model; stepping a state that holds chunks 1-2 with
    # chunk 2 again would absorb chunk 2 twice
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    cfg = DriftConfig(k=5, seed=7)
    s1, _ = engine.bootstrap(chunks[0], cfg)
    s2, _ = engine.step(s1, chunks[1])
    s3, _ = engine.step(s2, chunks[2])
    assert (s1.timestamp, s2.timestamp, s3.timestamp) == (1, 2, 3)
    assert s2.parallel is None and s2.main.lifetime_counts == (60, 60, 59, 59, 60)
    assert s3.parallel is not None
    # results hold no timestamp, so equal results at other chunks are equal;
    # the states holding them are not
    assert EngineState(s2.main, None, 0, cfg, 2) == s2 != EngineState(s2.main, None, 0, cfg, 5)
    with pytest.raises(ValueError, match="expected chunk timestamp 3, got 2"):
        engine.step(s2, chunks[1])


def test_state_strike_is_in_range_exactly_while_a_parallel_model_exists():
    chunks = generate_synthetic(sdwcd_spec(seed=7))
    cfg = DriftConfig(k=5, seed=7)
    s2, _ = run_all(chunks[:2], cfg)
    for strike in (1, 3):
        assert EngineState(s2.main, s2.main, strike, cfg, 2).parallel is not None
    for parallel, strike, message in ((s2.main, 0, "1..3"), (s2.main, 4, "1..3"),
                                      (None, 1, "0 without a parallel model")):
        with pytest.raises(ValueError, match=message):
            EngineState(s2.main, parallel, strike, cfg, 2)


def test_snapshot_rejects_foreign_documents():
    with pytest.raises(ValueError):
        engine.state_from_json('{"format": "something-else", "version": 1}', [])


def test_snapshot_objects_hold_the_type_fields_in_order():
    # the snapshot writes and reads each object by its field names: a renamed
    # or reordered field fails here, not only in the golden digest
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    state, _ = run_all(chunks[:4], DriftConfig(k=5, seed=5), labels_k)
    assert state.parallel is not None
    doc = json.loads(engine.state_to_json(state, chunks))
    assert list(doc) == list(engine._SNAPSHOT_FIELDS)
    names = list(ClusteringResult._fields)
    assert list(doc["main"]) == list(doc["parallel"]) == names
    assert list(doc["config"]) == list(DriftConfig._fields)
    assert doc["strike"] == state.strike


def test_parallel_state_invariants():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:]:
        state, report = engine.step(state, chunk, labels_k(chunk))
        if state.parallel is not None:
            assert 1 <= state.strike <= 3
        if report.event == "swapped":
            assert state.strike == 0 and state.parallel is None


def test_snapshot_rejects_centroids_of_different_lengths():
    chunks = generate_synthetic(sdwcd_spec(seed=5))
    cfg = DriftConfig(k=5, seed=5)
    state = engine.init(chunks[0], cfg, labels_k(chunks[0]))
    for chunk in chunks[1:4]:
        state, _ = engine.step(state, chunk, labels_k(chunk))
    assert state.parallel is not None
    text = engine.state_to_json(state, chunks)
    # one cluster of one result, and every cluster of the parallel result
    ragged = json.loads(text)
    ragged["main"]["centroids"][1].append(0.5)
    parallel_only = json.loads(text)
    for centroid in parallel_only["parallel"]["centroids"]:
        centroid.append(0.5)
    for doc in (ragged, parallel_only):
        with pytest.raises(ValueError, match="'centroids'"):
            engine.state_from_json(json.dumps(doc), chunks)
