"""Drift scorecard: what the three-strike policy does to every scripted drift.

The script of a stream comes from the StreamSpec that builds it:
* a maximal run of "merge" entries is a temporary drift;
* a "relabel" entry, or an entry whose cluster count differs from the last
  non-merge entry's, is a sustained drift;
* "relocate" entries (sdccl's 0.01 shift) are not drifts.

A drift spans chunks s..e (s = e for a sustained one). The events of
engine.run are scored against the script:
* an activation on chunks s..e+1 of some drift is explained by it; any other
  activation is a false activation;
* a drift's episode is the first one, activated at or before e+1, that has
  not ended before s. A temporary drift is handled if its episode ends in
  "stabilized", a sustained one if it ends in "swapped";
* latency is, for a handled drift, the chunks from e to its episode's end:
  from the collapse's end to the stabilization, or from the drift to the swap;
* parallel retrains count the steps whose report says so, and chunks that
  ran two models count the steps whose main model drifted: each of those
  bootstrapped or absorbed into a parallel model too. That is the cost of
  handling.

One row per stream, policy (k from labels, or k = 5) and seed axis: stream
seeds 7-26 at run seed 7, or run seeds 7-26 at stream seed 7, the latter as
one lockstep run. A latency column lists latency:count pairs. The swap window
ablation sets engine._SWAP_AT to 2, 4 (the engine's) and past any stream's
length, at stream and run seed 7. The same sweep checks that engine.step only
ever asks detect to compare results with the same number of clusters.

A change that moves an event changes these tables; say which rows and why.
"""

from collections import Counter

import pytest

from streamclust import DriftConfig, StreamSpec, TimestepSpec, engine, generate_synthetic
from streamclust import streams

SEEDS = range(7, 27)


def _collapse_spec(length):
    """Five 5-cluster chunks, length merge chunks, five 5-cluster chunks."""
    def spec(seed):
        entries = [TimestepSpec(5, 30)] * 5 + [TimestepSpec(1, 150, "merge")] * length
        return StreamSpec(entries + [TimestepSpec(5, 30)] * 5, seed=seed)
    return spec


_SPECS = {name: getattr(streams, f"{name}_spec")
          for name in ("sdwcd", "sdccl", "ncd100", "wcd1000")}
_SPECS.update({f"collapse{length}": _collapse_spec(length) for length in (1, 2, 3)})
_POLICIES = {"labels": None, "k=5": 5}
_WINDOWS = {"2": 2, "4": 4, "never": 10**9}
_ENDS = {"temporary": "stabilized", "sustained": "swapped"}


def _script(spec):
    """spec's scripted drifts as (kind, s, e), in stream order."""
    drifts, count = [], None
    for t, entry in enumerate(spec.entries, 1):
        if entry.drift_kind == "merge":
            if drifts and drifts[-1][0] == "temporary" and drifts[-1][2] == t - 1:
                drifts[-1] = ("temporary", drifts[-1][1], t)
            else:
                drifts.append(("temporary", t, t))
            continue
        if count is not None and (entry.drift_kind == "relabel" or entry.cluster_count != count):
            drifts.append(("sustained", t, t))
        count = entry.cluster_count
    return drifts


def _steps(chunks, configs):
    """Each run's steps as (t, event, parallel retrained, main drifted)."""
    steps = [[] for _ in configs]
    for i, state, report in engine.run(chunks, configs):
        drifted = report.verdict is not None and report.verdict.is_drift
        steps[i].append((state.timestamp, report.event, report.parallel_retrained, drifted))
    return steps


def _score(drifts, steps):
    """One run's score: {kind: [handled, total, Counter of latencies]}, its
    false activations' timestamps, its retrains and its two-model chunks."""
    episodes = []  # [activated at, ended at or None, end event or None]
    for t, event, _, _ in steps:
        if event == "activated":
            episodes.append([t, None, None])
        elif event in _ENDS.values():
            episodes[-1][1:] = t, event
    score = {kind: [0, 0, Counter()] for kind in _ENDS}
    for kind, s, e in drifts:
        score[kind][1] += 1
        episode = next((ep for ep in episodes
                        if ep[0] <= e + 1 and (ep[1] is None or ep[1] >= s)), None)
        if episode is not None and episode[2] == _ENDS[kind]:
            score[kind][0] += 1
            score[kind][2][episode[1] - e] += 1
    false = [a for a, _, _ in episodes if not any(s <= a <= e + 1 for _, s, e in drifts)]
    return (score, false, sum(step[2] for step in steps), sum(step[3] for step in steps))


_HEADER = ("stream", "policy", "seeds", "temporary", "latency", "sustained", "latency",
           "false", "retrains", "two-model")


def _row(name, policy, axis, scores):
    """A table row over the scores of several runs."""
    cells = [name, policy, axis]
    for kind in _ENDS:
        handled = sum(score[kind][0] for score, *_ in scores)
        total = sum(score[kind][1] for score, *_ in scores)
        latencies = sum((score[kind][2] for score, *_ in scores), Counter())
        cells += [f"{handled}/{total}",
                  " ".join(f"{lat}:{n}" for lat, n in sorted(latencies.items())) or "-"]
    _, false, retrains, two_model = zip(*scores)
    return cells + [sum(map(len, false)), sum(retrains), sum(two_model)]


def _table(rows):
    rows = [_HEADER, *rows]
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(_HEADER))]
    return "\n".join("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows) + "\n"


def test_scripts():
    assert {name: _script(spec(7)) for name, spec in _SPECS.items()} == {
        "sdwcd": [("temporary", 3, 3), ("sustained", 6, 6)],
        "sdccl": [("temporary", 5, 5)],
        "ncd100": [],
        "wcd1000": [("sustained", t, t) for t in range(101, 1000, 100)],
        "collapse1": [("temporary", 6, 6)],
        "collapse2": [("temporary", 6, 7)],
        "collapse3": [("temporary", 6, 8)],
    }


@pytest.fixture(scope="module")
def detect_spy():
    """engine.detect wrapped for the module: [calls, calls whose two results
    hold different numbers of clusters]."""
    counts = [0, 0]
    detect = engine.detect

    def spy(current, previous, chunk_size, config):
        counts[0] += 1
        counts[1] += len(current.chunk_counts) != len(previous.chunk_counts)
        return detect(current, previous, chunk_size, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "detect", spy)
        yield counts


@pytest.fixture(scope="module")
def seed_7_streams():
    return {name: generate_synthetic(spec(7)) for name, spec in _SPECS.items()}


@pytest.fixture(scope="module")
def sweep(detect_spy, seed_7_streams):
    """The scorecard's rows, the false activations as (stream, policy, stream
    seed, t), and the sweep's [detect calls, mismatched calls]."""
    before = list(detect_spy)
    scores, false_at = {}, []
    for name, spec in _SPECS.items():
        drifts = _script(spec(7))
        for seed in SEEDS:
            chunks = seed_7_streams[name] if seed == 7 else generate_synthetic(spec(seed))
            for policy, k in _POLICIES.items():
                (steps,) = _steps(chunks, [DriftConfig(k=k, seed=7)])
                score = _score(drifts, steps)
                scores.setdefault((name, policy, "stream"), []).append(score)
                false_at += [(name, policy, seed, t) for t in score[1]]
        for policy, k in _POLICIES.items():
            configs = [DriftConfig(k=k, seed=seed) for seed in SEEDS]
            runs = _steps(seed_7_streams[name], configs)
            scores[name, policy, "run"] = [_score(drifts, steps) for steps in runs]
    rows = [_row(*key, runs) for key, runs in scores.items()]
    return rows, false_at, [after - b for after, b in zip(detect_spy, before)]


_SCORECARD = """\
stream     policy  seeds   temporary  latency  sustained  latency         false  retrains  two-model
sdwcd      labels  stream  20/20      2:20     20/20      3:20            0      20        120
sdwcd      k=5     stream  20/20      2:20     20/20      3:20            1      24        121
sdwcd      labels  run     20/20      2:20     20/20      3:20            0      20        120
sdwcd      k=5     run     20/20      2:20     20/20      3:20            0      20        120
sdccl      labels  stream  20/20      2:20     0/0        -               0      20        40
sdccl      k=5     stream  20/20      2:20     0/0        -               0      20        40
sdccl      labels  run     20/20      2:20     0/0        -               0      20        40
sdccl      k=5     run     20/20      2:20     0/0        -               0      20        40
ncd100     labels  stream  0/0        -        0/0        -               0      0         0
ncd100     k=5     stream  0/0        -        0/0        -               0      0         0
ncd100     labels  run     0/0        -        0/0        -               0      0         0
ncd100     k=5     run     0/0        -        0/0        -               0      0         0
wcd1000    labels  stream  0/0        -        180/180    3:180           1      0         721
wcd1000    k=5     stream  0/0        -        180/180    2:6 3:174       630    49        1452
wcd1000    labels  run     0/0        -        180/180    3:180           0      0         720
wcd1000    k=5     run     0/0        -        180/180    1:5 2:11 3:164  662    56        1452
collapse1  labels  stream  20/20      2:20     0/0        -               0      20        40
collapse1  k=5     stream  20/20      2:20     0/0        -               0      20        40
collapse1  labels  run     20/20      2:20     0/0        -               0      20        40
collapse1  k=5     run     20/20      2:20     0/0        -               0      20        40
collapse2  labels  stream  20/20      2:20     0/0        -               0      20        60
collapse2  k=5     stream  20/20      2:20     0/0        -               0      23        60
collapse2  labels  run     20/20      2:20     0/0        -               0      20        60
collapse2  k=5     run     20/20      2:20     0/0        -               0      22        60
collapse3  labels  stream  0/20       -        0/0        -               0      20        80
collapse3  k=5     stream  0/20       -        0/0        -               0      29        80
collapse3  labels  run     0/20       -        0/0        -               0      20        80
collapse3  k=5     run     0/20       -        0/0        -               0      22        80
"""


def test_scorecard(sweep):
    rows, _, _ = sweep
    assert _table(rows) == _SCORECARD


def test_false_activations_of_the_labels_policy(sweep):
    # stream seed 22's wcd1000: one cluster absorbed 18 of its 30 records at
    # t = 233 and 29 at t = 234, a change of 0.61 > d_thresh 0.6
    _, false_at, _ = sweep
    assert [row for row in false_at if row[1] == "labels"] == [("wcd1000", "labels", 22, 234)]


def test_engine_compares_only_results_with_one_cluster_count(sweep):
    # so detect's verdict on different cluster counts is reached only by
    # direct calls; the count pins that the sweep made the same calls
    _, _, (calls, mismatched) = sweep
    assert (calls, mismatched) == (94914, 0)


_ABLATION = {
    "2": """\
stream     policy  seeds  temporary  latency  sustained  latency  false  retrains  two-model
sdwcd      labels  7      0/1        -        1/1        1:1      0      1         4
sdwcd      k=5     7      0/1        -        1/1        1:1      0      1         4
sdccl      labels  7      0/1        -        0/0        -        0      1         2
sdccl      k=5     7      0/1        -        0/0        -        0      1         2
ncd100     labels  7      0/0        -        0/0        -        0      0         0
ncd100     k=5     7      0/0        -        0/0        -        0      0         0
wcd1000    labels  7      0/0        -        9/9        1:9      0      0         18
wcd1000    k=5     7      0/0        -        9/9        1:9      32     3         57
collapse1  labels  7      0/1        -        0/0        -        0      1         2
collapse1  k=5     7      0/1        -        0/0        -        0      1         2
collapse2  labels  7      0/1        -        0/0        -        0      0         4
collapse2  k=5     7      0/1        -        0/0        -        0      0         4
collapse3  labels  7      0/1        -        0/0        -        0      0         4
collapse3  k=5     7      0/1        -        0/0        -        0      0         4
""",
    "4": """\
stream     policy  seeds  temporary  latency  sustained  latency  false  retrains  two-model
sdwcd      labels  7      1/1        2:1      1/1        3:1      0      1         6
sdwcd      k=5     7      1/1        2:1      1/1        3:1      0      1         6
sdccl      labels  7      1/1        2:1      0/0        -        0      1         2
sdccl      k=5     7      1/1        2:1      0/0        -        0      1         2
ncd100     labels  7      0/0        -        0/0        -        0      0         0
ncd100     k=5     7      0/0        -        0/0        -        0      0         0
wcd1000    labels  7      0/0        -        9/9        3:9      0      0         36
wcd1000    k=5     7      0/0        -        9/9        3:9      32     2         72
collapse1  labels  7      1/1        2:1      0/0        -        0      1         2
collapse1  k=5     7      1/1        2:1      0/0        -        0      1         2
collapse2  labels  7      1/1        2:1      0/0        -        0      1         3
collapse2  k=5     7      1/1        2:1      0/0        -        0      1         3
collapse3  labels  7      0/1        -        0/0        -        0      1         4
collapse3  k=5     7      0/1        -        0/0        -        0      1         4
""",
    "never": """\
stream     policy  seeds  temporary  latency  sustained  latency  false  retrains  two-model
sdwcd      labels  7      1/1        2:1      0/1        -        0      1         7
sdwcd      k=5     7      1/1        2:1      0/1        -        0      1         7
sdccl      labels  7      1/1        2:1      0/0        -        0      1         2
sdccl      k=5     7      1/1        2:1      0/0        -        0      1         2
ncd100     labels  7      0/0        -        0/0        -        0      0         0
ncd100     k=5     7      0/0        -        0/0        -        0      0         0
wcd1000    labels  7      0/0        -        0/9        -        0      5         504
wcd1000    k=5     7      0/0        -        0/9        -        0      44        504
collapse1  labels  7      1/1        2:1      0/0        -        0      1         2
collapse1  k=5     7      1/1        2:1      0/0        -        0      1         2
collapse2  labels  7      1/1        2:1      0/0        -        0      1         3
collapse2  k=5     7      1/1        2:1      0/0        -        0      1         3
collapse3  labels  7      1/1        2:1      0/0        -        0      1         4
collapse3  k=5     7      1/1        2:1      0/0        -        0      1         4
""",
}


@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_swap_window_ablation(detect_spy, seed_7_streams, monkeypatch, window):
    monkeypatch.setattr(engine, "_SWAP_AT", _WINDOWS[window])
    mismatched, rows = detect_spy[1], []
    for name, spec in _SPECS.items():
        for policy, k in _POLICIES.items():
            (steps,) = _steps(seed_7_streams[name], [DriftConfig(k=k, seed=7)])
            rows.append(_row(name, policy, "7", [_score(_script(spec(7)), steps)]))
    assert _table(rows) == _ABLATION[window]
    assert detect_spy[1] == mismatched
