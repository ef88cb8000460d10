"""Smoke tests of the benchmark's own code, on tiny versions of each workload.

    python3 -m pytest bench -q
"""

import dataclasses
import importlib
import json
import math
from pathlib import Path

import pytest

import run
import spans

TINY = {
    "wcd1000": {"stream": "sdwcd", "stop_after": 7, "setups": 2},
    "sdwcd-repeat": {"repeat": 2, "setups": 2},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(run.WORKLOADS[name], **changes))


def _bench(capsys, workload: str, trace: int) -> tuple[int, str, str]:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _declared(group: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[group]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, out, _ = _bench(capsys, workload, trace)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert "# env " in out and "error_rate 0/" in out


def test_corrupted_metrics_jsonl_counts_as_a_failure(tiny, capsys, monkeypatch):
    real = run.Launcher.run
    full_runs = []

    def corrupting(launcher, argv, work):
        outcome = real(launcher, argv, work)
        if argv[0] == "run" and "--stop-after" not in argv and "--repeat" in argv:
            full_runs.append(argv)
            if len(full_runs) == 2:  # leave the reference run intact
                report = Path(argv[argv.index("--out") + 1]) / "metrics.jsonl"
                lines = report.read_text().splitlines()
                step = json.loads(lines[1])
                step["sse"] += 1e-9
                lines[1] = json.dumps(step)
                report.write_text("\n".join(lines) + "\n")
        return outcome

    monkeypatch.setattr(run.Launcher, "run", corrupting)
    code, out, _ = _bench(capsys, "sdwcd-repeat", 0)
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_renamed_function_fails_the_traced_run(tiny, capsys, monkeypatch):
    run.import_program()
    incremental = importlib.import_module("streamclust.incremental")
    monkeypatch.delattr(incremental, "dist_clust_trace")
    code, out, err = _bench(capsys, "sdwcd-repeat", 1)
    assert code != 0
    assert '"metrics"' not in out
    assert "dist_clust_trace" in err


def test_span_that_never_fires_is_reported():
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceError, match="never fired"):
        tracer.check_fired("wcd1000")


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer(targets=())
    tracer.spans += [
        spans.Span("engine.step", 0.0, 10.0, -1, "p"),
        spans.Span("incremental.dist_clust_trace", 1.0, 5.0, 0, "p"),
        spans.Span("drift.detect", 5.0, 6.0, 0, "p"),
    ]
    assert tracer.self_times() == [5.0, 4.0, 1.0]
    assert spans.step_accounted_s(tracer, {"p"}) == 10.0
