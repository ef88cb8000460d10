"""Span tracing around streamclust's public functions, from outside the package.

The traced run replaces each function named in TARGETS by a wrapper in every
streamclust module that binds it (``from .x import f`` copies the binding, so
patching the defining module alone would miss most calls). A wrapper records
one span per call: name, start, end, parent span and the phase of the
benchmark it ran in. Spans stay in memory until the run ends.

Every layer works on every workload. A target that no longer exists fails
the run at install time; a target that exists but never fires fails the run
at the end. Either way a renamed function cannot silently drop a layer out
of the numbers.
"""

import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


class TraceError(RuntimeError):
    """A wrapped function is missing or its span never fired."""


@dataclass(frozen=True)
class Target:
    layer: str
    module: str
    attr: str
    # Called with (counts, args, result) after each call; adds layer counters.
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


def _count_load(counts, args, data):
    counts["stream_io.records"] += sum(len(c) for c in data.chunks)
    counts["stream_io.loads"] += 1


def _count_absorb(counts, args, out):
    result, _ = out
    counts["incremental.records"] += len(args[0])
    counts["incremental.outliers"] += result.outliers


def _count_detect(counts, args, verdict):
    counts["drift.drifts"] += bool(verdict.is_drift)


def _count_step(counts, args, out):
    _, report = out
    chunk = args[1]
    if report.event in ("activated", "stabilized", "swapped"):
        counts[f"engine.events.{report.event}"] += 1
    counts["engine.events.retrained"] += bool(report.parallel_retrained)
    # Conservation: every record of the chunk is absorbed or an outlier.
    if report.outliers + sum(report.cluster_deltas) != len(chunk):
        counts["engine.conservation_failures"] += 1


def _count_snapshot(counts, args, text):
    counts["engine.snapshot_bytes"] += len(text.encode("utf-8"))


TARGETS = (
    Target("stream_io", "streamclust.stream_io", "load_stream", count=_count_load),
    Target("stream_io", "streamclust.stream_io", "write_stream"),
    Target("streams", "streamclust.streams", "generate_synthetic"),
    Target("incremental", "streamclust.incremental", "dist_clust_trace", count=_count_absorb),
    Target("bootstrap", "streamclust.bootstrap", "summarize_trace"),
    Target("drift", "streamclust.drift", "detect", count=_count_detect),
    Target("engine", "streamclust.engine", "step", count=_count_step),
    Target("engine", "streamclust.engine", "state_to_json", count=_count_snapshot),
    Target("engine", "streamclust.engine", "state_from_json"),
    Target("metrics", "streamclust.metrics", "true_cluster_values"),
    Target("metrics", "streamclust.metrics", "build_report"),
    Target("metrics", "streamclust.metrics", "tcv_distance"),
    Target("metrics", "streamclust.metrics", "reports_to_jsonl"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    phase: str


class Tracer:
    """Installs wrappers around TARGETS and keeps every span in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase = "prep"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(target.name, time.perf_counter(), 0.0,
                              stack[-1] if stack else -1, self.phase))
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()
            if target.count is not None:
                target.count(self.counts[self.phase], args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            return
        for target in self.targets:
            module = importlib.import_module(target.module)
            fn = getattr(module, target.attr, None)
            if fn is None:
                self.uninstall()
                raise TraceError(
                    f"{target.module}.{target.attr} no longer exists; update bench/spans.py"
                )
            wrapper = self._wrap(target, fn)
            for name, mod in list(sys.modules.items()):
                if name != "streamclust" and not name.startswith("streamclust."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def check_fired(self, workload: str) -> None:
        fired = {s.name for s in self.spans}
        missing = [t.name for t in self.targets if t.name not in fired]
        if missing:
            raise TraceError(
                f"span(s) {', '.join(missing)} never fired on {workload}; "
                "was the function renamed or is it no longer called?"
            )

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _per_phase(tracer: Tracer, phases, names, self_time=False) -> list[float]:
    """Per phase: summed inclusive (or self) time of the named spans.

    A span whose parent is also named is skipped for inclusive time, because
    its parent's duration already covers it.
    """
    selfs = tracer.self_times() if self_time else None
    totals = {p: 0.0 for p in phases}
    for i, s in enumerate(tracer.spans):
        if s.phase not in totals or s.name not in names:
            continue
        if self_time:
            totals[s.phase] += selfs[i]
        elif s.parent < 0 or tracer.spans[s.parent].name not in names:
            totals[s.phase] += s.end - s.start
    return [totals[p] for p in phases]


def layer_metrics(tracer: Tracer, setup_phases, cycle_phases, snapshot_phases) -> dict:
    """Per-layer numbers, each a median over the phases it is measured in.

    Time metrics are per cycle (one run, resume and eval) unless noted;
    write/generate times are per setup; snapshot time is the reference
    suspend plus its resume. Counts are per cycle.
    """
    med = statistics.median

    def per_cycle_count(key):
        return med(tracer.counts[p][key] for p in cycle_phases)

    def total(key):
        return sum(tracer.counts[p][key] for p in cycle_phases)

    def cycle_time(*names, self_time=False):
        return med(_per_phase(tracer, cycle_phases, names, self_time))

    def calls(name):
        return med(sum(1 for s in tracer.spans if s.phase == p and s.name == name)
                   for p in cycle_phases)

    absorb_s = sum(_per_phase(tracer, cycle_phases, ("incremental.dist_clust_trace",)))
    boot_s = sum(_per_phase(tracer, cycle_phases, ("bootstrap.summarize_trace",)))
    boot_calls = sum(1 for s in tracer.spans
                     if s.phase in cycle_phases and s.name == "bootstrap.summarize_trace")
    detect_calls = calls("drift.detect")
    absorbed = total("incremental.records")
    loads = total("stream_io.loads")
    snapshot_s = sum(_per_phase(
        tracer, snapshot_phases, ("engine.state_to_json", "engine.state_from_json")))

    return {
        "stream_io.load_stream_s": (cycle_time("stream_io.load_stream"), "s"),
        "stream_io.write_stream_s": (
            med(_per_phase(tracer, setup_phases, ("stream_io.write_stream",))), "s"),
        "stream_io.records": (total("stream_io.records") / max(loads, 1), "count"),
        "streams.generate_synthetic_s": (
            med(_per_phase(tracer, setup_phases, ("streams.generate_synthetic",))), "s"),
        "incremental.dist_clust_s": (cycle_time("incremental.dist_clust_trace"), "s"),
        "incremental.calls": (calls("incremental.dist_clust_trace"), "count"),
        "incremental.us_per_record": (1e6 * absorb_s / max(absorbed, 1), "us"),
        "incremental.outlier_share": (total("incremental.outliers") / max(absorbed, 1), "ratio"),
        "bootstrap.summarize_s": (cycle_time("bootstrap.summarize_trace"), "s"),
        "bootstrap.calls": (calls("bootstrap.summarize_trace"), "count"),
        "bootstrap.ms_per_call": (1e3 * boot_s / max(boot_calls, 1), "ms"),
        "drift.detect_s": (cycle_time("drift.detect"), "s"),
        "drift.calls": (detect_calls, "count"),
        "drift.drift_share": (per_cycle_count("drift.drifts") / max(detect_calls, 1), "ratio"),
        "engine.step_self_s": (cycle_time("engine.step", self_time=True), "s"),
        "engine.events.activated": (per_cycle_count("engine.events.activated"), "count"),
        "engine.events.stabilized": (per_cycle_count("engine.events.stabilized"), "count"),
        "engine.events.swapped": (per_cycle_count("engine.events.swapped"), "count"),
        "engine.events.retrained": (per_cycle_count("engine.events.retrained"), "count"),
        "engine.snapshot_s": (snapshot_s, "s"),
        "engine.snapshot_bytes": (
            sum(tracer.counts[p]["engine.snapshot_bytes"] for p in snapshot_phases), "bytes"),
        "metrics.true_cluster_values_s": (cycle_time("metrics.true_cluster_values"), "s"),
        "metrics.build_report_s": (cycle_time("metrics.build_report"), "s"),
        "metrics.tcv_distance_s": (cycle_time("metrics.tcv_distance"), "s"),
        "metrics.reports_to_jsonl_s": (cycle_time("metrics.reports_to_jsonl"), "s"),
    }


def conservation_failures(tracer: Tracer) -> int:
    return sum(c["engine.conservation_failures"] for c in tracer.counts.values())


def step_accounted_s(tracer: Tracer, phases) -> float:
    """Summed self times of engine.step spans and of every span beneath them."""
    selfs = tracer.self_times()
    roots: list[int] = []
    total = 0.0
    for i, s in enumerate(tracer.spans):
        root = i if s.parent < 0 else roots[s.parent]
        roots.append(root)
        if s.phase in phases and tracer.spans[root].name == "engine.step":
            total += selfs[i]
    return total
