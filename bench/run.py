#!/usr/bin/env python3
"""streamclust benchmark: user-visible commands end to end, layers when traced.

    python3 bench/run.py --workload wcd1000 --seed 7 --seconds 25 --trace 0

Run from the repository root. Each run builds its workload's stream from
--seed, times the set-up several times, takes reference outputs, then for
--seconds repeats closed-loop cycles of `run`, `resume` (from a mid-stream
snapshot) and `eval`, plus in-process passes of `engine.step` over the
stream. One process, one command at a time, no worker threads.

Every time is taken between two calibrations (bench/calib.py) and reported
in seconds at their reference speed, so that a shared host's moments of
slowness cancel out: running code is scaled by a fixed loop, a command's
start (up to its CLI import) by a fresh interpreter importing numpy. The
process and its children are pinned to one CPU, so the calibrations run
where the timed code runs.

--trace 0 runs the commands as subprocesses and reports the end-to-end
metrics. --trace 1 runs the same cycles in process with spans around each
layer's public functions (bench/spans.py) and reports per-layer metrics.
Every output is checked against the run's first output of the same seed;
a mismatch, a nonzero exit or an `error:` line counts as a failed operation.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import os

# The load is one single-threaded process; keep numeric libraries from
# starting thread pools in it or in the commands it runs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import calib
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

CMD_TIMEOUT_S = 150
MIN_CYCLES = 2
# Step times are scaled by calibrations taken at least every SEGMENT_S.
SEGMENT_S = 0.1
# After each command, engine passes run for at least SLICE_MIN_S and
# SLICE_MIN_STEPS steps. Three slices per cycle and at least two cycles give
# p90 at least ten distinct steps beyond it; spreading the passes over the run
# samples the machine's speed at many moments, not one.
SLICE_MIN_S = 0.25
SLICE_MIN_STEPS = 20
WALL_CLOCK_FIELDS = ("duration_s", "total_runtime_s")


@dataclass(frozen=True)
class Workload:
    name: str
    stream: str  # bundled stream passed to `gen`
    repeat: int = 1  # `run --repeat`
    stop_after: int = 1  # the resumed run continues after this chunk
    setups: int = 3  # set-up repetitions; setup_s is their median


WORKLOADS = {
    # 1 000 chunks, 150k 2-D records, 9 sustained drifts: ingest, records and
    # metrics dominate. Stop after 502 to snapshot with a parallel model live.
    "wcd1000": Workload("wcd1000", "wcd1000", stop_after=502, setups=3),
    # Every event type in each of 100 repeats of 10 chunks: bootstrap, drift
    # and engine policy carry the run, ingest is 1 500 records.
    "sdwcd-repeat": Workload("sdwcd-repeat", "sdwcd", repeat=100, stop_after=7, setups=5),
}


class ProgramMissing(RuntimeError):
    pass


def import_program() -> SimpleNamespace:
    """Import streamclust from this checkout's src/, never from elsewhere."""
    if not (SRC / "streamclust" / "__init__.py").is_file():
        raise ProgramMissing(f"no streamclust sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("cli", "core", "engine", "stream_io")
    mods = {n: importlib.import_module(f"streamclust.{n}") for n in names}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"streamclust imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------- invoking


@dataclass
class Outcome:
    ok: bool
    seconds: float  # wall time
    scaled: float  # wall time in seconds at the calibration's reference speed
    stdout: str
    stderr: str
    rss_mb: float | None = None


def _has_error_line(text: str) -> bool:
    return any(line.startswith("error:") for line in text.splitlines())


class Launcher:
    """Runs `streamclust <argv>` children through bench/launcher.py.

    The launcher is a small process of its own, so a child's peak RSS, read
    from the child's own rusage, is not inflated by the streams this process
    holds. Used as a context manager; leaving it stops the launcher and,
    after an error, every process it started.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv, work: Path) -> Outcome:
        out_path, err_path = work / "stdout.txt", work / "stderr.txt"
        request = {
            "python": sys.executable, "args": [str(a) for a in argv],
            "cwd": str(work), "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "stdout": str(out_path), "stderr": str(err_path), "timeout": CMD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("bench/launcher.py stopped")
        reply = json.loads(line)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        ok = reply["returncode"] == 0 and not _has_error_line(stderr)
        return Outcome(ok, reply["seconds"], reply["scaled"], stdout, stderr,
                       reply["maxrss_kb"] / 1024.0)


def run_in_process(cli, argv) -> Outcome:
    """`cli.main(argv)` in this process, so traced wrappers see its calls."""
    out, err = io.StringIO(), io.StringIO()
    cal_before = calib.calibrate()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    scaled = calib.scale(seconds, cal_before, calib.calibrate())
    ok = code == 0 and not _has_error_line(err.getvalue())
    return Outcome(ok, seconds, scaled, out.getvalue(), err.getvalue())


class StepTimes:
    """Per-step wall times, and the same times scaled by the calibrations
    taken before and after each segment of at most SEGMENT_S. Each time is
    keyed by its step, (repeat, chunk), which every pass of that repeat
    runs again."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.keys: list[tuple[int, int]] = []
        self._pending: list[tuple[tuple[int, int], float]] = []
        self._cal = 0.0
        self._began = 0.0

    def __len__(self) -> int:
        return len(self.raw) + len(self._pending)

    def start(self) -> None:
        self._cal = calib.calibrate()
        self._began = time.perf_counter()

    def add(self, key: tuple[int, int], seconds: float) -> None:
        self._pending.append((key, seconds))
        if time.perf_counter() - self._began >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        """Ends the segment; every call to add() must be followed by one."""
        if not self._pending:
            return
        cal = calib.calibrate()
        self.keys += [key for key, _ in self._pending]
        self.raw += [s for _, s in self._pending]
        self.scaled += [calib.scale(s, self._cal, cal) for _, s in self._pending]
        self._pending = []
        self._cal = cal
        self._began = time.perf_counter()

    def per_step(self) -> list[float]:
        """Each step's median scaled time over the passes that ran it: the
        latency of that chunk, without one pass's interruptions. The step
        quantiles are taken over these, so a p90 is a chunk that is slow
        in every pass."""
        by_step: dict[tuple[int, int], list[float]] = {}
        for key, seconds in zip(self.keys, self.scaled):
            by_step.setdefault(key, []).append(seconds)
        return [statistics.median(v) for v in by_step.values()]


# ---------------------------------------------------------------- checking


def _strip_wall_clock(doc):
    if isinstance(doc, dict):
        return {k: _strip_wall_clock(v) for k, v in doc.items() if k not in WALL_CLOCK_FIELDS}
    if isinstance(doc, list):
        return [_strip_wall_clock(v) for v in doc]
    return doc


def read_report(path: Path) -> list[dict]:
    """metrics.jsonl as a list of documents without wall-clock fields."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [_strip_wall_clock(json.loads(line)) for line in lines if line.strip()]


def report_diff(ref: list[dict], got: list[dict]) -> str | None:
    if len(ref) != len(got):
        return f"{len(got)} report lines, expected {len(ref)}"
    for i, (a, b) in enumerate(zip(ref, got)):
        if a != b:
            return f"report line {i + 1} differs from the first run of this seed"
    return None


def resume_diff(full: list[dict], resumed: list[dict], stop_after: int) -> str | None:
    """The resumed run must equal the tail of the uninterrupted run."""
    full_steps = [d for d in full if d.get("type") == "step"]
    resumed_steps = [d for d in resumed if d.get("type") == "step"]
    if resumed_steps != full_steps[stop_after:]:
        return "resumed step rows differ from the uninterrupted run's tail"
    a, b = full[-1]["runs"][0], resumed[-1]["runs"][0]
    if b["final_centroids"] != a["final_centroids"]:
        return "resumed final centroids differ from the uninterrupted run"
    if b["events"] != a["events"][stop_after:]:
        return "resumed events differ from the uninterrupted run's tail"
    if b["cluster_counts"] != a["cluster_counts"][stop_after:]:
        return "resumed cluster counts differ from the uninterrupted run's tail"
    return None


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    """One benchmark run: counts operations and the ones that failed."""

    def __init__(self, prog, w: Workload, seed: int, work: Path, tracer, launcher: "Launcher | None"):
        self.prog, self.w, self.seed, self.work = prog, w, seed, work
        self.tracer, self.launcher = tracer, launcher
        self.attempted = 0
        self.failures: list[str] = []
        self._failed = False

    def begin(self) -> None:
        self.attempted += 1
        self._failed = False

    def fail(self, message: str) -> None:
        if not self._failed:  # an operation fails once, however many checks it misses
            self._failed = True
            self.failures.append(message)

    def phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def cmd(self, *argv) -> Outcome:
        self.begin()
        if self.tracer:
            outcome = run_in_process(self.prog.cli, argv)
        else:
            outcome = self.launcher.run(argv, self.work)
        if not outcome.ok:
            tail = outcome.stderr.strip().splitlines()[-1:] or ["no message"]
            self.fail(f"`{argv[0]}` failed: {tail[0]}")
        return outcome

    def import_times(self, n: int) -> list[float]:
        """Wall time of `python -c "import streamclust.cli"`, n times."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(n):
            self.begin()
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import streamclust.cli"], env=env,
                                  capture_output=True, cwd=self.work, timeout=CMD_TIMEOUT_S)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                self.fail("`import streamclust.cli` failed")
        return times

    def check(self, problem: str | None) -> None:
        if problem:
            self.fail(problem)

    def checked_report(self, path: Path, ref=None):
        try:
            report = read_report(path)
        except (OSError, ValueError) as exc:
            self.fail(f"unreadable {path.name}: {exc}")
            return None
        if ref is not None:
            self.check(report_diff(ref, report))
        return report

    # -- phases of a run ------------------------------------------------

    def setup(self) -> list[Outcome]:
        outcomes, digest = [], None
        for i in range(self.w.setups):
            self.phase(f"setup-{i}")
            out = self.work / f"stream-{i}"
            o = self.cmd("gen", self.w.stream, "--seed", self.seed, "--out", out)
            outcomes.append(o)
            if not (out / "manifest.json").is_file():
                continue
            if i == 0:
                digest = tree_digest(out)
            else:
                if tree_digest(out) != digest:
                    self.fail("regenerating the stream from the same seed changed its bytes")
                shutil.rmtree(out)
        return outcomes

    def engine_pass(self, chunks, ks, offset: int, ref_events, times: StepTimes) -> None:
        """Feed the stream once through engine.init/step as `run` repeat
        `offset` does, timing each step."""
        cli, engine = self.prog.cli, self.prog.engine
        self.begin()
        config = self.prog.core.DriftConfig(
            k=ks[0], o_thresh=cli.DEFAULT_O_THRESH,
            d_thresh=cli.DEFAULT_D_THRESH_SYNTHETIC, seed=self.seed + offset,
        )
        step = engine.step  # looked up per pass: traced passes get the wrapper
        state = engine.init(chunks[0], config, ks[0])
        events = ["bootstrap"]
        for i, (chunk, k) in enumerate(zip(chunks[1:], ks[1:])):
            t0 = time.perf_counter()
            state, report = step(state, chunk, k)
            times.add((offset, i), time.perf_counter() - t0)
            events.append(report.event)
            if report.outliers + sum(report.cluster_deltas) != len(chunk):
                self.fail(f"records not conserved at t={chunk.timestamp}")
        if offset < len(ref_events) and events != ref_events[offset]:
            self.fail(f"in-process events for seed {self.seed + offset} differ from `run`")


def _quantile(values, q: int) -> float:
    """q-th decile (1..9) of the samples, inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_workload(prog, launcher: "Launcher | None", w: Workload, seed: int, seconds: float,
                 trace: bool, work: Path):
    """Returns (bench, metrics {name: (value, unit)}, notes {name: text})."""
    tracer = spans.Tracer() if trace else None
    b = Bench(prog, w, seed, work, tracer, launcher)
    if tracer:
        tracer.install()

    setups = b.setup()
    setup_s = [o.scaled for o in setups]
    raw = {"setup_s": [o.seconds for o in setups], "run_s": [], "resume_s": [], "eval_s": []}
    manifest = work / "stream-0" / "manifest.json"

    run_argv = ("run", manifest, "--seed", seed, "--repeat", w.repeat,
                "--out", work / "run")
    resume_argv = ("resume", manifest, "--snapshot", work / "snapshot.json",
                   "--out", work / "resume")
    eval_argv = ("eval", manifest, work / "run" / "metrics.jsonl")

    b.phase("prep")
    data = prog.stream_io.load_stream(manifest)
    chunks = list(data.chunks)
    ks = [prog.cli._labels_k(c) for c in chunks]  # the CLI's default k policy

    # The first cycle's outputs are the references every later cycle must
    # reproduce; its commands are timed like any other cycle's.
    ref: dict = {}
    samples = {"run_s": [], "resume_s": [], "eval_s": [], "peak_rss_mb": []}
    steps, traced_steps = StepTimes(), StepTimes()
    passes = [0, 0]  # engine passes run so far: untraced, traced

    def timed_passes(times: StepTimes, kind: int) -> None:
        start, began = len(times), time.perf_counter()
        times.start()
        while len(times) - start < SLICE_MIN_STEPS or time.perf_counter() - began < SLICE_MIN_S:
            b.engine_pass(chunks, ks, passes[kind] % w.repeat, ref["events"], times)
            passes[kind] += 1
        times.flush()

    def step_slice(cycle: int) -> None:
        """Engine passes between two commands; traced runs add a traced slice."""
        if tracer:
            tracer.uninstall()
        timed_passes(steps, 0)
        if tracer:
            tracer.install()
            b.phase(f"traced-{cycle}")
            timed_passes(traced_steps, 1)

    def do_run(cycle: int) -> None:
        o = b.cmd(*run_argv)
        samples["run_s"].append(o.scaled)
        raw["run_s"].append(o.seconds)
        if o.rss_mb is not None:
            samples["peak_rss_mb"].append(o.rss_mb)
        report = b.checked_report(work / "run" / "metrics.jsonl", ref.get("run"))
        counts = (work / "run" / "cluster_counts.tsv").read_bytes() if report else b""
        if cycle > 0:
            if counts != ref["counts"]:
                b.fail("cluster_counts.tsv differs from the first run of this seed")
            return
        ref["run"], ref["counts"] = report, counts
        ref["events"] = [r["events"] for r in report[-1]["runs"]] if report else []
        b.phase("reference")
        ref["single"] = report
        if w.repeat != 1:
            b.cmd("run", manifest, "--seed", seed, "--out", work / "single")
            ref["single"] = b.checked_report(work / "single" / "metrics.jsonl")
        b.cmd("run", manifest, "--seed", seed, "--stop-after", w.stop_after,
              "--snapshot", work / "snapshot.json", "--out", work / "suspend")

    def do_resume(cycle: int) -> None:
        o = b.cmd(*resume_argv)
        samples["resume_s"].append(o.scaled)
        raw["resume_s"].append(o.seconds)
        resumed = b.checked_report(work / "resume" / "metrics.jsonl", ref.get("resume"))
        if cycle == 0:
            ref["resume"] = resumed
            if ref["single"] and resumed:
                b.check(resume_diff(ref["single"], resumed, w.stop_after))

    def do_eval(cycle: int) -> None:
        o = b.cmd(*eval_argv)
        samples["eval_s"].append(o.scaled)
        raw["eval_s"].append(o.seconds)
        ref.setdefault("eval", o.stdout)
        if o.stdout != ref["eval"]:
            b.fail("eval output differs from the first eval of this seed")

    # A cycle is run, resume, eval, each followed by engine passes. The
    # deadline is checked before every command, after MIN_CYCLES cycles.
    actions = (do_run, do_resume, do_eval)
    done = 0
    deadline = time.perf_counter() + seconds
    while done < MIN_CYCLES * len(actions) or time.perf_counter() < deadline:
        cycle = done // len(actions)
        b.phase(f"cycle-{cycle}")
        actions[done % len(actions)](cycle)
        step_slice(cycle)
        done += 1
    cycles = done // len(actions)  # complete cycles

    records = sum(len(c) for c in chunks) * w.repeat
    med = statistics.median
    notes = {name: f"n={len(v)}" for name, v in samples.items()}
    for name, v in raw.items():  # wall time as measured, before scaling
        notes[name] = f"n={len(v)}, wall median {med(v):.4g} s"
    step_ms = [1e3 * v for v in steps.per_step()]
    for q, name in ((5, "step_ms.p50"), (9, "step_ms.p90")):
        notes[name] = (f"n={len(steps)} engine.step calls of {len(step_ms)} steps, "
                       f"pooled wall p{q}0 {1e3 * _quantile(steps.raw, q):.4g} ms")
    if not trace:
        run_s = med(samples["run_s"])
        metrics = {
            "setup_s": (med(setup_s), "s"),
            "run_s": (run_s, "s"),
            "records_per_s": (records / run_s, "1/s"),
            "resume_s": (med(samples["resume_s"]), "s"),
            "eval_s": (med(samples["eval_s"]), "s"),
            "step_ms.p50": (med(step_ms), "ms"),
            "step_ms.p90": (_quantile(step_ms, 9), "ms"),
            "peak_rss_mb": (med(samples["peak_rss_mb"]), "MB"),
        }
        notes["records_per_s"] = f"{records} records per run"
        return b, metrics, notes

    tracer.uninstall()
    tracer.check_fired(w.name)
    bad = spans.conservation_failures(tracer)
    if bad:
        b.begin()
        b.fail(f"{bad} traced steps did not conserve records")
    cycle_phases = [f"cycle-{i}" for i in range(cycles)]
    metrics = spans.layer_metrics(
        tracer,
        setup_phases=[f"setup-{i}" for i in range(w.setups)],
        cycle_phases=cycle_phases,
        snapshot_phases=["reference"],
    )
    metrics["cli.import_s"] = (med(b.import_times(3)), "s")
    traced_phases = {f"traced-{i}" for i in range(cycles + 1)}
    accounted = spans.step_accounted_s(tracer, traced_phases)
    traced_p50 = 1e3 * med(traced_steps.per_step())
    untraced_p50 = med(step_ms)
    metrics.update({
        "trace.step_ms.p50": (traced_p50, "ms"),
        "trace.untraced_step_ms.p50": (untraced_p50, "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
        "trace.accounted_share": (accounted / sum(traced_steps.raw), "ratio"),
        "trace.step_samples": (len(traced_steps), "count"),
        "trace.cycles": (cycles, "count"),
    })
    return b, metrics, notes


# ---------------------------------------------------------------- output


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        "seed": seed,
        "git_commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def pin_to_one_cpu() -> int | None:
    """Pins this process, and so every process it starts, to one CPU, so
    that calibrations run on the CPU the timed code runs on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prog = import_program()
        env = environment(args.seed)
        env["cpu"] = pin_to_one_cpu()
        env["calibration_ms"] = round(1e3 * calib.calibrate(), 4)
        env["start_calibration_ms"] = round(1e3 * calib.calibrate_start(), 2)
        work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            # Traced runs call the CLI in process and need no launcher.
            with contextlib.nullcontext() if args.trace else Launcher() as launcher:
                b, metrics, notes = run_workload(prog, launcher, WORKLOADS[args.workload],
                                                 args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_ROOT.rmdir()
    except (ProgramMissing, ImportError, spans.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = len(b.failures)
    for message in b.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"# env {json.dumps(env)}")
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"#   error_rate {failed}/{b.attempted} = {failed / b.attempted:.4f}")
    result = {
        "correct": failed == 0,
        "attempted": b.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
