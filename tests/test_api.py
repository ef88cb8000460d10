"""The names other code pins: the package's __all__ and the functions the
benchmark's span tracer wraps by module and attribute name."""

import importlib
import importlib.util
import re
from pathlib import Path

import streamclust
from streamclust import Chunk, DriftConfig, EngineState, engine
from streamclust.cli import main
from conftest import TOY_LABELS, TOY_VALUES, run_python

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_all_lists_each_public_name_once_and_every_name_resolves():
    names = streamclust.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(streamclust, name), name
    deleted = {"dist_clust", "summarize", "euclidean", "ClusterSummary", "KMeansParams",
               "kmeans", "apply_label_drift", "ParallelState", "BASE_ANCHORS", "DRIFT_ANCHORS",
               "MERGED_LABEL", "sse", "MetricsReport", "TimestepMetrics", "chunk_indices",
               "DriftKind", "DriftCause"}
    assert not deleted & set(names)
    assert not any(hasattr(streamclust, name) for name in deleted)
    assert set(names) <= set(dir(streamclust)) and not deleted & set(dir(streamclust))


def test_star_import_binds_every_public_name():
    names = {}
    exec("from streamclust import *", names)
    assert all(names[name] is getattr(streamclust, name) for name in streamclust.__all__)


_ENGINE_PARTS = {f"streamclust.{m}" for m in ("engine", "bootstrap", "incremental", "drift")}
# dataclasses loads inspect, ast, dis and tokenize; the value types are named
# tuples, and numpy loads inspect itself
_INTROSPECTION = {"dataclasses", "inspect"}


def _modules_loaded_by(code, cwd):
    """The names of the modules that code leaves in sys.modules, run in a
    fresh interpreter so that nothing this process imported counts."""
    code += "\nimport sys\nprint(*sorted(sys.modules))"
    proc = run_python("-c", code, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    loaded = _modules_loaded_by("import streamclust.cli", tmp_path)
    assert not (_ENGINE_PARTS | _INTROSPECTION | {"numpy", "streamclust.streams"}) & loaded

    gen = "from streamclust.cli import main\nmain(['gen', 'sdwcd', '--out', 's'])"
    loaded = _modules_loaded_by(gen, tmp_path)
    assert "streamclust.streams" in loaded
    assert not (_ENGINE_PARTS | {"streamclust.metrics", "dataclasses"}) & loaded

    # only chunk reads a dataset file and only gen and chunk build streams.
    # load_stream checks the manifest's class means against the arrays run
    # reads, not the arrays against their digests, and a bootstrap draws its
    # first center with random.Random: without --snapshot, run loads no OpenSSL.
    run = "from streamclust.cli import main\nmain(['run', 's/manifest.json', '--out', 'r'])"
    loaded = _modules_loaded_by(run, tmp_path)
    assert {"numpy", "streamclust.bootstrap"} <= loaded
    assert not {"csv", "streamclust.streams", "numpy.random", "secrets", "hashlib",
                "_hashlib", "dataclasses"} & loaded
    assert main(["run", str(tmp_path / "s" / "manifest.json"), "--stop-after", "4",
                 "--snapshot", str(tmp_path / "snap.json"), "--out", str(tmp_path / "p")]) == 0
    resume = ("from streamclust.cli import main\n"
              "main(['resume', 's/manifest.json', '--snapshot', 'snap.json', '--out', 'rr'])")
    loaded = _modules_loaded_by(resume, tmp_path)
    assert "streamclust.engine" in loaded
    # resume checks the snapshot's chunks_sha256, so it does load hashlib
    assert not {"csv", "streamclust.streams", "numpy.random", "dataclasses"} & loaded

    # eval reads the manifest and the arrays' digests, never the arrays
    loaded = _modules_loaded_by(
        "from streamclust.cli import main\nmain(['eval', 's/manifest.json', 'r/metrics.jsonl'])",
        tmp_path)
    assert {"streamclust.metrics", "hashlib"} <= loaded
    assert not (_ENGINE_PARTS | _INTROSPECTION | {"csv", "numpy", "streamclust.streams",
                                                  "streamclust.stream_io"}) & loaded


def test_bench_traced_functions_exist():
    # the traced benchmark wraps these by name and fails when one is missing
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for target in spans.TARGETS:
        module = importlib.import_module(target.module)
        assert callable(getattr(module, target.attr, None)), f"{target.module}.{target.attr}"
    # the benchmark's engine passes call init for a bare state
    state = engine.init(Chunk(1, TOY_VALUES, TOY_LABELS), DriftConfig(k=2), 2)
    assert isinstance(state, EngineState)


def test_readme_library_example_runs():
    # the README's one python block, run as written against this checkout
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    proc = run_python("-c", blocks[0], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
