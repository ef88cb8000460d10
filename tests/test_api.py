"""The names other code pins: the package's __all__ and the functions the
benchmark's span tracer wraps by module and attribute name."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import streamclust
from streamclust import Chunk, DriftConfig, EngineState, engine
from streamclust.cli import main
from conftest import TOY_LABELS, TOY_VALUES

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_all_lists_each_public_name_once_and_every_name_resolves():
    names = streamclust.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(streamclust, name), name
    deleted = {"dist_clust", "summarize", "euclidean", "ClusterSummary", "KMeansParams",
               "kmeans", "apply_label_drift", "ParallelState", "BASE_ANCHORS", "DRIFT_ANCHORS",
               "MERGED_LABEL", "sse"}
    assert not deleted & set(names)
    assert not any(hasattr(streamclust, name) for name in deleted)


def test_star_import_binds_every_public_name():
    names = {}
    exec("from streamclust import *", names)
    assert all(names[name] is getattr(streamclust, name) for name in streamclust.__all__)


_ENGINE_PARTS = {f"streamclust.{m}" for m in ("engine", "bootstrap", "incremental", "drift")}


def _modules_loaded_by(code, cwd):
    """The streamclust modules that code leaves in sys.modules, run in a
    fresh interpreter so that nothing this process imported counts."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code += "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('streamclust')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    assert not _ENGINE_PARTS & _modules_loaded_by("import streamclust.cli", tmp_path)

    gen = "from streamclust.cli import main\nmain(['gen', 'sdwcd', '--out', 's'])"
    loaded = _modules_loaded_by(gen, tmp_path)
    assert "streamclust.streams" in loaded
    assert not (_ENGINE_PARTS | {"streamclust.metrics"}) & loaded

    run = ["run", str(tmp_path / "s" / "manifest.json"), "--out", str(tmp_path / "r")]
    assert main(run) == 0
    loaded = _modules_loaded_by(
        "from streamclust.cli import main\nmain(['eval', 's/manifest.json', 'r/metrics.jsonl'])",
        tmp_path)
    assert "streamclust.metrics" in loaded
    assert not _ENGINE_PARTS & loaded


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
