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
from conftest import TOY_LABELS, TOY_VALUES

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_all_lists_each_public_name_once_and_every_name_resolves():
    names = streamclust.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(streamclust, name), name
    deleted = {"dist_clust", "summarize", "euclidean", "ClusterSummary", "KMeansParams"}
    assert not deleted & set(names)
    assert not any(hasattr(streamclust, name) for name in deleted)


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
