"""The names other code pins: the package's __all__ and the functions the
benchmark's span tracer wraps by module and attribute name."""

import importlib
import importlib.util
from pathlib import Path

import streamclust
from streamclust import Chunk, DriftConfig, EngineState, engine
from conftest import TOY_LABELS, TOY_VALUES

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_lists_each_public_name_once_and_every_name_resolves():
    names = streamclust.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(streamclust, name), name
    assert not {"dist_clust", "summarize", "euclidean"} & set(names)


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
