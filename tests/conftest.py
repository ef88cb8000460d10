import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamclust import Chunk, engine
from streamclust.core import class_means

# 8-record, 2-attribute toy dataset with two classes; values already in [0,1].
TOY_ROWS = (
    ((0.052, 0.153), 1),
    ((0.061, 0.252), 1),
    ((0.046, 0.175), 1),
    ((0.055, 0.183), 1),
    ((0.957, 0.858), 2),
    ((0.965, 0.752), 2),
    ((0.957, 0.858), 2),
    ((0.965, 0.752), 2),
)

# 6-record, 4-attribute chunk used to pin down artificial-class binning,
# together with the expected bin grid for 3 classes.
BINNING_ROWS = (
    (0.052, 0.153, 0.772, 0.953),
    (0.061, 0.252, 0.761, 0.952),
    (0.957, 0.858, 0.257, 0.258),
    (0.965, 0.752, 0.265, 0.252),
    (0.543, 0.533, 0.012, 0.092),
    (0.496, 0.488, 0.022, 0.097),
)
BINNING_LABELS = (1, 1, 2, 2, 3, 3)
EXPECTED_BINS = (
    (1, 1, 3, 3),
    (1, 1, 3, 3),
    (3, 3, 2, 2),
    (3, 3, 2, 2),
    (2, 2, 1, 1),
    (2, 2, 1, 1),
)


TOY_VALUES = np.array([values for values, _ in TOY_ROWS])
TOY_LABELS = np.array([label for _, label in TOY_ROWS])


@pytest.fixture
def toy_chunk():
    return Chunk(1, TOY_VALUES, TOY_LABELS)


def chunk_rows(chunk: Chunk) -> list[tuple[float, ...]]:
    """A chunk's records as tuples of Python floats, in record order."""
    return list(zip(*chunk.values.T.tolist()))


def match_distances(match) -> tuple[float, ...]:
    """The distances of a tcv_distance match's pairs, in cluster order."""
    return tuple(d for _, _, d in match.pairs)


def merged_class_means(chunks) -> list[tuple[int, tuple[float, ...]]]:
    """core.class_means over the labeled chunks merged in stream order: what
    write_stream stores in a stream's manifest."""
    return class_means(np.concatenate([c.values for c in chunks]),
                       np.concatenate([c.labels for c in chunks]))


def run_python(*args, cwd=None, timeout=10):
    """python args in a fresh interpreter that imports this checkout's
    streamclust, killed after timeout seconds: a hang raises
    subprocess.TimeoutExpired, which fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def without_wall_clock(doc):
    """A metrics.jsonl line's JSON value without its wall-clock fields
    (duration_s, total_runtime_s), at any depth."""
    if isinstance(doc, dict):
        return {k: without_wall_clock(v) for k, v in doc.items()
                if k not in ("duration_s", "total_runtime_s")}
    if isinstance(doc, list):
        return [without_wall_clock(v) for v in doc]
    return doc


def same_chunk(a: Chunk, b: Chunk) -> bool:
    """Float-exact equality of timestamp, values, labels and artificial classes."""
    def same(x, y):
        return x is None and y is None or x is not None and y is not None and np.array_equal(x, y)
    return (a.timestamp == b.timestamp and np.array_equal(a.values, b.values)
            and same(a.labels, b.labels) and same(a.artificial_classes, b.artificial_classes))


def run_all(chunks, config):
    """engine.run to the stream's end: the final state and every report."""
    state, reports = None, []
    for _, state, report in engine.run(chunks, [config]):
        reports.append(report)
    return state, reports
