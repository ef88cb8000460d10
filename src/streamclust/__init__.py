"""Incremental clustering for chunked data streams.

Chunks are absorbed into compact cluster summaries one record at a time; a
drift detector watches outlier ratios and per-cluster distribution changes; a
parallel model with a three-strike policy arbitrates between temporary upsets
and sustained change. Ships with benchmark stream generators, evaluation
metrics and a CLI (``streamclust --help``).
"""

import importlib

__version__ = "0.1.0"

# Each public name, listed once under the submodule that defines it. A name
# is imported on first use (PEP 562), so `import streamclust` loads no
# submodule and each CLI command loads only the ones it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "core": "Chunk ClusteringResult DriftConfig minmax_normalize",
        "bootstrap": "summarize_trace",
        "incremental": "dist_clust_trace",
        "drift": "DriftCause DriftVerdict detect",
        "engine": "EngineState StepReport init step run state_to_json state_from_json",
        "streams": "DriftKind TimestepSpec StreamSpec generate_synthetic chunk_dataset "
                   "chunk_indices make_artificial_classes sdwcd_spec sdccl_spec "
                   "ncd100_spec wcd1000_spec",
        "metrics": "entropy true_cluster_values tcv_distance TcvMatch TimestepMetrics "
                   "MetricsReport step_metrics build_report",
        "stream_io": "StreamData write_stream load_stream load_dataset",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
