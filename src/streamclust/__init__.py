"""Incremental clustering for chunked data streams.

Chunks are absorbed into compact cluster summaries one record at a time; a
drift detector watches outlier ratios and per-cluster distribution changes; a
parallel model with a three-strike policy arbitrates between temporary upsets
and sustained change. Ships with benchmark stream generators, evaluation
metrics and a CLI (``streamclust --help``).
"""

__version__ = "0.1.0"

from .bootstrap import kmeans, summarize_trace
from .core import Chunk, ClusteringResult, DriftConfig, minmax_normalize
from .drift import DriftCause, DriftVerdict, detect
from .engine import (
    EngineState,
    ParallelState,
    StepReport,
    init,
    run,
    state_from_json,
    state_to_json,
    step,
)
from .incremental import dist_clust_trace
from .metrics import (
    MetricsReport,
    TcvMatch,
    TimestepMetrics,
    build_report,
    entropy,
    sse,
    step_metrics,
    tcv_distance,
    true_cluster_values,
)
from .stream_io import StreamData, load_dataset, load_stream, write_stream
from .streams import (
    BASE_ANCHORS,
    DRIFT_ANCHORS,
    MERGED_LABEL,
    DriftKind,
    StreamSpec,
    TimestepSpec,
    apply_label_drift,
    chunk_dataset,
    chunk_indices,
    generate_synthetic,
    make_artificial_classes,
    ncd100_spec,
    sdccl_spec,
    sdwcd_spec,
    wcd1000_spec,
)

__all__ = [
    "__version__",
    "Chunk", "ClusteringResult", "DriftConfig",
    "minmax_normalize",
    "kmeans", "summarize_trace",
    "dist_clust_trace",
    "DriftCause", "DriftVerdict", "detect",
    "EngineState", "ParallelState", "StepReport", "init", "step", "run",
    "state_to_json", "state_from_json",
    "DriftKind", "TimestepSpec", "StreamSpec", "generate_synthetic",
    "apply_label_drift", "chunk_dataset", "chunk_indices",
    "make_artificial_classes", "sdwcd_spec", "sdccl_spec", "ncd100_spec",
    "wcd1000_spec", "BASE_ANCHORS", "DRIFT_ANCHORS", "MERGED_LABEL",
    "entropy", "sse", "true_cluster_values", "tcv_distance", "TcvMatch",
    "TimestepMetrics", "MetricsReport", "step_metrics", "build_report",
    "StreamData", "write_stream", "load_stream", "load_dataset",
]
