"""The incremental clustering loop with a three-strike drift policy.

The first chunk bootstraps the main model; later chunks are absorbed
incrementally. When drift is detected, a parallel model is bootstrapped on the
offending chunk and both models advance together. The main model then has
three consecutive chunks to come back with a clean drift verdict:

* it stabilizes -> the parallel model is thrown away,
* it stays drifted for three chunks after activation -> the parallel model
  (which meanwhile absorbed those chunks, retraining itself whenever it
  drifted too) replaces the main model wholesale.

"Parallel" means a second logical model per step, not a thread. The state
holds the parallel model only while drift handling is active, so the
drift-active flag is derived from it rather than stored. Steps never mutate
their input state and never touch the filesystem; the snapshot functions
below only translate state to and from JSON text, the caller owns the bytes.
All randomness in bootstraps is derived from (config.seed, timestamp), so a
resumed run continues bit-identically.
"""

import json
import time
from dataclasses import dataclass

from .bootstrap import KMeansParams, summarize_trace
from .core import Assignment, Chunk, ClusteringResult, ClusterSummary, DriftConfig
from .drift import detect, DriftVerdict
from .incremental import dist_clust_trace

SNAPSHOT_FORMAT = "streamclust-state"
SNAPSHOT_VERSION = 1

# Strike ceiling: activation chunk is strike 1; three more drifted chunks
# exhaust the main model's chances and trigger the swap.
_SWAP_AT = 4


@dataclass(frozen=True)
class ParallelState:
    """The shadow model kept alive while drift handling is active."""

    result: ClusteringResult
    strike: int

    def __post_init__(self):
        if not 1 <= self.strike < _SWAP_AT:
            raise ValueError(f"strike must be in 1..{_SWAP_AT - 1}, got {self.strike}")


@dataclass(frozen=True)
class EngineState:
    main: ClusteringResult
    parallel: ParallelState | None
    timestamp: int
    config: DriftConfig

    @property
    def is_concept_drift(self) -> bool:
        """Drift handling is active exactly while a parallel model exists."""
        return self.parallel is not None


@dataclass(frozen=True)
class StepReport:
    """Everything observable about one processed chunk.

    The cluster_count / outliers / cluster_deltas / assignments fields
    describe the *active* result: the parallel model while drift handling is
    running (it is the model trained on the current structure), the main model
    otherwise. event is one of "bootstrap", "none", "activated", "stabilized",
    "swapped"; parallel_retrained marks steps where the parallel model itself
    drifted and was re-bootstrapped.
    """

    timestamp: int
    event: str
    cluster_count: int
    outliers: int
    cluster_deltas: tuple[int, ...]
    verdict: DriftVerdict | None
    parallel_active: bool
    strike: int
    parallel_retrained: bool
    assignments: tuple[Assignment, ...]
    duration_s: float


def _bootstrap_params(config: DriftConfig, timestamp: int, k: int | None) -> KMeansParams:
    # Seed depends only on (config.seed, timestamp): no shared RNG state, so
    # a run resumed from a snapshot reproduces future bootstraps exactly.
    seed = (config.seed & 0x7FFFFFFF) * 1_000_003 + timestamp
    return KMeansParams(k=k if k is not None else config.k, seed=seed)


def _report(timestamp, event, active, verdict, parallel_active, strike,
            retrained, assignments, started) -> StepReport:
    return StepReport(
        timestamp=timestamp,
        event=event,
        cluster_count=len(active.clusters),
        outliers=active.outliers,
        cluster_deltas=tuple(c.chunk_count for c in active.clusters),
        verdict=verdict,
        parallel_active=parallel_active,
        strike=strike,
        parallel_retrained=retrained,
        assignments=assignments,
        duration_s=time.perf_counter() - started,
    )


def bootstrap(first_chunk: Chunk, config: DriftConfig,
              k: int | None = None) -> tuple[EngineState, StepReport]:
    """Bootstrap the engine on the first chunk of a stream, with its report.

    k overrides config.k for this bootstrap only (callers that derive k per
    chunk inject it here; the engine itself never looks at labels).
    """
    started = time.perf_counter()
    main, assignments = summarize_trace(first_chunk, _bootstrap_params(config, first_chunk.timestamp, k))
    state = EngineState(main, None, first_chunk.timestamp, config)
    report = _report(first_chunk.timestamp, "bootstrap", main, None, False, 0,
                     False, assignments, started)
    return state, report


def init(first_chunk: Chunk, config: DriftConfig, k: int | None = None) -> EngineState:
    """bootstrap() without the report: the bare state to step from."""
    state, _ = bootstrap(first_chunk, config, k)
    return state


def step(state: EngineState, chunk: Chunk, k: int | None = None) -> tuple[EngineState, StepReport]:
    """Advance the engine by one chunk.

    Without active drift: absorb into the main model and check for drift; on
    drift, bootstrap the parallel model on this chunk (strike 1). With active
    drift: absorb into the main model first; a clean verdict stabilizes it and
    discards the parallel model. Otherwise the parallel model absorbs the
    chunk too (re-bootstrapping if it drifted itself) and the strike counter
    grows; on the third drifted chunk after activation the parallel result
    replaces the main model.
    """
    started = time.perf_counter()
    if chunk.timestamp != state.timestamp + 1:
        raise ValueError(
            f"expected chunk timestamp {state.timestamp + 1}, got {chunk.timestamp}"
        )
    config = state.config
    t = chunk.timestamp

    main, main_assign = dist_clust_trace(chunk, state.main)
    verdict = detect(main, state.main, len(chunk), config)

    if not state.is_concept_drift:
        if not verdict.is_drift:
            new_state = EngineState(main, None, t, config)
            return new_state, _report(t, "none", main, verdict, False, 0, False,
                                      main_assign, started)
        para, para_assign = summarize_trace(chunk, _bootstrap_params(config, t, k))
        new_state = EngineState(main, ParallelState(para, 1), t, config)
        return new_state, _report(t, "activated", para, verdict, True, 1, False,
                                  para_assign, started)

    if not verdict.is_drift:
        # Main model recovered: drift handling ends, parallel work is dropped.
        new_state = EngineState(main, None, t, config)
        return new_state, _report(t, "stabilized", main, verdict, False, 0, False,
                                  main_assign, started)

    prev_para = state.parallel.result
    para, para_assign = dist_clust_trace(chunk, prev_para)
    retrained = detect(para, prev_para, len(chunk), config).is_drift
    if retrained:
        para, para_assign = summarize_trace(chunk, _bootstrap_params(config, t, k))
    strike = state.parallel.strike + 1
    if strike >= _SWAP_AT:
        new_state = EngineState(para, None, t, config)
        return new_state, _report(t, "swapped", para, verdict, False, _SWAP_AT,
                                  retrained, para_assign, started)
    new_state = EngineState(main, ParallelState(para, strike), t, config)
    return new_state, _report(t, "none", para, verdict, True, strike, retrained,
                              para_assign, started)


def run(stream, config: DriftConfig, k_for_chunk=None) -> tuple[EngineState, list[StepReport]]:
    """Bootstrap on the first chunk, step through the rest, collect reports.

    k_for_chunk, when given, maps each chunk to the k used for any bootstrap
    on that chunk (the main one at t=1, parallel activations and retrains
    later).
    """
    iterator = iter(stream)
    first = next(iterator, None)
    if first is None:
        raise ValueError("stream yielded no chunks")
    state, report = bootstrap(first, config, k_for_chunk(first) if k_for_chunk else None)
    reports = [report]
    for chunk in iterator:
        state, report = step(state, chunk, k_for_chunk(chunk) if k_for_chunk else None)
        reports.append(report)
    return state, reports


def _result_to_doc(result: ClusteringResult) -> dict:
    return {
        "timestamp": result.timestamp,
        "outliers": result.outliers,
        "clusters": [
            {
                "centroid": list(c.centroid),
                "radius": c.radius,
                "lifetime_count": c.lifetime_count,
                "chunk_count": c.chunk_count,
            }
            for c in result.clusters
        ],
    }


_INT = (int,)
_NUMBER = (int, float)  # the types json.loads gives numbers; bool is neither


def _field(doc: dict, key: str, kinds: tuple = _INT):
    """doc[key], if json.loads gave it one of these types; else a ValueError
    that names the field, so a hand-edited snapshot fails in one line."""
    value = doc[key]
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"snapshot field {key!r} must be {names}, got {value!r}")
    return value


def _result_from_doc(doc: dict) -> ClusteringResult:
    clusters = []
    for c in _field(doc, "clusters", (list,)):
        if type(c) is not dict:
            raise ValueError(f"snapshot field 'clusters' must hold objects, got {c!r}")
        centroid = _field(c, "centroid", (list,))
        if not centroid or any(type(x) not in _NUMBER for x in centroid):
            raise ValueError(
                f"snapshot field 'centroid' must be a non-empty list of numbers, got {centroid!r}"
            )
        clusters.append(ClusterSummary(
            tuple(centroid), _field(c, "radius", _NUMBER),
            _field(c, "lifetime_count"), _field(c, "chunk_count"),
        ))
    return ClusteringResult(tuple(clusters), _field(doc, "outliers"), _field(doc, "timestamp"))


def state_to_json(state: EngineState) -> str:
    """Self-describing JSON snapshot of the full engine state."""
    return json.dumps({
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "timestamp": state.timestamp,
        "is_concept_drift": state.is_concept_drift,
        "config": {
            "k": state.config.k,
            "o_thresh": state.config.o_thresh,
            "d_thresh": state.config.d_thresh,
            "seed": state.config.seed,
        },
        "main": _result_to_doc(state.main),
        "parallel": None
        if state.parallel is None
        else {"strike": state.parallel.strike, "result": _result_to_doc(state.parallel.result)},
    }, indent=2)


def state_from_json(text: str) -> EngineState:
    """Rebuild the engine state from state_to_json's output, validating it."""
    doc = json.loads(text)
    if type(doc) is not dict or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"not a {SNAPSHOT_FORMAT} document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {doc.get('version')!r}")
    cfg = _field(doc, "config", (dict,))
    parallel = _field(doc, "parallel", (dict, type(None)))
    if doc["is_concept_drift"] != (parallel is not None):
        raise ValueError("snapshot must hold a parallel model exactly while drift is active")
    main = _result_from_doc(_field(doc, "main", (dict,)))
    para = None if parallel is None else _result_from_doc(_field(parallel, "result", (dict,)))
    results = (main,) if para is None else (main, para)
    lengths = sorted({len(c.centroid) for r in results for c in r.clusters})
    if len(lengths) > 1:
        raise ValueError(
            f"snapshot field 'centroid' must have one length in every cluster, got {lengths}"
        )
    return EngineState(
        main=main,
        parallel=None if para is None else ParallelState(para, _field(parallel, "strike")),
        timestamp=_field(doc, "timestamp"),
        config=DriftConfig(
            k=_field(cfg, "k"),
            o_thresh=_field(cfg, "o_thresh", _NUMBER),
            d_thresh=_field(cfg, "d_thresh", _NUMBER),
            seed=_field(cfg, "seed"),
        ),
    )
