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
drift-active flag is derived from it. Steps never mutate their input state
and never touch the filesystem; the snapshot functions below translate
state to and from JSON text, each result one list per field, and the caller
owns the bytes. All randomness in bootstraps comes from (config.seed,
timestamp), so a resumed run continues bit-identically.

Absorbs carry no seed: an absorb is a pure function of the chunk and the
previous model. The seed reaches a bootstrap only through its first draw,
the index of the first seeded center: the seeding and Lloyd's first
iteration are a pure function of the chunk, k and that index, and the rest
of the bootstrap is one of the chunk, k and that iteration's labels and
centroids (see summarize_trace). run() advances several runs in lockstep,
chunk by chunk, and lets the runs share each chunk's absorbs and
bootstraps: a run that holds the same previous model object as another,
or whose first draw or bootstrap state is bit for bit another's, reuses
that run's work instead of repeating it. Runs that shared a step's work
hold its result objects from then on.
"""

import functools
import json
import time
from collections import namedtuple

from .bootstrap import summarize_trace
from .core import checked_make, Chunk, ClusteringResult, DriftConfig
from .drift import detect
from .incremental import dist_clust_trace
from .jsondoc import JSON_NUMBER, from_doc, json_field, parse_json, sha256, to_doc

SNAPSHOT_FORMAT = "streamclust-state"
# 2: config.k may be null, the k-from-labels policy; 3: chunks_sha256 names the stream;
# 4: no drift flag or per-result timestamp, which restated other fields;
# 5: each result one list per ClusteringResult field, strike at the top level
SNAPSHOT_VERSION = 5

# Strike ceiling: activation chunk is strike 1; three more drifted chunks
# exhaust the main model's chances and trigger the swap.
_SWAP_AT = 4


class EngineState(namedtuple("EngineState", "main parallel strike config timestamp")):
    """The main model and, while drift handling is active, the parallel
    model with its strike (1..3, else 0), as of chunk timestamp (>= 1).
    Checked on construction and by _replace."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.timestamp < 1:
            raise ValueError(f"state timestamp must be >= 1, got {self.timestamp}")
        if self.parallel is None:
            if self.strike != 0:
                raise ValueError(f"strike must be 0 without a parallel model, got {self.strike}")
        elif not 1 <= self.strike < _SWAP_AT:
            raise ValueError(f"strike must be in 1..{_SWAP_AT - 1}, got {self.strike}")
        return self

    _make = checked_make


StepReport = namedtuple("StepReport", "event outliers cluster_deltas verdict parallel_retrained "
                                      "clusters sse duration_s")
StepReport.__doc__ = """What one processed chunk did; the state returned with it holds the
timestamp, the strike and whether drift handling is active.

outliers, cluster_deltas (one per cluster), clusters and sse describe
the *active* result, state.parallel or state.main: the parallel model
while drift handling runs (it is trained on the current structure), the
main model otherwise. clusters and sse are its trace (see
dist_clust_trace): a cluster index per record, -1 for an outlier, and the
step's SSE. event is one of "bootstrap", "none", "activated",
"stabilized", "swapped"; verdict is the main model's, None on a
bootstrap; parallel_retrained marks steps where the parallel model itself
drifted and was re-bootstrapped.

duration_s is the step's wall-clock time. An absorb or bootstrap that
lockstep runs share (see run) counts only in the step that computed it;
the runs that reuse it spend no time on it.
"""


def _bootstrap_seed(config: DriftConfig, timestamp: int) -> int:
    # Seed depends only on (config.seed, timestamp): no shared RNG state, so
    # a run resumed from a snapshot reproduces future bootstraps exactly.
    return (config.seed & 0x7FFFFFFF) * 1_000_003 + timestamp


def _report(event, active, verdict, retrained, trace, started) -> StepReport:
    clusters, sse = trace
    return StepReport(event, active.outliers, active.chunk_counts, verdict, retrained,
                      clusters, sse, time.perf_counter() - started)


def _k(config: DriftConfig, k: int | None) -> int:
    k = config.k if k is None else k
    if k is None:
        raise ValueError("no k to bootstrap with: the config leaves k to the caller, who gave none")
    return k


def bootstrap(first_chunk: Chunk, config: DriftConfig, k: int | None = None,
              shared: dict | None = None) -> tuple[EngineState, StepReport]:
    """Bootstrap the engine on the first chunk of a stream, with its report.

    k overrides config.k for this bootstrap only (callers that derive k per
    chunk inject it here; the engine itself never looks at labels). shared
    is the chunk's dict of shared work, as in step.
    """
    started = time.perf_counter()
    t = first_chunk.timestamp
    main, trace = summarize_trace(first_chunk, _k(config, k), _bootstrap_seed(config, t), shared)
    state = EngineState(main, None, 0, config, t)
    report = _report("bootstrap", main, None, False, trace, started)
    return state, report


def init(first_chunk: Chunk, config: DriftConfig, k: int | None = None) -> EngineState:
    """bootstrap() without the report: the bare state to step from."""
    state, _ = bootstrap(first_chunk, config, k)
    return state


def _absorb(chunk: Chunk, prev: ClusteringResult, shared: dict | None):
    """dist_clust_trace(chunk, prev), computed once per previous model object
    in shared, or on every call without shared.

    The entry keeps prev alive beside the result, so its id is not reused
    while shared lives. Runs that shared a step hold one result object, so
    the share finds them; equal models held as distinct objects are each
    absorbed on their own.
    """
    if shared is None:
        return dist_clust_trace(chunk, prev)
    key = "absorb", chunk, id(prev)
    if key not in shared:
        shared[key] = prev, dist_clust_trace(chunk, prev)
    return shared[key][1]


def step(state: EngineState, chunk: Chunk, k: int | None = None,
         shared: dict | None = None) -> tuple[EngineState, StepReport]:
    """Advance the engine by one chunk.

    The main model absorbs the chunk. A clean verdict ends drift handling and
    drops any parallel model ("stabilized" if there was one, else "none"). A
    drifted main model makes the parallel model absorb the chunk, if one
    exists; it is bootstrapped on the chunk if none existed or it drifted too
    (a retrain). The strike grows, and it alone names the event: 1 is
    "activated", below _SWAP_AT "none", and at _SWAP_AT "swapped", where the
    parallel result replaces the main model.

    shared, when given, is a dict the caller owns for this chunk only and
    passes to every bootstrap and step on it: an absorb into a previous
    model it already holds the same object of, or a bootstrap already in
    it, is reused, a new one is added. Its keys are tagged "absorb",
    "seeded" and "bootstrap". Without it, every absorb and bootstrap is
    computed.
    """
    started = time.perf_counter()
    if chunk.timestamp != state.timestamp + 1:
        raise ValueError(
            f"expected chunk timestamp {state.timestamp + 1}, got {chunk.timestamp}"
        )
    config = state.config
    t = chunk.timestamp
    k = _k(config, k)

    main, trace = _absorb(chunk, state.main, shared)
    verdict = detect(main, state.main, len(chunk), config)
    active, parallel, strike, retrained = main, None, 0, False
    if not verdict.is_drift:
        # Main model fine, or recovered: drift handling ends, parallel work is dropped.
        event = "none" if state.parallel is None else "stabilized"
    else:
        if state.parallel is not None:
            active, trace = _absorb(chunk, state.parallel, shared)
            retrained = detect(active, state.parallel, len(chunk), config).is_drift
        if state.parallel is None or retrained:
            active, trace = summarize_trace(chunk, k, _bootstrap_seed(config, t), shared)
        strike = state.strike + 1
        event = "activated" if strike == 1 else "none" if strike < _SWAP_AT else "swapped"
        main, parallel = (active, None) if event == "swapped" else (main, active)
    new_state = EngineState(main, parallel, 0 if parallel is None else strike, config, t)
    return new_state, _report(event, active, verdict, retrained, trace, started)


def run(stream, configs=(), k_for_chunk=None, *, states=()):
    """Drive one or more runs over a stream in lockstep, yielding
    (run index, state, report) as each step ends.

    Every run bootstraps on the first chunk under its config, or continues
    from its state; give configs or states, not both. Every run steps through
    a chunk before any run sees the next one, in index order, and the runs
    share that chunk's absorbs and bootstraps (see step); the share is
    dropped when the chunk ends, so nothing is kept across chunks.
    k_for_chunk, when given, maps each chunk to the k used for any bootstrap
    on that chunk (the main one, parallel activations and retrains); without
    it every bootstrap uses its config's k. Nothing of a step outlives its
    yield here, so a caller that drops each report before asking for the
    next keeps one step's report alive at a time.
    """
    if (not configs) == (not states):
        raise ValueError("run needs either configs to bootstrap under or states to continue from")
    states = list(states) or [None] * len(configs)
    for chunk in stream:
        k = k_for_chunk(chunk) if k_for_chunk else None
        shared = {}
        for i in range(len(states)):
            if states[i] is None:
                states[i], report = bootstrap(chunk, configs[i], k, shared)
            else:
                states[i], report = step(states[i], chunk, k, shared)
            yield i, states[i], report
            del report
    if states[0] is None:
        raise ValueError("stream yielded no chunks")


# Each snapshot object's keys in the writer's order, with their JSON kinds
_SNAPSHOT_FIELDS = {"format": str, "version": int, "timestamp": int, "chunks_sha256": str,
                    "config": dict, "main": dict, "parallel": dict | None, "strike": int}
_RESULT_FIELDS = {"centroids": list[list[JSON_NUMBER]], "radii": list[JSON_NUMBER],
                  "lifetime_counts": list[int], "chunk_counts": list[int], "outliers": int}
_CONFIG_FIELDS = {"k": int | None, "o_thresh": JSON_NUMBER, "d_thresh": JSON_NUMBER, "seed": int}


def config_to_doc(config: DriftConfig) -> dict:
    """config's snapshot object; a config state_from_json would refuse, such
    as one whose seed is beyond the float64 range, is refused here."""
    return from_doc("snapshot", to_doc(config, _CONFIG_FIELDS), _CONFIG_FIELDS)


def _result_from_doc(doc: dict, dimensions: int, stream: str) -> ClusteringResult:
    """The result a snapshot object holds, every centroid of the given
    length, that of the stream named stream."""
    columns = from_doc("snapshot", doc, _RESULT_FIELDS)
    wrong = sorted({len(c) for c in columns["centroids"]} - {dimensions})
    if wrong:
        raise ValueError(f"snapshot field 'centroids' holds {'/'.join(map(str, wrong))}-D "
                         f"centroids but {stream} has {dimensions} dimensions; "
                         "wrong snapshot/manifest pair?")
    return ClusteringResult(**columns)


def _chunks_sha256(chunks, t: int, stream: str = "the stream") -> str:
    """SHA-256 of chunks 1..t of a stream: each chunk's timestamp, shape and
    whether it is labeled, then its values' and labels' bytes. Equal digests
    mean the same records in the same chunks, bit for bit. Fewer than t are refused."""
    if len(chunks) < t:
        raise ValueError(f"a state at t={t} covers chunks 1..{t}, "
                         f"got {len(chunks)} chunks in {stream}")
    parts = []  # the chunks' own buffers, so no joined copy of the stream is made
    for chunk in chunks[:t]:
        labels = chunk.labels
        rows, columns = chunk.values.shape
        parts += [f"{chunk.timestamp} {rows} {columns} {labels is not None}\n".encode(),
                  chunk.values.data]
        if labels is not None:
            parts.append(labels.data)
    return sha256(*parts)


def state_to_json(state: EngineState, chunks) -> str:
    """Self-describing JSON snapshot of the full engine state, taken on a
    stream whose first state.timestamp chunks are those of chunks; it
    records their SHA-256, so it resumes only on that stream."""
    return json.dumps({
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "timestamp": state.timestamp,
        "chunks_sha256": _chunks_sha256(chunks, state.timestamp),
        "config": config_to_doc(state.config),
        "main": to_doc(state.main, _RESULT_FIELDS),
        "parallel": None if state.parallel is None else to_doc(state.parallel, _RESULT_FIELDS),
        "strike": state.strike,
    }, indent=2, allow_nan=False)


def state_from_json(text: str, chunks, stream: str = "this stream") -> EngineState:
    """Rebuild the engine state from state_to_json's output, validating it and
    that it was taken on chunks, the stream it resumes on, in their number of
    dimensions; stream names that stream in the errors."""
    doc = parse_json(text, "snapshot")
    if json_field("snapshot", doc, "format", str) != SNAPSHOT_FORMAT:
        raise ValueError(f"not a {SNAPSHOT_FORMAT} document")
    if json_field("snapshot", doc, "version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {doc['version']}, "
                         f"expected {SNAPSHOT_VERSION}; write it again with run --snapshot")
    fields = from_doc("snapshot", doc, _SNAPSHOT_FIELDS)
    t, parallel = fields["timestamp"], fields["parallel"]
    dimensions = chunks[0].dimensions if chunks else 0  # an empty stream has none
    result = functools.partial(_result_from_doc, dimensions=dimensions, stream=stream)
    state = EngineState(
        main=result(fields["main"]),
        parallel=None if parallel is None else result(parallel),
        strike=fields["strike"],
        config=DriftConfig(**from_doc("snapshot", fields["config"], _CONFIG_FIELDS)),
        timestamp=t,
    )
    if fields["chunks_sha256"] != _chunks_sha256(chunks, t, stream):
        raise ValueError(f"snapshot was taken on another stream than {stream}: "
                         f"its chunks 1..{t} differ")
    return state
