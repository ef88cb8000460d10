"""Command-line front end: generate streams, run the engine, score results.

Commands:
    gen     write a named or file-defined synthetic stream to disk
    chunk   normalize and split a labeled dataset file into a stream
    run     drive the engine over a stream, write metrics (optionally repeat
            with derived seeds and average)
    eval    match a run's final centroids against the stream's per-class means
    resume  continue a run from a saved engine snapshot

Every command is deterministic given explicit seeds; --seed defaults to the
fixed constant 7, never the clock. The drift thresholds default to 0.18 /
0.6, with 0.4 instead of 0.6 for streams whose manifest says "real-world".
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, engine
from .core import Chunk, DriftConfig, minmax_normalize
from .metrics import (
    build_report,
    parse_jsonl,
    reports_to_jsonl,
    step_metrics,
    tcv_distance,
    true_cluster_values,
)
from .stream_io import (
    JSON_NUMBER,
    atomic_write_text,
    json_field,
    load_dataset,
    load_stream,
    write_stream,
)
from .streams import (
    DriftKind,
    NAMED_SPECS,
    StreamSpec,
    TimestepSpec,
    chunk_dataset,
    chunk_indices,
    generate_synthetic,
    make_artificial_classes,
)

DEFAULT_SEED = 7
DEFAULT_O_THRESH = 0.18
DEFAULT_D_THRESH_SYNTHETIC = 0.6
DEFAULT_D_THRESH_REAL = 0.4


def _labels_k(chunk: Chunk) -> int:
    # The per-chunk "k from unique labels" policy lives here, outside the
    # engine, which never reads labels itself.
    if chunk.labels is None:
        raise ValueError("k-from-labels policy needs a fully labeled stream")
    return len(set(chunk.labels.tolist()))


_spec_field = functools.partial(json_field, "spec")
_SPEC_OPTIONS = {"sigma": JSON_NUMBER, "relocate_offset": JSON_NUMBER, "seed": (int,),
                 "anchors": (list,), "alt_anchors": (list,)}


def _spec_from_file(path: Path, seed: int) -> StreamSpec:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if type(doc) is not dict:
        raise ValueError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    entries = []
    for e in _spec_field(doc, "entries", (list,)):
        if type(e) is not dict:
            raise ValueError(f"spec field 'entries' must hold objects, got {e!r}")
        e = {"drift_kind": "none", "offset_steps": 0, **e}
        sizes = _spec_field(e, "records_per_cluster", (int, list))
        if type(sizes) is list and not all(type(size) is int for size in sizes):
            raise ValueError(f"spec field 'records_per_cluster' must list ints, got {sizes!r}")
        entries.append(TimestepSpec(
            cluster_count=_spec_field(e, "cluster_count"),
            records_per_cluster=tuple(sizes) if type(sizes) is list else sizes,
            drift_kind=DriftKind(_spec_field(e, "drift_kind", (str,))),
            offset_steps=_spec_field(e, "offset_steps"),
        ))
    kwargs = {key: _spec_field(doc, key, kinds)
              for key, kinds in _SPEC_OPTIONS.items() if key in doc}
    for key in ("anchors", "alt_anchors"):
        if key in kwargs:
            anchors = kwargs[key]
            if not all(type(a) is list and all(type(x) in JSON_NUMBER for x in a) for a in anchors):
                raise ValueError(f"spec field {key!r} must list [x, y] pairs, got {anchors!r}")
            kwargs[key] = tuple(map(tuple, anchors))
    return StreamSpec(entries, **{"seed": seed, **kwargs})


def _spec_to_source(spec: StreamSpec, name: str) -> dict:
    return {
        "kind": "generated",
        "name": name,
        "sigma": spec.sigma,
        "relocate_offset": spec.relocate_offset,
        "entries": [
            {
                "cluster_count": e.cluster_count,
                "records_per_cluster": list(e.cluster_sizes),
                "drift_kind": e.drift_kind.value,
                "offset_steps": e.offset_steps,
            }
            for e in spec.entries
        ],
    }


def cmd_gen(args) -> int:
    name = args.spec
    if name in NAMED_SPECS:
        spec = NAMED_SPECS[name](seed=args.seed)
    else:
        path = Path(name)
        if not path.exists():
            raise ValueError(
                f"unknown stream spec {name!r}; pick one of {sorted(NAMED_SPECS)} or give a JSON file"
            )
        spec = _spec_from_file(path, args.seed)
        name = path.stem
    out = Path(args.out) if args.out else Path(f"{name}_seed{spec.seed}")
    chunks = generate_synthetic(spec)
    manifest = write_stream(
        out, chunks, seed=spec.seed, origin="synthetic", source=_spec_to_source(spec, name)
    )
    print(manifest)
    return 0


def cmd_chunk(args) -> int:
    values, labels, label_map = load_dataset(args.dataset)
    if args.normalize:
        values = minmax_normalize(values)
    chunks = chunk_dataset(values, labels, args.chunks)
    class_count = len(set(labels.tolist()))
    ac_sets = None
    if args.artificial_classes:
        ac_all = make_artificial_classes(values, class_count)
        ac_sets = [ac_all[part] for part in chunk_indices(labels.tolist(), args.chunks)]
    out = Path(args.out) if args.out else Path(Path(args.dataset).stem + "_stream")
    manifest = write_stream(
        out,
        chunks,
        seed=0,
        origin="real-world",
        source={
            "kind": "dataset",
            "file": Path(args.dataset).name,
            "records": len(values),
            "classes": class_count,
            "label_map": label_map,
            "normalized": bool(args.normalize),
        },
        ac_sets=ac_sets,
    )
    print(manifest)
    return 0


def _k_policy(k: int | None):
    """The k policy's name and its k per chunk: the fixed --k, or the label count."""
    if k is not None:
        return "fixed", lambda chunk: k
    return "labels", _labels_k


def _scored_run(state, chunks, k_for_chunk, ac_sets, tcvs, config=None):
    """Drive the engine over chunks, scoring each step as it ends.

    Continues from state, or bootstraps on the first chunk under config when
    state is None. Each step's StepReport, with one assignment per record,
    becomes one small metrics row and is dropped before the next step runs.
    Returns the final state and the run's report.
    """
    rows = []
    for i, chunk in enumerate(chunks):
        k = k_for_chunk(chunk)
        if state is None:
            state, report = engine.bootstrap(chunk, config, k)
        else:
            state, report = engine.step(state, chunk, k)
        rows.append(step_metrics(chunk, report, ac_sets[i] if ac_sets else None))
        del report  # so the next step runs with no earlier step's records alive
    return state, build_report(rows, state.main, tcvs)


def _write_outputs(out_dir, runs, meta: dict, state, snapshot) -> None:
    """Write metrics.jsonl, cluster_counts.tsv and the optional snapshot; print the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    atomic_write_text(metrics_path, reports_to_jsonl(runs, meta))

    lines = [f"# streamclust {__version__} seed={meta['seed']} repeat={len(runs)}"]
    for i, step in enumerate(runs[0].steps):
        mean_count = sum(r.steps[i].cluster_count for r in runs) / len(runs)
        lines.append(f"{step.timestamp}\t{mean_count:g}")
    atomic_write_text(out / "cluster_counts.tsv", "\n".join(lines) + "\n")

    if snapshot:
        atomic_write_text(Path(snapshot), engine.state_to_json(state) + "\n")

    mean_entropy = sum(r.mean_entropy for r in runs) / len(runs)
    mean_sse = sum(r.mean_sse for r in runs) / len(runs)
    total = sum(r.total_runtime_s for r in runs) / len(runs)
    print(
        f"runs={len(runs)} mean_entropy={mean_entropy:.6f} mean_sse={mean_sse:.6f} "
        f"total_runtime_s={total:.4f}"
    )
    print(metrics_path)


def cmd_run(args) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    if args.snapshot and args.repeat != 1:
        raise ValueError("--snapshot requires --repeat 1")
    if args.stop_after is not None and args.repeat != 1:
        raise ValueError("--stop-after requires --repeat 1")
    data = load_stream(args.manifest)
    d_thresh = args.d_thresh
    if d_thresh is None:
        d_thresh = (
            DEFAULT_D_THRESH_REAL if data.origin == "real-world" else DEFAULT_D_THRESH_SYNTHETIC
        )
    chunks = list(data.chunks)
    if args.stop_after is not None:
        if not 1 <= args.stop_after <= len(chunks):
            raise ValueError(f"--stop-after must be in 1..{len(chunks)}")
        chunks = chunks[:args.stop_after]
    ac = list(data.ac_sets[: len(chunks)]) if data.ac_sets else None
    k_policy, k_for_chunk = _k_policy(args.k)
    base_k = k_for_chunk(data.chunks[0])
    tcvs = [c for _, c in true_cluster_values(data.chunks)]

    runs = []
    for i in range(args.repeat):
        config = DriftConfig(
            k=base_k, o_thresh=args.o_thresh, d_thresh=d_thresh, seed=args.seed + i
        )
        state, run_report = _scored_run(None, chunks, k_for_chunk, ac, tcvs, config)
        runs.append(run_report)

    meta = {
        "tool_version": __version__,
        "manifest": str(Path(args.manifest).resolve()),
        "k": args.k,
        "k_policy": k_policy,
        "o_thresh": args.o_thresh,
        "d_thresh": d_thresh,
        "seed": args.seed,
        "repeat": args.repeat,
        "stop_after": args.stop_after,
    }
    _write_outputs(args.out, runs, meta, state, args.snapshot)
    return 0


def cmd_resume(args) -> int:
    data = load_stream(args.manifest)
    state = engine.state_from_json(Path(args.snapshot).read_text(encoding="utf-8"))
    if state.main.dimensions != data.chunks[0].dimensions:
        raise ValueError(
            f"snapshot {args.snapshot} has {state.main.dimensions}-D centroids but the "
            f"stream has {data.chunks[0].dimensions} dimensions; wrong snapshot/manifest pair?"
        )
    remaining = [c for c in data.chunks if c.timestamp > state.timestamp]
    if not remaining:
        raise ValueError(
            f"snapshot already covers t={state.timestamp}; nothing left to process"
        )
    k_policy, k_for_chunk = _k_policy(args.k)
    tcvs = [c for _, c in true_cluster_values(data.chunks)]
    offset = len(data.chunks) - len(remaining)
    ac = list(data.ac_sets[offset:]) if data.ac_sets else None
    state, run_report = _scored_run(state, remaining, k_for_chunk, ac, tcvs)

    meta = {
        "tool_version": __version__,
        "manifest": str(Path(args.manifest).resolve()),
        "seed": state.config.seed,
        "resumed_after": remaining[0].timestamp - 1,
        "k": args.k,
        "k_policy": k_policy,
    }
    _write_outputs(args.out, [run_report], meta, state, args.snapshot_out)
    return 0


def cmd_eval(args) -> int:
    data = load_stream(args.manifest)
    _, steps, summary = parse_jsonl(Path(args.report).read_text(encoding="utf-8"))
    if len(steps) > len(data.chunks):
        raise ValueError(
            f"report covers {len(steps)} timestamps but the stream has {len(data.chunks)} chunks"
        )
    runs = summary.get("runs") or []
    if not (0 <= args.run < len(runs)):
        raise ValueError(f"report has {len(runs)} runs; --run {args.run} is out of range")
    centroids = [tuple(c) for c in runs[args.run]["final_centroids"]]
    if centroids and len(centroids[0]) != data.chunks[0].dimensions:
        raise ValueError(
            "report centroids do not match the stream's dimensionality; "
            "wrong manifest/report pair?"
        )

    labeled = true_cluster_values(data.chunks)
    match = tcv_distance(centroids, [c for _, c in labeled])

    dims = len(centroids[0])
    head = ["cluster"]
    head += [f"tcv_x{d + 1}" for d in range(dims)]
    head += [f"found_x{d + 1}" for d in range(dims)]
    head.append("distance")
    print("\t".join(head))
    for cluster_idx, ref_idx, distance in match.pairs:
        label, ref = labeled[ref_idx]
        row = [f"C{cluster_idx + 1}"]
        row += [f"{v:.3f}" for v in ref]
        row += [f"{v:.3f}" for v in centroids[cluster_idx]]
        row.append(f"{distance:.2f}")
        print("\t".join(row))
    for j in match.unmatched_references:
        label, ref = labeled[j]
        print(f"# unmatched reference (class {label}): " + ", ".join(f"{v:.3f}" for v in ref))
    for i in match.unmatched_clusters:
        print(f"# unmatched cluster C{i + 1}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamclust",
        description="Incremental stream clustering with drift detection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic benchmark stream")
    p.add_argument("spec", help=f"named stream ({', '.join(sorted(NAMED_SPECS))}) or spec JSON file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output directory (default: <spec>_seed<seed>)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("chunk", help="split a labeled dataset file into a stream")
    p.add_argument("dataset", help="delimiter-separated file, label in the last column")
    p.add_argument("--chunks", type=int, default=10)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                   help="min-max normalize attributes over the whole file first")
    p.add_argument("--artificial-classes", action="store_true",
                   help="add one binned artificial class column per attribute")
    p.add_argument("--out", help="output directory (default: <dataset>_stream)")
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("run", help="run the engine over a stream and write metrics")
    p.add_argument("manifest")
    p.add_argument("--k", type=int, help="fixed cluster count (default: per-chunk unique label count)")
    p.add_argument("--o-thresh", type=float, default=DEFAULT_O_THRESH)
    p.add_argument("--d-thresh", type=float,
                   help="default 0.6, or 0.4 when the manifest origin is real-world")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--repeat", type=int, default=1,
                   help="average over this many runs with seeds seed, seed+1, ...")
    p.add_argument("--out", default="run_out", help="output directory")
    p.add_argument("--snapshot", help="write the final engine state to this file")
    p.add_argument("--stop-after", type=int,
                   help="process only the first N chunks (pair with --snapshot to suspend)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("resume", help="continue a run from a snapshot")
    p.add_argument("manifest")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out", default="resume_out")
    p.add_argument("--snapshot-out", help="write the state at stream end to this file")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("eval", help="score a run's final centroids against per-class means")
    p.add_argument("manifest")
    p.add_argument("report", help="metrics.jsonl produced by run/resume")
    p.add_argument("--run", type=int, default=0, help="which repeat to score")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
