"""Command-line front end: generate streams, run the engine, score results.

Commands:
    gen     write a named or file-defined synthetic stream to disk
    chunk   normalize and split a labeled dataset file into a stream
    run     drive the engine over a stream, write metrics (optionally repeat
            with derived seeds and average)
    eval    match a run's final centroids against the stream's per-class means,
            which its manifest holds; the arrays are checked by their digests
    resume  continue a run from a saved engine snapshot over the chunks after
            it, through the same code as run

Every command is deterministic given explicit seeds; --seed defaults to the
fixed constant 7, never the clock. The drift thresholds default to 0.18 /
0.6, with 0.4 instead of 0.6 for streams whose manifest says "real-world".
"""

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
# stream_io, streams, engine and metrics are imported in the commands that
# run them, so this module loads no numpy: eval reads only the manifest and
# its files' digests, and gen and chunk load neither engine nor metrics.
from .core import Chunk, DriftConfig, minmax_normalize
from .jsondoc import (
    JSON_NUMBER,
    atomic_write,
    check_digests,
    json_field,
    read_manifest,
    read_text,
)

# The bundled streams, each built by the streams function <name>_spec
NAMED_STREAMS = ("ncd100", "sdccl", "sdwcd", "wcd1000")
DEFAULT_SEED = 7
DEFAULT_O_THRESH = DriftConfig._field_defaults["o_thresh"]
DEFAULT_D_THRESH_SYNTHETIC = DriftConfig._field_defaults["d_thresh"]
DEFAULT_D_THRESH_REAL = 0.4


def _labels_k(chunk: Chunk) -> int:
    # The per-chunk "k from unique labels" policy lives here, outside the
    # engine, which never reads labels itself.
    if chunk.labels is None:
        raise ValueError("k-from-labels policy needs a fully labeled stream")
    return len(set(chunk.labels.tolist()))


def cmd_gen(args) -> int:
    from . import streams
    from .stream_io import write_stream
    name = args.spec
    if name in NAMED_STREAMS:
        spec = getattr(streams, f"{name}_spec")(seed=args.seed)
        source = {"kind": "generated", "name": name}
    else:
        path = Path(name)
        if not path.exists():
            raise ValueError(f"unknown stream spec {name!r}; pick one of "
                             f"{list(NAMED_STREAMS)} or give a JSON file")
        spec = streams.spec_from_file(path, args.seed)
        source = {"kind": "file", "name": path.name}
        name = path.stem
    out = Path(args.out) if args.out else Path(f"{name}_seed{spec.seed}")
    chunks = streams.generate_synthetic(spec)
    manifest = write_stream(out, chunks, seed=spec.seed, origin="synthetic", source=source)
    print(manifest)
    return 0


def cmd_chunk(args) -> int:
    from .stream_io import load_dataset, write_stream
    from .streams import chunk_dataset, make_artificial_classes
    values, labels, label_map = load_dataset(args.dataset)
    if args.normalize:
        values = minmax_normalize(values)
    class_count = len(set(labels.tolist()))
    classes = make_artificial_classes(values, class_count) if args.artificial_classes else None
    chunks = chunk_dataset(values, labels, args.chunks, classes)
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
    )
    print(manifest)
    return 0


def _in_file(path, parse):
    """parse applied to the UTF-8 text of the file at path; its errors name the file."""
    text = read_text(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _run_and_write(args, data, chunks, meta: dict, snapshot, configs=(), states=()) -> int:
    """Run and resume's one path: drive the engine over chunks, consecutive
    chunks of data's stream, bootstrapping one run per config or continuing
    one per state (see engine.run); write metrics.jsonl, cluster_counts.tsv
    and the optional snapshot of the first run's final state; print the
    summary. The final centroids are matched against the class means of
    data's manifest, which load_stream checked against the records.

    meta holds the command's own keys: the tool version and manifest go in
    front, and after k its policy, "fixed" or "labels" (each chunk's label
    count). Each StepReport is scored with the stream's chunk at its
    timestamp into one step row of its run, and dropped before the next step
    runs; the runs of a chunk share the scoring of equal cluster indices (see
    step_metrics). Every output reads average_runs' rows; the report's and
    the snapshot's texts are built, and the snapshot written, before --out is made.
    """
    from . import engine
    from .metrics import (average_runs, build_report, reports_to_jsonl, step_metrics,
                          true_cluster_values)
    tcvs = [mean for _, mean in true_cluster_values(data.manifest)]

    k_for_chunk = None if meta["k"] is not None else _labels_k
    finals = list(states) or [None] * len(configs)
    rows = [[] for _ in finals]
    for i, state, report in engine.run(chunks, configs, k_for_chunk, states=states):
        if i == 0:  # a new chunk
            scored = {}
        rows[i].append(step_metrics(data.chunks[state.timestamp - 1], report, scored))
        finals[i] = state
        del report  # so the next step runs with no earlier step's records alive
    runs = [build_report(r, s.main, tcvs) for r, s in zip(rows, finals)]
    steps, summary = average_runs(rows, runs)

    full_meta = {"tool_version": __version__, "manifest": str(Path(args.manifest).resolve())}
    for key, value in meta.items():
        full_meta[key] = value
        if key == "k":
            full_meta["k_policy"] = "fixed" if value is not None else "labels"
    counts = [f"# streamclust {__version__} seed={meta['seed']} repeat={len(runs)}"]

    def counted(steps):  # cluster_counts.tsv's lines, taken as the rows go by
        for step in steps:
            counts.append(f"{step['timestamp']}\t{step['cluster_count']:g}")
            yield step

    text = reports_to_jsonl(full_meta, counted(steps), summary)
    if snapshot:
        atomic_write(snapshot, engine.state_to_json(finals[0], data.chunks) + "\n")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "cluster_counts.tsv", "\n".join(counts) + "\n")
    metrics_path = out / "metrics.jsonl"
    atomic_write(metrics_path, text)

    print(
        f"runs={len(runs)} mean_entropy={summary['mean_entropy']:.6f} "
        f"mean_sse={summary['mean_sse']:.6f} total_runtime_s={summary['total_runtime_s']:.4f}"
    )
    print(metrics_path)
    return 0


def cmd_run(args) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    if args.snapshot and args.repeat != 1:
        raise ValueError("--snapshot requires --repeat 1")
    if args.stop_after is not None and args.repeat != 1:
        raise ValueError("--stop-after requires --repeat 1")
    from .stream_io import load_stream
    data = load_stream(args.manifest)
    d_thresh = args.d_thresh
    if d_thresh is None:
        d_thresh = (
            DEFAULT_D_THRESH_REAL if data.origin == "real-world" else DEFAULT_D_THRESH_SYNTHETIC
        )
    if args.stop_after is not None and not 1 <= args.stop_after <= len(data.chunks):
        raise ValueError(f"--stop-after must be in 1..{len(data.chunks)}")
    chunks = data.chunks[:args.stop_after]
    configs = [DriftConfig(k=args.k, o_thresh=args.o_thresh, d_thresh=d_thresh, seed=seed)
               for seed in range(args.seed, args.seed + args.repeat)]
    if args.snapshot:  # a config the snapshot could not hold, such as a huge seed, runs nothing
        from .engine import config_to_doc
        config_to_doc(configs[0])
    meta = {
        "k": args.k,
        "o_thresh": args.o_thresh,
        "d_thresh": d_thresh,
        "seed": args.seed,
        "repeat": args.repeat,
        "stop_after": args.stop_after,
    }
    return _run_and_write(args, data, chunks, meta, args.snapshot, configs=configs)


def cmd_resume(args) -> int:
    from .engine import state_from_json
    from .stream_io import load_stream
    data = load_stream(args.manifest)
    state = _in_file(args.snapshot, functools.partial(state_from_json, chunks=data.chunks,
                                                      stream=args.manifest))
    remaining = data.chunks[state.timestamp:]
    if not remaining:
        raise ValueError(
            f"snapshot already covers t={state.timestamp}; nothing left to process"
        )
    meta = {
        "seed": state.config.seed,
        "resumed_after": state.timestamp,
        "k": state.config.k,
    }
    return _run_and_write(args, data, remaining, meta, args.snapshot_out, states=[state])


def cmd_eval(args) -> int:
    from .metrics import parse_jsonl, tcv_distance, true_cluster_values
    manifest = read_manifest(args.manifest)
    check_digests(args.manifest, manifest)
    labeled = true_cluster_values(manifest)
    chunk_count, dims = len(manifest["chunk_sizes"]), manifest["dimensions"]
    _, steps, summary = _in_file(args.report, parse_jsonl)
    if len(steps) > chunk_count:
        raise ValueError(
            f"report covers {len(steps)} timestamps but the stream has {chunk_count} chunks"
        )
    runs = json_field("report", summary, "runs", list[dict])
    if not (0 <= args.run < len(runs)):
        raise ValueError(f"report has {len(runs)} runs; --run {args.run} is out of range")
    centroids = json_field("report", runs[args.run], "final_centroids", list[list[JSON_NUMBER]])
    if any(len(c) != dims for c in centroids):
        raise ValueError(f"report field 'final_centroids' does not hold {dims}-D centroids "
                         "like the stream; wrong manifest/report pair?")
    match = tcv_distance(centroids, [mean for _, mean in labeled])

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
    p.add_argument("spec",
                   help=f"named stream ({', '.join(NAMED_STREAMS)}) or spec JSON file")
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
    p.add_argument("--snapshot", required=True,
                   help="state written by run/resume; it also holds the k policy")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError) as exc:
        # a stream too big to hold: numpy's MemoryError names the array it
        # could not allocate, an OverflowError the count past any index
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
