import json
import math
import weakref

import pytest

from streamclust import __version__, engine, load_stream
from streamclust.cli import main
from streamclust.metrics import parse_jsonl
from conftest import TOY_ROWS


def _toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    lines = ["a1,a2,class"]
    lines += [f"{v[0]},{v[1]},{label}" for v, label in TOY_ROWS]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_gen_writes_stream(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["gen", "sdccl", "--seed", "3", "--out", str(out)]) == 0
    manifest_path = capsys.readouterr().out.strip()
    assert manifest_path == str(out / "manifest.json")
    data = load_stream(manifest_path)
    assert len(data.chunks) == 7
    assert data.manifest["seed"] == 3
    assert data.manifest["tool_version"]
    assert data.manifest["source"]["name"] == "sdccl"


def test_gen_is_byte_reproducible(tmp_path):
    assert main(["gen", "sdwcd", "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "sdwcd", "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    names = json.loads((tmp_path / "a" / "manifest.json").read_text())["chunks"]
    for name in names + ["manifest.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_accepts_alternate_spelling(tmp_path, capsys):
    out = tmp_path / "n"
    assert main(["gen", "100ncd", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    data = load_stream(out / "manifest.json")
    assert len(data.chunks) == 100


def test_gen_unknown_spec(tmp_path, capsys):
    assert main(["gen", "nosuch", "--out", str(tmp_path / "x")]) == 1
    assert "unknown stream spec" in capsys.readouterr().err


def _spec(**changes):
    spec = {
        "entries": [
            {"cluster_count": 2, "records_per_cluster": 10},
            {"cluster_count": 2, "records_per_cluster": 10},
        ],
        "sigma": 0.01,
        "seed": 2,
    }
    entry = changes.pop("entry", {})
    spec["entries"][0].update(entry)
    spec.update(changes)
    return spec


def test_gen_from_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "custom.json"
    spec_path.write_text(json.dumps(_spec()))
    out = tmp_path / "custom"
    assert main(["gen", str(spec_path), "--out", str(out)]) == 0
    data = load_stream(capsys.readouterr().out.strip())
    assert len(data.chunks) == 2
    assert all(len(c) == 20 for c in data.chunks)


_MALFORMED_SPECS = {
    "string_records_per_cluster": (_spec(entry={"records_per_cluster": "30"}),
                                   "records_per_cluster"),
    "string_cluster_count": (_spec(entry={"cluster_count": "2"}), "cluster_count"),
    "string_sigma": (_spec(sigma="x"), "sigma"),
    "one_coordinate_anchors": (_spec(anchors=[[0.1], [0.2]]), "anchor"),
    "top_level_list": ([1, 2], "JSON object"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SPECS))
def test_gen_from_malformed_spec_file_is_an_error(tmp_path, capsys, case):
    spec, field = _MALFORMED_SPECS[case]
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "bad"
    assert main(["gen", str(spec_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
    assert not out.exists()


def test_chunk_splits_toy_dataset(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    out = tmp_path / "stream"
    code = main(["chunk", str(csv_path), "--chunks", "2", "--no-normalize",
                 "--out", str(out)])
    assert code == 0
    data = load_stream(capsys.readouterr().out.strip())
    assert data.origin == "real-world"
    assert data.chunks[0].rows() == [
        TOY_ROWS[0][0], TOY_ROWS[1][0], TOY_ROWS[4][0], TOY_ROWS[5][0]
    ]
    assert data.chunks[1].rows() == [
        TOY_ROWS[2][0], TOY_ROWS[3][0], TOY_ROWS[6][0], TOY_ROWS[7][0]
    ]


def test_chunk_with_artificial_classes(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    out = tmp_path / "stream"
    code = main(["chunk", str(csv_path), "--chunks", "2", "--artificial-classes",
                 "--out", str(out)])
    assert code == 0
    data = load_stream(capsys.readouterr().out.strip())
    assert data.manifest["artificial_class_sets"] == 2
    assert len(data.ac_sets[0]) == len(data.chunks[0])


def test_chunk_class_smaller_than_chunk_count(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    assert main(["chunk", str(csv_path), "--chunks", "5", "--out", str(tmp_path / "s")]) == 1
    assert "fewer than" in capsys.readouterr().err


def test_run_writes_metrics_and_counts(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    run_out = tmp_path / "run"
    code = main(["run", str(out / "manifest.json"), "--seed", "7", "--out", str(run_out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean_entropy=" in printed

    meta, steps, summary = parse_jsonl((run_out / "metrics.jsonl").read_text())
    assert meta["seed"] == 7
    assert meta["k_policy"] == "labels"
    assert meta["d_thresh"] == 0.6  # synthetic default
    assert meta["tool_version"]
    assert len(steps) == 7
    assert summary["runs"][0]["cluster_counts"] == [5, 5, 5, 5, 1, 5, 5]
    assert summary["runs"][0]["events"].count("activated") == 1

    counts = (run_out / "cluster_counts.tsv").read_text().splitlines()
    assert counts[0].startswith("#")
    assert counts[1].split("\t") == ["1", "5"]
    assert counts[5].split("\t") == ["5", "1"]


def test_run_repeat_averages(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    run_out = tmp_path / "run"
    code = main(["run", str(out / "manifest.json"), "--seed", "7", "--repeat", "3",
                 "--out", str(run_out)])
    assert code == 0
    _, steps, summary = parse_jsonl((run_out / "metrics.jsonl").read_text())
    assert len(summary["runs"]) == 3
    assert all(len(r["cluster_counts"]) == 7 for r in summary["runs"])


def test_run_real_world_threshold_default(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    out = tmp_path / "stream"
    main(["chunk", str(csv_path), "--chunks", "2", "--out", str(out)])
    capsys.readouterr()
    run_out = tmp_path / "run"
    assert main(["run", str(out / "manifest.json"), "--out", str(run_out)]) == 0
    meta, _, _ = parse_jsonl((run_out / "metrics.jsonl").read_text())
    assert meta["d_thresh"] == 0.4


def test_run_snapshot_requires_single_run(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    code = main(["run", str(out / "manifest.json"), "--repeat", "2",
                 "--snapshot", str(tmp_path / "snap.json"), "--out", str(tmp_path / "r")])
    assert code == 1


def test_run_repeat_below_one_is_an_error(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    for repeat in ("0", "-2"):
        run_out = tmp_path / f"run{repeat}"
        code = main(["run", str(out / "manifest.json"), "--repeat", repeat,
                     "--out", str(run_out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "--repeat" in err
        assert not run_out.exists()


def test_run_stop_after_snapshot_then_resume(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdwcd", "--seed", "7", "--out", str(out)])
    manifest = str(out / "manifest.json")
    capsys.readouterr()

    full_out = tmp_path / "full"
    assert main(["run", manifest, "--seed", "7", "--out", str(full_out)]) == 0
    _, full_steps, full_summary = parse_jsonl((full_out / "metrics.jsonl").read_text())

    part_out = tmp_path / "part"
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--seed", "7", "--stop-after", "4",
                 "--snapshot", str(snap), "--out", str(part_out)]) == 0
    capsys.readouterr()
    resume_out = tmp_path / "resumed"
    assert main(["resume", manifest, "--snapshot", str(snap), "--out", str(resume_out)]) == 0
    # resume writes and prints what run does
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("runs=1 mean_entropy=")
    assert printed[1] == str(resume_out / "metrics.jsonl")
    counts = (resume_out / "cluster_counts.tsv").read_text().splitlines()
    assert counts[0] == f"# streamclust {__version__} seed=7 repeat=1"
    assert [row.split("\t")[0] for row in counts[1:]] == [
        str(t) for t in range(5, len(full_steps) + 1)
    ]

    _, part_steps, part_summary = parse_jsonl((part_out / "metrics.jsonl").read_text())
    _, rest_steps, rest_summary = parse_jsonl((resume_out / "metrics.jsonl").read_text())
    combined_counts = (
        part_summary["runs"][0]["cluster_counts"] + rest_summary["runs"][0]["cluster_counts"]
    )
    assert combined_counts == full_summary["runs"][0]["cluster_counts"]
    for full_row, row in zip(full_steps, part_steps + rest_steps):
        assert row["timestamp"] == full_row["timestamp"]
        assert row["entropy"] == full_row["entropy"]
        assert row["sse"] == full_row["sse"]
        assert row["outliers"] == full_row["outliers"]


def _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, field):
    # the snapshot after chunk 4 of sdwcd seed 7 holds a parallel model
    out = _sdwcd(tmp_path, capsys)
    manifest = str(out / "manifest.json")
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    doc = json.loads(snap.read_text())
    edit(doc)
    snap.write_text(json.dumps(doc))
    capsys.readouterr()
    resume_out = tmp_path / "rest"
    assert main(["resume", manifest, "--snapshot", str(snap), "--out", str(resume_out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
    assert not resume_out.exists()


def test_resume_from_snapshot_with_nan_radius_is_an_error(tmp_path, capsys):
    def edit(doc):
        doc["main"]["clusters"][0]["radius"] = math.nan

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "radius")


_WRONG_TYPES = {
    "string_radius": (("main", "clusters", 0, "radius"), "x", "radius"),
    "string_strike": (("parallel", "strike"), "1", "strike"),
    "null_coordinate": (("main", "clusters", 1, "centroid", 0), None, "centroid"),
    "string_lifetime_count": (("parallel", "result", "clusters", 0, "lifetime_count"), "7",
                              "lifetime_count"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_resume_from_snapshot_with_wrong_type_is_an_error(tmp_path, capsys, case):
    path, value, field = _WRONG_TYPES[case]

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, field)


def test_resume_from_snapshot_with_ragged_centroids_is_an_error(tmp_path, capsys):
    def edit(doc):
        doc["main"]["clusters"][1]["centroid"].append(0.5)

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "'centroid'")


def test_resume_from_snapshot_of_other_dimensionality_is_an_error(tmp_path, capsys):
    # every centroid 3-D against the 2-D stream: a consistent snapshot of
    # some other stream, so the error names the snapshot file
    def edit(doc):
        for result in (doc["main"], doc["parallel"]["result"]):
            for cluster in result["clusters"]:
                cluster["centroid"].append(0.5)

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "snap.json")


def test_run_and_resume_hold_one_step_report_at_a_time(tmp_path, capsys, monkeypatch):
    # each StepReport carries one assignment per record; a command that kept
    # them all would hold the whole stream's worth until it ends
    out = _sdwcd(tmp_path, capsys)
    manifest = str(out / "manifest.json")
    steps = len(load_stream(manifest).chunks)
    refs = []

    def one_at_a_time(fn):
        def wrapper(*args, **kwargs):
            alive = [r.timestamp for r in (ref() for ref in refs) if r is not None]
            assert not alive, f"StepReports of earlier steps still alive: t={alive}"
            state, report = fn(*args, **kwargs)
            refs.append(weakref.ref(report))
            return state, report
        return wrapper

    monkeypatch.setattr(engine, "bootstrap", one_at_a_time(engine.bootstrap))
    monkeypatch.setattr(engine, "step", one_at_a_time(engine.step))
    assert main(["run", manifest, "--repeat", "2", "--out", str(tmp_path / "run")]) == 0
    assert len(refs) == 2 * steps
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    assert main(["resume", manifest, "--snapshot", str(snap),
                 "--out", str(tmp_path / "rest")]) == 0
    assert len(refs) == 3 * steps
    assert all(ref() is None for ref in refs)


def test_eval_prints_tcv_table(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    run_out = tmp_path / "run"
    main(["run", str(out / "manifest.json"), "--seed", "7", "--out", str(run_out)])
    capsys.readouterr()
    code = main(["eval", str(out / "manifest.json"), str(run_out / "metrics.jsonl")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cluster\ttcv_x1")
    body = [ln for ln in lines if ln.startswith("C")]
    assert len(body) == 5
    assert all(ln.endswith("0.00") for ln in body)
    assert any(ln.startswith("# unmatched reference") for ln in lines)


def test_eval_mismatched_pair_is_an_error(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    run_out = tmp_path / "run"
    main(["run", str(out / "manifest.json"), "--seed", "7", "--out", str(run_out)])
    # a 2-chunk stream cannot be the source of a 7-step report
    csv_path = _toy_csv(tmp_path)
    other = tmp_path / "o"
    main(["chunk", str(csv_path), "--chunks", "2", "--out", str(other)])
    capsys.readouterr()
    code = main(["eval", str(other / "manifest.json"), str(run_out / "metrics.jsonl")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_eval_report_without_centroids_is_an_error(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    run_out = tmp_path / "run"
    main(["run", str(out / "manifest.json"), "--seed", "7", "--out", str(run_out)])
    report = run_out / "metrics.jsonl"
    lines = report.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["runs"][0]["final_centroids"] = []
    lines[-1] = json.dumps(summary)
    report.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(out / "manifest.json"), str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_eval_report_with_nan_centroid_is_an_error(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdccl", "--seed", "7", "--out", str(out)])
    run_out = tmp_path / "run"
    main(["run", str(out / "manifest.json"), "--seed", "7", "--out", str(run_out)])
    report = run_out / "metrics.jsonl"
    lines = report.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["runs"][0]["final_centroids"][0][1] = math.nan
    lines[-1] = json.dumps(summary)
    assert "NaN" in lines[-1]
    report.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(out / "manifest.json"), str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_eval_tolerates_truncated_run(tmp_path, capsys):
    out = tmp_path / "s"
    main(["gen", "sdwcd", "--seed", "7", "--out", str(out)])
    run_out = tmp_path / "run"
    main(["run", str(out / "manifest.json"), "--seed", "7", "--stop-after", "4",
          "--out", str(run_out)])
    capsys.readouterr()
    code = main(["eval", str(out / "manifest.json"), str(run_out / "metrics.jsonl")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(ln.startswith("C") for ln in lines)


def test_run_bad_manifest_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nope" / "manifest.json"
    assert main(["run", str(missing), "--out", str(tmp_path / "r")]) == 1


def _run_fails_with_one_line_error(tmp_path, capsys, manifest, *names):
    code = main(["run", str(manifest), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for name in names:
        assert name in err
    return err


def _sdwcd(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["gen", "sdwcd", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_run_truncated_row_is_an_error(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    path = out / "chunk_00004.csv"
    lines = path.read_text().splitlines()
    lines[10] = lines[10].rsplit(",", 1)[0]  # drop the label field of row 11
    path.write_text("\n".join(lines) + "\n")
    _run_fails_with_one_line_error(
        tmp_path, capsys, out / "manifest.json", "chunk_00004.csv", "row 11"
    )


def test_run_manifest_dimensions_mismatch_is_an_error(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    manifest = out / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["dimensions"] = 3
    manifest.write_text(json.dumps(doc))
    _run_fails_with_one_line_error(tmp_path, capsys, manifest, "chunk_00001.csv", "dimensions=3")


def test_run_nan_value_is_an_error(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    path = out / "chunk_00002.csv"
    lines = path.read_text().splitlines()
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    _run_fails_with_one_line_error(
        tmp_path, capsys, out / "manifest.json", "chunk_00002.csv", "row 6", "finite"
    )


def test_chunk_nan_in_dataset_is_an_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("0.1,0.2,1\n0.3,inf,2\n0.5,0.6,1\n0.7,0.8,2\n")
    assert main(["chunk", str(path), "--chunks", "2", "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err and "finite" in err
