import atexit
import contextlib
import gc
import hashlib
import io
import json
import math
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamclust import (Chunk, __version__, bootstrap, engine, load_stream, metrics, streams,
                         write_stream)
from streamclust.cli import main
from streamclust.metrics import parse_jsonl
from conftest import TOY_ROWS, chunk_rows, run_python, without_wall_clock


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
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert names == ["labels.npy", "manifest.json", "values.npy"]
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_refuses_alternate_spelling(tmp_path, capsys):
    # each bundled stream has one name, which the refusal lists
    out = tmp_path / "n"
    assert main(["gen", "100ncd", "--seed", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(name in err for name in ("ncd100", "sdccl", "sdwcd", "wcd1000")), err
    assert not out.exists()


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
    assert data.manifest["source"] == {"kind": "file", "name": "custom.json"}


def test_gen_spec_file_named_like_a_bundled_stream_has_its_own_source(
        tmp_path, capsys, monkeypatch):
    # the manifest's source must not point at the bundled spec that did not
    # make the stream; the default --out still takes the file's stem
    monkeypatch.chdir(tmp_path)
    (tmp_path / "specs").mkdir()
    (tmp_path / "specs" / "sdwcd.json").write_text(json.dumps(_spec()))
    assert main(["gen", str(Path("specs") / "sdwcd.json")]) == 0
    assert main(["gen", "sdwcd"]) == 0
    capsys.readouterr()
    from_file = load_stream(tmp_path / "sdwcd_seed2" / "manifest.json").manifest
    named = load_stream(tmp_path / "sdwcd_seed7" / "manifest.json").manifest
    assert from_file["source"] == {"kind": "file", "name": "sdwcd.json"}
    assert named["source"] == {"kind": "generated", "name": "sdwcd"}


_MALFORMED_SPECS = {
    "string_records_per_cluster": (_spec(entry={"records_per_cluster": "30"}),
                                   "records_per_cluster"),
    "string_cluster_count": (_spec(entry={"cluster_count": "2"}), "cluster_count"),
    "string_sigma": (_spec(sigma="x"), "sigma"),
    "one_coordinate_anchors": (_spec(anchors=[[0.1], [0.2]]), "anchor"),
    "top_level_list": ([1, 2], "spec is a list, not an object holding 'entries'"),
    "missing_entries": ({"sigma": 0.1}, "spec field 'entries' is missing"),
    # json.dumps writes a big int as digits, which json.loads reads back as an int
    "huge_sigma": (_spec(sigma=10**400), "spec field 'sigma'"),
    "huge_anchor_coordinate": (_spec(anchors=[[0.1, 10**400], [0.5, 0.5]]),
                               "spec field 'anchors'"),
    # json.dumps writes these as the bare tokens NaN and Infinity
    "nan_sigma": (_spec(sigma=math.nan), "sigma"),
    "infinite_sigma": (_spec(sigma=math.inf), "sigma"),
    "nan_anchor_coordinate": (_spec(anchors=[[0.1, math.nan], [0.5, 0.5]]), "anchor"),
    "nan_relocate_offset": (_spec(relocate_offset=math.nan), "relocate_offset"),
    # a misspelt key would silently leave its field at the default
    "misspelt_top_level_key": (_spec(sigmaa=2), "spec has unknown key 'sigmaa'"),
    "misspelt_entry_key": (_spec(entry={"offset_step": 1}),
                           "spec entry 1 has unknown key 'offset_step'"),
    "zero_cluster_count": (_spec(entry={"cluster_count": 0}), "cluster_count must be >= 1"),
    "zero_cluster_size": (_spec(entry={"records_per_cluster": [5, 0]}),
                          "every cluster size must be >= 1"),
    "misspelt_drift_kind": (_spec(entry={"drift_kind": "relabell"}),
                            "spec entry 1: drift_kind must be one of none, relabel, "
                            "relocate, merge, got 'relabell'"),
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
    assert "bad.json" in err, err
    assert not out.exists()


def test_gen_spec_file_takes_every_key_and_its_seed_over_the_option(tmp_path, capsys):
    spec = _spec(entry={"drift_kind": "relocate", "offset_steps": 1}, relocate_offset=0.02,
                 seed=3, anchors=[[0.2, 0.2], [0.8, 0.8]], alt_anchors=[[0.5, 0.5]])
    spec_path = tmp_path / "every.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", str(spec_path), "--seed", "9", "--out", str(tmp_path / "every")]) == 0
    data = load_stream(capsys.readouterr().out.strip())
    assert data.manifest["seed"] == 3 and len(data.chunks) == 2


@pytest.mark.parametrize("entry", [
    {"cluster_count": 10**21, "records_per_cluster": 5},
    {"cluster_count": 2, "records_per_cluster": [5, 10**21]},
], ids=["cluster_count", "records_per_cluster"])
def test_gen_count_past_any_index_is_one_error_line(tmp_path, capsys, entry):
    # Python's and numpy's OverflowError name no spec field, so this is not
    # one of _MALFORMED_SPECS; both are raised before anything is allocated
    spec_path = tmp_path / "big.json"
    spec_path.write_text(json.dumps({"entries": [entry]}))
    out = tmp_path / "big"
    assert main(["gen", str(spec_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 2.18 TiB for an array with shape (150000000000, 2) and data type "
     "float64", None),
    ("", "out of memory"),
])
def test_gen_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message, line):
    # Raised, never provoked: a spec that asks for more memory than the host
    # has can get the test process killed where the kernel overcommits.
    def exhausted(spec):
        raise MemoryError(message)

    monkeypatch.setattr(streams, "generate_synthetic", exhausted)
    out = tmp_path / "huge"
    assert main(["gen", "sdwcd", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {line or message}\n"
    assert not out.exists()


def test_chunk_splits_toy_dataset(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    out = tmp_path / "stream"
    code = main(["chunk", str(csv_path), "--chunks", "2", "--no-normalize",
                 "--out", str(out)])
    assert code == 0
    data = load_stream(capsys.readouterr().out.strip())
    assert data.origin == "real-world"
    assert chunk_rows(data.chunks[0]) == [
        TOY_ROWS[0][0], TOY_ROWS[1][0], TOY_ROWS[4][0], TOY_ROWS[5][0]
    ]
    assert chunk_rows(data.chunks[1]) == [
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
    assert data.chunks[0].artificial_classes.shape == (len(data.chunks[0]), 2)
    ac = np.load(out / "ac.npy")
    assert ac.shape == (8, 2)
    assert ac.tolist() == np.concatenate([c.artificial_classes for c in data.chunks]).tolist()


def test_chunk_class_smaller_than_chunk_count(tmp_path, capsys):
    csv_path = _toy_csv(tmp_path)
    assert main(["chunk", str(csv_path), "--chunks", "5", "--out", str(tmp_path / "s")]) == 1
    assert "fewer than" in capsys.readouterr().err


def test_chunk_count_below_one_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "s"
    _fails_with_one_error_line(capsys, ["chunk", str(_toy_csv(tmp_path)), "--chunks", "0",
                                        "--out", str(out)], "chunk_count must be >= 1")
    assert not out.exists()


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


def test_run_snapshot_with_a_seed_it_cannot_hold_is_one_error_line(tmp_path, capsys):
    # resume would refuse the snapshot's seed, so run refuses it before any
    # chunk runs, and writes neither the snapshot nor the metrics
    snap, out = tmp_path / "snap.json", tmp_path / "r"
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    assert main(["run", manifest, "--seed", str(10**400), "--stop-after", "4",
                 "--snapshot", str(snap), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: snapshot field 'seed' holds a number beyond the "
                            "float64 range\n")
    assert not snap.exists() and not out.exists()


def _artificial_class_stream(tmp_path, capsys):
    """A chunk --artificial-classes stream of 600 records, 3 attributes and
    3 classes in 10 chunks. The classes overlap, so the binned attributes
    differ from the class labels, and the entropies after chunk 4 depend on
    which AC rows score which chunk."""
    rng = random.Random(0)
    path = tmp_path / "data.csv"
    path.write_text("".join(
        ",".join(f"{c + rng.gauss(0, 0.3):.4f}" for _ in range(3)) + f",{c}\n"
        for i in range(600) for c in [i % 3]))
    out = tmp_path / "s"
    assert main(["chunk", str(path), "--chunks", "10", "--artificial-classes",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def _stop_after_snapshot_then_resume(tmp_path, capsys, out):
    """Cut a seed-7 run of the stream at out after chunk 4 and resume it: the
    two reports make up the uninterrupted one."""
    manifest = str(out / "manifest.json")

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


def test_run_stop_after_snapshot_then_resume(tmp_path, capsys):
    _stop_after_snapshot_then_resume(tmp_path, capsys, _sdwcd(tmp_path, capsys))


def test_run_stop_after_snapshot_then_resume_with_artificial_classes(tmp_path, capsys):
    # resume must score chunk t with AC rows t, not the first rows of the stream
    _stop_after_snapshot_then_resume(tmp_path, capsys, _artificial_class_stream(tmp_path, capsys))


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
        doc["main"]["radii"][0] = math.nan  # json.dumps writes the bare token NaN

    # JSON has no NaN: reading the snapshot refuses it, before ClusteringResult's check
    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "NaN in field 'radii'")


_WRONG_TYPES = {
    "string_radius": (("main", "radii", 0), "x", "radii"),
    "string_strike": (("strike",), "1", "strike"),
    "null_coordinate": (("main", "centroids", 1, 0), None, "centroids"),
    "string_lifetime_count": (("parallel", "lifetime_counts", 0), "7", "lifetime_counts"),
    "huge_coordinate": (("main", "centroids", 0, 0), 10**400, "snapshot field 'centroids'"),
    # a float64, but past the domain that keeps every distance finite
    "coordinate_past_the_domain": (("parallel", "centroids", 1, 0), 1e200,
                                   "centroid coordinates must be finite, within ±2e+100"),
    "huge_lifetime_count": (("main", "lifetime_counts", 0), 10**400,
                            "snapshot field 'lifetime_counts'"),
    # a key no table names: a misspelt one would leave its field unread
    "unknown_top_level_key": (("strikes",), 1, "snapshot has unknown key 'strikes'"),
    "unknown_config_key": (("config", "o_tresh"), 0.5, "snapshot has unknown key 'o_tresh'"),
    "unknown_main_key": (("main", "radius"), [0.1], "snapshot has unknown key 'radius'"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_resume_from_snapshot_with_wrong_type_is_an_error(tmp_path, capsys, case):
    path, value, field = _WRONG_TYPES[case]

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, field)


def test_resume_from_snapshot_without_a_radius_is_an_error(tmp_path, capsys):
    def edit(doc):
        del doc["main"]["radii"]

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit,
                                       "snapshot field 'radii' is missing")


def test_resume_from_snapshot_with_columns_of_unequal_length_is_an_error(tmp_path, capsys):
    # one radius short: a fault one object per cluster could not hold
    def edit(doc):
        del doc["main"]["radii"][0]

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit,
                                       "one entry per cluster in every column, got [5, 4, 5, 5]")


def test_resume_from_snapshot_with_a_strike_but_no_parallel_model_is_an_error(tmp_path, capsys):
    def edit(doc):
        doc.update(parallel=None, strike=2)

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit,
                                       "strike must be 0 without a parallel model, got 2")


def test_resume_from_version_1_snapshot_is_an_error(tmp_path, capsys):
    # version 1 wrote the label-count policy as the first chunk's k
    def edit(doc):
        doc["version"] = 1

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "version 1")


def test_resume_from_version_2_snapshot_is_an_error(tmp_path, capsys):
    # version 2 recorded no digest of the chunks it covers
    def edit(doc):
        doc["version"] = 2
        del doc["chunks_sha256"]

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "write it again")


def _as_version_4(doc):
    """A version 5 snapshot rewritten in place to version 4's layout: one
    object per cluster, and the strike inside "parallel"."""
    def clusters(result):
        return {"outliers": result["outliers"], "clusters": [
            {"centroid": c, "radius": r, "lifetime_count": n, "chunk_count": m}
            for c, r, n, m in zip(result["centroids"], result["radii"],
                                  result["lifetime_counts"], result["chunk_counts"])]}

    strike, parallel = doc.pop("strike"), doc["parallel"]
    doc.update(version=4, main=clusters(doc["main"]), parallel=None if parallel is None
               else {"strike": strike, "result": clusters(parallel)})


def test_resume_from_version_4_snapshot_is_an_error(tmp_path, capsys):
    # version 4 wrote one object per cluster
    _resume_from_edited_snapshot_fails(tmp_path, capsys, _as_version_4, "version 4")


def test_resume_from_version_3_snapshot_is_an_error(tmp_path, capsys):
    # version 3 also wrote the drift flag and each result's timestamp
    def edit(doc):
        _as_version_4(doc)
        doc.update(version=3, is_concept_drift=doc["parallel"] is not None)
        for result in (doc["main"], doc["parallel"]["result"]):
            result["timestamp"] = doc["timestamp"]

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "version 3")


@pytest.mark.parametrize("other", [("sdwcd", "--seed", "8"), ("sdccl",)], ids=["seed8", "sdccl"])
def test_resume_on_another_stream_is_an_error(tmp_path, capsys, other):
    # the snapshot covers chunks 1-4 of sdwcd seed 7; other 2-D streams of
    # the same shape must not continue it
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    other_manifest = str(tmp_path / "other" / "manifest.json")
    assert main(["gen", *other, "--out", str(tmp_path / "other")]) == 0
    capsys.readouterr()
    resume_out = tmp_path / "rest"
    assert main(["resume", other_manifest, "--snapshot", str(snap),
                 "--out", str(resume_out)]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(snap) in err and other_manifest in err and "another stream" in err, err
    assert captured.out == "" and not resume_out.exists()


def test_resume_takes_the_k_policy_from_the_snapshot(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    manifest = str(out / "manifest.json")
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--k", "5", "--out", str(tmp_path / "full")]) == 0
    assert main(["run", manifest, "--k", "5", "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    assert json.loads(snap.read_text())["config"]["k"] == 5
    assert main(["resume", manifest, "--snapshot", str(snap),
                 "--out", str(tmp_path / "rest")]) == 0
    capsys.readouterr()
    meta, rest, rest_summary = parse_jsonl((tmp_path / "rest" / "metrics.jsonl").read_text())
    assert (meta["k"], meta["k_policy"]) == (5, "fixed")
    _, full, full_summary = parse_jsonl((tmp_path / "full" / "metrics.jsonl").read_text())
    for row in full + rest:
        row.pop("duration_s")
    assert rest == full[4:]
    # under the label-count policy sdwcd runs 3 clusters from t=6; fixed k=5 does not
    counts = rest_summary["runs"][0]["cluster_counts"]
    assert counts == full_summary["runs"][0]["cluster_counts"][4:]
    assert counts[-1] == 5
    with pytest.raises(SystemExit):  # resume has no --k: the snapshot holds it
        main(["resume", manifest, "--snapshot", str(snap), "--k", "3"])


def test_resume_snapshot_out_continues_when_more_chunks_arrive(tmp_path, capsys):
    # a run stopped after 3 chunks, resumed on the first 6 once they exist
    # with --snapshot-out, then resumed from that snapshot on all 10: the
    # two resumes' steps are the uninterrupted run's
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    six = str(write_stream(tmp_path / "six", load_stream(manifest).chunks[:6], seed=7))
    assert main(["run", manifest, "--out", str(tmp_path / "full")]) == 0
    assert main(["run", manifest, "--stop-after", "3", "--snapshot", str(first),
                 "--out", str(tmp_path / "part")]) == 0
    assert main(["resume", six, "--snapshot", str(first), "--snapshot-out", str(second),
                 "--out", str(tmp_path / "middle")]) == 0
    assert main(["resume", manifest, "--snapshot", str(second),
                 "--out", str(tmp_path / "rest")]) == 0
    capsys.readouterr()
    full, middle, rest = (
        [{k: v for k, v in row.items() if k != "duration_s"}
         for row in parse_jsonl((tmp_path / name / "metrics.jsonl").read_text())[1]]
        for name in ("full", "middle", "rest"))
    assert [row["timestamp"] for row in middle + rest] == list(range(4, 11))
    assert middle == full[3:6] and rest == full[6:]


def test_resume_from_snapshot_with_a_stale_timestamp_is_an_error(tmp_path, capsys):
    # its results hold chunks 1-4: resuming after chunk 2 would absorb 3 and
    # 4 twice; the digest it records is of chunks 1-4, not 1-2
    def edit(doc):
        doc["timestamp"] = 2

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "its chunks 1..2 differ")


@pytest.mark.parametrize("timestamp", [0, -1])
def test_resume_from_snapshot_before_the_first_chunk_is_an_error(tmp_path, capsys, timestamp):
    # no bootstrap made a model at t < 1; at t=0 the digest of no chunks is
    # the SHA-256 of no bytes, which anyone can write
    def edit(doc):
        doc["timestamp"] = timestamp
        doc["chunks_sha256"] = hashlib.sha256(b"").hexdigest()

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit,
                                       f"timestamp must be >= 1, got {timestamp}")


def test_resume_on_a_shorter_stream_names_both_counts(tmp_path, capsys):
    # a snapshot of all 10 chunks of sdwcd seed 7 on a stream of its first
    # 8: the check that the stream holds the chunks comes before the digest's
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--snapshot", str(snap), "--out", str(tmp_path / "full")]) == 0
    short = str(write_stream(tmp_path / "short", load_stream(manifest).chunks[:8], seed=7))
    capsys.readouterr()
    resume_out = tmp_path / "rest"
    assert main(["resume", short, "--snapshot", str(snap), "--out", str(resume_out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {snap}: a state at t=10 covers chunks 1..10, "
                            f"got 8 chunks in {short}\n")
    assert captured.out == "" and not resume_out.exists()


def test_resume_from_snapshot_with_ragged_centroids_is_an_error(tmp_path, capsys):
    def edit(doc):
        doc["main"]["centroids"][1].append(0.5)

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "'centroids'")


def test_resume_from_snapshot_of_other_dimensionality_is_an_error(tmp_path, capsys):
    # every centroid 3-D against the 2-D stream: a consistent snapshot of
    # some other stream, so the error names the snapshot file
    def edit(doc):
        for result in (doc["main"], doc["parallel"]):
            for centroid in result["centroids"]:
                centroid.append(0.5)

    _resume_from_edited_snapshot_fails(tmp_path, capsys, edit, "snap.json")


def _outputs_agree(out_dir, printed):
    """metrics.jsonl, cluster_counts.tsv and the printed summary of one
    run or resume hold the same averages."""
    _, steps, summary = parse_jsonl((out_dir / "metrics.jsonl").read_text())
    header, *lines = (out_dir / "cluster_counts.tsv").read_text().splitlines()
    assert header.startswith(f"# streamclust {__version__} ")
    assert [(int(t), float(count)) for t, count in (line.split("\t") for line in lines)] == [
        (step["timestamp"], step["cluster_count"]) for step in steps]
    assert printed.splitlines() == [
        f"runs={len(summary['runs'])} mean_entropy={summary['mean_entropy']:.6f} "
        f"mean_sse={summary['mean_sse']:.6g} total_runtime_s={summary['total_runtime_s']:.4f}",
        str(out_dir / "metrics.jsonl"),
    ]
    return steps


def test_run_outputs_agree_across_repeats(tmp_path, capsys):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    assert main(["run", manifest, "--repeat", "3", "--out", str(tmp_path / "three")]) == 0
    steps = _outputs_agree(tmp_path / "three", capsys.readouterr().out)
    assert len(steps) == 10


def test_resume_outputs_agree(tmp_path, capsys):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    snap = str(tmp_path / "snap.json")
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", snap,
                 "--out", str(tmp_path / "part")]) == 0
    assert len(_outputs_agree(tmp_path / "part", capsys.readouterr().out)) == 4
    assert main(["resume", manifest, "--snapshot", snap, "--out", str(tmp_path / "rest")]) == 0
    steps = _outputs_agree(tmp_path / "rest", capsys.readouterr().out)
    assert [step["timestamp"] for step in steps] == list(range(5, 11))


def test_run_and_resume_hold_one_step_report_at_a_time(tmp_path, capsys, monkeypatch):
    # each StepReport carries one assignment per record; a command that kept
    # them all would hold the whole stream's worth until it ends. A tuple
    # cannot be weakly referenced, so the live reports are counted among the
    # objects the collector tracks, which never untracks a tuple subclass.
    out = _sdwcd(tmp_path, capsys)
    manifest = str(out / "manifest.json")
    steps = len(load_stream(manifest).chunks)
    calls = []
    gc.collect()  # what earlier tests left in unreachable cycles

    def live_reports():
        return [o for o in gc.get_objects() if type(o) is engine.StepReport]

    def one_at_a_time(fn):
        def wrapper(*args, **kwargs):
            alive = live_reports()
            assert not alive, f"StepReports of earlier steps still alive: {len(alive)}"
            state, report = fn(*args, **kwargs)
            calls.append(state.timestamp)
            return state, report
        return wrapper

    monkeypatch.setattr(engine, "bootstrap", one_at_a_time(engine.bootstrap))
    monkeypatch.setattr(engine, "step", one_at_a_time(engine.step))
    assert main(["run", manifest, "--repeat", "2", "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 2 * steps
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    assert main(["resume", manifest, "--snapshot", str(snap),
                 "--out", str(tmp_path / "rest")]) == 0
    assert len(calls) == 3 * steps
    assert not live_reports()


def _summary_runs(path):
    return parse_jsonl(path.read_text())[2]["runs"]


def test_run_repeats_equal_their_seeds_run_alone(tmp_path, capsys):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    assert main(["run", manifest, "--seed", "7", "--repeat", "5",
                 "--out", str(tmp_path / "all")]) == 0
    repeats = _summary_runs(tmp_path / "all" / "metrics.jsonl")
    assert len(repeats) == 5
    for r in range(5):
        out = tmp_path / f"alone{r}"
        assert main(["run", manifest, "--seed", str(7 + r), "--out", str(out)]) == 0
        (alone,) = _summary_runs(out / "metrics.jsonl")
        for key in ("events", "cluster_counts", "final_centroids", "mean_entropy", "mean_sse"):
            assert repeats[r][key] == alone[key], (r, key)
    # the seeds differ where it shows: some repeat bootstraps other centroids
    assert len({json.dumps(run["final_centroids"]) for run in repeats}) > 1


def test_run_repeats_share_equal_absorbs(tmp_path, capsys, monkeypatch):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    calls = []
    absorb = engine.dist_clust_trace

    def spy(chunk, prev):
        calls.append(chunk.timestamp)
        return absorb(chunk, prev)

    monkeypatch.setattr(engine, "dist_clust_trace", spy)
    assert main(["run", manifest, "--seed", "7", "--out", str(tmp_path / "one")]) == 0
    single = len(calls)
    assert single > 0
    calls.clear()
    assert main(["run", manifest, "--seed", "7", "--repeat", "5",
                 "--out", str(tmp_path / "five")]) == 0
    assert len(calls) < 5 * single


def _counted(calls, name, fn):
    """fn, adding one to calls[name] on every call."""
    def counted(*args):
        calls[name] += 1
        return fn(*args)
    return counted


def test_run_repeats_share_equal_bootstraps_and_scores(tmp_path, capsys, monkeypatch):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    calls = {"lloyd": 0, "score": 0}
    # the Lloyd iterations past the first, and the entropy and SSE of a step
    monkeypatch.setattr(bootstrap, "_finish", _counted(calls, "lloyd", bootstrap._finish))
    monkeypatch.setattr(metrics, "_score", _counted(calls, "score", metrics._score))
    assert main(["run", manifest, "--seed", "7", "--out", str(tmp_path / "one")]) == 0
    single = dict(calls)
    assert single["lloyd"] > 0 and single["score"] == 10
    calls.update(lloyd=0, score=0)
    assert main(["run", manifest, "--seed", "7", "--repeat", "5",
                 "--out", str(tmp_path / "five")]) == 0
    assert calls["lloyd"] < 5 * single["lloyd"]
    assert calls["score"] < 5 * single["score"]


def test_run_repeats_share_seedings_by_their_first_draw(tmp_path, capsys, monkeypatch):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    calls = {"seeding": 0, "lloyd": 0}
    # the seeding with Lloyd's first iteration, and the iterations past it
    monkeypatch.setattr(bootstrap, "_lloyd_first", _counted(calls, "seeding", bootstrap._lloyd_first))
    monkeypatch.setattr(bootstrap, "_finish", _counted(calls, "lloyd", bootstrap._finish))
    assert main(["run", manifest, "--seed", "7", "--repeat", "100",
                 "--out", str(tmp_path / "hundred")]) == 0
    # of the 400 bootstraps, one seeding per distinct (chunk, k, first
    # center) and one continuation per distinct state after the first pass
    assert calls == {"seeding": 286, "lloyd": 25}


def test_run_repeats_share_absorbs_by_their_previous_model(tmp_path, capsys, monkeypatch):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    calls = {"absorb": 0}
    monkeypatch.setattr(engine, "dist_clust_trace",
                        _counted(calls, "absorb", engine.dist_clust_trace))
    assert main(["run", manifest, "--seed", "7", "--repeat", "100",
                 "--out", str(tmp_path / "hundred")]) == 0
    # of the 1 300 absorbs the repeats ask for, one per distinct previous
    # model: repeats that shared a step hold one result object after it
    assert calls == {"absorb": 93}


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


def _summary_edit(edit):
    """A report edit that applies edit to the summary line's list of runs."""
    def edit_lines(lines):
        summary = json.loads(lines[-1])
        edit(summary["runs"])
        return lines[:-1] + [json.dumps(summary)]
    return edit_lines


def _first_coordinate(value):
    return _summary_edit(lambda runs: runs[0]["final_centroids"][0].__setitem__(0, value))


_MALFORMED_REPORTS = {
    "line_not_an_object": (lambda lines: lines[:1] + ["[1, 2]"] + lines[1:],
                           "report line 2", "'type'"),
    "runs_of_numbers": (_summary_edit(lambda runs: runs.__setitem__(0, 1)), "report", "'runs'"),
    "null_coordinate": (_first_coordinate(None), "report", "'final_centroids'"),
    "huge_coordinate": (_first_coordinate(10**400), "report", "'final_centroids'"),
    "missing_final_centroids": (_summary_edit(lambda runs: runs[0].pop("final_centroids")),
                                "report", "'final_centroids'"),
    "second_centroid_too_long": (
        _summary_edit(lambda runs: runs[0]["final_centroids"][1].append(0.5)),
        "report", "'final_centroids'"),
    "unknown_line_type": (lambda lines: lines[:1] + ['{"type": "stepp"}'] + lines[1:],
                          "report line 2", "'stepp'"),
    "no_summary_line": (lambda lines: lines[:-1], "metrics.jsonl: report has no summary line"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_REPORTS))
def test_eval_malformed_report_is_an_error(tmp_path, capsys, case):
    edit, *names = _MALFORMED_REPORTS[case]
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    report = tmp_path / "run" / "metrics.jsonl"
    assert main(["run", str(manifest), "--out", str(report.parent)]) == 0
    report.write_text("\n".join(edit(report.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main(["eval", str(manifest), str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert all(name in captured.err for name in names), captured.err


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


_MALFORMED_MANIFESTS = {
    "top_level_list": (lambda doc: [], "'format'"),
    "string_as_chunk_size": (lambda doc: {**doc, "chunk_sizes": ["150", *doc["chunk_sizes"][1:]]},
                             "'chunk_sizes'"),
    "number_as_origin": (lambda doc: {**doc, "origin": 5}, "'origin'"),
    "misspelled_origin": (lambda doc: {**doc, "origin": "realworld"}, "'origin'"),
    "version_1": (lambda doc: {**doc, "version": 1}, "gen or chunk"),
    "negative_artificial_class_sets": (lambda doc: {**doc, "artificial_class_sets": -1},
                                       "artificial_class_sets must be a count"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_MANIFESTS))
def test_run_malformed_manifest_is_an_error(tmp_path, capsys, case):
    edit, field = _MALFORMED_MANIFESTS[case]
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    _run_fails_with_one_line_error(tmp_path, capsys, manifest, "manifest", field)


def _save_object_array(path):
    np.save(path, np.array([0.5, "x"], dtype=object), allow_pickle=True)


def _drop_row(path):
    np.save(path, np.load(path)[1:])


# Each case breaks one array file of a generated sdwcd stream
_BROKEN_ARRAYS = {
    "zero_byte_values": ("values.npy", lambda path: path.write_bytes(b"")),
    "truncated_header": ("values.npy", lambda path: path.write_bytes(path.read_bytes()[:30])),
    "text_values": ("values.npy", lambda path: path.write_text("a1,a2,label\n0.5,0.5,1\n")),
    "object_values": ("values.npy", _save_object_array),
    "int64_values": ("values.npy", lambda path: np.save(path, np.load(path).astype(np.int64))),
    "big_endian_values": ("values.npy", lambda path: np.save(path, np.load(path).astype(">f8"))),
    "rows_not_chunk_sizes": ("values.npy", _drop_row),
    "missing_labels": ("labels.npy", lambda path: path.unlink()),
    "short_labels": ("labels.npy", _drop_row),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_ARRAYS))
def test_run_broken_stream_array_is_an_error(tmp_path, capsys, case):
    name, breaks = _BROKEN_ARRAYS[case]
    out = _sdwcd(tmp_path, capsys)
    breaks(out / name)
    _run_fails_with_one_line_error(tmp_path, capsys, out / "manifest.json", str(out / name))


def test_run_truncated_row_is_an_error(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    path = out / "values.npy"
    path.write_bytes(path.read_bytes()[:-8])  # the last record loses its last value
    _run_fails_with_one_line_error(
        tmp_path, capsys, out / "manifest.json", str(path), "is not a readable .npy array"
    )


def test_run_artificial_class_width_mismatch_is_an_error(tmp_path, capsys):
    out = tmp_path / "s"
    main(["chunk", str(_toy_csv(tmp_path)), "--chunks", "2", "--artificial-classes",
          "--out", str(out)])
    np.save(out / "ac.npy", np.load(out / "ac.npy")[:, :1])
    _run_fails_with_one_line_error(
        tmp_path, capsys, out / "manifest.json", str(out / "ac.npy"), "artificial_class_sets"
    )


def test_run_manifest_dimensions_mismatch_is_an_error(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    manifest = out / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["dimensions"] = 3
    manifest.write_text(json.dumps(doc))
    # the manifest's 2-D class means already disagree with it
    _run_fails_with_one_line_error(tmp_path, capsys, manifest, str(manifest),
                                   "class_means do not hold 3-D means")
    for mean in doc["class_means"]:
        mean.append(0.5)
    manifest.write_text(json.dumps(doc))
    _run_fails_with_one_line_error(tmp_path, capsys, manifest, "values.npy", "dimensions")


def test_run_nan_value_is_an_error(tmp_path, capsys):
    out = _sdwcd(tmp_path, capsys)
    values = np.load(out / "values.npy")
    values[150 + 5, 0] = math.nan  # chunk 2, record 6
    np.save(out / "values.npy", values)
    _run_fails_with_one_line_error(
        tmp_path, capsys, out / "manifest.json", "values.npy", "record 6 of chunk 2", "finite"
    )


def _fails_with_one_error_line(capsys, argv, *names):
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert all(name in captured.err for name in names), captured.err


def _sdwcd_run(tmp_path, capsys):
    """A generated sdwcd stream's manifest and the report of a run on it."""
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    report = tmp_path / "run" / "metrics.jsonl"
    assert main(["run", str(manifest), "--out", str(report.parent)]) == 0
    return manifest, report


def test_eval_refuses_an_array_file_with_one_byte_flipped(tmp_path, capsys):
    # the shape and the dtype hold, so only the file's SHA-256 tells
    manifest, report = _sdwcd_run(tmp_path, capsys)
    path = manifest.parent / "values.npy"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01  # a bit of the last record's last value
    path.write_bytes(bytes(data))
    assert np.load(path).shape == (1500, 2)
    _fails_with_one_error_line(capsys, ["eval", str(manifest), str(report)], str(path),
                               "SHA-256")


@pytest.mark.parametrize("name", ["values.npy", "labels.npy"])
def test_eval_refuses_a_missing_array_file(tmp_path, capsys, name):
    manifest, report = _sdwcd_run(tmp_path, capsys)
    (manifest.parent / name).unlink()
    _fails_with_one_error_line(capsys, ["eval", str(manifest), str(report)],
                               str(manifest.parent / name))


def test_run_refuses_edited_class_means(tmp_path, capsys):
    # eval reads the means in place of the arrays; run and resume check them
    manifest, report = _sdwcd_run(tmp_path, capsys)
    snap = tmp_path / "snap.json"
    assert main(["run", str(manifest), "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    doc = json.loads(manifest.read_text())
    doc["class_means"][1][0] = math.nextafter(doc["class_means"][1][0], 1.0)
    manifest.write_text(json.dumps(doc, indent=2))
    for argv in (["run", str(manifest)], ["resume", str(manifest), "--snapshot", str(snap)]):
        out = tmp_path / f"{argv[0]}-out"
        _fails_with_one_error_line(capsys, argv + ["--out", str(out)], "class_means")
        assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "run", "resume"])
def test_commands_refuse_class_means_of_another_length(tmp_path, capsys, command):
    # the manifest is not among the digested files: only the length tells
    manifest, report = _sdwcd_run(tmp_path, capsys)
    snap = tmp_path / "snap.json"
    assert main(["run", str(manifest), "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    doc = json.loads(manifest.read_text())
    doc["class_means"][0].append(0.5)
    manifest.write_text(json.dumps(doc, indent=2))
    argv = {"eval": ["eval", str(manifest), str(report)],
            "run": ["run", str(manifest), "--out", str(tmp_path / "r")],
            "resume": ["resume", str(manifest), "--snapshot", str(snap),
                       "--out", str(tmp_path / "r")]}[command]
    _fails_with_one_error_line(capsys, argv, str(manifest), "class_means do not hold 2-D means")


def test_eval_refuses_a_centroid_too_far_to_match(tmp_path, capsys):
    # its distance to every class mean would overflow to inf, and eval once
    # hung on it, so it runs in a subprocess under a timeout; the centroid
    # lies past the domain, and is refused before any matching
    manifest, report = _sdwcd_run(tmp_path, capsys)
    lines = report.read_text().splitlines()
    summary = json.loads(lines[-1])
    summary["runs"][0]["final_centroids"][0] = [1.5e308, 1.5e308]
    report.write_text("\n".join([*lines[:-1], json.dumps(summary)]) + "\n")
    proc = run_python("-m", "streamclust.cli", "eval", str(manifest), str(report))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: centroids to match must have finite coordinates, within ±2e+100\n"


def _recorded_exit_calls(monkeypatch):
    """The functions main registers with atexit from now on, recorded in
    place of registering them."""
    registered = []
    monkeypatch.setattr(atexit, "register", lambda func, *args, **kwargs: registered.append(func))
    return registered


@pytest.mark.parametrize("argv", [["gen", "sdwcd"], ["run", "missing.json"]],
                         ids=["gen", "run_missing_manifest"])
def test_main_given_argv_registers_nothing_at_exit(tmp_path, capsys, monkeypatch, argv):
    registered = _recorded_exit_calls(monkeypatch)
    main([*argv, "--out", str(tmp_path / "out")])
    assert registered == []


def test_main_as_the_command_freezes_the_collector_at_exit(tmp_path, capsys, monkeypatch):
    registered = _recorded_exit_calls(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["streamclust", "gen", "sdwcd", "--out", str(tmp_path / "s")])
    assert main() == 0
    assert registered == [gc.freeze]


def test_the_command_writes_what_main_writes_in_process_and_exits_with_its_code(tmp_path, capsys):
    # python -m streamclust.cli calls main() as the console script does, so
    # its exit skips the collector's teardown (see main)
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    assert main(["run", manifest, "--out", str(tmp_path / "inproc")]) == 0
    capsys.readouterr()
    proc = run_python("-m", "streamclust.cli", "run", manifest, "--out", str(tmp_path / "command"))
    assert proc.returncode == 0 and proc.stderr == ""
    summary_line, path = proc.stdout.splitlines()
    assert summary_line.startswith("runs=1 mean_entropy=")
    assert path == str(tmp_path / "command" / "metrics.jsonl")
    inproc, command = ([without_wall_clock(json.loads(line))
                        for line in (tmp_path / out / "metrics.jsonl").read_text().splitlines()]
                       for out in ("inproc", "command"))
    assert command == inproc
    assert ((tmp_path / "command" / "cluster_counts.tsv").read_bytes()
            == (tmp_path / "inproc" / "cluster_counts.tsv").read_bytes())

    proc = run_python("-m", "streamclust.cli", "run", str(tmp_path / "missing.json"),
                      "--out", str(tmp_path / "missing"))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "missing").exists()

    proc = run_python("-m", "streamclust.cli", "run", manifest, "--bogus")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --bogus" in proc.stderr


def _run_quietly(argv):
    """main(argv) with numpy's warnings raised as errors, so none is printed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


def test_chunk_refuses_a_class_whose_sum_overflows(tmp_path, capsys):
    # 1e308 + 1.5e308 is past float64: the mean would be written as Infinity;
    # both values lie past the domain, so the file is refused at its first
    path = tmp_path / "huge.csv"
    path.write_text("1e308,1\n0.5,2\n1.5e308,1\n0.25,2\n")
    out = tmp_path / "huge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would fail the test
        _fails_with_one_error_line(capsys, ["chunk", str(path), "--chunks", "2", "--no-normalize",
                                            "--out", str(out)], f"{path} row 1:", "±1e+100")
    assert not out.exists()


def test_chunk_refuses_a_value_past_the_domain_before_normalizing(tmp_path, capsys):
    # normalizing finite rows this far apart overflowed their min-max span,
    # and the error then blamed the output directory for a value the input
    # never held: the file is refused at its row, with no warning
    path = tmp_path / "far.csv"
    path.write_text("1e308,1e308,1\n-8e307,-8e307,2\n")
    out = tmp_path / "far"
    capsys.readouterr()
    assert _run_quietly(["chunk", str(path), "--chunks", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path} row 1: attribute values must be finite, "
                            "within ±1e+100\n")
    assert not out.exists()


def _edge_run(tmp_path, capsys, rows, chunks, *options):
    """The report of run, with options, on a chunk stream of the CSV rows,
    not normalized: both commands exit 0 with no warning and no stderr."""
    path = tmp_path / "edge.csv"
    path.write_text("\n".join(rows) + "\n")
    stream, out = tmp_path / "edge", tmp_path / "edge-run"
    assert _run_quietly(["chunk", str(path), "--chunks", str(chunks), "--no-normalize",
                         "--out", str(stream)]) == 0
    assert _run_quietly(["run", str(stream / "manifest.json"), *options, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    return parse_jsonl((out / "metrics.jsonl").read_text())  # which refuses Infinity


@pytest.mark.parametrize("rows", [
    ["1e100,1e100,1", "-1e100,-1e100,2"],  # the largest difference the domain allows
    ["1e100,-1e100,1", "1e100,-1e100,1", "-1e100,1e100,2", "-1e100,1e100,2"],  # squared norms
], ids=["difference", "square"])
def test_run_bootstraps_records_an_inf_distance_apart_without_warnings(tmp_path, capsys, rows):
    # records once lay an inf distance apart; within the domain the farthest
    # apart lie 2e100 apart per attribute, whose squares the bootstrap sums
    # with no overflow and no numpy warning
    _, steps, summary = _edge_run(tmp_path, capsys, rows, 1)
    assert [step["sse"] for step in steps] == [0.0] and summary["runs"][0]["cluster_counts"] == [2]


@pytest.mark.parametrize(("rows", "edge", "chunks", "sse"), [
    # a step's SSE would be inf
    (["1e308,1e308,1", "-8e307,-8e307,2"], ["1e100,1e100,1", "-1e100,-1e100,2"], 1, 4e200),
    # each step's SSE 1.44e308, their mean inf
    (["6e153,6e153,1", "-6e153,-6e153,1"] * 2, ["1e100,1e100,1", "-1e100,-1e100,1"] * 2, 2,
     4e200),
], ids=["step", "mean"])
def test_run_refuses_an_sse_past_float64_and_writes_nothing(tmp_path, capsys, rows, edge, chunks,
                                                            sse):
    # JSON holds no infinity, and metrics.jsonl once said "Infinity". Records
    # whose SSE would pass float64 lie past the domain: chunk refuses them in
    # one line and writes nothing. At the domain's edge, run's SSE is finite.
    path = tmp_path / "far.csv"
    path.write_text("\n".join(rows) + "\n")
    stream = tmp_path / "far"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fails_with_one_error_line(capsys, ["chunk", str(path), "--chunks", str(chunks),
                                            "--no-normalize", "--out", str(stream)],
                                   f"{path} row 1:", "±1e+100")
    assert not stream.exists()
    _, steps, summary = _edge_run(tmp_path, capsys, edge, chunks, "--k", "1")
    assert [step["sse"] for step in steps] == [sse] * chunks
    assert summary["mean_sse"] == summary["runs"][0]["mean_sse"] == sse


def test_run_refuses_a_step_sse_whose_mean_over_runs_is_past_float64(tmp_path, capsys):
    # each run's step 1 SSE would be 1.44e308 and the step row's mean over
    # two runs inf; those records lie past the domain and are refused. At
    # its edge, the step row averages two runs' SSE of 4e200.
    path = tmp_path / "far.csv"
    path.write_text("6e153,6e153,1\n-6e153,-6e153,1\n0.1,0.1,1\n0.2,0.2,1\n")
    _fails_with_one_error_line(capsys, ["chunk", str(path), "--chunks", "2", "--no-normalize",
                                        "--out", str(tmp_path / "far")], f"{path} row 1:")
    rows = ["1e100,1e100,1", "-1e100,-1e100,1", "0.1,0.1,1", "0.2,0.2,1"]
    _, steps, summary = _edge_run(tmp_path, capsys, rows, 2, "--k", "1", "--repeat", "2")
    assert steps[0]["sse"] == 4e200 and math.isfinite(steps[1]["sse"])
    assert len(summary["runs"]) == 2 and math.isfinite(summary["mean_sse"])


def test_summary_line_at_the_domain_edge_stays_short(tmp_path, capsys):
    # one cluster over four rows at ±1e100: a mean SSE of 8e200, which
    # mean_sse={:.6f} printed with 201 digits before the point
    path = tmp_path / "edge.csv"
    path.write_text("1e100,-1e100,1\n-1e100,1e100,1\n1e100,1e100,2\n-1e100,-1e100,2\n")
    stream = tmp_path / "edge"
    assert main(["chunk", str(path), "--chunks", "1", "--no-normalize", "--out", str(stream)]) == 0
    capsys.readouterr()
    assert main(["run", str(stream / "manifest.json"), "--k", "1",
                 "--out", str(tmp_path / "edge-run")]) == 0
    summary, _ = capsys.readouterr().out.splitlines()
    assert " mean_sse=8e+200 " in summary and len(summary) < 120, summary


def test_run_and_resume_refuse_a_class_whose_sum_overflows(tmp_path, capsys):
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    snap = tmp_path / "snap.json"
    assert main(["run", str(manifest), "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    # one class past float64 after chunk 4, so the snapshot still matches;
    # its values lie past the domain, refused at the first of them
    values, labels = np.load(manifest.parent / "values.npy"), np.load(manifest.parent / "labels.npy")
    label = labels[-1]
    rows = (np.arange(len(values)) >= 4 * 150) & (labels == label)
    values[rows, 0] = 1e308
    np.save(manifest.parent / "values.npy", values)
    first = int(rows.argmax())
    where = f"values.npy record {first % 150 + 1} of chunk {first // 150 + 1}:"
    for argv in (["run", str(manifest)], ["resume", str(manifest), "--snapshot", str(snap)]):
        out = tmp_path / f"{argv[0]}-out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _fails_with_one_error_line(capsys, argv + ["--out", str(out)], where, "±1e+100")
        assert not out.exists()


def test_gen_refuses_an_integer_too_long_to_read(tmp_path, capsys):
    # int() refuses more than 4 300 digits with an error that names neither
    # the document nor the line; such an integer is past the float64 range
    path = tmp_path / "long.json"
    path.write_text('{"entries": [\n  {"records_per_cluster": 5, "cluster_count": '
                    + "1" * 5001 + "}\n]}\n")
    out = tmp_path / "long"
    capsys.readouterr()
    assert main(["gen", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path} holds an integer of 5001 digits in field "
                            "'cluster_count', past the float64 range, at line 2 column 47\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "eval"])
def test_version_2_manifest_is_refused(tmp_path, capsys, command):
    # version 2 stored neither the class means nor the arrays' digests
    manifest, report = _sdwcd_run(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    for key in ("class_labels", "class_means", "sha256"):
        del doc[key]
    manifest.write_text(json.dumps({**doc, "version": 2}, indent=2))
    argv = {"run": ["run", str(manifest), "--out", str(tmp_path / "again")],
            "eval": ["eval", str(manifest), str(report)]}[command]
    _fails_with_one_error_line(capsys, argv, "unsupported manifest version 2, expected 3; "
                               "write the stream again with gen or chunk")


def test_eval_refuses_an_unlabeled_stream(tmp_path, capsys):
    # sdwcd's records without their labels: no class means to match against
    manifest, report = _sdwcd_run(tmp_path, capsys)
    chunks = [Chunk(c.timestamp, c.values) for c in load_stream(manifest).chunks]
    unlabeled = write_stream(tmp_path / "unlabeled", chunks, seed=7)
    assert json.loads(unlabeled.read_text())["class_means"] == []
    _fails_with_one_error_line(capsys, ["eval", str(unlabeled), str(report)],
                               "labeled stream")


def test_chunk_nan_in_dataset_is_an_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("0.1,0.2,1\n0.3,inf,2\n0.5,0.6,1\n0.7,0.8,2\n")
    assert main(["chunk", str(path), "--chunks", "2", "--out", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 2" in err and "finite" in err


def test_chunk_undecodable_dataset_names_the_file_and_line(tmp_path, capsys):
    path = _toy_csv(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"\n".join(lines))
    assert main(["chunk", str(path), "--chunks", "2", "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: invalid start byte at line 3\n"


def test_run_nan_d_thresh_is_an_error(tmp_path, capsys):
    # NaN > d is always False: distribution drift would never fire; and an
    # infinite one would be written to metrics.jsonl and the snapshot as
    # Infinity, which is not JSON
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    for value in ("nan", "inf", "-inf"):
        code = main(["run", str(manifest), f"--d-thresh={value}", "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and "d_thresh" in err, err
        assert not (tmp_path / "r").exists()


def test_resume_from_snapshot_with_nan_d_thresh_is_an_error(tmp_path, capsys):
    for value in (math.nan, math.inf):
        def edit(doc):
            doc["config"]["d_thresh"] = value  # json.dumps writes the bare token NaN or Infinity

        work = tmp_path / str(value)
        work.mkdir()
        _resume_from_edited_snapshot_fails(work, capsys, edit, "d_thresh")


def _resume_past_the_end(tmp_path, manifest):
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--snapshot", str(snap), "--out", str(tmp_path / "full")]) == 0
    return ["resume", manifest, "--snapshot", str(snap)]


def _eval_run_out_of_range(tmp_path, manifest):
    assert main(["run", manifest, "--out", str(tmp_path / "full")]) == 0
    return ["eval", manifest, str(tmp_path / "full" / "metrics.jsonl"), "--run", "5"]


def _resume_to_snapshot_in_no_directory(tmp_path, manifest):
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    return ["resume", manifest, "--snapshot", str(snap),
            "--snapshot-out", str(tmp_path / "nodir" / "s.json")]


# The runs into clash/ where an output file's name is taken by a directory,
# with that name: metrics.jsonl is written first, and removed again when
# cluster_counts.tsv cannot be written
_CLASHES = {"run_metrics_over_a_directory": "metrics.jsonl",
            "run_counts_over_a_directory": "cluster_counts.tsv"}


def _run_over_a_directory(name):
    """A run with a snapshot into clash/, where the output file name is a directory."""
    def argv(tmp_path, manifest):
        (tmp_path / "clash" / name).mkdir(parents=True)
        return ["run", manifest, "--snapshot", str(tmp_path / "snap.json"),
                "--out", str(tmp_path / "clash")]
    return argv


# Each misuse of a command on the 10-chunk sdwcd stream, as (the command,
# less --out, once the commands before it have run; what its error says)
_MISUSES = {
    "stop_after_with_repeat": (
        lambda tmp_path, manifest: ["run", manifest, "--stop-after", "4", "--repeat", "2"],
        "--stop-after requires --repeat 1"),
    "stop_after_0": (lambda tmp_path, manifest: ["run", manifest, "--stop-after", "0"],
                     "--stop-after must be in 1..10"),
    "stop_after_11": (lambda tmp_path, manifest: ["run", manifest, "--stop-after", "11"],
                      "--stop-after must be in 1..10"),
    "resume_past_the_end": (_resume_past_the_end, "snapshot already covers t=10"),
    "eval_run_out_of_range": (_eval_run_out_of_range, "report has 1 runs; --run 5"),
    # the snapshot is written last; one that cannot be takes back the --out made for it
    "run_snapshot_in_no_directory": (
        lambda tmp_path, manifest: ["run", manifest,
                                    "--snapshot", str(tmp_path / "nodir" / "s.json")],
        str(Path("nodir", "s.json"))),
    "resume_snapshot_out_in_no_directory": (_resume_to_snapshot_in_no_directory,
                                            str(Path("nodir", "s.json"))),
    **{case: (_run_over_a_directory(name), f"{Path('clash', name)}'")
       for case, name in _CLASHES.items()},
}


@pytest.mark.parametrize("case", sorted(_MISUSES))
def test_command_misuse_is_one_error_line(tmp_path, capsys, case):
    argv, message = _MISUSES[case]
    argv = argv(tmp_path, str(_sdwcd(tmp_path, capsys) / "manifest.json"))
    out = tmp_path / "out"
    if argv[0] != "eval" and "--out" not in argv:
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert message in captured.err and ".tmp" not in captured.err, captured.err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.tmp"))
    if case in _CLASHES:  # the run leaves nothing in clash/ but the directory in its way
        assert [p.name for p in (tmp_path / "clash").iterdir()] == [_CLASHES[case]]
        assert not (tmp_path / "snap.json").exists()  # nor a snapshot, which goes last


@pytest.mark.parametrize("name", sorted(_CLASHES.values()))
def test_failed_resume_in_place_keeps_the_snapshot_it_resumed_from(tmp_path, capsys, name):
    manifest = str(_sdwcd(tmp_path, capsys) / "manifest.json")
    snap = tmp_path / "snap.json"
    assert main(["run", manifest, "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    before = snap.read_bytes()
    (tmp_path / "clash" / name).mkdir(parents=True)
    capsys.readouterr()
    assert main(["resume", manifest, "--snapshot", str(snap), "--snapshot-out", str(snap),
                 "--out", str(tmp_path / "clash")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert snap.read_bytes() == before
    assert [p.name for p in (tmp_path / "clash").iterdir()] == [name]
    assert not list(tmp_path.rglob("*.tmp"))


# Each JSON document a command reads, as (the file, the command that reads
# it) once the commands before it have written it.
def _manifest_document(tmp_path, capsys):
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    return manifest, ["run", str(manifest), "--out", str(tmp_path / "r")]


def _spec_document(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec(), indent=2))
    return spec, ["gen", str(spec), "--out", str(tmp_path / "g")]


def _snapshot_document(tmp_path, capsys):
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    snap = tmp_path / "snap.json"
    assert main(["run", str(manifest), "--stop-after", "4", "--snapshot", str(snap),
                 "--out", str(tmp_path / "part")]) == 0
    return snap, ["resume", str(manifest), "--snapshot", str(snap), "--out", str(tmp_path / "r")]


def _report_document(tmp_path, capsys):
    manifest = _sdwcd(tmp_path, capsys) / "manifest.json"
    report = tmp_path / "run" / "metrics.jsonl"
    assert main(["run", str(manifest), "--out", str(report.parent)]) == 0
    return report, ["eval", str(manifest), str(report)]


_JSON_DOCUMENTS = {
    "manifest": _manifest_document,
    "spec": _spec_document,
    "snapshot": _snapshot_document,
    # one JSON document per line, each parsed on its own: the error must
    # still name the line of the file, not line 1 of that document
    "report": _report_document,
}
_UNDECODABLE = {"json": (b"@", "is not valid JSON"), "utf8": (b"\xff", "is not UTF-8 text")}


@pytest.mark.parametrize("kind", sorted(_UNDECODABLE))
@pytest.mark.parametrize("document", sorted(_JSON_DOCUMENTS))
def test_undecodable_json_names_the_file_and_line(tmp_path, capsys, document, kind):
    path, argv = _JSON_DOCUMENTS[document](tmp_path, capsys)
    junk, message = _UNDECODABLE[kind]
    lines = path.read_bytes().split(b"\n")
    lines[4] = junk + lines[4]  # line 5, which starts a key or a whole report line
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert message in err and re.search(r" at line 5\b", err), err


# Python's json reads NaN, Infinity and -Infinity, which JSON has no token
# for. Each case writes one into a document at a value that its command
# took before: a report's means, an infinite radius (which absorbs every
# record) or a class mean; (document, pattern of the text before the value,
# field, name).
_NONFINITE = {
    "manifest": ("manifest", r'"class_means": \[\s*\[\s*', "class_means", "-Infinity"),
    "snapshot": ("snapshot", r'"radii": \[\s*', "radii", "Infinity"),
    "report_mean": ("report", r'"mean_sse": ', "mean_sse", "Infinity"),
    "report_step": ("report", r'"sse": ', "sse", "NaN"),
}


@pytest.mark.parametrize("case", sorted(_NONFINITE))
def test_nonfinite_number_names_the_file_field_and_line(tmp_path, capsys, case):
    document, before, field, name = _NONFINITE[case]
    path, argv = _JSON_DOCUMENTS[document](tmp_path, capsys)
    text = path.read_text()
    start = re.search(before, text).end()
    end = re.compile(r"[,\s\]}]").search(text, start).start()
    path.write_text(text[:start] + name + text[end:])
    line = text.count("\n", 0, start) + 1
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1, err
    assert f"is not valid JSON: {name} in field '{field}'" in err, err
    assert re.search(rf" at line {line} column ", err), err
    assert "--out" not in argv or not Path(argv[argv.index("--out") + 1]).exists()


@st.composite
def _small_streams(draw):
    """1-4 chunks of 1-8 records in 1-3 dimensions, labeled or not. Values
    come partly from a coarse grid, so records coincide with each other and
    with centroids."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    dims, labeled = draw(st.integers(1, 3)), draw(st.booleans())
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                       st.floats(-10.0, 10.0, allow_nan=False))
    return [
        Chunk(t, draw(arrays(np.float64, (size, dims), elements=values)),
              draw(arrays(np.int64, size, elements=st.integers(0, 3))) if labeled else None)
        for t, size in enumerate(sizes, start=1)
    ]


def _exits_0_or_prints_one_error_line(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code:
        message = err.getvalue()
        assert code == 1 and out.getvalue() == ""
        assert message.startswith("error: ") and message.count("\n") == 1, message
    return code


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_small_streams(), st.one_of(st.none(), st.integers(1, 3)), st.integers(1, 2),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_eval_of_a_run_report_exits_0_or_prints_one_error_line(chunks, k, repeat, keep):
    # k None is the label-count policy; keep, when given, is the share of the
    # report's bytes left after an interrupted write
    with tempfile.TemporaryDirectory() as tmp:
        manifest = str(write_stream(Path(tmp) / "s", chunks, seed=0))
        report = Path(tmp) / "run" / "metrics.jsonl"
        run = ["run", manifest, "--repeat", str(repeat), "--out", str(report.parent)]
        if _exits_0_or_prints_one_error_line(run + ([] if k is None else ["--k", str(k)])):
            return
        if keep is not None:
            text = report.read_bytes()
            report.write_bytes(text[:int(len(text) * keep)])
        _exits_0_or_prints_one_error_line(["eval", manifest, str(report)])
