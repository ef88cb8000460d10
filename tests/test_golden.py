"""Byte-level pins on what the commands write and print.

Each digest was taken on the code before the change it guards, and every
later version must reproduce it exactly: the reports, snapshots and eval
tables come from the version that built one frozen object per record, and
the 4-D run from the version whose centroid update was a list comprehension.
The stream trees ("tree", "chunked_tree") were taken when streams moved from
one CSV file per chunk to .npy arrays (manifest version 2), after the CSV
and .npy loaders were shown to read bit-equal values, labels and
artificial classes from the two formats. The sdccl and wcd1000 trees were first
taken when gen still drew each blob with its own Generator.normal call,
before it drew the whole stream in one. All four generated trees (sdwcd,
ncd100, sdccl, wcd1000) were re-pinned when gen stopped copying its spec
into the manifest's "source", which now only names the spec: their
values.npy and labels.npy were checked byte-identical to the previous
version's, and their manifest.json to differ only in "source". All five
trees (the four generated and the chunked one) were re-pinned again for
manifest version 3, which stores the labeled stream's per-class means and
the SHA-256 of each array file, so that eval reads those in place of the
arrays: each tree's values.npy, labels.npy and ac.npy were checked
byte-identical to the version 2 tree's, and its manifest.json to differ only
in "version" and the new "class_labels", "class_means" and "sha256". The
eval digests held, as JSON gives each stored mean back as the same float.
The repeat
run, three runs averaged, was taken before the run reports stopped going
through one object per run. The snapshot was re-pinned when it stopped
restating facts it holds elsewhere (version 4): the drift flag, which is
whether "parallel" is null, and each result's "timestamp", which is the
top-level one. The new file was checked to differ from the version 3 file
only in "version" and in those three deleted lines, and the resumed run's
digest held. It was re-pinned again when each result became one JSON list
per ClusteringResult field and the strike moved to the top level (version
5): the version 4 file decoded by the version 4 reader and the version 5
file decoded by the version 5 reader gave the same state, every float equal
in float.hex and every int exactly, and the resumed run's digest held. The
wcd1000 run was taken when the absorb pass still scanned every centroid for
every record, before it certified the previous record's cluster by the
half-gap test. Every report digest, the eval tables and the snapshot were
re-pinned when a bootstrap's first center came to be drawn with Python's
random.Random(seed) in place of numpy's default_rng(seed): each report and
eval table was checked to differ from the previous version's only in the
order of the final centroids, with their distances, and the snapshot only in
the order of each result's clusters, except the 4-D run's, whose second
chunk's fixed-k bootstrap starts from another record and ends at an SSE of
0.3303 in place of 0.3248. Before hashing a metrics.jsonl, the wall-clock fields
(duration_s, total_runtime_s) and the meta line's absolute manifest path are
dropped; everything else is hashed as written.

Every digest was pinned under numpy 2.4.6. The streams come from numpy's
Generator, whose streams NEP 19 does not promise to keep across numpy
releases, so another numpy may draw other streams. Python's version must not
matter: Python keeps random.Random's sequence for a given seed, and the
last test checks every digest again under an emulation of Python 3.12's
sum(), which compensates float rounding where 3.11's adds left to right.
"""

import hashlib
import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import streamclust
from streamclust.cli import main

WALL_CLOCK_FIELDS = ("duration_s", "total_runtime_s")

GOLDEN = {
    "sdwcd": {
        "tree": "94638f8cedb565d0df60db558b1edbb56f4cf27022143b7329789a0196cd27f7",
        "metrics": "1865ef308ead763f42086de86a110011ba72849614e0fb993e9053ec9d78d398",
        "counts": "680f7898f919f4be30eac893f0ea9c0e345de23075d841250d334c59cb676d7d",
        "eval": "19d7d118dcf44ca8cfa4ab8520d559c80bae74510df04487e65b0f4c3bf4bf21",
    },
    "ncd100": {
        "tree": "1918591fcb11dccaf2090267100c00abe88db99d533d80e537fe86967f181cf5",
        "metrics": "04818717bef99f6377698301a9549f622b664ddbd654bab59048744dee91f7bb",
        "counts": "1bc07bf7e0502915fa5ab9efa73b4c46899bab400dc10888872cd119727a6060",
        "eval": "1b774811de35cf577662dc6f32eea7e6510e91441f92163a1b774ee120254454",
    },
    "sdccl": {
        "tree": "251c14939a11599b329c0e685e33597922f67bbe7529647beb720ca690a22b93",
    },
    "wcd1000": {
        "tree": "2c6dfcc3e472d53653cb957c33d51a62b995c94e100282708b1046a32f79538f",
        "metrics": "6009104005bf5abe900d9029f58c3e3a26a903a601679a2a3ba470ade8852dbb",
        "counts": "57a8beba7bb73634fe83098946da4fe9d02ca9b52365100607861d8b2363e306",
    },
    # re-pinned for snapshot version 5, which writes each result as one
    # list per field and the strike at the top level; version 4 had dropped
    # the drift flag and each result's timestamp, version 3 had recorded the
    # SHA-256 of the chunks it covers, and version 2 had written the
    # k-from-labels policy as "k": null. The state it holds is as before.
    "snapshot": "4e477bad08f7f76821e20a39587d320f29ef399352429a1bea879a3eafbcd763",
    "resumed_metrics": "4662f889aea8b4526e03dddc92bb3e099f5d4d3d0ce03a87649c12b1cd36f796",
    "chunked_tree": "5a8af3d384d7d95f8abb8bd75ebcc51695c01d6755f6f9f64a7c5b64900e6c44",
    "chunked_run": {
        "metrics": "a896a78c2ec830daa58e79a5cdfb0f57fd4e0b14f8c74a9c115ed1ea43d14b6f",
        "counts": "3d597ff1b4359135073482dd0b4fb74c112d7531352da570168b955b4565a6f2",
    },
    "repeat": {
        "metrics": "387840a475d84b2c416dc274aff55d7f499d748a5c3a2f9765d725b5efcfd892",
        "counts": "85c45b148910c641c3dfac575427228c4fd28bf2093f75ee4df6c4223da04a7d",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in WALL_CLOCK_FIELDS}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _report_digest(path) -> str:
    lines = []
    for line in path.read_text().splitlines():
        doc = _strip(json.loads(line))
        if doc.get("type") == "meta":
            doc.pop("manifest")
        lines.append(json.dumps(doc))
    return _sha("\n".join(lines).encode())


@pytest.mark.parametrize("name", ["sdwcd", "ncd100"])
def test_gen_run_eval_match_golden_digests(name, tmp_path, capsys):
    stream = tmp_path / name
    manifest = str(stream / "manifest.json")
    run_out = tmp_path / "run"
    assert main(["gen", name, "--seed", "7", "--out", str(stream)]) == 0
    assert main(["run", manifest, "--seed", "7", "--out", str(run_out)]) == 0
    capsys.readouterr()
    assert main(["eval", manifest, str(run_out / "metrics.jsonl")]) == 0
    digests = {
        "tree": _tree_digest(stream),
        "metrics": _report_digest(run_out / "metrics.jsonl"),
        "counts": _sha((run_out / "cluster_counts.tsv").read_bytes()),
        "eval": _sha(capsys.readouterr().out.encode()),
    }
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", ["sdccl", "wcd1000"])
def test_gen_matches_golden_tree_digest(name, tmp_path, capsys):
    # sdccl's merge and relocations are offset; wcd1000 has per-cluster sizes,
    # other cluster counts and 1 000 chunks
    assert main(["gen", name, "--seed", "7", "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert _tree_digest(tmp_path / name) == GOLDEN[name]["tree"]


def test_run_wcd1000_matches_golden_digests(tmp_path, capsys):
    # 1 000 chunks of steady blobs: the stream where the absorb pass most
    # often settles a record's cluster with one distance
    stream = tmp_path / "wcd1000"
    run_out = tmp_path / "run"
    assert main(["gen", "wcd1000", "--seed", "7", "--out", str(stream)]) == 0
    assert main(["run", str(stream / "manifest.json"), "--seed", "7", "--out", str(run_out)]) == 0
    capsys.readouterr()
    digests = {
        "metrics": _report_digest(run_out / "metrics.jsonl"),
        "counts": _sha((run_out / "cluster_counts.tsv").read_bytes()),
    }
    assert digests == {key: GOLDEN["wcd1000"][key] for key in digests}


def test_repeat_run_matches_golden_digests(tmp_path, capsys):
    # the one input where the step rows and the summary average across runs
    stream = tmp_path / "sdwcd"
    run_out = tmp_path / "run"
    assert main(["gen", "sdwcd", "--seed", "7", "--out", str(stream)]) == 0
    assert main(["run", str(stream / "manifest.json"), "--seed", "7", "--repeat", "3",
                 "--out", str(run_out)]) == 0
    capsys.readouterr()
    digests = {
        "metrics": _report_digest(run_out / "metrics.jsonl"),
        "counts": _sha((run_out / "cluster_counts.tsv").read_bytes()),
    }
    assert digests == GOLDEN["repeat"]


def test_snapshot_and_resume_match_golden_digests(tmp_path, capsys):
    stream = tmp_path / "sdwcd"
    manifest = str(stream / "manifest.json")
    snap = tmp_path / "snap.json"
    assert main(["gen", "sdwcd", "--seed", "7", "--out", str(stream)]) == 0
    assert main(["run", manifest, "--seed", "7", "--stop-after", "7",
                 "--snapshot", str(snap), "--out", str(tmp_path / "part")]) == 0
    assert main(["resume", manifest, "--snapshot", str(snap),
                 "--out", str(tmp_path / "rest")]) == 0
    capsys.readouterr()
    assert _sha(snap.read_bytes()) == GOLDEN["snapshot"]
    assert _report_digest(tmp_path / "rest" / "metrics.jsonl") == GOLDEN["resumed_metrics"]


def _chunked_stream(tmp_path):
    # three classes of 4-attribute rows on different scales, so normalization
    # and the artificial-class binning both do real work
    rng = np.random.default_rng(5)
    rows = []
    for label, scale in ((3, 1.0), (8, 20.0), (5, 0.1)):
        for values in rng.normal(scale, scale / 3, size=(25, 4)):
            rows.append(",".join(f"{v:.5f}" for v in values) + f",{label}")
    dataset = tmp_path / "data.csv"
    dataset.write_text("w,x,y,z,class\n" + "\n".join(rows) + "\n")
    stream = tmp_path / "stream"
    assert main(["chunk", str(dataset), "--chunks", "5", "--artificial-classes",
                 "--out", str(stream)]) == 0
    return stream


def test_chunked_dataset_matches_golden_digest(tmp_path, capsys):
    stream = _chunked_stream(tmp_path)
    capsys.readouterr()
    assert _tree_digest(stream) == GOLDEN["chunked_tree"]


def test_chunked_run_matches_golden_digests(tmp_path, capsys):
    # an engine pin off 2-D: absorbs at d=4 and scores entropy over the
    # artificial label sets rather than the chunk labels
    stream = _chunked_stream(tmp_path)
    run_out = tmp_path / "run"
    assert main(["run", str(stream / "manifest.json"), "--k", "3", "--seed", "7",
                 "--out", str(run_out)]) == 0
    capsys.readouterr()
    digests = {
        "metrics": _report_digest(run_out / "metrics.jsonl"),
        "counts": _sha((run_out / "cluster_counts.tsv").read_bytes()),
    }
    assert digests == GOLDEN["chunked_run"]


def _sum_312(iterable, /, start=0):
    """An emulation of Python 3.12's sum() (gh-100425): ints add exactly,
    and once the total is a float, each further float goes through Neumaier's
    compensated summation, the compensation added at the end; anything else
    adds plainly."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    compensation = 0.0
    for item in items:
        if type(item) is not float:
            total = total + item
            continue
        t = total + item
        if abs(total) >= abs(item):
            compensation += (total - t) + item
        else:
            compensation += (item - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.mark.parametrize("check, args", [
    pytest.param(check, args, id="-".join([check.__name__.removeprefix("test_"), *args]))
    for check, args in [
        (test_gen_run_eval_match_golden_digests, ("sdwcd",)),
        (test_gen_run_eval_match_golden_digests, ("ncd100",)),
        (test_gen_matches_golden_tree_digest, ("sdccl",)),
        (test_gen_matches_golden_tree_digest, ("wcd1000",)),
        (test_run_wcd1000_matches_golden_digests, ()),
        (test_repeat_run_matches_golden_digests, ()),
        (test_snapshot_and_resume_match_golden_digests, ()),
        (test_chunked_dataset_matches_golden_digest, ()),
        (test_chunked_run_matches_golden_digests, ()),
    ]
])
def test_golden_digests_hold_under_python_312_sum(check, args, tmp_path, capsys, monkeypatch):
    # every streamclust module's sum() becomes 3.12's: a float sum left to
    # sum() would move the bits of whatever it computes
    for info in pkgutil.iter_modules(streamclust.__path__):
        module = importlib.import_module(f"streamclust.{info.name}")
        monkeypatch.setattr(module, "sum", _sum_312, raising=False)
    check(*args, tmp_path, capsys)
