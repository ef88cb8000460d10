"""Byte-level pins on what the commands write and print.

Each digest was taken on the code before the change it guards, and every
later version must reproduce it exactly: the reports, snapshots and eval
tables come from the version that built one frozen object per record, and
the 4-D run from the version whose centroid update was a list comprehension.
The stream trees ("tree", "chunked_tree") were taken when streams moved from
one CSV file per chunk to .npy arrays (manifest version 2), after the CSV
and .npy loaders were shown to read bit-equal values, labels and
artificial classes from the two formats. The sdccl and wcd1000 trees were
taken when gen still drew each blob with its own Generator.normal call,
before it drew the whole stream in one. The wcd1000 run was taken when the
absorb pass still scanned every centroid for every record, before it
certified the previous record's cluster by the half-gap test. Before
hashing a metrics.jsonl, the wall-clock fields (duration_s,
total_runtime_s) and the meta line's absolute manifest path are dropped;
everything else is hashed as written.

Every digest was pinned under numpy 2.4.6. The streams come from numpy's
Generator, whose streams NEP 19 does not promise to keep across numpy
releases, so another numpy may draw other streams. Python's version must not
matter: the last test checks every digest again under an emulation of
Python 3.12's sum(), which compensates float rounding where 3.11's adds
left to right.
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
        "tree": "c26acdbb888ecb03ed82607d8232016741370da119e63525e92f31d41365923e",
        "metrics": "8088a63ebe97e70c083b9edb62a3b73a7289eab4291eae72a65f000aefba87e6",
        "counts": "680f7898f919f4be30eac893f0ea9c0e345de23075d841250d334c59cb676d7d",
        "eval": "98d93ebbae987db33aa159200270334cc433a259e19cac9ff91075fb6ab1b73b",
    },
    "ncd100": {
        "tree": "9f43795a5d46bd426f167d6590ae47ed4ecf537d998cd1b2c1ab84590e8f496a",
        "metrics": "7873a82a3b3db82ae2b9dfd37427cd8829893d27cc23d68dbe5529c23810199a",
        "counts": "1bc07bf7e0502915fa5ab9efa73b4c46899bab400dc10888872cd119727a6060",
        "eval": "55b4ccfe7674735a0cc389e33cf64c69971a4e6feb0ea20e69d4fbbecb2b7612",
    },
    "sdccl": {
        "tree": "4e513cfb7356a8b4f7f711f82ce6538a1fbaeedf9ed37f93d11ec90caca14ece",
    },
    "wcd1000": {
        "tree": "a1d42b24aeb10ee468acf71b733783a59e58ef3277fede44fb6a15148a37177d",
        "metrics": "7992942954634b199e4369eeab2dc5379ec402f652663ac9f2b4dc5c0baa29bb",
        "counts": "57a8beba7bb73634fe83098946da4fe9d02ca9b52365100607861d8b2363e306",
    },
    # re-pinned for snapshot version 3, which records the SHA-256 of the
    # chunks it covers; version 2 had written the k-from-labels policy as
    # "k": null. Every other byte is as before.
    "snapshot": "bd6356d8a04449ce8b42876ebda62f53bba197a938fba7efc9f6c35199de4075",
    "resumed_metrics": "f4c7fbe42a843c80d04867c80f24493b2e7622e16cfb82d0c257293a51bbcc5c",
    "chunked_tree": "9836e13fe6acf21089a20f5d468227b6fc0eef0d44db47d377b8caf7f327a39b",
    "chunked_run": {
        "metrics": "74fce436297c1294de5a633fd3140ab0975dcc17c1cbd37e647b302c2a811632",
        "counts": "3d597ff1b4359135073482dd0b4fb74c112d7531352da570168b955b4565a6f2",
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
