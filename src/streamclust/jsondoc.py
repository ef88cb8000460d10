"""JSON documents, read without numpy: field tables, the manifest, the file writer, digests.

Every JSON object read back (manifest, gen spec, engine snapshot) goes by one
table of its keys and JSON kinds: from_doc reads it, refusing a key the table
does not name, so a document's version is checked before it; to_doc writes it.

The manifest (version 3) describes a stream directory: how its .npy arrays
split into chunks, and what eval needs in their place. It records the
labeled stream's per-class means (core.class_means of its records) and the
SHA-256 of every array file, so eval reads the manifest and the files'
digests and never loads numpy. JSON writes a float as its repr, which reads
back as the same float.
"""

import json
import os
import re
import reprlib
import sys
from pathlib import Path
from typing import get_args, get_origin

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "streamclust-stream"
# 2: three .npy arrays in place of one CSV file per chunk; 3: class means, array digests
MANIFEST_VERSION = 3
ORIGINS = ("synthetic", "real-world")
JSON_NUMBER = int | float  # the types json.loads gives numbers; bool is neither
# The manifest's keys in the order write_stream writes them, with their JSON kinds
_MANIFEST_FIELDS = {"format": str, "version": int, "tool_version": str, "origin": str,
                    "seed": int, "dimensions": int, "labeled": bool, "chunk_sizes": list[int],
                    "artificial_class_sets": int, "source": dict, "class_labels": list[int],
                    "class_means": list[list[JSON_NUMBER]], "sha256": dict}
# The manifest's "sha256": each array file's digest; values.npy is always there
_SHA256_FIELDS = {"values.npy": str, "labels.npy": str, "ac.npy": str}


def _has_kind(value, kind, limit=sys.float_info.max) -> bool:
    """Whether a json.loads value has the JSON type kind, a class (True is not
    an int), list[kind] or a union such as int | None; ints lie within limit."""
    if type(kind) is type:
        return type(value) is kind and (kind is not int or abs(value) <= limit)
    if get_origin(kind) is list:
        return type(value) is list and all(_has_kind(v, get_args(kind)[0], limit) for v in value)
    return any(_has_kind(value, k, limit) for k in get_args(kind))


def json_field(document: str, doc, key: str, kind=int):
    """doc[key] if doc is a JSON object and doc[key] has the JSON type kind
    with every int in the float64 range, else a ValueError naming the document
    and field. parse_json has refused NaN and infinities."""
    if type(doc) is not dict:
        raise ValueError(f"{document} is a {type(doc).__name__}, not an object holding {key!r}")
    if key not in doc:
        raise ValueError(f"{document} field {key!r} is missing")
    value = doc[key]
    if not _has_kind(value, kind):
        if _has_kind(value, kind, float("inf")):
            raise ValueError(f"{document} field {key!r} holds a number beyond the float64 range")
        name = kind.__name__ if type(kind) is type else kind
        raise ValueError(f"{document} field {key!r} must be {name}, got {reprlib.repr(value)}")
    return value


def to_doc(obj, fields: dict) -> dict:
    """The JSON object of obj's attributes named in the table fields, in its order."""
    return {name: getattr(obj, name) for name in fields}


def from_doc(document: str, doc, fields: dict, optional=()) -> dict:
    """doc's fields by its table of keys and JSON kinds, each through json_field;
    a key of optional may be left out, and a key the table does not name is refused."""
    unknown = [key for key in doc if key not in fields] if type(doc) is dict else []
    if unknown:
        raise ValueError(f"{document} has unknown key {unknown[0]!r}; it takes {', '.join(fields)}")
    return {name: json_field(document, doc, name, kind) for name, kind in fields.items()
            if name not in optional or name in doc}


def read_text(path) -> str:
    """The UTF-8 text of the file at path; a decode error names the file and
    the line that holds the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at line {line}") from None


class _NonFinite(Exception):
    """A NaN or an infinity read by _DECODER; its one argument is the name."""


def _refuse_constant(name: str):
    raise _NonFinite(name)


# json.loads's decoder, but NaN, Infinity and -Infinity, which Python's json
# reads and JSON has no token for, reach the hook, which refuses them
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
# JSON's tokens that locate a number the decoder refused: a key, any other
# string, a bracket and, outside a string, a NaN or an infinity, or an
# integer of more than 309 digits, past the float64 range: int() refuses one
# of more digits than sys.get_int_max_str_digits(), which is at least 640.
# re compiles it on the first refusal, so a command that reads good
# documents does not pay for it.
_TOKEN = (r'(?P<key>"(?:[^"\\]|\\.)*")\s*:|"(?:[^"\\]|\\.)*"'
          r'|(?P<open>[{[])|(?P<close>[}\]])|(?P<constant>NaN|-?Infinity)'
          r'|(?P<integer>(?<![\d.eE+-])-?\d{310,}(?![\d.eE]))')


def _locate(text: str, kind: str) -> tuple[int, str | None, str]:
    """Where the first token of the kind ("constant" or "integer") in a JSON
    text is, the key of the field that holds it, None at the top level, and
    the token: a list's items are its field's, an object's start with no key."""
    keys = [None]
    for m in re.finditer(_TOKEN, text):
        if m["key"]:
            keys[-1] = _DECODER.decode(m["key"])
        elif m["open"]:
            keys.append(keys[-1] if m["open"] == "[" else None)
        elif m["close"]:
            keys.pop()
        elif m[kind]:
            return m.start(), keys[-1], m[kind]


def parse_json(text: str, document, line: int | None = None):
    """json.loads(text), refusing NaN, infinities and integers too long for
    int() to read; an error names the document and the line it is on, which
    is the given line when text is that one line of a file, and for such a
    number the field holding it."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        pos, what = exc.pos, f"is not valid JSON: {exc.msg}"
    except _NonFinite:
        pos, key, token = _locate(text, "constant")
        where = "" if key is None else f" in field {key!r}"
        what = f"is not valid JSON: {token}{where} is no JSON number"
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        pos, key, token = _locate(text, "integer")
        where = "" if key is None else f" in field {key!r}"
        what = f"holds an integer of {len(token.lstrip('-'))} digits{where}, past the float64 range,"
    line, column = line or text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    raise ValueError(f"{document} {what} at line {line} column {column}")


def atomic_write(path, data: str | bytes) -> None:
    """Write text (as UTF-8) or bytes to path through a temp file and os.replace.
    An error names path, not the temp file, which a failed write removes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def sha256(*parts) -> str:
    """The SHA-256 hex digest of the bytes-like parts, taken in turn."""
    import hashlib  # here: OpenSSL is ≈3.5 MB resident, which run without --snapshot never needs
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def read_manifest(manifest_path) -> dict:
    """The manifest at manifest_path, checked by check_manifest; its arrays are not read."""
    manifest = parse_json(read_text(manifest_path), manifest_path)
    check_manifest(manifest, manifest_path)
    return manifest


def check_manifest(manifest, manifest_path) -> None:
    """Refuse manifest, the JSON value of the file at manifest_path, unless it is a
    stream manifest of MANIFEST_VERSION whose fields agree with each other."""
    if json_field("manifest", manifest, "format", str) != MANIFEST_FORMAT:
        raise ValueError(f"{manifest_path} is not a {MANIFEST_FORMAT} manifest")
    if json_field("manifest", manifest, "version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest['version']}, expected "
                         f"{MANIFEST_VERSION}; write the stream again with gen or chunk")
    fields = from_doc("manifest", manifest, _MANIFEST_FIELDS)
    if fields["origin"] not in ORIGINS:
        raise ValueError(f"manifest field 'origin' must be 'synthetic' or 'real-world', "
                         f"got {fields['origin']!r}")
    dims, labeled = fields["dimensions"], fields["labeled"]
    sizes, ac_count = fields["chunk_sizes"], fields["artificial_class_sets"]
    if dims < 1:
        raise ValueError(f"{manifest_path}: dimensions must be a positive integer, got {dims!r}")
    if ac_count < 0:
        raise ValueError(f"{manifest_path}: artificial_class_sets must be a count, got {ac_count}")
    if not sizes or min(sizes) < 1:
        raise ValueError(f"{manifest_path}: chunk_sizes must be a non-empty list of "
                         "positive record counts")
    classes, means = fields["class_labels"], fields["class_means"]
    if len(means) != len(classes) or bool(classes) != labeled:
        raise ValueError(f"{manifest_path}: class_labels and class_means must hold one label "
                         "and one mean per class of a labeled stream, and none of an "
                         "unlabeled one")
    if any(len(mean) != dims for mean in means):
        raise ValueError(f"{manifest_path}: class_means do not hold {dims}-D means like "
                         "its dimensions")
    names = ["values.npy", *["labels.npy"] * labeled, *["ac.npy"] * bool(ac_count)]
    digests = from_doc("manifest field 'sha256'", fields["sha256"], _SHA256_FIELDS,
                       optional=list(_SHA256_FIELDS))
    if list(digests) != names:
        raise ValueError(f"{manifest_path}: sha256 must give the digests of "
                         f"{', '.join(names)}, got {', '.join(digests) or 'none'}")


def check_digests(manifest_path, manifest: dict) -> None:
    """Refuse an array file of the stream whose SHA-256 is not the one its
    manifest, as read_manifest returns it, records."""
    directory = Path(manifest_path).parent
    for name, digest in manifest["sha256"].items():
        path = directory / name
        if sha256(path.read_bytes()) != digest:
            raise ValueError(f"{path} does not match the SHA-256 its manifest records; "
                             "write the stream again with gen or chunk")
