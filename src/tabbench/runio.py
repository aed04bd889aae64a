"""Run persistence: the JSON codec of every record, the one writer of every
artifact, file digests and tamper-evident manifests."""
from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import re
import time
import types
import typing
from pathlib import Path

from . import __version__


class ManifestError(Exception):
    pass


# ---------------------------------------------------------------------------
# JSON codec: each record's JSON form is declared once, by its dataclass
# ---------------------------------------------------------------------------


class CodecError(ValueError):
    """A JSON value that is not the form of the type it is read as."""


class _Mismatch(Exception):
    """A value not of the type asked for; the field that holds it names it."""


_SCALARS = (str, int, float, bool, type(None))


def to_json(value):
    """The JSON form of a value. A dataclass is an object of its fields, plus
    `kind` when the class declares a `kind` ClassVar; a tuple is a list, a
    frozenset a sorted list and an Enum its value; str, int, float, bool and
    None are written as they are."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (tuple, frozenset)):
        return [to_json(x) for x in (sorted(value) if isinstance(value, frozenset) else value)]
    if isinstance(value, enum.Enum):
        return value.value
    fields, kind = _declared(type(value))[:2]
    obj = {name: to_json(getattr(value, name)) for name, _ in fields}
    if kind is not None:
        obj["kind"] = kind
    return obj


def from_json(tp, obj):
    """The value of type `tp` (a class or a type hint) that to_json wrote as
    `obj`. A union of classes that declare a `kind` picks its class by the
    object's `kind`; a float also takes an integer, which it stores as a
    float, and no int or float takes a boolean; a tuple or a frozenset takes a
    list of its items, and a `dict[str, X]` an object of X values; a dataclass
    takes a missing field that has a default as that default. A value already
    of the type, as decoded, is taken as it is.
    Anything else raises CodecError: `<field> must be <type>, got <value>`, or
    `unknown key '<k>'`."""
    try:
        return _decoder(tp)(obj)
    except _Mismatch:
        raise CodecError(f"value must be {_written(tp)}, got {obj!r}") from None


def _written(tp) -> str:
    """A class or type hint as written in the source, as a field's type is
    named: `AttributeSpec`, `tuple[AttributeSpec, ...]`."""
    return tp.__name__ if isinstance(tp, type) else re.sub(r"[\w.]+\.(?=\w)", "", str(tp))


@functools.cache
def _declared(cls):
    """A dataclass's fields as (name, decoder), its `kind` or None, each
    field's type as written, its required fields and the keys its JSON object
    has. Type hints are resolved once per class."""
    hints = typing.get_type_hints(cls)
    kind = cls.kind if typing.get_origin(hints.get("kind")) is typing.ClassVar else None
    fields = dataclasses.fields(cls)
    return ([(f.name, _decoder(hints[f.name])) for f in fields], kind, {f.name: str(f.type) for f in fields},
            {f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING},
            {f.name for f in fields} | ({"kind"} if kind is not None else set()))


@functools.cache
def _decoder(hint):
    """The function that reads a JSON value as `hint`; it raises _Mismatch for
    a value that is not of that form."""
    if hint in _SCALARS:  # read as a union of one member
        return functools.partial(_union, (hint,), {})
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return functools.partial(_member, hint, {member.value: member for member in hint})
    if dataclasses.is_dataclass(hint):
        return functools.partial(_object, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple or origin is frozenset:
        return functools.partial(_items, origin, _decoder(args[0]))
    if origin is dict and args[0] is str:  # a JSON object's keys are strings
        return functools.partial(_entries, _decoder(args[1]))
    if origin is typing.Union or origin is types.UnionType:
        return functools.partial(_union, args, {m.kind: m for m in args if dataclasses.is_dataclass(m)})
    raise TypeError(f"no JSON form for {hint!r}")


def _member(cls, members, value):
    if type(value) is cls:
        return value
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value, a list or an object
        raise _Mismatch from None


def _items(origin, decode_item, value):
    if type(value) is origin:
        return value
    if type(value) is not list:
        raise _Mismatch
    return origin([decode_item(x) for x in value])


def _entries(decode_value, value):
    if type(value) is not dict:
        raise _Mismatch
    return {key: decode_value(item) for key, item in value.items()}


def _union(members, by_kind, value):
    if type(value) is dict and by_kind:
        kind = value.get("kind")
        if type(kind) is not str or kind not in by_kind:
            raise CodecError(f"kind must be {' | '.join(map(repr, by_kind))}, got {kind!r}")
        return _object(by_kind[kind], value)
    if type(value) in members:  # a scalar of a member type, or a member class's instance
        return value
    if type(value) is int and float in members:
        return float(value)
    raise _Mismatch


def _object(cls, value):
    if type(value) is cls:
        return value
    if type(value) is not dict:
        raise _Mismatch
    fields, kind, type_names, required, keys = _declared(cls)
    if value.keys() != keys:
        for key in value:
            if key not in keys:
                raise CodecError(f"unknown key {key!r}")
        for name in type_names:
            if name in required and name not in value:
                raise CodecError(f"{name} must be {type_names[name]}, got nothing")
    if kind is not None and value.get("kind") != kind:
        raise CodecError(f"kind must be {kind!r}, got {value.get('kind')!r}")
    values = {}
    for name, decode in fields:
        if name in value:
            try:
                values[name] = decode(value[name])
            except _Mismatch:
                raise CodecError(f"{name} must be {type_names[name]}, got {value[name]!r}") from None
    return cls(**values)


def read_lines(file: typing.BinaryIO, digest) -> typing.Iterator[str]:
    """Each line of an open binary file decoded as UTF-8, its bytes fed to
    `digest` as it is read. Bytes that are not UTF-8 raise UnicodeDecodeError
    with `start` and `end` counted from the start of the file."""
    offset = 0
    for line in file:
        digest.update(line)
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise UnicodeDecodeError(e.encoding, line, offset + e.start, offset + e.end, e.reason) from None
        offset += len(line)
        yield text


def sha256_file(path: str | Path) -> str:
    """The SHA-256 of a UTF-8 text file's bytes; UnicodeDecodeError if they
    are not UTF-8. Every file tabbench hashes is text that it also reads."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for _ in read_lines(f, digest):
            pass
    return digest.hexdigest()


def config_hash(config_payload: dict) -> str:
    canonical = json.dumps(config_payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def write_file(path: str | Path, chunks: typing.Iterable[str]) -> str:
    """Write the UTF-8 bytes of `chunks` to `path` and return their SHA-256.
    Each chunk is encoded, hashed and written to "<path>.tmp" as it comes, and
    the whole file then replaces `path`. On any failure the .tmp is deleted
    and `path` is left as it was."""
    path = Path(path)
    staged = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(staged, "wb") as f:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                digest.update(data)
                f.write(data)
        os.replace(staged, path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def write_manifest(path: str | Path, *, config_digest: str, files: dict[str, str],
                   extra: dict | None = None) -> None:
    """Manifest next to produced files: config hash, tool version and the
    digest of each file (name -> the digest write_file returned for it)."""
    payload = {
        "config_hash": config_digest,
        "created": time.time(),
        "files": files,
        "tool_version": __version__,
    }
    if extra:
        payload.update(extra)
    write_file(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def read_manifest(path: str | Path) -> dict:
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"missing manifest {path}") from None
    except OSError as e:
        raise ManifestError(f"cannot read manifest {path}: {e.strerror or e}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ManifestError(f"corrupt manifest {path}: {e}") from None
    files = manifest.get("files", {}) if isinstance(manifest, dict) else None
    if not isinstance(files, dict) or not all(isinstance(digest, str) for digest in files.values()):
        raise ManifestError(f"corrupt manifest {path}: not an object with a files object of digest strings")
    return manifest


def verify_manifest(manifest: dict, directory: str | Path, known: dict[str, str] | None = None) -> None:
    """Check every digest the manifest claims, taking it from `known` (file
    name -> digest of bytes the caller already read) or else recomputing it;
    mismatches are tampering."""
    for name, digest in manifest.get("files", {}).items():
        actual = (known or {}).get(name)
        if actual is None:
            target = Path(directory) / name
            if not target.is_file():
                raise ManifestError(f"manifest references missing file {name}")
            try:
                actual = sha256_file(target)
            except OSError as e:
                raise ManifestError(f"cannot read {target}, listed in the manifest: {e.strerror or e}") from None
            except UnicodeDecodeError as e:
                raise ManifestError(f"{target}, listed in the manifest, is not UTF-8 text "
                                    f"({e.reason} at byte {e.start})") from None
        if actual != digest:
            raise ManifestError(f"digest mismatch for {name}: manifest {digest[:12]}.., file {actual[:12]}..")
