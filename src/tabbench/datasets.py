"""Bundled dataset packs: fixture rows, schema, phrase bank, and prompt templates.

A pack directory holds dataset.json (nouns, ops, default targets) plus the
files it points at. Three small synthetic packs ship with the package; any
directory with the same layout loads the same way.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .condgen import GenError
from .oracle import OPS
from .relation import IngestError, Relation, SchemaError, load_csv, schema_from_json
from .requestgen import TemplatePack
from .requesttypes import MANY_TARGETS, NO_TARGET, ONE_TARGET, ROWS, RequestType
from .runio import from_json
from .structurer import PhraseBank, RenderError

DATA_DIR = Path(__file__).parent / "data"
BUILTIN_PACKS = ("soccer", "movie", "pii")


class PackError(Exception):
    pass


@dataclass(frozen=True)
class PackFiles:
    """The files of a pack, as its dataset.json names them, relative to it."""

    schema: str = "schema.json"
    rows: str = "rows.csv"
    phrases: str = "phrases.json"
    templates: str = "templates.json"


@dataclass(frozen=True)
class DatasetPack:
    """A pack: every key of its dataset.json but the file names, which
    PackFiles holds, and the relation, phrase bank and templates read from
    those files. Without projection_attrs, a projection asks for the key."""

    name: str
    entity_noun: str
    entity_noun_plural: str
    allowed_ops: tuple[str, ...]
    numeric_target: str
    relation: Relation
    bank: PhraseBank
    templates: TemplatePack
    projection_attrs: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("name", "entity_noun", "entity_noun_plural", "allowed_ops"):
            if not getattr(self, name):
                raise PackError(f"{name} must be non-empty, got {getattr(self, name)!r}")
        for op in self.allowed_ops:
            if op not in OPS:
                raise PackError(f"allowed_ops must each be one of {', '.join(OPS)}, got {op!r}")
        known = self.relation.attribute_names
        if self.numeric_target not in known:
            raise PackError(f"numeric_target must be a schema attribute, got {self.numeric_target!r}")
        if self.relation.attribute(self.numeric_target).kind != "numeric":
            raise PackError(f"numeric_target must be a numeric attribute, got {self.numeric_target!r}")
        for attr in self.projection_attrs:
            if attr not in known:
                raise PackError(f"projection_attrs must each be a schema attribute, got {attr!r}")

    def target_for(self, request_type: RequestType) -> tuple[str, ...]:
        """Default target attributes for plan shapes that need them."""
        return {NO_TARGET: (), ONE_TARGET: (self.numeric_target,),
                MANY_TARGETS: self.projection_attrs or (self.relation.key_attr.name,)}[ROWS[request_type].targets]

    def column_phrases(self) -> tuple[str, ...]:
        return tuple(a.canonical_phrase for a in self.relation.schema)


def load_pack(name_or_path: str | Path) -> DatasetPack:
    """Load a pack by builtin name ("soccer", "movie", "pii") or directory
    path. The codec reads dataset.json into PackFiles and DatasetPack, and
    each file it names into the class its content fills. The first file
    that cannot be read, or that holds a value not of its field's type or
    bounds, is a PackError naming the file and the field."""
    path = DATA_DIR / name_or_path if str(name_or_path) in BUILTIN_PACKS else Path(name_or_path)
    file = path / "dataset.json"
    if not file.is_file():
        raise PackError(f"no dataset.json under {path}")
    # `file` is the file being read, which an error names
    try:
        meta = json.loads(file.read_text(encoding="utf-8"))
        if type(meta) is not dict:
            raise ValueError(f"must be a JSON object, got {meta!r}")
        named = {field.name for field in dataclasses.fields(PackFiles)}
        files = from_json(PackFiles, {key: meta.pop(key) for key in named & meta.keys()})
        file = path / files.schema
        schema = schema_from_json(file.read_text(encoding="utf-8"))
        file = path / files.rows
        relation = load_csv(file.read_bytes(), schema, name=meta.get("name"))
        file = path / files.phrases
        bank = from_json(PhraseBank, json.loads(file.read_text(encoding="utf-8")))
        bank.check_schema(schema)
        file = path / files.templates
        templates = from_json(TemplatePack, json.loads(file.read_text(encoding="utf-8")))
        file = path / "dataset.json"
        # a dataset.json key naming a loaded part is read, and refused, as that part
        return from_json(DatasetPack, {"relation": relation, "bank": bank, "templates": templates, **meta})
    except (OSError, ValueError, PackError, SchemaError, IngestError, RenderError, GenError) as e:
        raise PackError(f"{file}: cannot load pack ({type(e).__name__}: {e})") from None
