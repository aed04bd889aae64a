"""Bundled dataset packs: fixture rows, schema, phrase bank, and prompt templates.

A pack directory holds dataset.json (nouns, ops, default targets) plus the
files it points at. Three small synthetic packs ship with the package; any
directory with the same layout loads the same way.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .condgen import GenError
from .relation import AttributeSpec, IngestError, Relation, SchemaError, load_csv, schema_from_json
from .requestgen import TemplatePack, template_pack_from_json
from .requesttypes import MANY_TARGETS, NO_TARGET, ONE_TARGET, ROWS, RequestType
from .structurer import PhraseBank, RenderError, bank_from_json

DATA_DIR = Path(__file__).parent / "data"
BUILTIN_PACKS = ("soccer", "movie", "pii")


class PackError(Exception):
    pass


@dataclass(frozen=True)
class DatasetPack:
    name: str
    entity_noun: str
    entity_noun_plural: str
    schema: tuple[AttributeSpec, ...]
    relation: Relation
    bank: PhraseBank
    templates: TemplatePack
    allowed_ops: tuple[str, ...]
    numeric_target: str
    projection_attrs: tuple[str, ...]

    def target_for(self, request_type: RequestType) -> tuple[str, ...]:
        """Default target attributes for plan shapes that need them."""
        return {NO_TARGET: (), ONE_TARGET: (self.numeric_target,),
                MANY_TARGETS: self.projection_attrs}[ROWS[request_type].targets]

    def column_phrases(self) -> tuple[str, ...]:
        return tuple(a.canonical_phrase for a in self.schema)


def load_pack(name_or_path: str | Path) -> DatasetPack:
    """Load a pack by builtin name ("soccer", "movie", "pii") or directory path."""
    path = DATA_DIR / name_or_path if str(name_or_path) in BUILTIN_PACKS else Path(name_or_path)
    meta_file = path / "dataset.json"
    if not meta_file.is_file():
        raise PackError(f"no dataset.json under {path}")
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))

        for field_name in ("name", "entity_noun", "entity_noun_plural", "allowed_ops", "numeric_target"):
            if not meta.get(field_name):
                raise PackError(f"{meta_file}: missing or empty {field_name!r}")

        schema = schema_from_json((path / meta.get("schema", "schema.json")).read_text(encoding="utf-8"))
        rows_file = path / meta.get("rows", "rows.csv")
        relation = load_csv(rows_file.read_bytes(), schema, name=meta["name"])
        bank = bank_from_json((path / meta.get("phrases", "phrases.json")).read_text(encoding="utf-8"))
        bank.check_schema(schema)
        templates = template_pack_from_json((path / meta.get("templates", "templates.json")).read_text(encoding="utf-8"))

        known = {a.name for a in schema}
        numeric_target = meta["numeric_target"]
        if numeric_target not in known:
            raise PackError(f"numeric_target {numeric_target!r} is not a schema attribute")
        projection_attrs = tuple(meta.get("projection_attrs", ()))
        for attr in projection_attrs:
            if attr not in known:
                raise PackError(f"projection attribute {attr!r} is not a schema attribute")
        if not projection_attrs:
            key = next(a.name for a in schema if a.is_key)
            projection_attrs = (key,)

        return DatasetPack(
            name=meta["name"],
            entity_noun=meta["entity_noun"],
            entity_noun_plural=meta["entity_noun_plural"],
            schema=schema,
            relation=relation,
            bank=bank,
            templates=templates,
            allowed_ops=tuple(meta["allowed_ops"]),
            numeric_target=numeric_target,
            projection_attrs=projection_attrs,
        )
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            SchemaError, IngestError, RenderError, GenError) as e:
        raise PackError(f"{path}: cannot load pack ({type(e).__name__}: {e})") from None
