"""In-memory tabular data model: typed schema, CSV ingestion, deterministic sampling.

Relations are immutable after construction and safe to share across threads:
the facts a relation derives from its rows are computed on first use and kept,
and computing one twice gives the same value. A row is the tuple of its
original source cell strings, so renderers reproduce source formatting
exactly; each numeric cell's float is parsed on first use, column by column.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
from dataclasses import dataclass

from .runio import from_json

KINDS = ("categorical", "numeric", "freetext")


class SchemaError(Exception):
    """Schema definition or attribute lookup failure."""


class UnknownAttributeError(SchemaError):
    pass


class IngestError(Exception):
    """CSV ingestion failure."""


class DuplicateKeyError(IngestError):
    pass


class MissingColumnError(IngestError):
    pass


class TypeMismatchError(IngestError):
    def __init__(self, row_index: int, attr: str, value: str):
        super().__init__(f"row {row_index}: value {value!r} in numeric column {attr!r}")
        self.row_index = row_index
        self.attr = attr
        self.value = value


class SampleError(Exception):
    pass


def normalize(value: str) -> str:
    """Matching normalization used for keys and cell comparisons: trim + casefold."""
    return value.strip().casefold()


def parse_number(text: str) -> float | None:
    """Finite float from a cell string, or None when it is not a plain number."""
    try:
        value = float(text.strip())
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class AttributeSpec:
    """One column: identifier name, value kind, and the phrases used to talk about it.

    paraphrases[0] is always the canonical phrase; alternates follow in rank order.
    """

    name: str
    kind: str
    canonical_phrase: str
    paraphrases: tuple[str, ...] = ()
    is_key: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown kind {self.kind!r} for attribute {self.name!r}")
        if not self.name or not self.canonical_phrase:
            raise SchemaError("attribute name and canonical phrase must be non-empty")
        phrases = tuple(self.paraphrases)
        if not phrases or phrases[0] != self.canonical_phrase:
            phrases = (self.canonical_phrase, *phrases)
        object.__setattr__(self, "paraphrases", phrases)


@dataclass(frozen=True)
class Relation:
    """An ordered, keyed table. Row order is the ingestion order and is stable.

    Each row is the tuple of its cell strings. Each column's normalized cells,
    parsed numbers and distinct values are computed once per relation, on
    first use. `key_sets` holds the keys each condition scan of the oracle
    found, by what the scan read, so each is scanned once too."""

    name: str
    schema: tuple[AttributeSpec, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        keys = [i for i, a in enumerate(self.schema) if a.is_key]
        if len(keys) != 1:
            raise SchemaError(f"relation {self.name!r} needs exactly one key attribute, got {len(keys)}")
        key_idx = keys[0]
        # name -> first position, and the key column: lookups, not schema scans
        positions: dict[str, int] = {}
        for i, a in enumerate(self.schema):
            positions.setdefault(a.name, i)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_key_index", key_idx)
        object.__setattr__(self, "key_sets", {})
        seen: set[str] = set()
        for i, row in enumerate(self.rows):
            if len(row) != len(self.schema):
                raise SchemaError(f"row {i} arity {len(row)} != schema arity {len(self.schema)}")
            norm = normalize(row[key_idx])
            if norm in seen:
                raise DuplicateKeyError(f"duplicate key {row[key_idx]!r} in {self.name!r}")
            seen.add(norm)

    @classmethod
    def from_values(cls, name: str, schema: tuple[AttributeSpec, ...], values: list[tuple[str, ...]]) -> "Relation":
        return cls(name=name, schema=schema, rows=tuple(map(tuple, values)))

    @property
    def key_attr(self) -> AttributeSpec:
        return self.schema[self._key_index]

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def attribute(self, name: str) -> AttributeSpec:
        return self.schema[self.index(name)]

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownAttributeError(f"no attribute {name!r} in {self.name!r}") from None

    def key_of(self, row: tuple[str, ...]) -> str:
        return row[self._key_index].strip()

    def keys(self) -> tuple[str, ...]:
        idx = self._key_index
        return tuple(r[idx].strip() for r in self.rows)

    @functools.cached_property
    def normalized(self) -> tuple[tuple[str, ...], ...]:
        """Each column's cells under normalize, in row order."""
        return tuple(tuple(normalize(row[i]) for row in self.rows) for i in range(len(self.schema)))

    @functools.cached_property
    def numbers(self) -> tuple[tuple[float | None, ...], ...]:
        """Each column's cells under parse_number, in row order; None
        throughout a column that is not numeric."""
        return tuple(tuple(parse_number(row[i]) if a.kind == "numeric" else None for row in self.rows)
                     for i, a in enumerate(self.schema))

    @functools.cached_property
    def distinct(self) -> tuple[tuple[str, ...], ...]:
        """Each column's distinct values (see unique_values)."""
        return tuple(_distinct(self, i) for i in range(len(self.schema)))


def load_csv(source, schema: tuple[AttributeSpec, ...], name: str = "dataset") -> Relation:
    """Build a Relation from UTF-8 CSV with a header row naming every schema attribute.

    Header order is free; columns not in the schema are dropped, with a logged
    warning naming them. Numeric columns are validated cell by cell.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumnError("empty CSV: no header row")

    lookup = {normalize(h): i for i, h in enumerate(header)}
    positions = []
    for attr in schema:
        pos = lookup.get(normalize(attr.name))
        if pos is None:
            raise MissingColumnError(f"CSV header is missing column {attr.name!r}")
        positions.append(pos)

    wanted = set(positions)
    dropped = tuple(h for i, h in enumerate(header) if i not in wanted)
    if dropped:
        # imported here, so that only a pack with extra columns loads logging
        import logging

        logging.getLogger(__name__).warning("dropping columns not in schema: %s", ", ".join(dropped))

    values: list[tuple[str, ...]] = []
    for row_index, record in enumerate(reader):
        cells = tuple(record[pos] if pos < len(record) else "" for pos in positions)
        for attr, cell in zip(schema, cells):
            if attr.kind == "numeric" and parse_number(cell) is None:
                raise TypeMismatchError(row_index, attr.name, cell)
        values.append(cells)

    return Relation.from_values(name, schema, values)


def sample_entities(rel: Relation, n: int, seed: int) -> Relation:
    """Uniform sample of n rows without replacement, keeping first-appearance order."""
    if n < 0 or n > len(rel.rows):
        raise SampleError(f"cannot sample {n} of {len(rel.rows)} rows")
    picked = sorted(random.Random(seed).sample(range(len(rel.rows)), n))
    return Relation(name=rel.name, schema=rel.schema, rows=tuple(rel.rows[i] for i in picked))


def unique_values(rel: Relation, attr: str) -> list[str]:
    """Distinct values of one column in first-appearance order.

    Duplicates collapse under trim+casefold; numeric columns also collapse
    by parsed value so "7" and "7.0" count once.
    """
    return list(rel.distinct[rel.index(attr)])


def _distinct(rel: Relation, idx: int) -> tuple[str, ...]:
    seen: set = set()
    out: list[str] = []
    for row, norm, number in zip(rel.rows, rel.normalized[idx], rel.numbers[idx]):
        marker = norm if number is None else number
        if marker in seen:
            continue
        seen.add(marker)
        out.append(row[idx].strip())
    return tuple(out)


def schema_from_json(text: str) -> tuple[AttributeSpec, ...]:
    """Schema file format: JSON array of {name, kind, canonical_phrase, paraphrases, is_key},
    read by the codec; paraphrases and is_key may be left out."""
    schema = from_json(tuple[AttributeSpec, ...], json.loads(text))
    names = [a.name for a in schema]
    for name in names:
        if names.count(name) > 1:
            raise SchemaError(f"schema names attribute {name!r} more than once")
    return schema
