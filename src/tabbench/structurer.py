"""Render a relation at four structuring levels and parse pipe tables back.

The levels differ only in how fixed the wording, attribute order, and layout
are; every level carries every cell value verbatim, so the information content
is identical and checkable by substring search.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from .relation import AttributeSpec, Relation, normalize, parse_number
from .seeding import Draws, rng_for


class RenderError(Exception):
    pass


class NoBankError(RenderError):
    pass


class BadPortionError(RenderError):
    pass


class ParseError(Exception):
    pass


class NoTableError(ParseError):
    pass


class StructuringLevel(Enum):
    """Renderings ordered by structuredness: fixed attribute order, then fixed
    expression, then tabular layout."""

    NATURAL = "natural"
    ORDER_FIXED = "order_fixed"
    TEMPLATE_BASED = "template_based"
    TABLE = "table"


PORTIONS = (0.0, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class SentenceFrame:
    """Skeleton of one sentence: a head holding the key, then one clause per
    non-key attribute in the frame's own order."""

    head: str
    order: tuple[str, ...]

    def __post_init__(self):
        if "{key}" not in self.head:
            raise NoBankError(f"frame head {self.head!r} has no {{key}} slot")


@dataclass(frozen=True)
class PhraseBank:
    """Per-dataset wording: sentence frames plus clause templates per
    attribute, as the codec reads them from a pack's phrases.json.

    frames[0] is the canonical frame; clauses[attr][0] the canonical clause.
    Clause templates use {value} for the cell and {phrase} for the attribute
    phrase drawn from the schema's paraphrase list.
    """

    frames: tuple[SentenceFrame, ...]
    clauses: dict[str, tuple[str, ...]]

    def __post_init__(self):
        if not self.frames:
            raise NoBankError("phrase bank has no sentence frames")

    def check_schema(self, schema: tuple[AttributeSpec, ...]) -> None:
        non_key = [a.name for a in schema if not a.is_key]
        for frame in self.frames:
            if sorted(frame.order) != sorted(non_key):
                raise NoBankError(
                    f"frame order {frame.order} does not cover non-key attributes {tuple(non_key)}"
                )
        for name in non_key:
            if not self.clauses.get(name):
                raise NoBankError(f"no clause templates for attribute {name!r}")


def render_table(header: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> str:
    """Pipe table: the header row then one line per row of cell strings,
    single spaces around cells."""
    return "\n".join(["| " + " | ".join(cells) + " |" for cells in (header, *rows)])


def render(rel: Relation, level: StructuringLevel, seed: int, bank: PhraseBank | None = None) -> str:
    """Deterministic rendering of a relation at one structuring level.

    Table needs no bank. The three text levels need frames and clause banks:
    template-based always uses the canonical frame and clauses; order-fixed
    keeps the canonical attribute order but draws wording per entity; natural
    additionally permutes the attribute order per entity.
    """
    if not rel.rows:
        raise RenderError("cannot render an empty relation")
    if level is StructuringLevel.TABLE:
        return render_table(rel.attribute_names, rel.rows)
    if bank is None:
        raise NoBankError(f"{level.value} rendering needs a phrase bank")
    bank.check_schema(rel.schema)

    # each attribute's column, clause templates and phrases, looked up once per call
    wording = [(rel.index(name), bank.clauses[name], rel.attribute(name).paraphrases)
               for name in bank.frames[0].order]
    # per entity, from its own seed: the frame, then (natural) the attribute
    # order, then each attribute's clause and phrase, drawn as rng_for(seed,
    # "render", level, index, key)'s choice and shuffle would draw them;
    # template-based text takes the first of each instead
    template_based = level is StructuringLevel.TEMPLATE_BASED
    draws = Draws(seed, "render", level.value)
    below = (lambda n: 0) if template_based else draws.below
    lines = []
    for entity_index, row in enumerate(rel.rows):
        key = rel.key_of(row)
        if not template_based:
            draws.reseed(entity_index, key)
        parts = [bank.frames[below(len(bank.frames))].head.replace("{key}", key)]
        order = wording
        if level is StructuringLevel.NATURAL:
            order = list(wording)
            draws.shuffle(order)
        for column, clauses, phrases in order:
            clause = clauses[below(len(clauses))]
            parts.append(clause.replace("{value}", row[column]).replace("{phrase}", phrases[below(len(phrases))]))
        lines.append(" ".join(parts) + ".")
    return "\n".join(lines)


def render_partial(rel: Relation, portion: float, seed: int, bank: PhraseBank | None = None) -> str:
    """Seeded split: floor(portion*n) entities as a trailing pipe-table block,
    the rest as natural text above it. The two blocks partition the entities."""
    if portion not in PORTIONS:
        raise BadPortionError(f"portion must be one of {PORTIONS}, got {portion}")
    if not rel.rows:
        raise RenderError("cannot render an empty relation")

    n = len(rel.rows)
    take = int(portion * n)
    if take == 0:
        return render(rel, StructuringLevel.NATURAL, seed, bank)
    if take == n:
        return render(rel, StructuringLevel.TABLE, seed, bank)

    rng = rng_for(seed, "partition", portion)
    table_indices = sorted(rng.sample(range(n), take))
    chosen = set(table_indices)
    text_part = Relation(rel.name, rel.schema, tuple(r for i, r in enumerate(rel.rows) if i not in chosen))
    text_block = render(text_part, StructuringLevel.NATURAL, seed, bank)
    return text_block + "\n\n" + render_table(rel.attribute_names, (rel.rows[i] for i in table_indices))


_SEPARATOR_CELL = re.compile(r"^:?-+:?$")
# markdown emphasis around a whole cell: **Name**, __Name__, *Name*, _Name_, `Name`
_EMPHASIS = re.compile(r"(\*\*|__|\*|_|`)(.+)\1")
_MARKERS = ("*", "_", "`")


def split_pipe_line(line: str) -> list[str] | None:
    """Trimmed cells of one pipe-delimited line, without the boundary pipes;
    None when the line has no pipe or no cells."""
    stripped = line.strip()
    if "|" not in stripped:
        return None
    cells = stripped.split("|")
    # a pipe at either end leaves an empty part there, sliced off before the cells are stripped
    cells = list(map(str.strip, cells[stripped[0] == "|":len(cells) - (stripped[-1] == "|")]))
    return cells or None


def is_separator_row(cells: list[str]) -> bool:
    """True for a markdown rule row such as `|---|:--:|`; an all-empty row is not one."""
    return any(cells) and all(_SEPARATOR_CELL.match(c) for c in cells if c)


@dataclass(frozen=True)
class PipeTable:
    """A pipe table as read: its header cells and its rows of cell strings,
    every row as wide as the header."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column(self, name: str, default: int | None = None) -> int | None:
        """Index of the first header cell equal to `name` under normalize,
        once any markdown emphasis around the cell is taken off, else
        `default`."""
        wanted = normalize(name)
        return next((i for i, cell in enumerate(self.header) if unemphasized(cell) == wanted), default)


def unemphasized(cell: str) -> str:
    """A cell under normalize, without the emphasis markers around it."""
    cell = cell.strip()
    # the pattern matches only from a marker, which few cells start with
    while cell.startswith(_MARKERS) and (emphasized := _EMPHASIS.fullmatch(cell)):
        cell = emphasized.group(2).strip()
    return normalize(cell)


def parse_table(text: str) -> PipeTable:
    """Best-effort pipe-table extraction from free text.

    Takes the first contiguous block of pipe-delimited lines, skipping markdown
    separator rows; tolerates missing boundary pipes, ragged rows, surrounding
    prose, and repeated keys (first occurrence wins).
    """
    header: tuple[str, ...] | None = None
    rows: list[tuple[str, ...]] = []
    seen_keys: set[str] = set()
    in_block = False
    for line in text.splitlines():
        cells = split_pipe_line(line)
        if cells is None:
            if in_block:
                break
            continue
        in_block = True
        # a rule row's first non-empty cell starts with - or :, so most rows skip the full test
        first = cells[0] or next((c for c in cells if c), "")
        if first[:1] in ("-", ":") and is_separator_row(cells):
            continue
        if header is None:
            header = tuple(h if h else f"col{i}" for i, h in enumerate(cells))
            width = len(header)
            continue
        key = normalize(cells[0])  # empty just when the stripped cell is
        if not key or key in seen_keys:
            continue
        seen_keys.add(key)
        rows.append(tuple(cells) if len(cells) == width else tuple((cells + [""] * width)[:width]))

    if header is None:
        raise NoTableError("no pipe-delimited header line found")
    return PipeTable(header, tuple(rows))


def _cells_match(a: str, b: str) -> bool:
    na, nb = parse_number(a), parse_number(b)
    if na is not None and nb is not None:
        return na == nb
    return normalize(a) == normalize(b) or unemphasized(a) == unemphasized(b)


def cell_fill_rate(predicted: PipeTable, gold: Relation) -> float:
    """Fraction of gold cells present at the matching (key, attribute) position
    in the prediction; missing rows and columns count as unfilled. Cells, the
    key cell that finds a row too, are read without markdown emphasis, as
    header cells are."""
    total = len(gold.rows) * len(gold.schema)
    if total == 0:
        return 1.0

    pred_key_col = predicted.column(gold.key_attr.name)
    if pred_key_col is None:
        return 0.0
    pred_rows = {unemphasized(r[pred_key_col]): r for r in predicted.rows}
    columns = [(predicted.column(a.name), i) for i, a in enumerate(gold.schema)]

    filled = 0
    for key, row in zip(gold.keys(), gold.rows):
        pred_row = pred_rows.get(normalize(key))
        if pred_row is None:
            continue
        filled += sum(1 for col, i in columns if col is not None and _cells_match(pred_row[col], row[i]))
    return filled / total
