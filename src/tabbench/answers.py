"""Typed extraction of answers from free-text model responses.

Parsing is total: nothing raises, the worst case is an Unparseable value that
the evaluator scores as zero credit with a diagnostic flag. When a response
contains an ANSWER: marker the text after the last one wins, which resolves
chain-of-thought responses that mention many entities before concluding.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .relation import Relation, normalize
from .requesttypes import ENTITIES, NUMBER, ROWS, TABLE, TUPLES, VERDICT, RequestType
from .structurer import NoTableError, is_separator_row, parse_table, split_pipe_line


@dataclass(frozen=True)
class EntityList:
    names: tuple[str, ...]


@dataclass(frozen=True)
class TupleList:
    tuples: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class TableSnapshot:
    relation: Relation


@dataclass(frozen=True)
class NumberAnswer:
    value: float


@dataclass(frozen=True)
class Judgement:
    value: bool
    rationale: str


@dataclass(frozen=True)
class Unparseable:
    reason: str


ParsedAnswer = EntityList | TupleList | TableSnapshot | NumberAnswer | Judgement | Unparseable

_ANSWER_MARK = re.compile(r"answer\s*:", re.IGNORECASE)
_NUMBER = re.compile(r"[-+]?\d[\d,]*(?:\.\d+)?")
_VERDICT = re.compile(r"[\s\"'*]*(yes|no)\b", re.IGNORECASE)


def _answer_block(text: str) -> str:
    """Text after the last ANSWER: marker, or the whole text when absent."""
    last = None
    for match in _ANSWER_MARK.finditer(text):
        last = match
    return text[last.end():] if last else text


def clean_name(raw: str) -> str:
    """Normalize one entity mention: drop list markers and edge punctuation,
    then trim and casefold."""
    name = raw.strip()
    name = re.sub(r"^\s*(?:[-*•]|\d+[.)])\s*", "", name)
    name = name.strip(" \t\"'`.,;:!?*()[]")
    return normalize(name)


def _entity_lines(block: str) -> tuple[str, ...]:
    names: list[str] = []
    for line in block.splitlines():
        for part in line.split(","):
            name = clean_name(part)
            if name and name not in names:
                names.append(name)
    return tuple(names)


def _pipe_tuples(block: str) -> tuple[tuple[str, ...], ...]:
    rows = (split_pipe_line(line) for line in block.splitlines())
    return tuple(tuple(normalize(c) for c in cells) for cells in rows
                 if cells and any(cells) and not is_separator_row(cells))


def _entities(block: str) -> ParsedAnswer:
    return EntityList(_entity_lines(block))


def _table(block: str) -> ParsedAnswer:
    try:
        return TableSnapshot(parse_table(block))
    except NoTableError:
        return Unparseable("answer contains no table")


def _number(block: str) -> ParsedAnswer:
    matches = _NUMBER.findall(block)
    if not matches:
        return Unparseable("no number in answer")
    return NumberAnswer(float(matches[-1].replace(",", "")))


def _verdict(block: str) -> ParsedAnswer:
    match = _VERDICT.match(block.strip())
    if not match:
        return Unparseable("no yes/no verdict in answer")
    rationale = block.strip()[match.end():].lstrip(" \t.,:;!-")
    return Judgement(value=match.group(1).lower() == "yes", rationale=rationale)


def _tuples(block: str) -> ParsedAnswer:
    tuples = _pipe_tuples(block)
    if not tuples:
        tuples = tuple(
            tuple(normalize(c) for c in line.split(","))
            for line in block.splitlines()
            if line.strip()
        )
    return TupleList(tuples)


_PARSERS = {ENTITIES: _entities, TABLE: _table, NUMBER: _number, VERDICT: _verdict, TUPLES: _tuples}


def parse(response: str | None, request_type: RequestType) -> ParsedAnswer:
    """Extract the typed answer a request shape expects from a raw response:
    the first of its row's answer formats that reads, else the last one's
    Unparseable."""
    if response is None:
        return Unparseable("no response text")
    block = _answer_block(response)
    for answer in ROWS[request_type].answers:
        parsed = _PARSERS[answer](block)
        if not isinstance(parsed, Unparseable):
            break
    return parsed


@dataclass(frozen=True)
class MatchResult:
    keys: frozenset[str]
    dropped: int


def match_entities(parsed: EntityList, keys: tuple[str, ...]) -> MatchResult:
    """Map parsed mentions to relation keys.

    Exact normalized match first; otherwise a mention matches when it contains,
    or is contained by, exactly one key ("Messi" for "L. Messi" and the other
    way round). Ambiguous or unmatched mentions are dropped and counted.
    """
    by_norm = {normalize(k): k for k in keys}
    matched: set[str] = set()
    dropped = 0
    for name in parsed.names:
        exact = by_norm.get(name)
        if exact is not None:
            matched.add(exact)
            continue
        candidates = [k for norm, k in by_norm.items() if name in norm or norm in name]
        if len(candidates) == 1:
            matched.add(candidates[0])
        else:
            dropped += 1
    return MatchResult(keys=frozenset(matched), dropped=dropped)
