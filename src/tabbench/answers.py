"""Typed extraction of answers from free-text model responses.

Parsing is total: nothing raises, the worst case is an Unparseable value that
the evaluator scores as zero credit with a diagnostic flag. When a response
contains an ANSWER: marker the text after the last one wins, which resolves
chain-of-thought responses that mention many entities before concluding.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .relation import normalize
from .requesttypes import ENTITIES, NUMBER, ROWS, TABLE, TUPLES, VERDICT, RequestType
from .structurer import NoTableError, PipeTable, is_separator_row, parse_table, split_pipe_line


@dataclass(frozen=True)
class EntityList:
    names: tuple[str, ...]


@dataclass(frozen=True)
class TupleList:
    tuples: tuple[tuple[str, ...], ...]


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


ParsedAnswer = EntityList | TupleList | PipeTable | NumberAnswer | Judgement | Unparseable

_ANSWER_WORD = re.compile("answer", re.IGNORECASE)
_NUMBER = re.compile(r"[-+]?\d[\d,]*(?:\.\d+)?")
_VERDICT = re.compile(r"[\s\"'*]*(yes|no)\b", re.IGNORECASE)


def _answer_block(text: str) -> str:
    """Text after the last ANSWER: marker (the word in any case, any
    whitespace, a colon), or the whole text when absent. Two markers cannot
    overlap, so the last one ends at the rightmost colon that has `answer`
    and only whitespace before it; colons are tried from the end.
    Whitespace is what str.isspace reads, as the regex class `\\s` does."""
    colon = len(text)
    while (colon := text.rfind(":", 0, colon)) >= 0:
        word_end = colon
        while word_end and text[word_end - 1].isspace():
            word_end -= 1
        if word_end >= 6 and _ANSWER_WORD.fullmatch(text, word_end - 6, word_end):
            return text[colon + 1:]
    return text


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
        return parse_table(block)
    except NoTableError:
        return Unparseable("answer contains no table")


def _number(block: str) -> ParsedAnswer:
    """The first number of the answer block, which the footer asks to be the
    answer ("a single number"), so that a note after it, such as "(computed
    over 100 rows)", is not read in its place; commas are thousands
    separators."""
    match = _NUMBER.search(block)
    if not match:
        return Unparseable("no number in answer")
    value = float(match.group().replace(",", ""))
    if not math.isfinite(value):  # 309 digits or more read as inf
        return Unparseable("number too large to read")
    return NumberAnswer(value)


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
    by_norm = _by_norm(keys)
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


@functools.lru_cache(maxsize=8)
def _by_norm(keys: tuple[str, ...]) -> dict[str, str]:
    """Each key by its normalized form. A suite shares one key list among its
    instances, so it is normalized once, not once per answer."""
    return {normalize(k): k for k in keys}
