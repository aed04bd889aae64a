"""Plain twins of two answer readers, which the tests compare the fast ones to.

`answer_block` finds the last ANSWER: marker with one regex over the whole
reply, where `tabbench.answers._answer_block` walks back from the colons.
`updated_cells` tests every shared cell of every row, where
`tabbench.evaluator._updated_cells` tests a row's cells only when they differ
from its gold row.
"""
from __future__ import annotations

import re

from tabbench.relation import normalize
from tabbench.structurer import PipeTable, unemphasized

_ANSWER_MARK = re.compile(r"answer\s*:", re.IGNORECASE)


def answer_block(text: str) -> str:
    """Text after the last ANSWER: marker, or the whole text when absent."""
    last = None
    for match in _ANSWER_MARK.finditer(text):
        last = match
    return text[last.end():] if last else text


def updated_cells(instance, parsed):
    """Update: the entities whose target cell reads N/A, and every non-target
    cell that differs from gold, tallied as collateral damage."""
    snapshot = instance.gold
    target = instance.plan.target_attr
    target_idx = snapshot.columns.index(target)
    gold = frozenset(i for i, row in enumerate(snapshot.rows) if normalize(row[target_idx]) == "n/a")
    if not isinstance(parsed, PipeTable):
        return gold, None, 0, {}

    target_col = parsed.column(target)
    key_col = parsed.column(snapshot.key, 0)
    positions = snapshot.positions
    shared = [(col, i) for i, name in enumerate(snapshot.columns)
              if i != target_idx and (col := parsed.column(name)) is not None]

    predicted = set()
    collateral = 0
    matched_rows = 0
    for row in parsed.rows:
        position = positions.get(unemphasized(row[key_col]))
        if position is None:
            continue
        matched_rows += 1
        if target_col is not None and unemphasized(row[target_col]) == "n/a":
            predicted.add(position)
        gold_row = snapshot.rows[position]
        for col, gold_col in shared:
            cell, gold_cell = row[col], gold_row[gold_col]
            if normalize(cell) != normalize(gold_cell) and unemphasized(cell) != unemphasized(gold_cell):
                collateral += 1
    return gold, frozenset(predicted), len(parsed.rows) - matched_rows, {"collateral_damage": float(collateral)}
