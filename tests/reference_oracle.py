"""Row-scan reference evaluator: an independent twin of `tabbench.oracle.evaluate`.

It re-derives every answer with a plain row-by-row scan and shares no
predicate or aggregation code with the set-algebra path, so the tests can
difference the two against each other.
"""
from __future__ import annotations

import math

from tabbench.oracle import (
    CONTAINS,
    EQ,
    GT,
    LT,
    And,
    ConditionExpr,
    Count,
    Delete,
    Diff,
    EntitySet,
    Exists,
    GoldAnswer,
    Number,
    Or,
    PlanAttributeError,
    PlanError,
    PlanTypeError,
    Project,
    QueryPlan,
    RelationSnapshot,
    Retrieve,
    Sum,
    Superlative,
    TupleSet,
    Update,
    Witnessed,
)
from tabbench.relation import DuplicateKeyError, Relation


def _row_satisfies(expr: ConditionExpr, rel: Relation, row: tuple[str, ...]) -> bool:
    """Boolean satisfaction per row; deliberately re-derives parsing and
    comparisons instead of reusing the set-algebra path."""
    if isinstance(expr, And):
        return all(_row_satisfies(c, rel, row) for c in expr.children)
    if isinstance(expr, Or):
        return any(_row_satisfies(c, rel, row) for c in expr.children)
    if isinstance(expr, Diff):
        return _row_satisfies(expr.left, rel, row) and not _row_satisfies(expr.right, rel, row)

    cond = expr
    spec = rel.attribute(cond.attr)
    cell = row[rel.index(cond.attr)]
    if cond.op in (GT, LT, EQ) and spec.kind == "numeric":
        try:
            threshold = float(cond.value)
        except (TypeError, ValueError):
            raise PlanTypeError(f"literal {cond.value!r} is not numeric")
        try:
            cell_num = float(cell.strip())
        except ValueError:
            return False
        if cond.op == GT:
            return cell_num > threshold
        if cond.op == LT:
            return cell_num < threshold
        return cell_num == threshold
    if cond.op in (GT, LT):
        raise PlanTypeError(f"{cond.op} needs a numeric attribute, {cond.attr!r} is {spec.kind}")
    if cond.op == CONTAINS:
        if spec.kind == "numeric":
            raise PlanTypeError(f"contains is not defined on numeric attribute {cond.attr!r}")
        return str(cond.value).strip().casefold() in cell.strip().casefold()
    return cell.strip().casefold() == str(cond.value).strip().casefold()


def _reference_validate(expr: ConditionExpr, rel: Relation) -> None:
    """Standalone pre-check so malformed plans fail the same way on empty relations."""
    names = {a.name: a.kind for a in rel.schema}
    stack: list[ConditionExpr] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif isinstance(node, Diff):
            stack.extend((node.left, node.right))
        else:
            kind = names.get(node.attr)
            if kind is None:
                raise PlanAttributeError(f"no attribute {node.attr!r} in {rel.name!r}")
            if node.op in (GT, LT) and kind != "numeric":
                raise PlanTypeError(f"{node.op} needs a numeric attribute, {node.attr!r} is {kind}")
            if node.op == CONTAINS and kind == "numeric":
                raise PlanTypeError(f"contains is not defined on numeric attribute {node.attr!r}")
            if node.op in (GT, LT, EQ) and kind == "numeric":
                try:
                    literal = float(node.value)
                except (TypeError, ValueError):
                    raise PlanTypeError(f"literal {node.value!r} is not numeric")
                if not math.isfinite(literal):
                    raise PlanTypeError(f"literal {node.value!r} is not finite")


def brute_force_reference(plan: QueryPlan, rel: Relation) -> GoldAnswer:
    """Same contract as `evaluate`, recomputed by scanning rows one at a time."""
    if len(rel.rows) > 10_000:
        raise PlanError("reference evaluator is capped at 10000 rows")

    _reference_validate(plan.expr, rel)
    key_pos = rel.index(rel.key_attr.name)
    matched: list[tuple[str, ...]] = []
    unmatched: list[tuple[str, ...]] = []
    for row in rel.rows:
        if _row_satisfies(plan.expr, rel, row):
            matched.append(row)
        else:
            unmatched.append(row)

    if isinstance(plan, Retrieve):
        return EntitySet(frozenset(r[key_pos].strip() for r in matched))

    if isinstance(plan, Delete):
        kept = []
        for row in rel.rows:
            if not _row_satisfies(plan.expr, rel, row):
                kept.append(row)
        return RelationSnapshot(columns=tuple(a.name for a in rel.schema), key=rel.key_attr.name, rows=tuple(kept))

    if isinstance(plan, Update):
        if plan.target_attr not in {a.name for a in rel.schema}:
            raise PlanAttributeError(f"no attribute {plan.target_attr!r} in {rel.name!r}")
        pos = rel.index(plan.target_attr)
        out = []
        for row in rel.rows:
            cells = list(row)
            if _row_satisfies(plan.expr, rel, row):
                cells[pos] = plan.replacement
            out.append(tuple(cells))
        try:
            return RelationSnapshot(columns=tuple(a.name for a in rel.schema), key=rel.key_attr.name,
                                    rows=tuple(out))
        except DuplicateKeyError as e:
            raise PlanError(f"update would duplicate keys: {e}") from None

    if isinstance(plan, Count):
        tally = 0
        for row in rel.rows:
            if _row_satisfies(plan.expr, rel, row):
                tally += 1
        return Number(float(tally))

    if isinstance(plan, Sum):
        kinds = {a.name: a.kind for a in rel.schema}
        if plan.target_attr not in kinds:
            raise PlanAttributeError(f"no attribute {plan.target_attr!r} in {rel.name!r}")
        if kinds[plan.target_attr] != "numeric":
            raise PlanTypeError(f"sum target {plan.target_attr!r} is not numeric")
        pos = rel.index(plan.target_attr)
        total = 0.0
        for row in matched:
            try:
                total += float(row[pos].strip())
            except ValueError:
                continue
        return Number(total)

    if isinstance(plan, Superlative):
        kinds = {a.name: a.kind for a in rel.schema}
        if plan.target_attr not in kinds or plan.tiebreak_attr not in kinds:
            raise PlanAttributeError("superlative target or tiebreak attribute missing")
        if kinds[plan.target_attr] != "numeric":
            raise PlanTypeError(f"superlative target {plan.target_attr!r} is not numeric")
        pos = rel.index(plan.target_attr)
        tie_pos = rel.index(plan.tiebreak_attr)
        best_row = None
        best_value = None
        for row in matched:
            try:
                value = float(row[pos].strip())
            except ValueError:
                continue
            if best_row is None:
                best_row, best_value = row, value
                continue
            better = value > best_value if plan.direction == "max" else value < best_value
            if better:
                best_row, best_value = row, value
            elif value == best_value:
                lhs = (row[tie_pos].strip().casefold(), row[key_pos].strip().casefold())
                rhs = (best_row[tie_pos].strip().casefold(), best_row[key_pos].strip().casefold())
                if lhs < rhs:
                    best_row = row
        if best_row is None:
            return EntitySet(frozenset(), degenerate=True)
        return EntitySet(frozenset({best_row[key_pos].strip()}))

    if isinstance(plan, Exists):
        return Witnessed(frozenset(r[key_pos].strip() for r in matched))

    if isinstance(plan, Project):
        known = {a.name for a in rel.schema}
        for a in plan.attrs:
            if a not in known:
                raise PlanAttributeError(f"no attribute {a!r} in {rel.name!r}")
        positions = [rel.index(a) for a in plan.attrs]
        seen = []
        for row in matched:
            item = tuple(row[p].strip() for p in positions)
            if item not in seen:
                seen.append(item)
        return TupleSet(frozenset(seen))

    raise PlanError(f"unknown plan {plan!r}")
