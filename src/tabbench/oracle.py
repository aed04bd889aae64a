"""Relational query evaluation producing gold answers for every request shape.

`evaluate` is built on set algebra over key sets. The tests difference it
against an independent row-by-row scan that shares no predicate or aggregation
code with it (`tests/reference_oracle.py`).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar, Union

from .relation import KINDS, DuplicateKeyError, Relation, Row, UnknownAttributeError, normalize, parse_number

EQ = "eq"
GT = "gt"
LT = "lt"
CONTAINS = "contains"
# the attribute kinds each op applies to: the draw offers an op only on
# these, and a condition outside them is a PlanTypeError
OP_KINDS = {
    EQ: KINDS,
    GT: ("numeric",),
    LT: ("numeric",),
    CONTAINS: tuple(kind for kind in KINDS if kind != "numeric"),
}
OPS = tuple(OP_KINDS)

AND = "and"
OR = "or"
DIFF = "diff"
CONNECTIVES = (AND, OR, DIFF)


class PlanError(Exception):
    """Query plan incompatible with the relation it runs against."""


class PlanTypeError(PlanError):
    pass


class PlanAttributeError(PlanError):
    pass


# ---------------------------------------------------------------------------
# Condition expressions
# ---------------------------------------------------------------------------


# Each expression, plan and gold class names its JSON form in `kind`, which
# picks the class when a union of them is read back (runio.from_json).


@dataclass(frozen=True)
class Condition:
    """Atomic predicate over one attribute, with its natural-language phrase."""

    kind: ClassVar[str] = "condition"
    attr: str
    op: str
    value: Union[str, float]
    rendered: str

    def __post_init__(self):
        if self.op not in OPS:
            raise PlanError(f"unknown condition operator {self.op!r}")
        if not self.rendered:
            raise PlanError("condition must carry a rendered phrase")


@dataclass(frozen=True)
class And:
    kind: ClassVar[str] = "and"
    children: tuple[ConditionExpr, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PlanError("and-node needs at least two children")


@dataclass(frozen=True)
class Or:
    kind: ClassVar[str] = "or"
    children: tuple[ConditionExpr, ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PlanError("or-node needs at least two children")


@dataclass(frozen=True)
class Diff:
    """Set difference: rows satisfying `left` and not `right` (a AND NOT b)."""

    kind: ClassVar[str] = "diff"
    left: ConditionExpr
    right: ConditionExpr


ConditionExpr = Union[Condition, And, Or, Diff]


def leaf_conditions(expr: ConditionExpr) -> list[Condition]:
    if isinstance(expr, Condition):
        return [expr]
    if isinstance(expr, (And, Or)):
        out: list[Condition] = []
        for child in expr.children:
            out.extend(leaf_conditions(child))
        return out
    return leaf_conditions(expr.left) + leaf_conditions(expr.right)


# ---------------------------------------------------------------------------
# Query plans
# ---------------------------------------------------------------------------

# requesttypes maps each plan class to the request type it asks.


@dataclass(frozen=True)
class Retrieve:
    kind: ClassVar[str] = "retrieve"
    expr: ConditionExpr


@dataclass(frozen=True)
class Delete:
    kind: ClassVar[str] = "delete"
    expr: ConditionExpr


@dataclass(frozen=True)
class Update:
    kind: ClassVar[str] = "update"
    target_attr: str
    replacement: str
    expr: ConditionExpr


@dataclass(frozen=True)
class Count:
    kind: ClassVar[str] = "count"
    expr: ConditionExpr


@dataclass(frozen=True)
class Sum:
    kind: ClassVar[str] = "sum"
    target_attr: str
    expr: ConditionExpr


@dataclass(frozen=True)
class Superlative:
    kind: ClassVar[str] = "superlative"
    target_attr: str
    direction: str  # "max" | "min"
    tiebreak_attr: str
    expr: ConditionExpr

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise PlanError(f"superlative direction must be max or min, got {self.direction!r}")


@dataclass(frozen=True)
class Exists:
    kind: ClassVar[str] = "exists"
    expr: ConditionExpr
    negated: bool = False


@dataclass(frozen=True)
class Project:
    kind: ClassVar[str] = "project"
    attrs: tuple[str, ...]
    expr: ConditionExpr

    def __post_init__(self):
        if not self.attrs:
            raise PlanError("projection needs at least one attribute")


QueryPlan = Union[Retrieve, Delete, Update, Count, Sum, Superlative, Exists, Project]


# ---------------------------------------------------------------------------
# Gold answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntitySet:
    kind: ClassVar[str] = "entity_set"
    keys: frozenset[str]
    degenerate: bool = False  # superlative over an empty satisfying set


@dataclass(frozen=True)
class TupleSet:
    kind: ClassVar[str] = "tuple_set"
    tuples: frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class RelationSnapshot:
    """A table after a deletion or an update: its column names, the key
    column's name and its rows of cell strings. Each row is as wide as the
    columns, the key is one of them, and no key repeats under `normalize`
    (DuplicateKeyError)."""

    kind: ClassVar[str] = "relation"
    columns: tuple[str, ...]
    key: str
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.key not in self.columns:
            raise PlanError(f"key {self.key!r} is not one of the columns {list(self.columns)}")
        width, key_idx = len(self.columns), self.columns.index(self.key)
        seen: set[str] = set()
        for row in self.rows:
            if len(row) != width:
                raise PlanError(f"row {list(row)!r} is not {width} cells wide")
            key = normalize(row[key_idx])
            if key in seen:
                raise DuplicateKeyError(f"duplicate key {row[key_idx]!r}")
            seen.add(key)

    def keys(self) -> tuple[str, ...]:
        """Each row's key cell, stripped, in row order."""
        key_idx = self.columns.index(self.key)
        return tuple(row[key_idx].strip() for row in self.rows)


@dataclass(frozen=True)
class Number:
    kind: ClassVar[str] = "number"
    value: float


@dataclass(frozen=True)
class Witnessed:
    """Existence result: the satisfying keys. `value` is the un-negated
    existence boolean, true iff witnesses exist; negated questions are flipped
    at scoring time."""

    kind: ClassVar[str] = "witnessed"
    witnesses: frozenset[str]

    @property
    def value(self) -> bool:
        return bool(self.witnesses)


GoldAnswer = Union[EntitySet, TupleSet, RelationSnapshot, Number, Witnessed]


# ---------------------------------------------------------------------------
# Set-algebra evaluator (production path)
# ---------------------------------------------------------------------------


def _attr(rel: Relation, name: str):
    try:
        return rel.attribute(name)
    except UnknownAttributeError as e:
        raise PlanAttributeError(str(e)) from None


def _check_condition(cond: Condition, rel: Relation) -> None:
    spec = _attr(rel, cond.attr)
    if spec.kind not in OP_KINDS[cond.op]:
        raise PlanTypeError(f"{cond.op} is not defined on {spec.kind} attribute {cond.attr!r}")
    if spec.kind == "numeric" and _literal_number(cond.value) is None:
        raise PlanTypeError(f"{cond.op} on numeric attribute {cond.attr!r} needs a numeric literal, got {cond.value!r}")


def _literal_number(value: Union[str, float]) -> float | None:
    if isinstance(value, (int, float)):
        return float(value)
    return parse_number(value)


def _condition_keys(cond: Condition, rel: Relation) -> frozenset[str]:
    """Keys of the rows that satisfy one condition. The scan runs once per
    relation and is kept in rel.key_sets under what it reads: the column, the
    op and the literal as compared (a float on a numeric column, else the
    normalized string, so text literals 7 and 7.0 stay apart)."""
    _check_condition(cond, rel)
    idx = rel.index(cond.attr)
    numeric = rel.schema[idx].kind == "numeric"
    scan = (idx, cond.op, _literal_number(cond.value) if numeric else normalize(str(cond.value)))
    keys = rel.key_sets.get(scan)
    if keys is None:
        keys = rel.key_sets[scan] = _scan(rel, *scan)
    return keys


_COMPARE = {EQ: operator.eq, GT: operator.gt, LT: operator.lt}


def _scan(rel: Relation, idx: int, op: str, literal: Union[str, float]) -> frozenset[str]:
    """A float literal is compared with each row's parsed number, a string
    literal with each normalized cell."""
    if isinstance(literal, float):
        compare = _COMPARE[op]
        cells = (row.numbers[idx] for row in rel.rows)
        return frozenset(k for k, x in zip(rel.keys(), cells) if x is not None and compare(x, literal))
    if op == EQ:
        return frozenset(k for k, cell in zip(rel.keys(), rel.normalized[idx]) if cell == literal)
    return frozenset(k for k, cell in zip(rel.keys(), rel.normalized[idx]) if literal in cell)


def eval_expr(expr: ConditionExpr, rel: Relation) -> frozenset[str]:
    """Keys of rows satisfying the expression: and = intersection, or = union,
    diff = left minus right."""
    if isinstance(expr, Condition):
        return _condition_keys(expr, rel)
    if isinstance(expr, And):
        result = eval_expr(expr.children[0], rel)
        for child in expr.children[1:]:
            result &= eval_expr(child, rel)
        return result
    if isinstance(expr, Or):
        result = eval_expr(expr.children[0], rel)
        for child in expr.children[1:]:
            result |= eval_expr(child, rel)
        return result
    return eval_expr(expr.left, rel) - eval_expr(expr.right, rel)


def _satisfying_rows(expr: ConditionExpr, rel: Relation) -> list[Row]:
    keys = eval_expr(expr, rel)
    return [row for row in rel.rows if rel.key_of(row) in keys]


def evaluate(plan: QueryPlan, rel: Relation) -> GoldAnswer:
    """Gold answer for a plan against a relation. See each branch for semantics."""
    if isinstance(plan, Retrieve):
        return EntitySet(eval_expr(plan.expr, rel))

    if isinstance(plan, Delete):
        keys = eval_expr(plan.expr, rel)
        remaining = tuple(row.values for row in rel.rows if rel.key_of(row) not in keys)
        return RelationSnapshot(rel.attribute_names, rel.key_attr.name, remaining)

    if isinstance(plan, Update):
        _attr(rel, plan.target_attr)
        target_idx = rel.index(plan.target_attr)
        keys = eval_expr(plan.expr, rel)
        values = []
        for row in rel.rows:
            if rel.key_of(row) in keys:
                cells = list(row.values)
                cells[target_idx] = plan.replacement
                values.append(tuple(cells))
            else:
                values.append(row.values)
        try:
            return RelationSnapshot(rel.attribute_names, rel.key_attr.name, tuple(values))
        except DuplicateKeyError as e:
            # replacing the key column itself can merge rows; that post-state
            # has no keyed representation, so the plan is rejected
            raise PlanError(f"update would duplicate keys: {e}") from None

    if isinstance(plan, Count):
        return Number(float(len(eval_expr(plan.expr, rel))))

    if isinstance(plan, Sum):
        if _attr(rel, plan.target_attr).kind != "numeric":
            raise PlanTypeError(f"sum target {plan.target_attr!r} is not numeric")
        idx = rel.index(plan.target_attr)
        total = 0.0
        for row in _satisfying_rows(plan.expr, rel):
            if row.numbers[idx] is not None:
                total += row.numbers[idx]
        return Number(total)

    if isinstance(plan, Superlative):
        if _attr(rel, plan.target_attr).kind != "numeric":
            raise PlanTypeError(f"superlative target {plan.target_attr!r} is not numeric")
        _attr(rel, plan.tiebreak_attr)
        idx = rel.index(plan.target_attr)
        tiebreak_idx = rel.index(plan.tiebreak_attr)
        rows = [r for r in _satisfying_rows(plan.expr, rel) if r.numbers[idx] is not None]
        if not rows:
            return EntitySet(frozenset(), degenerate=True)
        sign = -1.0 if plan.direction == "max" else 1.0
        best = min(
            rows,
            key=lambda r: (sign * r.numbers[idx], normalize(r.values[tiebreak_idx]), normalize(rel.key_of(r))),
        )
        return EntitySet(frozenset({rel.key_of(best)}))

    if isinstance(plan, Exists):
        return Witnessed(eval_expr(plan.expr, rel))

    if isinstance(plan, Project):
        indices = [rel.index(_attr(rel, a).name) for a in plan.attrs]
        tuples = {tuple(row.values[i].strip() for i in indices) for row in _satisfying_rows(plan.expr, rel)}
        return TupleSet(frozenset(tuples))

    raise PlanError(f"unknown plan {plan!r}")
