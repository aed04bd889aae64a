"""Relational query evaluation producing gold answers for every request shape.

`evaluate` is built on set algebra over key sets. The tests difference it
against an independent row-by-row scan that shares no predicate or aggregation
code with it (`tests/reference_oracle.py`).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Union, get_args

from .relation import DuplicateKeyError, Relation, Row, UnknownAttributeError, normalize, parse_number

EQ = "eq"
GT = "gt"
LT = "lt"
CONTAINS = "contains"
OPS = (EQ, GT, LT, CONTAINS)

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


@dataclass(frozen=True)
class Condition:
    """Atomic predicate over one attribute, with its natural-language phrase."""

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
    children: tuple["ConditionExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PlanError("and-node needs at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple["ConditionExpr", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PlanError("or-node needs at least two children")


@dataclass(frozen=True)
class Diff:
    """Set difference: rows satisfying `left` and not `right` (a AND NOT b)."""

    left: "ConditionExpr"
    right: "ConditionExpr"


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

# Each plan class names its JSON form in `kind`; requesttypes maps it to the
# request type it asks.


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
    keys: frozenset[str]
    degenerate: bool = False  # superlative over an empty satisfying set


@dataclass(frozen=True)
class TupleSet:
    tuples: frozenset[tuple[str, ...]]


@dataclass(frozen=True)
class RelationSnapshot:
    relation: Relation


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Witnessed:
    """Existence result: the satisfying keys. `value` is the un-negated
    existence boolean, true iff witnesses exist; negated questions are flipped
    at scoring time."""

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
    if cond.op in (GT, LT):
        if spec.kind != "numeric":
            raise PlanTypeError(f"{cond.op} needs a numeric attribute, {cond.attr!r} is {spec.kind}")
        if _literal_number(cond.value) is None:
            raise PlanTypeError(f"{cond.op} literal {cond.value!r} is not numeric")
    if cond.op == CONTAINS and spec.kind == "numeric":
        raise PlanTypeError(f"contains is not defined on numeric attribute {cond.attr!r}")
    if cond.op == EQ and spec.kind == "numeric" and _literal_number(cond.value) is None:
        raise PlanTypeError(f"eq on numeric attribute {cond.attr!r} needs a numeric literal, got {cond.value!r}")


def _literal_number(value: Union[str, float]) -> float | None:
    if isinstance(value, (int, float)):
        return float(value)
    return parse_number(value)


def _condition_keys(cond: Condition, rel: Relation) -> frozenset[str]:
    _check_condition(cond, rel)
    spec = _attr(rel, cond.attr)
    idx = rel.index(cond.attr)
    key_idx = rel.index(rel.key_attr.name)
    matched = []
    for row in rel.rows:
        cell = row.values[idx]
        if cond.op == EQ and spec.kind == "numeric":
            ok = row.numbers[idx] is not None and row.numbers[idx] == _literal_number(cond.value)
        elif cond.op == EQ:
            ok = normalize(cell) == normalize(str(cond.value))
        elif cond.op == GT:
            ok = row.numbers[idx] is not None and row.numbers[idx] > _literal_number(cond.value)
        elif cond.op == LT:
            ok = row.numbers[idx] is not None and row.numbers[idx] < _literal_number(cond.value)
        else:  # CONTAINS
            ok = normalize(str(cond.value)) in normalize(cell)
        if ok:
            matched.append(row.values[key_idx].strip())
    return frozenset(matched)


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
    key_idx = rel.index(rel.key_attr.name)
    return [row for row in rel.rows if row.values[key_idx].strip() in keys]


def evaluate(plan: QueryPlan, rel: Relation) -> GoldAnswer:
    """Gold answer for a plan against a relation. See each branch for semantics."""
    if isinstance(plan, Retrieve):
        return EntitySet(eval_expr(plan.expr, rel))

    if isinstance(plan, Delete):
        keys = eval_expr(plan.expr, rel)
        key_idx = rel.index(rel.key_attr.name)
        remaining = [row.values for row in rel.rows if row.values[key_idx].strip() not in keys]
        return RelationSnapshot(Relation.from_values(rel.name, rel.schema, remaining))

    if isinstance(plan, Update):
        _attr(rel, plan.target_attr)
        target_idx = rel.index(plan.target_attr)
        keys = eval_expr(plan.expr, rel)
        key_idx = rel.index(rel.key_attr.name)
        values = []
        for row in rel.rows:
            if row.values[key_idx].strip() in keys:
                cells = list(row.values)
                cells[target_idx] = plan.replacement
                values.append(tuple(cells))
            else:
                values.append(row.values)
        try:
            return RelationSnapshot(Relation.from_values(rel.name, rel.schema, values))
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
        key_idx = rel.index(rel.key_attr.name)
        rows = [r for r in _satisfying_rows(plan.expr, rel) if r.numbers[idx] is not None]
        if not rows:
            return EntitySet(frozenset(), degenerate=True)
        sign = -1.0 if plan.direction == "max" else 1.0
        best = min(
            rows,
            key=lambda r: (sign * r.numbers[idx], normalize(r.values[tiebreak_idx]), normalize(r.values[key_idx])),
        )
        return EntitySet(frozenset({best.values[key_idx].strip()}))

    if isinstance(plan, Exists):
        return Witnessed(eval_expr(plan.expr, rel))

    if isinstance(plan, Project):
        indices = [rel.index(_attr(rel, a).name) for a in plan.attrs]
        tuples = {tuple(row.values[i].strip() for i in indices) for row in _satisfying_rows(plan.expr, rel)}
        return TupleSet(frozenset(tuples))

    raise PlanError(f"unknown plan {plan!r}")


# ---------------------------------------------------------------------------
# Canonical JSON forms (stable field names and key order, diffable suites)
# ---------------------------------------------------------------------------


def expr_to_json(expr: ConditionExpr) -> dict:
    if isinstance(expr, Condition):
        return {"attr": expr.attr, "kind": "condition", "op": expr.op,
                "rendered": expr.rendered, "value": expr.value}
    if isinstance(expr, And):
        return {"children": [expr_to_json(c) for c in expr.children], "kind": "and"}
    if isinstance(expr, Or):
        return {"children": [expr_to_json(c) for c in expr.children], "kind": "or"}
    return {"kind": "diff", "left": expr_to_json(expr.left), "right": expr_to_json(expr.right)}


def expr_from_json(obj: dict) -> ConditionExpr:
    kind = obj["kind"]
    if kind == "condition":
        return Condition(attr=obj["attr"], op=obj["op"], value=obj["value"], rendered=obj["rendered"])
    if kind == "and":
        return And(tuple(expr_from_json(c) for c in obj["children"]))
    if kind == "or":
        return Or(tuple(expr_from_json(c) for c in obj["children"]))
    if kind == "diff":
        return Diff(expr_from_json(obj["left"]), expr_from_json(obj["right"]))
    raise PlanError(f"unknown expression kind {kind!r}")


def plan_to_json(plan: QueryPlan) -> dict:
    """The plan's kind and its fields by name, tuples as lists."""
    obj = {"kind": plan.kind}
    for f in fields(plan):
        value = getattr(plan, f.name)
        obj[f.name] = expr_to_json(value) if f.name == "expr" else list(value) if isinstance(value, tuple) else value
    return obj


_PLAN_CLASSES = {cls.kind: cls for cls in get_args(QueryPlan)}
_SCALAR_FIELDS = {"str": str, "bool": bool}


def plan_from_json(obj: dict) -> QueryPlan:
    """The plan plan_to_json wrote. Every field of its kind's class must be
    there, and no other, each of the type the class declares."""
    cls = _PLAN_CLASSES.get(obj["kind"])
    if cls is None:
        raise PlanError(f"unknown plan kind {obj['kind']!r}")
    declared = {f.name: f.type for f in fields(cls)}
    if obj.keys() != {"kind", *declared}:
        raise PlanError(f"{cls.kind} plan has the fields {sorted(declared)}, not {sorted(obj.keys() - {'kind'})}")
    values = {}
    for name, annotation in declared.items():
        value = obj[name]
        if annotation == "ConditionExpr":
            values[name] = expr_from_json(value)
        elif annotation == "tuple[str, ...]" and isinstance(value, list) and all(isinstance(v, str) for v in value):
            values[name] = tuple(value)
        elif type(value) is _SCALAR_FIELDS.get(annotation):
            values[name] = value
        else:
            raise PlanError(f"{cls.kind} plan: {name} must be a {annotation}, not {value!r}")
    return cls(**values)


def gold_to_json(gold: GoldAnswer) -> dict:
    if isinstance(gold, EntitySet):
        return {"degenerate": gold.degenerate, "keys": sorted(gold.keys), "kind": "entity_set"}
    if isinstance(gold, TupleSet):
        return {"kind": "tuple_set", "tuples": sorted(list(t) for t in gold.tuples)}
    if isinstance(gold, RelationSnapshot):
        rel = gold.relation
        return {
            "columns": list(rel.attribute_names),
            "key": rel.key_attr.name,
            "kind": "relation",
            "rows": [list(r.values) for r in rel.rows],
        }
    if isinstance(gold, Number):
        return {"kind": "number", "value": gold.value}
    return {"kind": "witnessed", "witnesses": sorted(gold.witnesses)}


def _strings(value, what: str) -> list[str]:
    """value, when it is a list of strings; a PlanError naming `what` otherwise."""
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise PlanError(f"{what} must be a list of strings, not {value!r}")


def _string_rows(value, what: str) -> list[list[str]]:
    if not isinstance(value, list):
        raise PlanError(f"{what} must be a list of lists of strings, not {value!r}")
    return [_strings(row, f"each of {what}") for row in value]


def gold_from_json(obj: dict) -> GoldAnswer:
    """The gold gold_to_json wrote. Each field must hold the type it writes:
    lists of strings, table rows as wide as the columns, a key among the
    columns, a number that is not a boolean; a missing degenerate is false."""
    kind = obj["kind"]
    if kind == "entity_set":
        degenerate = obj.get("degenerate", False)
        if type(degenerate) is not bool:
            raise PlanError(f"entity_set gold: degenerate must be a bool, not {degenerate!r}")
        return EntitySet(frozenset(_strings(obj["keys"], "entity_set gold: keys")), degenerate=degenerate)
    if kind == "tuple_set":
        return TupleSet(frozenset(tuple(t) for t in _string_rows(obj["tuples"], "tuple_set gold: tuples")))
    if kind == "relation":
        from .relation import AttributeSpec

        columns = _strings(obj["columns"], "relation gold: columns")
        if obj["key"] not in columns:
            raise PlanError(f"relation gold: key {obj['key']!r} is not one of the columns {columns}")
        rows = _string_rows(obj["rows"], "relation gold: rows")
        for row in rows:
            if len(row) != len(columns):
                raise PlanError(f"relation gold: row {row!r} is not {len(columns)} cells wide")
        schema = tuple(
            AttributeSpec(name=c, kind="categorical", canonical_phrase=c.lower(), is_key=(c == obj["key"]))
            for c in columns
        )
        return RelationSnapshot(Relation.from_values("snapshot", schema, [tuple(r) for r in rows]))
    if kind == "number":
        value = obj["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PlanError(f"number gold: value must be a number, not {value!r}")
        return Number(float(value))
    if kind == "witnessed":
        return Witnessed(frozenset(_strings(obj["witnesses"], "witnessed gold: witnesses")))
    raise PlanError(f"unknown gold kind {kind!r}")
