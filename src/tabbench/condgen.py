"""Seeded sampling of conditions and condition expressions with support validation.

Every emitted expression is re-checked against the relation: expressions whose
satisfying set is below the suite's min_support are resampled, never emitted.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .oracle import AND, CONTAINS, DIFF, EQ, GT, LT, OP_KINDS, OR, And, Condition, ConditionExpr, Diff, Or, eval_expr
from .relation import AttributeSpec, Relation, unique_values
from .seeding import rng_for

if TYPE_CHECKING:
    from .requestgen import SuiteConfig


class GenError(Exception):
    pass


class NoEligibleAttributeError(GenError):
    pass


class UnsatisfiableConditionsError(GenError):
    pass


def ops_for(spec: AttributeSpec, ops: tuple[str, ...]) -> tuple[str, ...]:
    """The ops, in their order, that apply to one attribute's kind (oracle.OP_KINDS)."""
    return tuple(op for op in ops if spec.kind in OP_KINDS[op])


def _domain_token(value: str) -> str | None:
    """"user@gmail.com" -> "@gmail"; None when the value is not email-like."""
    if "@" not in value:
        return None
    domain = value.rsplit("@", 1)[1].strip()
    domain = domain.split(".", 1)[0]
    return f"@{domain}" if domain else None


def value_pool(rel: Relation, spec: AttributeSpec, op: str) -> list[str]:
    """Candidate literals for one (attribute, op) draw, in first-appearance order.

    Substring conditions on email-like columns draw "@domain" tokens so that a
    domain such as "gmail" cannot accidentally match a local part.
    """
    values = unique_values(rel, spec.name)
    if op != CONTAINS:
        return values
    domains = []
    for v in values:
        token = _domain_token(v)
        if token is None:
            return values
        if token not in domains:
            domains.append(token)
    return domains


# each op's phrase after the attribute phrase, asserted and negated; a
# contains condition on an "@domain" token speaks of the domain
_PHRASES = {
    EQ: ("is {}", "is not {}"),
    GT: ("is higher than {}", "is not higher than {}"),
    LT: ("is lower than {}", "is not lower than {}"),
    CONTAINS: ("contains {}", "does not contain {}"),
    "@domain": ("domain is {}", "domain is not {}"),
}


def _phrase(rel: Relation, attr: str, op: str, value: str, negated: bool) -> str:
    if op == CONTAINS and value.startswith("@"):
        op, value = "@domain", value[1:]
    return f"{rel.attribute(attr).canonical_phrase} " + _PHRASES[op][negated].format(value)


def make_condition(rel: Relation, attr: str, op: str, value: str) -> Condition:
    """Condition with its natural-language phrase built from the canonical attribute phrase."""
    return Condition(attr=attr, op=op, value=value, rendered=_phrase(rel, attr, op, value, False))


def render_negated(rel: Relation, cond: Condition) -> str:
    """Negative phrasing for the subtracted side of a difference condition."""
    return _phrase(rel, cond.attr, cond.op, str(cond.value), True)


def combine(conditions: tuple[Condition, ...], connective: str) -> ConditionExpr:
    """Join conditions under one connective; a single condition stays bare."""
    if len(conditions) == 1:
        return conditions[0]
    if connective == DIFF:
        if len(conditions) != 2:
            raise GenError("difference takes exactly two conditions")
        return Diff(conditions[0], conditions[1])
    if connective == AND:
        return And(conditions)
    if connective == OR:
        return Or(conditions)
    raise GenError(f"unknown connective {connective!r}")


def draw_condition_set(
    rel: Relation,
    ops: tuple[str, ...],
    n: int,
    config: "SuiteConfig",
    seed: int,
) -> tuple[dict[str, ConditionExpr], tuple[Condition, ...], int]:
    """Draw n conditions on distinct attributes, each with one of `ops` (a
    pack's allowed_ops) that applies to it, resampling up to the suite's
    max_resample times until every one of its connectives' expressions has
    support >= its min_support.

    An attribute is eligible when it is not the key and some op applies to
    it. The key is excluded: conditions qualify entities by their properties,
    and a key-equality condition would collapse the request to a single known
    entity.

    Returns (expression per connective, conditions, resample count). Raises
    rather than ever emitting an unsupported expression.
    """
    if not rel.rows:
        raise GenError("cannot sample conditions from an empty relation")
    eligible = [spec for spec in rel.schema if not spec.is_key and ops_for(spec, ops)]
    if not eligible:
        raise NoEligibleAttributeError(f"no non-key attribute takes one of the pack's allowed_ops {list(ops)}")
    if n > len(eligible):
        raise NoEligibleAttributeError(
            f"need {n} distinct attributes but only {len(eligible)} take one of the pack's allowed_ops"
        )

    for attempt in range(config.max_resample + 1):
        rng = rng_for(seed, "set", attempt)
        specs = rng.sample(eligible, n)
        conditions = []
        for spec in specs:
            applicable = ops_for(spec, ops)
            op = applicable[rng.randrange(len(applicable))]
            pool = value_pool(rel, spec, op)
            conditions.append(make_condition(rel, spec.name, op, pool[rng.randrange(len(pool))]))
        conditions = tuple(conditions)
        exprs = {c: combine(conditions, c) for c in config.connectives}
        if all(len(eval_expr(e, rel)) >= config.min_support for e in exprs.values()):
            return exprs, conditions, attempt
    raise UnsatisfiableConditionsError(
        f"no condition set with support >= min_support {config.min_support} after {config.max_resample} resamples"
    )
