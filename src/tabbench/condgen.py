"""Seeded sampling of conditions and condition expressions with support validation.

Every emitted expression is re-checked against the relation: expressions whose
satisfying set is below the policy's support floor are resampled, never emitted.
"""
from __future__ import annotations

from dataclasses import dataclass

from .oracle import AND, CONTAINS, DIFF, EQ, GT, LT, OPS, OR, And, Condition, ConditionExpr, Diff, Or, eval_expr
from .relation import AttributeSpec, Relation, unique_values
from .seeding import rng_for


class GenError(Exception):
    pass


class NoEligibleAttributeError(GenError):
    pass


class UnsatisfiableConditionsError(GenError):
    pass


@dataclass(frozen=True)
class ConditionPolicy:
    """What conditions a dataset allows and how expressions are validated."""

    allowed_ops: tuple[str, ...] = (EQ,)
    n_conditions: int = 2
    connectives: tuple[str, ...] = (AND, OR)
    min_support: int = 1
    max_resample: int = 1000

    def __post_init__(self):
        if self.n_conditions < 1:
            raise GenError("n_conditions must be at least 1")
        if self.min_support < 1:
            raise GenError("min_support must be at least 1")
        bad = set(self.allowed_ops) - set(OPS)
        if bad:
            raise GenError(f"unknown ops in policy: {sorted(bad)}")


def ops_for(spec: AttributeSpec, policy: ConditionPolicy) -> tuple[str, ...]:
    """Policy ops that make sense for one attribute's kind."""
    out = []
    for op in policy.allowed_ops:
        if op in (GT, LT) and spec.kind != "numeric":
            continue
        if op == CONTAINS and spec.kind == "numeric":
            continue
        out.append(op)
    return tuple(out)


def eligible_attributes(rel: Relation, policy: ConditionPolicy) -> list[AttributeSpec]:
    """Non-key attributes with at least one compatible op and one observed value.

    The key is excluded: conditions qualify entities by their properties, and a
    key-equality condition would collapse the request to a single known entity.
    """
    out = []
    for spec in rel.schema:
        if spec.is_key:
            continue
        if not ops_for(spec, policy):
            continue
        if unique_values(rel, spec.name):
            out.append(spec)
    return out


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
    policy: ConditionPolicy,
    connectives: tuple[str, ...],
    seed: int,
) -> tuple[dict[str, ConditionExpr], tuple[Condition, ...], int]:
    """Draw n distinct-attribute conditions, resampling until every requested
    connective's expression has support >= min_support.

    Returns (expression per connective, conditions, resample count). Raises
    rather than ever emitting an unsupported expression.
    """
    if not rel.rows:
        raise GenError("cannot sample conditions from an empty relation")
    eligible = eligible_attributes(rel, policy)
    if not eligible:
        raise NoEligibleAttributeError("no attribute is compatible with the policy ops")
    n = policy.n_conditions
    if n > len(eligible):
        raise NoEligibleAttributeError(
            f"need {n} distinct attributes but only {len(eligible)} are eligible"
        )
    for connective in connectives:
        if connective not in policy.connectives:
            raise GenError(f"connective {connective!r} not allowed by policy")

    for attempt in range(policy.max_resample + 1):
        rng = rng_for(seed, "set", attempt)
        specs = rng.sample(eligible, n)
        conditions = []
        for spec in specs:
            ops = ops_for(spec, policy)
            op = ops[rng.randrange(len(ops))]
            pool = value_pool(rel, spec, op)
            conditions.append(make_condition(rel, spec.name, op, pool[rng.randrange(len(pool))]))
        conditions = tuple(conditions)
        exprs = {c: combine(conditions, c) for c in connectives}
        if all(len(eval_expr(e, rel)) >= policy.min_support for e in exprs.values()):
            return exprs, conditions, attempt
    raise UnsatisfiableConditionsError(
        f"no supported condition set after {policy.max_resample} resamples"
    )
