"""Prompt instantiation for all request shapes, and seeded benchmark-suite assembly.

Every instance bundles the instruction text, the rendered knowledge context,
the machine-readable plan, and the oracle's gold answer, so downstream scoring
never has to re-derive what was asked.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from . import oracle
from .condgen import GenError, draw_condition_set, render_negated
from .oracle import (
    AND,
    CONNECTIVES,
    OR,
    And,
    Condition,
    ConditionExpr,
    Diff,
    GoldAnswer,
    Or,
    PlanError,
    QueryPlan,
    evaluate,
)
from .relation import IngestError, Relation
from .requesttypes import CORE_TYPES, MANY_TARGETS, NO_TARGET, ONE_TARGET, ROWS, RequestType, type_of
from .runio import from_json, to_json
from .seeding import derive_seed
from .structurer import PORTIONS, StructuringLevel, render, render_partial

if TYPE_CHECKING:
    from .datasets import DatasetPack


class TemplateMismatchError(GenError):
    pass


class SuiteFormatError(GenError):
    """A suite line that does not decode to an instance."""


TEMPLATES_PER_TYPE = 3


class Mode(str, Enum):
    """How an instance is put to the model: its context as given, or first laid
    out by the model as a table. A str, so a mode's value compares equal to it."""

    SURROGATE = "surrogate"
    TWO_TURN = "two_turn"


@dataclass(frozen=True)
class PromptTemplate:
    """One wording of one request type. The pattern must use {conditions}
    exactly once, and a target slot ({target}, {target_plural}, {targets})
    only when its type takes target attributes; the target slots, {noun} and
    {nouns} are filled when present."""

    request_type: RequestType
    template_id: int
    pattern: str
    negated: bool = False

    def __post_init__(self):
        name = f"template {self.request_type.value}/{self.template_id}"
        if self.pattern.count("{conditions}") != 1:
            raise TemplateMismatchError(f"{name} must use {{conditions}} exactly once")
        slots = [slot for slot in ("{target}", "{target_plural}", "{targets}") if slot in self.pattern]
        if slots and ROWS[self.request_type].targets == NO_TARGET:
            raise TemplateMismatchError(f"{name} uses {', '.join(slots)}, but {self.request_type.value} "
                                        f"takes no target attribute")


@dataclass(frozen=True)
class TemplatePack:
    """A pack's templates.json, as the codec reads it: the
    TEMPLATES_PER_TYPE wordings of each request type under its value (the
    negated existence wordings under existence_negated), and each type's
    answer footer under `footers`. A type left out has no templates."""

    retrieval: tuple[str, ...] = ()
    deletion: tuple[str, ...] = ()
    update: tuple[str, ...] = ()
    superlative: tuple[str, ...] = ()
    sum: tuple[str, ...] = ()
    count: tuple[str, ...] = ()
    existence: tuple[str, ...] = ()
    existence_negated: tuple[str, ...] = ()
    projection: tuple[str, ...] = ()
    footers: dict[str, str] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        # every wording's templates, built and checked once
        templates = {}
        for request_type, row in ROWS.items():
            for negated in row.wordings:
                key = request_type.value + ("_negated" if negated else "")
                patterns = getattr(self, key)
                if patterns and len(patterns) != TEMPLATES_PER_TYPE:
                    raise TemplateMismatchError(f"{key}: expected {TEMPLATES_PER_TYPE} templates, "
                                                f"got {len(patterns)}")
                templates[(request_type, negated)] = tuple(
                    PromptTemplate(request_type, i, pattern, negated) for i, pattern in enumerate(patterns))
        object.__setattr__(self, "_templates", templates)

    def templates_for(self, request_type: RequestType, negated: bool = False) -> tuple[PromptTemplate, ...]:
        templates = self._templates.get((request_type, negated))
        if not templates:
            raise TemplateMismatchError(f"no templates for {request_type.value} (negated={negated})")
        return templates

    def footer_for(self, request_type: RequestType) -> str:
        try:
            return self.footers[request_type.value]
        except KeyError:
            raise TemplateMismatchError(f"no answer footer for {request_type.value}") from None


@dataclass(frozen=True)
class RequestInstance:
    """One fully rendered benchmark prompt with its plan and gold answer. The
    plan is the only record of what was asked: its request type, conditions,
    target attribute and negation are read from it, not stored beside it."""

    id: str
    dataset: str
    template_id: int
    connective: str
    level: StructuringLevel
    portion: float | None
    plan: QueryPlan
    prompt: str
    context: str
    pre_instruction: str | None
    gold: GoldAnswer
    entity_keys: tuple[str, ...]
    mode: Mode = Mode.SURROGATE
    resamples: int = 0

    @property
    def request_type(self) -> RequestType:
        return type_of(self.plan)

    @property
    def negated(self) -> bool:
        """True for an existence question asked in its negated wording."""
        return isinstance(self.plan, oracle.Exists) and self.plan.negated

    @property
    def n_conditions(self) -> int:
        return len(oracle.leaf_conditions(self.plan.expr))


def expr_phrase(rel: Relation, expr: ConditionExpr) -> str:
    """Natural-language join of an expression's rendered condition phrases."""
    if isinstance(expr, Condition):
        return expr.rendered
    if isinstance(expr, And):
        return " and ".join(expr_phrase(rel, c) for c in expr.children)
    if isinstance(expr, Or):
        return " or ".join(expr_phrase(rel, c) for c in expr.children)
    if isinstance(expr, Diff):
        left = expr_phrase(rel, expr.left)
        if isinstance(expr.right, Condition):
            return f"{left} and {render_negated(rel, expr.right)}"
        return f"{left} and not ({expr_phrase(rel, expr.right)})"
    raise GenError(f"unknown expression {expr!r}")


def _plural(phrase: str) -> str:
    return phrase if phrase.endswith("s") else phrase + "s"


def build_plan(request_type: RequestType, expr: ConditionExpr, target: tuple[str, ...],
               rel: Relation, negated: bool = False) -> QueryPlan:
    """The plan of the type's row, given the fields its class declares: an
    update writes N/A, a superlative asks for the maximum with ties broken by
    the key attribute."""
    row = ROWS[request_type]
    n = len(target)
    if not {NO_TARGET: n == 0, ONE_TARGET: n == 1, MANY_TARGETS: n >= 1}[row.targets]:
        raise TemplateMismatchError(f"{request_type.value} takes {row.targets!r} target attributes, got {n}")
    candidates = {"expr": expr, "target_attr": target[0] if target else None, "attrs": tuple(target),
                  "replacement": "N/A", "direction": "max", "tiebreak_attr": rel.key_attr.name,
                  "negated": negated}
    return row.plan(**{f.name: candidates[f.name] for f in dataclasses.fields(row.plan)})


def fill(template: PromptTemplate, plan: QueryPlan, target: tuple[str, ...], rel: Relation,
         pack: "DatasetPack") -> str:
    """The prompt of one wording of a plan: check that the template is for the
    plan's request type, fill its slots and append the type's answer footer.
    It depends on neither the level nor the portion, so generate_suite fills
    each wording once and every rendered context shares it."""
    request_type = type_of(plan)
    if template.request_type is not request_type:
        raise TemplateMismatchError(
            f"template is for {template.request_type.value}, not {request_type.value}"
        )
    body = template.pattern.replace("{conditions}", expr_phrase(rel, plan.expr))
    body = body.replace("{noun}", pack.entity_noun).replace("{nouns}", pack.entity_noun_plural)
    if target:
        phrases = [rel.attribute(a).canonical_phrase for a in target]
        body = body.replace("{target}", phrases[0])
        body = body.replace("{target_plural}", _plural(phrases[0]))
        body = body.replace("{targets}", " and ".join(phrases))
    return body + "\n" + pack.templates.footer_for(request_type)


def make_pre_instruction(noun_plural: str, column_phrases: tuple[str, ...] | None = None) -> str:
    """Instruction asking the model to lay the facts out as a table first."""
    if not noun_plural:
        raise GenError("dataset has no entity noun configured")
    if column_phrases:
        return f"Create a table of {noun_plural} with columns: {', '.join(column_phrases)}."
    return f"Create a table of {noun_plural}."


@dataclass(frozen=True)
class SuiteConfig:
    """Grid of a suite: pairs x connectives x templates x levels x condition
    counts x portions. No portions renders each level whole; a portion is a
    partial mix, with that share of the entities as a table. A library caller
    may also list None beside the mixes, for the whole render. No axis repeats
    a value, so no cell is counted twice."""

    pair_count: int = 100
    request_types: tuple[RequestType, ...] = CORE_TYPES
    connectives: tuple[str, ...] = (AND, OR)
    n_conditions: tuple[int, ...] = (2,)
    levels: tuple[StructuringLevel, ...] = (StructuringLevel.TABLE,)
    portions: tuple[float, ...] = ()
    seed: int = 0
    min_support: int = 1
    max_resample: int = 1000
    mode: Mode = Mode.SURROGATE

    def __post_init__(self):
        for name, least in (("pair_count", 0), ("min_support", 1), ("max_resample", 0)):
            if getattr(self, name) < least:
                raise GenError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        for connective in self.connectives:
            if connective not in CONNECTIVES:
                raise GenError(f"connectives must each be one of {CONNECTIVES}, got {connective!r}")
        for portion in self.portions:
            if portion not in PORTIONS and portion is not None:
                raise GenError(f"portions must each be one of {PORTIONS}, got {portion!r}")
        for n in self.n_conditions:
            if n < 1:
                raise GenError(f"n_conditions must each be at least 1, got {n!r}")
        for name in ("request_types", "connectives", "n_conditions", "levels", "portions"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise GenError(f"{name} must not repeat a value, got {to_json(getattr(self, name))}")


def generate_suite(rel: Relation, config: SuiteConfig, pack: "DatasetPack") -> list[RequestInstance]:
    """Deterministic suite in (type, count, pair, level, portion, connective,
    negation, template) order. Condition pairs are shared across connectives,
    templates, levels and portions so wording effects are isolated from
    content effects. Existence expands into an original and a negated
    instance per slot.

    Each piece of work runs at the loop level where its inputs are fixed: the
    plan and gold answer once per (pair, connective, negation), each prompt
    once per (pair, connective, negation, template), the context once per
    (pair, level, portion), the entity keys and the two-turn pre-instruction
    once per suite; each instance is then built from these."""
    instances: list[RequestInstance] = []
    entity_keys = rel.keys()
    pre_instruction = make_pre_instruction(pack.entity_noun_plural) if config.mode == Mode.TWO_TURN else None
    for request_type in config.request_types:
        target = pack.target_for(request_type)
        for n in config.n_conditions:
            for pair in range(config.pair_count):
                draw_seed = derive_seed(config.seed, "conditions", pack.name, request_type.value, n, pair)
                exprs, _, resamples = draw_condition_set(rel, pack.allowed_ops, n, config, draw_seed)
                context_seed = derive_seed(config.seed, "context", pack.name, request_type.value, n, pair)
                wordings = []
                for connective in config.connectives:
                    for negated in ROWS[request_type].wordings:
                        plan = build_plan(request_type, exprs[connective], target, rel, negated=negated)
                        gold = evaluate(plan, rel)
                        suffix = "-neg" if negated else ""
                        for template in pack.templates.templates_for(request_type, negated):
                            wordings.append((connective, suffix, template, plan, gold,
                                             fill(template, plan, target, rel, pack)))
                for level in config.levels:
                    for portion in config.portions or (None,):
                        if portion is None:
                            context = render(rel, level, context_seed, pack.bank)
                        else:
                            context = render_partial(rel, portion, context_seed, pack.bank)
                        for connective, suffix, template, plan, gold, prompt in wordings:
                            instances.append(RequestInstance(
                                id=(
                                    f"{len(instances):06d}-{pack.name}-{request_type.value}{suffix}"
                                    f"-{connective}-t{template.template_id}"
                                ),
                                dataset=pack.name,
                                template_id=template.template_id,
                                connective=connective,
                                level=level,
                                portion=portion,
                                plan=plan,
                                prompt=prompt,
                                context=context,
                                pre_instruction=pre_instruction,
                                gold=gold,
                                entity_keys=entity_keys,
                                mode=config.mode,
                                resamples=resamples,
                            ))
    return instances


# ---------------------------------------------------------------------------
# Suite serialization (JSONL, one instance per line, canonical key order)
# ---------------------------------------------------------------------------

# Fields whose values repeat across a suite: the facts are fixed and only the
# wording, connective and structuring level vary, so one context, gold and key
# list serve many instances. dump_suite states each distinct value once.
SHARED_FIELDS = ("context", "entity_keys", "gold")


def dump_suite(instances: list[RequestInstance]) -> str:
    """Suite JSONL: one to_json object per line, keys sorted. For each
    of SHARED_FIELDS, the first line with a given value (equal canonical JSON)
    states it in full; a later line with an equal value holds
    {"same_as": <id of that first line>} instead."""
    first: dict[tuple[str, str], str] = {}
    # generate_suite hands one object to every instance that shares a value, so
    # a value is encoded when its object is first met (it stays alive in
    # `instances`) and a later line finds its source by the object alone
    known: dict[tuple[str, int], str] = {}
    own_fields = [f.name for f in dataclasses.fields(RequestInstance) if f.name not in SHARED_FIELDS]
    lines = []
    for instance in instances:
        # RequestInstance declares no `kind`: its JSON object is its fields
        obj = {name: to_json(getattr(instance, name)) for name in own_fields}
        for field in SHARED_FIELDS:
            value = getattr(instance, field)
            source = known.get((field, id(value)))
            if source is None:
                obj[field] = to_json(value)
                source = first.setdefault((field, json.dumps(obj[field], sort_keys=True)), instance.id)
                known[(field, id(value))] = source
            if source != instance.id:
                obj[field] = {"same_as": source}
            elif field not in obj:  # an id stated twice: its later line states the value again
                obj[field] = to_json(value)
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)


def load_suite(text: str) -> list[RequestInstance]:
    """The instances of a suite, in file order. A {"same_as": id} field takes
    that field's value from the earlier instance with that id, as the same
    object, so each distinct context, gold and key list is decoded and held
    once. A line stating every value in full loads as it is. A `request_type`
    key, which suites stated before it was read from the plan, is ignored."""
    instances: list[RequestInstance] = []
    by_id: dict[str, RequestInstance] = {}
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if isinstance(obj, dict):
                obj.pop("request_type", None)
                for field in SHARED_FIELDS:
                    value = obj.get(field)
                    if isinstance(value, dict) and value.keys() == {"same_as"}:
                        source = by_id.get(value["same_as"])
                        if source is None:
                            raise SuiteFormatError(f"line {number}: {field} is the same as {value['same_as']!r}, "
                                                   f"an id that no earlier line has")
                        obj[field] = getattr(source, field)
            instance = from_json(RequestInstance, obj)
            scored_against = ROWS[instance.request_type].gold
            if type(instance.gold) is not scored_against:
                raise ValueError(f"gold must be {scored_against.kind} for {instance.request_type.value}, "
                                 f"got {instance.gold.kind}")
        except (ValueError, TypeError, PlanError, IngestError) as e:
            raise SuiteFormatError(f"line {number}: not a suite instance ({type(e).__name__}: {e})") from None
        instances.append(instance)
        by_id.setdefault(instance.id, instance)
    return instances
