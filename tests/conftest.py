from __future__ import annotations

import json
import random

import pytest

from tabbench.oracle import (
    AND,
    CONTAINS,
    DIFF,
    EQ,
    GT,
    LT,
    OR,
    And,
    Condition,
    Diff,
    Exists,
    Or,
    Project,
    QueryPlan,
    RelationSnapshot,
    Retrieve,
    Delete,
    Count,
    Sum,
    Superlative,
    Update,
)
from tabbench.relation import AttributeSpec, Relation, load_csv
from tabbench.structurer import PhraseBank, PipeTable, SentenceFrame

F1_CSV = (
    "Name,Number,Nationality,Club\n"
    "Ronaldo,7,Portugal,Juventus\n"
    "Messi,10,Argentina,Barcelona\n"
)

F2_CSV = (
    "Name,Number,Nationality,Club\n"
    "Ronaldo,7,Portugal,Juventus\n"
    "Messi,10,Argentina,Barcelona\n"
    "Neymar,10,Brazil,PSG\n"
    "Ramos,4,Spain,Sevilla\n"
)


def soccer_schema() -> tuple[AttributeSpec, ...]:
    return (
        AttributeSpec("Name", "freetext", "name", ("name", "player name"), is_key=True),
        AttributeSpec("Number", "numeric", "uniform number", ("uniform number", "jersey number", "jersey No.")),
        AttributeSpec("Nationality", "categorical", "nationality", ("nationality", "national team")),
        AttributeSpec("Club", "categorical", "club", ("club", "team")),
    )


@pytest.fixture
def schema() -> tuple[AttributeSpec, ...]:
    return soccer_schema()


@pytest.fixture
def f1(schema) -> Relation:
    return load_csv(F1_CSV, schema, name="Soccer")


@pytest.fixture
def f2(schema) -> Relation:
    return load_csv(F2_CSV, schema, name="Soccer")


def soccer_bank() -> PhraseBank:
    """Bank whose canonical frame reproduces the reference sentence
    "Ronaldo is a player from Portugal playing for Juventus with uniform number 7."
    """
    return PhraseBank(
        frames=(
            SentenceFrame(head="{key} is a player", order=("Nationality", "Club", "Number")),
            SentenceFrame(head="{key}, a professional footballer,", order=("Nationality", "Club", "Number")),
        ),
        clauses={
            "Nationality": ("from {value}", "representing {value}"),
            "Club": ("playing for {value}", "signed with {value}"),
            "Number": ("with {phrase} {value}", "wearing {phrase} {value}"),
        },
    )


@pytest.fixture
def bank() -> PhraseBank:
    return soccer_bank()


def eq(attr: str, value: str) -> Condition:
    return Condition(attr=attr, op=EQ, value=value, rendered=f"{attr.lower()} is {value}")


def snapshot_relation(snapshot: RelationSnapshot, rel: Relation) -> Relation:
    """The snapshot's rows as a relation with the schema of `rel`, the
    relation it was taken from, so that a plan can run against it again."""
    assert snapshot.columns == rel.attribute_names and snapshot.key == rel.key_attr.name
    return Relation.from_values(rel.name, rel.schema, list(snapshot.rows))


# ---------------------------------------------------------------------------
# Randomized inputs for differential and property batteries
# ---------------------------------------------------------------------------

_WORDS = ("alpha", "Bravo", "oak", "Gamma Ray", "delta", "umber", "Echo", "fox trot")
_MAILS = ("a@gmail.com", "b@yahoo.com", "c@gmail.com", "d@proton.me")


def random_relation(rng: random.Random, max_rows: int = 20) -> Relation:
    n_extra = rng.randint(1, 4)
    schema = [AttributeSpec("Key", "freetext", "key", is_key=True)]
    for i in range(n_extra):
        kind = rng.choice(("numeric", "categorical", "freetext"))
        schema.append(AttributeSpec(f"A{i}", kind, f"attribute {i}"))
    rows = []
    for r in range(rng.randint(0, max_rows)):
        cells = [f"Entity {r:02d}"]
        for spec in schema[1:]:
            if spec.kind == "numeric":
                value = rng.choice(("0", "1", "2", "3", "5", "10", "10.5", "-4", "7"))
            elif rng.random() < 0.2:
                value = rng.choice(_MAILS)
            else:
                value = rng.choice(_WORDS)
            cells.append(value)
        rows.append(tuple(cells))
    return Relation.from_values("rand", tuple(schema), rows)


def random_condition(rng: random.Random, rel: Relation) -> Condition:
    spec = rng.choice(rel.schema)
    if spec.kind == "numeric":
        op = rng.choice((EQ, GT, LT))
        value = rng.choice(("0", "1", "2", "3", "5", "7", "10", "10.5", "-4"))
    else:
        op = rng.choice((EQ, CONTAINS))
        pool = [r[rel.index(spec.name)] for r in rel.rows] or list(_WORDS)
        value = rng.choice(pool + list(_WORDS))
        if op == CONTAINS and rng.random() < 0.5 and value:
            start = rng.randrange(len(value))
            value = value[start : start + rng.randint(1, 4)] or value
    return Condition(attr=spec.name, op=op, value=value, rendered=f"{spec.name} {op} {value}")


def random_expr(rng: random.Random, rel: Relation):
    n = rng.randint(1, 3)
    conditions = tuple(random_condition(rng, rel) for _ in range(n))
    if n == 1:
        return conditions[0]
    shape = rng.choice((AND, OR, DIFF))
    if shape == DIFF:
        return Diff(conditions[0], conditions[1])
    return And(conditions) if shape == AND else Or(conditions)


PLAN_SHAPES = (
    "retrieve", "delete", "update", "count", "sum",
    "superlative", "exists", "exists_negated", "project",
)


def random_plan(rng: random.Random, rel: Relation, shape: str) -> QueryPlan:
    expr = random_expr(rng, rel)
    numeric = [a.name for a in rel.schema if a.kind == "numeric"]
    any_attr = rng.choice(rel.schema).name
    if shape == "retrieve":
        return Retrieve(expr)
    if shape == "delete":
        return Delete(expr)
    if shape == "update":
        return Update(target_attr=any_attr, replacement="N/A", expr=expr)
    if shape == "count":
        return Count(expr)
    if shape == "sum":
        if not numeric:
            return Count(expr)
        return Sum(target_attr=rng.choice(numeric), expr=expr)
    if shape == "superlative":
        if not numeric:
            return Retrieve(expr)
        return Superlative(
            target_attr=rng.choice(numeric),
            direction=rng.choice(("max", "min")),
            tiebreak_attr=any_attr,
            expr=expr,
        )
    if shape == "exists":
        return Exists(expr, negated=False)
    if shape == "exists_negated":
        return Exists(expr, negated=True)
    attrs = tuple(
        dict.fromkeys(rng.choice([a.name for a in rel.schema]) for _ in range(rng.randint(1, 2)))
    )
    return Project(attrs, expr)


def tiny_soccer_pack(relation: Relation):
    """In-code pack around the reference fixture rows, mirroring the builtin
    soccer pack's template texts."""
    from pathlib import Path

    from tabbench.datasets import DatasetPack
    from tabbench.requestgen import TemplatePack
    from tabbench.runio import from_json

    templates_file = Path(__file__).parent.parent / "src" / "tabbench" / "data" / "soccer" / "templates.json"
    return DatasetPack(
        name="soccer",
        entity_noun="soccer player",
        entity_noun_plural="soccer players",
        relation=relation,
        bank=soccer_bank(),
        templates=from_json(TemplatePack, json.loads(templates_file.read_text(encoding="utf-8"))),
        allowed_ops=(EQ,),
        numeric_target="Number",
        projection_attrs=("Name", "Club"),
    )


def instantiate_one(request_type, template, expr, target, rel: Relation, level, seed, *, pack,
                    instance_id: str = "single", mode: str = "surrogate", pre_instruction: str | None = None):
    """One instance outside a suite: build and evaluate the plan, fill the
    template's prompt, render the context at `level`, and build the instance
    from them, with the type's answer footer, as generate_suite does."""
    from tabbench.oracle import AND, evaluate
    from tabbench.requestgen import RequestInstance, build_plan, fill
    from tabbench.structurer import render

    plan = build_plan(request_type, expr, target, rel, negated=template.negated)
    return RequestInstance(
        id=instance_id,
        dataset=pack.name,
        template_id=template.template_id,
        connective=AND,
        level=level,
        portion=None,
        plan=plan,
        prompt=fill(template, plan, target, rel, pack),
        context=render(rel, level, seed, pack.bank),
        pre_instruction=pre_instruction,
        gold=evaluate(plan, rel),
        entity_keys=rel.keys(),
        mode=mode,
        footer=pack.templates.footer_for(request_type),
    )


def as_pipe_table(rel: Relation) -> PipeTable:
    """A relation's header and cell strings, in the shape parse_table returns."""
    return PipeTable(rel.attribute_names, rel.rows)


def table_equal(parsed: PipeTable, rel: Relation) -> bool:
    """A parsed table holds the relation's headers and cell grid, with the
    relation's key column first, where parse_table reads keys."""
    return parsed == as_pipe_table(rel) and parsed.header[0] == rel.key_attr.name


def instances_per_type(config, request_type) -> int:
    """The suite-size formula: how many instances generate_suite makes of one
    request type under a SuiteConfig."""
    from tabbench.requestgen import TEMPLATES_PER_TYPE
    from tabbench.requesttypes import ROWS

    return (
        config.pair_count
        * len(config.connectives)
        * TEMPLATES_PER_TYPE
        * len(config.levels)
        * len(config.n_conditions)
        * len(config.portions or (None,))
        * len(ROWS[request_type].wordings)
    )


def every_key_on_every_line(text: str) -> str:
    """`text`, a suite dump, with each key a line leaves out filled from the
    line before, as suites were written before a line left out what equals the
    line before's: a shared value that the line before states in full as
    {"same_as": <that line's id>}, any other as the line before has it. Each
    line is re-dumped with keys sorted; blank lines are dropped."""
    from tabbench.requestgen import SHARED_FIELDS

    before, lines = {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = {**before, **json.loads(line)}
        before = {key: {"same_as": obj["id"]} if key in SHARED_FIELDS and not (
            isinstance(value, dict) and value.keys() == {"same_as"}) else value
            for key, value in obj.items() if key != "id"}
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)


def footer_in_prompt(text: str) -> str:
    """`text`, a suite dump, as suites were written while each prompt ended
    with its request type's answer footer: every prompt a line states in full
    gets the line's footer (stated on it, or on the last line before that
    states one) on a line of its own, and the `footer` key is dropped. Each
    line is re-dumped with keys sorted; blank lines are dropped."""
    footer, lines = None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        footer = obj.pop("footer", footer)
        if isinstance(obj.get("prompt"), str) and footer is not None:
            obj["prompt"] += "\n" + footer
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)
