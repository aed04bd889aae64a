from __future__ import annotations

import json
import random
import typing

import pytest

from tabbench.oracle import (
    CONTAINS,
    EQ,
    GT,
    And,
    Condition,
    Count,
    Delete,
    Diff,
    EntitySet,
    Exists,
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
    eval_expr,
    evaluate,
    expr_from_json,
    expr_to_json,
    gold_from_json,
    gold_to_json,
    plan_from_json,
    plan_to_json,
)

from conftest import PLAN_SHAPES, eq, random_expr, random_plan, random_relation
from reference_oracle import brute_force_reference


def test_and_selection(f1):
    expr = And((eq("Nationality", "Argentina"), eq("Number", "10")))
    assert eval_expr(expr, f1) == {"Messi"}


def test_empty_selection(f1):
    assert eval_expr(eq("Nationality", "France"), f1) == frozenset()


def test_difference_selection(f2):
    expr = Diff(eq("Number", "10"), eq("Nationality", "Argentina"))
    assert eval_expr(expr, f2) == {"Neymar"}


def test_numeric_equality_matches_parsed_value(f1):
    assert eval_expr(Condition("Number", EQ, 7.0, "number is 7"), f1) == {"Ronaldo"}
    assert eval_expr(Condition("Number", EQ, "7.0", "number is 7.0"), f1) == {"Ronaldo"}


def test_contains_is_case_insensitive_substring(f1):
    assert eval_expr(Condition("Club", CONTAINS, "juve", "club contains juve"), f1) == {"Ronaldo"}


def test_type_errors(f1):
    with pytest.raises(PlanTypeError):
        eval_expr(Condition("Club", GT, "3", "x"), f1)
    with pytest.raises(PlanTypeError):
        eval_expr(Condition("Number", CONTAINS, "7", "x"), f1)
    with pytest.raises(PlanTypeError):
        eval_expr(Condition("Number", EQ, "ten", "x"), f1)
    with pytest.raises(PlanAttributeError):
        eval_expr(eq("Stadium", "Camp Nou"), f1)


def test_connective_arity_validation(f1):
    with pytest.raises(PlanError):
        And((eq("Number", "7"),))
    with pytest.raises(PlanError):
        Or((eq("Number", "7"),))


def test_superlative_alphabetical_tiebreak(f2):
    plan = Superlative("Number", "max", "Name", eq("Number", "10"))
    assert evaluate(plan, f2) == EntitySet(frozenset({"Messi"}))


def test_superlative_degenerate_support(f1):
    plan = Superlative("Number", "max", "Name", eq("Nationality", "France"))
    gold = evaluate(plan, f1)
    assert gold == EntitySet(frozenset(), degenerate=True)


def test_update_replaces_only_matching_target_cells(f1):
    plan = Update("Number", "N/A", eq("Nationality", "Argentina"))
    gold = evaluate(plan, f1)
    assert isinstance(gold, RelationSnapshot)
    rel = gold.relation
    assert rel.value(rel.rows[1], "Number") == "N/A"
    assert rel.value(rel.rows[0], "Number") == "7"
    assert rel.value(rel.rows[1], "Club") == "Barcelona"


def test_update_is_idempotent(f2):
    plan = Update("Number", "N/A", eq("Nationality", "Argentina"))
    once = evaluate(plan, f2).relation
    twice = evaluate(plan, once).relation
    assert [r.values for r in once.rows] == [r.values for r in twice.rows]


def test_exists_witnesses(f1):
    plan = Exists(And((eq("Nationality", "Argentina"), eq("Club", "Barcelona"), eq("Number", "10"))))
    assert evaluate(plan, f1) == Witnessed(frozenset({"Messi"}))


def test_exists_negated_keeps_existence_boolean(f1):
    # the stored value is the un-negated existence fact; scoring flips it
    plan = Exists(eq("Nationality", "France"), negated=True)
    assert evaluate(plan, f1) == Witnessed(frozenset())


def test_sum_over_or_conditions(f1):
    plan = Sum("Number", Or((eq("Nationality", "Portugal"), eq("Nationality", "Argentina"))))
    assert evaluate(plan, f1) == Number(17.0)


def test_count_or_never_double_counts(f2):
    plan = Count(Or((eq("Number", "10"), eq("Nationality", "Brazil"))))
    assert evaluate(plan, f2) == Number(2.0)


def test_delete_gold_is_remaining_relation(f2):
    plan = Delete(eq("Number", "10"))
    gold = evaluate(plan, f2)
    assert gold.relation.keys() == ("Ronaldo", "Ramos")


def test_delete_then_retrieve_is_empty(f2):
    expr = eq("Nationality", "Spain")
    snapshot = evaluate(Delete(expr), f2).relation
    assert eval_expr(expr, snapshot) == frozenset()


def test_project_removes_duplicate_tuples(f2):
    plan = Project(("Number",), eq("Number", "10"))
    assert evaluate(plan, f2) == TupleSet(frozenset({("10",)}))


def test_projection_pairs(f1):
    plan = Project(("Name", "Club"), eq("Nationality", "Argentina"))
    assert evaluate(plan, f1) == TupleSet(frozenset({("Messi", "Barcelona")}))


def test_sum_empty_support_is_zero(f1):
    assert evaluate(Sum("Number", eq("Nationality", "France")), f1) == Number(0.0)


def test_plan_validation_errors(f1):
    with pytest.raises(PlanTypeError):
        evaluate(Sum("Club", eq("Number", "7")), f1)
    with pytest.raises(PlanAttributeError):
        evaluate(Update("Stadium", "N/A", eq("Number", "7")), f1)
    with pytest.raises(PlanError):
        Superlative("Number", "sideways", "Name", eq("Number", "7"))
    with pytest.raises(PlanError):
        Project((), eq("Number", "7"))


def test_count_on_empty_relation(schema):
    from tabbench.relation import Relation

    empty = Relation.from_values("empty", schema, [])
    assert brute_force_reference(Count(eq("Number", "7")), empty) == Number(0.0)
    assert evaluate(Count(eq("Number", "7")), empty) == Number(0.0)


# ---------------------------------------------------------------------------
# Algebraic properties on randomized relations
# ---------------------------------------------------------------------------


def test_sigma_composition_properties():
    rng = random.Random(424242)
    for _ in range(200):
        rel = random_relation(rng)
        a, b = random_expr(rng, rel), random_expr(rng, rel)
        try:
            sa, sb = eval_expr(a, rel), eval_expr(b, rel)
            assert eval_expr(And((a, b)), rel) == sa & sb
            assert eval_expr(Or((a, b)), rel) == sa | sb
            assert eval_expr(Diff(a, b), rel) == sa - sb
        except PlanError:
            continue


def test_count_equals_selection_size():
    rng = random.Random(77)
    for _ in range(150):
        rel = random_relation(rng)
        expr = random_expr(rng, rel)
        try:
            assert evaluate(Count(expr), rel).value == len(eval_expr(expr, rel))
        except PlanError:
            continue


def test_superlative_is_singleton_when_supported():
    rng = random.Random(99)
    seen = 0
    for _ in range(300):
        rel = random_relation(rng)
        plan = random_plan(rng, rel, "superlative")
        if not isinstance(plan, Superlative):
            continue
        try:
            gold = evaluate(plan, rel)
        except PlanError:
            continue
        support = eval_expr(plan.expr, rel)
        if support:
            seen += 1
            assert len(gold.keys) == 1 and not gold.degenerate
        else:
            assert gold.keys == frozenset() and gold.degenerate
    assert seen > 20


def test_differential_battery_small():
    rng = random.Random(20240311)
    checked = 0
    for _ in range(300):
        rel = random_relation(rng)
        shape = rng.choice(PLAN_SHAPES)
        plan = random_plan(rng, rel, shape)
        try:
            expected = evaluate(plan, rel)
        except PlanError as production_error:
            with pytest.raises(type(production_error)):
                brute_force_reference(plan, rel)
            continue
        assert brute_force_reference(plan, rel) == expected
        checked += 1
    assert checked > 150


# ---------------------------------------------------------------------------
# Canonical JSON forms
# ---------------------------------------------------------------------------


def test_expr_json_round_trip(f2):
    expr = Diff(And((eq("Number", "10"), eq("Club", "PSG"))), eq("Nationality", "Brazil"))
    assert expr_from_json(expr_to_json(expr)) == expr


def test_plan_json_round_trip(f2):
    rng = random.Random(4)
    for shape in PLAN_SHAPES:
        plan = random_plan(rng, f2, shape)
        assert plan_from_json(plan_to_json(plan)) == plan


def test_gold_json_round_trip(f2):
    rng = random.Random(11)
    for shape in PLAN_SHAPES:
        plan = random_plan(rng, f2, shape)
        gold = evaluate(plan, f2)
        again = gold_from_json(gold_to_json(gold))
        if isinstance(gold, RelationSnapshot):
            assert gold_to_json(again) == gold_to_json(gold)
        else:
            assert again == gold


def test_gold_json_key_order_is_stable(f2):
    gold = evaluate(Retrieve(eq("Number", "10")), f2)
    payload = gold_to_json(gold)
    assert payload["keys"] == sorted(payload["keys"])


# Every plan class with the canonical JSON that suites wrote for it before each
# class named its own `kind` (json.dumps(..., sort_keys=True), computed from
# that commit's plan_to_json). EXPR stands for the expression's JSON.
PLAN_EXPR = eq("Number", "10")
PLAN_BYTES = [
    (Retrieve(PLAN_EXPR), '{"expr": EXPR, "kind": "retrieve"}'),
    (Delete(PLAN_EXPR), '{"expr": EXPR, "kind": "delete"}'),
    (Update(target_attr="Number", replacement="N/A", expr=PLAN_EXPR),
     '{"expr": EXPR, "kind": "update", "replacement": "N/A", "target_attr": "Number"}'),
    (Count(PLAN_EXPR), '{"expr": EXPR, "kind": "count"}'),
    (Sum(target_attr="Number", expr=PLAN_EXPR), '{"expr": EXPR, "kind": "sum", "target_attr": "Number"}'),
    (Superlative(target_attr="Number", direction="max", tiebreak_attr="Name", expr=PLAN_EXPR),
     '{"direction": "max", "expr": EXPR, "kind": "superlative", "target_attr": "Number", "tiebreak_attr": "Name"}'),
    (Exists(PLAN_EXPR, negated=True), '{"expr": EXPR, "kind": "exists", "negated": true}'),
    (Project(("Name", "Club"), PLAN_EXPR), '{"attrs": ["Name", "Club"], "expr": EXPR, "kind": "project"}'),
]
EXPR_BYTES = '{"attr": "Number", "kind": "condition", "op": "eq", "rendered": "number is 10", "value": "10"}'


def test_plan_json_bytes_of_every_plan_class():
    assert {type(plan) for plan, _ in PLAN_BYTES} == set(typing.get_args(QueryPlan))
    for plan, text in PLAN_BYTES:
        payload = plan_to_json(plan)
        assert json.dumps(payload, sort_keys=True) == text.replace("EXPR", EXPR_BYTES)
        assert plan_from_json(payload) == plan


@pytest.mark.parametrize("plan,edit,message", [
    (Sum(target_attr="Number", expr=PLAN_EXPR), {"kind": "retrieval"}, "unknown plan kind 'retrieval'"),
    (Sum(target_attr="Number", expr=PLAN_EXPR), {"target_attr": None}, "sum plan has the fields"),
    (Sum(target_attr="Number", expr=PLAN_EXPR), {"negated": False}, "sum plan has the fields"),
    (Sum(target_attr="Number", expr=PLAN_EXPR), {"target_attr": ["Number"]}, "target_attr must be a str"),
    (Project(("Name",), PLAN_EXPR), {"attrs": "Name"}, r"attrs must be a tuple\[str, ...\]"),
    (Exists(PLAN_EXPR, negated=True), {"negated": 1}, "negated must be a bool"),
    (Exists(PLAN_EXPR, negated=True), {"negated": "true"}, "negated must be a bool"),
])
def test_plan_from_json_rejects_wrong_fields(plan, edit, message):
    """A plan field edited as given (None removes it) does not decode."""
    obj = plan_to_json(plan)
    obj.update(edit)
    obj = {k: v for k, v in obj.items() if v is not None}
    with pytest.raises(PlanError, match=message):
        plan_from_json(obj)
