from __future__ import annotations

import random

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
    RelationSnapshot,
    Sum,
    Superlative,
    TupleSet,
    Update,
    Witnessed,
    eval_expr,
    evaluate,
)

from conftest import PLAN_SHAPES, eq, random_expr, random_plan, random_relation, snapshot_relation
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


def test_condition_key_sets_are_kept_by_the_literal_as_compared(schema):
    """A text column compares str(literal), so 7 and 7.0 keep their own key
    sets although the two conditions are equal; a numeric column compares the
    parsed number, so there they share one scan. A bad condition raises on
    every call, scanned or not."""
    from tabbench.relation import load_csv

    rel = load_csv("Name,Number,Nationality,Club\nA,7,X,7\nB,7.0,Y,7.0\n", schema)
    assert Condition("Club", EQ, 7, "club is 7") == Condition("Club", EQ, 7.0, "club is 7")
    assert eval_expr(Condition("Club", EQ, 7, "club is 7"), rel) == {"A"}
    assert eval_expr(Condition("Club", EQ, 7.0, "club is 7.0"), rel) == {"B"}
    assert eval_expr(Condition("Club", EQ, 7, "club is 7"), rel) == {"A"}
    assert len(rel.key_sets) == 2
    assert eval_expr(Condition("Number", EQ, 7, "number is 7"), rel) == {"A", "B"}
    assert eval_expr(Condition("Number", EQ, "7.0", "number is 7.0"), rel) == {"A", "B"}
    assert len(rel.key_sets) == 3
    for _ in range(2):
        with pytest.raises(PlanTypeError):
            eval_expr(Condition("Club", GT, 7, "club is higher than 7"), rel)
        with pytest.raises(PlanTypeError):
            eval_expr(Condition("Number", EQ, "seven", "number is seven"), rel)


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
    assert gold.columns == ("Name", "Number", "Nationality", "Club") and gold.key == "Name"
    assert gold.rows[1][1] == "N/A"
    assert gold.rows[0][1] == "7"
    assert gold.rows[1][3] == "Barcelona"


def test_update_is_idempotent(f2):
    plan = Update("Number", "N/A", eq("Nationality", "Argentina"))
    once = evaluate(plan, f2)
    twice = evaluate(plan, snapshot_relation(once, f2))
    assert once.rows == twice.rows


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
    assert gold.keys() == ("Ronaldo", "Ramos")


def test_delete_then_retrieve_is_empty(f2):
    expr = eq("Nationality", "Spain")
    snapshot = evaluate(Delete(expr), f2)
    assert eval_expr(expr, snapshot_relation(snapshot, f2)) == frozenset()


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
