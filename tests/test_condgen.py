from __future__ import annotations

import pytest

from tabbench.condgen import (
    GenError,
    NoEligibleAttributeError,
    UnsatisfiableConditionsError,
    draw_condition_set,
    make_condition,
    ops_for,
    render_negated,
    value_pool,
)
from tabbench.datasets import BUILTIN_PACKS, load_pack
from tabbench.oracle import AND, CONTAINS, DIFF, EQ, GT, LT, OPS, OR, Condition, Diff, eval_expr, leaf_conditions
from tabbench.relation import AttributeSpec, Relation
from tabbench.requestgen import SuiteConfig


def sample_condition_set(rel, ops, n, connective, seed, **settings):
    """One supported expression under a single connective."""
    exprs, _, _ = draw_condition_set(rel, ops, n, SuiteConfig(connectives=(connective,), **settings), seed)
    return exprs[connective]


MOVIE_SCHEMA = (
    AttributeSpec("Title", "freetext", "movie title", is_key=True),
    AttributeSpec("Rating", "numeric", "rating"),
    AttributeSpec("Director", "freetext", "director name"),
)

PII_SCHEMA = (
    AttributeSpec("Name", "freetext", "name", is_key=True),
    AttributeSpec("Email", "freetext", "e-mail"),
    AttributeSpec("Experience", "numeric", "job experience years"),
)


@pytest.fixture
def movies():
    return Relation.from_values(
        "movies", MOVIE_SCHEMA,
        [("The Quiet Tide", "3.0", "Lena Hartwell"),
         ("The Last Signal", "4.5", "Marcus Oyelaran"),
         ("The Amber Gate", "2.5", "Lena Hartwell")],
    )


@pytest.fixture
def people():
    return Relation.from_values(
        "people", PII_SCHEMA,
        [("Alice Archer", "alice.archer@gmail.com", "4"),
         ("Brian Bellamy", "brian.bellamy@yahoo.com", "12"),
         ("Carmen Castillo", "carmen.castillo@gmail.com", "7")],
    )


def test_equality_condition_rendering(f1):
    cond = make_condition(f1, "Nationality", EQ, "Argentina")
    assert cond == Condition("Nationality", EQ, "Argentina", "nationality is Argentina")


def test_inequality_condition_rendering(movies):
    assert make_condition(movies, "Rating", GT, "3.0").rendered == "rating is higher than 3.0"
    assert make_condition(movies, "Rating", LT, "3.0").rendered == "rating is lower than 3.0"


def test_email_domain_condition(people):
    pool = value_pool(people, people.attribute("Email"), CONTAINS)
    assert pool == ["@gmail", "@yahoo"]
    cond = make_condition(people, "Email", CONTAINS, "@gmail")
    assert cond.rendered == "e-mail domain is gmail"
    assert eval_expr(cond, people) == {"Alice Archer", "Carmen Castillo"}


def test_plain_contains_rendering(movies):
    cond = make_condition(movies, "Director", CONTAINS, "Lena Hartwell")
    assert cond.rendered == "director name contains Lena Hartwell"


def test_negated_renderings(f1, movies, people):
    assert render_negated(f1, make_condition(f1, "Nationality", EQ, "Argentina")) == "nationality is not Argentina"
    assert render_negated(movies, make_condition(movies, "Rating", GT, "3.0")) == "rating is not higher than 3.0"
    assert render_negated(people, make_condition(people, "Email", CONTAINS, "@gmail")) == "e-mail domain is not gmail"


def test_key_attribute_is_not_eligible(f2):
    for seed in range(50):
        expr = sample_condition_set(f2, (EQ,), 2, OR, seed)
        assert "Name" not in [c.attr for c in leaf_conditions(expr)]


def test_single_eligible_attribute_always_chosen(movies):
    for seed in range(10):
        cond = sample_condition_set(movies, (GT, LT), 1, AND, seed)
        assert isinstance(cond, Condition)
        assert cond.attr == "Rating"


def test_sample_condition_deterministic(f2):
    assert sample_condition_set(f2, (EQ,), 1, AND, 5) == sample_condition_set(f2, (EQ,), 1, AND, 5)


def test_sample_condition_no_eligible(f1):
    # Number is the only numeric attribute; with Eq excluded on it, only one
    # attribute is eligible, so asking for two distinct attributes must fail
    with pytest.raises(NoEligibleAttributeError):
        sample_condition_set(f1, (GT,), 2, AND, 0)
    cond = sample_condition_set(f1, (GT, LT), 1, AND, 3)
    assert isinstance(cond, Condition)
    assert cond.attr == "Number"


def test_condition_set_postconditions(f2):
    for seed in range(20):
        expr = sample_condition_set(f2, (EQ,), 2, AND, seed, min_support=1)
        leaves = leaf_conditions(expr)
        assert len(leaves) == 2
        assert len({c.attr for c in leaves}) == 2
        assert len(eval_expr(expr, f2)) >= 1


def test_condition_set_or_and_share_support_checks(f2):
    exprs, conditions, resamples = draw_condition_set(f2, (EQ,), 2, SuiteConfig(connectives=(AND, OR)), 11)
    assert set(exprs) == {AND, OR}
    assert leaf_conditions(exprs[AND]) == list(conditions)
    assert len(eval_expr(exprs[AND], f2)) >= 1
    assert len(eval_expr(exprs[OR], f2)) >= 1
    assert resamples >= 0


def test_single_condition_set_is_bare(f2):
    expr = sample_condition_set(f2, (EQ,), 1, AND, 2)
    assert isinstance(expr, Condition)


def test_diff_condition_set_shape(f2):
    expr = sample_condition_set(f2, (EQ,), 2, DIFF, 8)
    assert isinstance(expr, Diff)
    assert len(eval_expr(expr, f2)) >= 1


def test_diff_requires_two_conditions(f2):
    with pytest.raises(GenError):
        sample_condition_set(f2, (EQ,), 3, DIFF, 0)


def test_too_many_distinct_attributes(f2):
    with pytest.raises(NoEligibleAttributeError):
        sample_condition_set(f2, (EQ,), 5, OR, 0)


def test_unsatisfiable_reports_not_emits(f1):
    # two rows disagree on every attribute: an and-pair can never reach support 2
    with pytest.raises(UnsatisfiableConditionsError):
        sample_condition_set(f1, (EQ,), 2, AND, 1, min_support=2, max_resample=40)


def test_draw_determinism(f2):
    config = SuiteConfig(connectives=(AND, OR))
    assert draw_condition_set(f2, (EQ,), 2, config, 77) == draw_condition_set(f2, (EQ,), 2, config, 77)


def test_gt_thresholds_come_from_observed_values(movies):
    observed = {"3.0", "4.5", "2.5"}
    for seed in range(15):
        try:
            expr = sample_condition_set(movies, (GT,), 1, AND, seed)
        except UnsatisfiableConditionsError:
            continue
        assert expr.value in observed


@pytest.mark.parametrize("name", BUILTIN_PACKS)
def test_every_op_offered_on_a_pack_attribute_is_accepted_by_the_oracle(name):
    """oracle.OP_KINDS drives both the draw and the check: each op ops_for
    offers for an attribute of a builtin pack, with each value of its pool,
    is a condition eval_expr accepts."""
    rel = load_pack(name).relation
    checked = 0
    for spec in rel.schema:
        for op in ops_for(spec, OPS):
            for value in value_pool(rel, spec, op):
                eval_expr(make_condition(rel, spec.name, op, value), rel)
                checked += 1
    assert checked > len(rel.rows)
