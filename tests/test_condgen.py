from __future__ import annotations

import pytest

from tabbench.condgen import (
    ConditionPolicy,
    GenError,
    NoEligibleAttributeError,
    UnsatisfiableConditionsError,
    draw_condition_set,
    eligible_attributes,
    make_condition,
    render_negated,
    sample_condition_set,
    value_pool,
)
from tabbench.oracle import AND, CONTAINS, DIFF, EQ, GT, LT, OR, Condition, Diff, eval_expr, leaf_conditions
from tabbench.relation import AttributeSpec, Relation


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


def test_key_attribute_is_not_eligible(f1):
    policy = ConditionPolicy(allowed_ops=(EQ,))
    assert "Name" not in [a.name for a in eligible_attributes(f1, policy)]


def test_single_eligible_attribute_always_chosen(movies):
    policy = ConditionPolicy(allowed_ops=(GT, LT), n_conditions=1)
    for seed in range(10):
        cond = sample_condition_set(movies, policy, AND, seed)
        assert isinstance(cond, Condition)
        assert cond.attr == "Rating"


def test_sample_condition_deterministic(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=1)
    assert sample_condition_set(f2, policy, AND, 5) == sample_condition_set(f2, policy, AND, 5)


def test_sample_condition_no_eligible(f1):
    policy = ConditionPolicy(allowed_ops=(GT, LT), n_conditions=1, connectives=(AND,))
    # Number is the only numeric attribute; with Eq excluded on it, only one
    # attribute is eligible, so asking for two distinct attributes must fail
    with pytest.raises(NoEligibleAttributeError):
        draw_condition_set(f1, ConditionPolicy(allowed_ops=(GT,), n_conditions=2), (AND,), 0)
    cond = sample_condition_set(f1, policy, AND, 3)
    assert isinstance(cond, Condition)
    assert cond.attr == "Number"


def test_condition_set_postconditions(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=2, min_support=1)
    for seed in range(20):
        expr = sample_condition_set(f2, policy, AND, seed)
        leaves = leaf_conditions(expr)
        assert len(leaves) == 2
        assert len({c.attr for c in leaves}) == 2
        assert len(eval_expr(expr, f2)) >= 1


def test_condition_set_or_and_share_support_checks(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=2)
    exprs, conditions, resamples = draw_condition_set(f2, policy, (AND, OR), 11)
    assert set(exprs) == {AND, OR}
    assert leaf_conditions(exprs[AND]) == list(conditions)
    assert len(eval_expr(exprs[AND], f2)) >= 1
    assert len(eval_expr(exprs[OR], f2)) >= 1
    assert resamples >= 0


def test_single_condition_set_is_bare(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=1)
    expr = sample_condition_set(f2, policy, AND, 2)
    assert isinstance(expr, Condition)


def test_diff_condition_set_shape(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=2, connectives=(DIFF,))
    expr = sample_condition_set(f2, policy, DIFF, 8)
    assert isinstance(expr, Diff)
    assert len(eval_expr(expr, f2)) >= 1


def test_diff_requires_two_conditions(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=3, connectives=(DIFF,))
    with pytest.raises(GenError):
        sample_condition_set(f2, policy, DIFF, 0)


def test_too_many_distinct_attributes(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=5, connectives=(OR,))
    with pytest.raises(NoEligibleAttributeError):
        sample_condition_set(f2, policy, OR, 0)


def test_unsatisfiable_reports_not_emits(f1):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=2, min_support=2,
                             connectives=(AND,), max_resample=40)
    # two rows disagree on every attribute: an and-pair can never reach support 2
    with pytest.raises(UnsatisfiableConditionsError):
        sample_condition_set(f1, policy, AND, 1)


def test_connective_must_be_allowed(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), connectives=(AND,))
    with pytest.raises(GenError):
        sample_condition_set(f2, policy, OR, 0)


def test_policy_validation():
    with pytest.raises(GenError):
        ConditionPolicy(n_conditions=0)
    with pytest.raises(GenError):
        ConditionPolicy(min_support=0)
    with pytest.raises(GenError):
        ConditionPolicy(allowed_ops=("between",))


def test_draw_determinism(f2):
    policy = ConditionPolicy(allowed_ops=(EQ,), n_conditions=2)
    a = draw_condition_set(f2, policy, (AND, OR), 77)
    b = draw_condition_set(f2, policy, (AND, OR), 77)
    assert a == b


def test_gt_thresholds_come_from_observed_values(movies):
    policy = ConditionPolicy(allowed_ops=(GT,), n_conditions=1, connectives=(AND,))
    observed = {"3.0", "4.5", "2.5"}
    for seed in range(15):
        try:
            expr = sample_condition_set(movies, policy, AND, seed)
        except UnsatisfiableConditionsError:
            continue
        assert expr.value in observed
