from __future__ import annotations

import typing

from tabbench import requestgen
from tabbench.answers import _PARSERS
from tabbench.oracle import QueryPlan
from tabbench.requesttypes import CORE_TYPES, MANY_TARGETS, NO_TARGET, ONE_TARGET, ROWS, RequestType, type_of

from conftest import eq, tiny_soccer_pack


def test_every_type_has_one_row_and_its_own_plan_class():
    assert list(ROWS) == list(RequestType)
    plan_classes = [row.plan for row in ROWS.values()]
    assert len(set(plan_classes)) == len(RequestType)
    assert set(plan_classes) == set(typing.get_args(QueryPlan))
    for request_type, row in ROWS.items():
        assert row.metric in ("f1", "accuracy", "abs_diff")
        assert row.answers and set(row.answers) <= set(_PARSERS)
        assert row.targets in (NO_TARGET, ONE_TARGET, MANY_TARGETS)
        assert row.wordings[0] is False and len(set(row.wordings)) == len(row.wordings)


def test_plan_built_for_a_type_names_that_type(f2):
    pack = tiny_soccer_pack(f2)
    for request_type, row in ROWS.items():
        for negated in row.wordings:
            plan = requestgen.build_plan(request_type, eq("Club", "PSG"), pack.target_for(request_type), f2,
                                         negated=negated)
            assert type(plan) is row.plan and type_of(plan) is request_type
            assert getattr(plan, "negated", False) is negated


def test_default_types_follow_the_enum_order():
    assert CORE_TYPES == (RequestType.RETRIEVAL, RequestType.DELETION, RequestType.UPDATE,
                          RequestType.SUPERLATIVE, RequestType.SUM, RequestType.COUNT)
    assert requestgen.SuiteConfig().request_types == CORE_TYPES
    # the README's library example imports the type from requestgen too
    assert requestgen.RequestType is RequestType
