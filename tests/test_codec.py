"""The one JSON codec (runio.to_json / runio.from_json), case by case.

Every record the stages read and write goes through it: suite lines
(RequestInstance, with its plan and gold), results lines (ResultLine) and
the config (HarnessConfig, with its SuiteConfig and ProviderConfig entries)
and a pack's files (DatasetPack, PackFiles, AttributeSpec, PhraseBank and
TemplatePack).
"""
from __future__ import annotations

import json
import random
import typing

import pytest

from tabbench.cli import ConfigError, HarnessConfig
from tabbench.condgen import GenError
from tabbench.gateway import GatewayError, ProviderConfig, ResultLine
from tabbench.oracle import (
    And,
    ConditionExpr,
    Count,
    Delete,
    Diff,
    EntitySet,
    Exists,
    GoldAnswer,
    Number,
    Or,
    PlanError,
    Project,
    QueryPlan,
    RelationSnapshot,
    Retrieve,
    Sum,
    Superlative,
    TupleSet,
    Update,
    Witnessed,
    evaluate,
)
from tabbench.relation import DuplicateKeyError
from tabbench.requestgen import Mode, RequestInstance, SuiteConfig, TemplatePack
from tabbench.requesttypes import RequestType
from tabbench.runio import CodecError, from_json, to_json
from tabbench.structurer import PhraseBank, SentenceFrame, StructuringLevel

from conftest import PLAN_SHAPES, eq, random_plan

TAGGED_UNIONS = (ConditionExpr, QueryPlan, GoldAnswer)

# One value of every class of every tagged union.
EXAMPLES = {
    ConditionExpr: [
        eq("Number", "10"),
        And((eq("Number", "10"), eq("Club", "PSG"))),
        Or((eq("Number", "10"), eq("Club", "PSG"), eq("Name", "Messi"))),
        Diff(eq("Number", "10"), Or((eq("Club", "PSG"), eq("Name", "Messi")))),
    ],
    QueryPlan: [
        Retrieve(eq("Number", "10")),
        Delete(eq("Number", "10")),
        Update(target_attr="Number", replacement="N/A", expr=eq("Number", "10")),
        Count(eq("Number", "10")),
        Sum(target_attr="Number", expr=eq("Number", "10")),
        Superlative(target_attr="Number", direction="min", tiebreak_attr="Name", expr=eq("Number", "10")),
        Exists(eq("Number", "10"), negated=True),
        Project(("Name", "Club"), eq("Number", "10")),
    ],
    GoldAnswer: [
        EntitySet(frozenset({"Neymar", "Messi"}), degenerate=False),
        TupleSet(frozenset({("Neymar", "PSG"), ("Messi", "Barcelona")})),
        RelationSnapshot(("Name", "Number"), "Name", (("Ronaldo", "7"), ("Ramos", "4"))),
        Number(17.5),
        Witnessed(frozenset({"Messi"})),
    ],
}


def test_each_tagged_union_names_its_classes_by_distinct_kinds():
    for union in TAGGED_UNIONS:
        classes = typing.get_args(union)
        kinds = [cls.kind for cls in classes]
        assert len(set(kinds)) == len(kinds), union
        assert {type(value) for value in EXAMPLES[union]} == set(classes)


@pytest.mark.parametrize("union,value", [pytest.param(u, v, id=type(v).__name__)
                                         for u in TAGGED_UNIONS for v in EXAMPLES[u]])
def test_round_trip_of_every_tagged_class(union, value):
    payload = to_json(value)
    assert payload["kind"] == type(value).kind
    assert from_json(union, json.loads(json.dumps(payload))) == value


def test_expr_json_round_trip(f2):
    expr = Diff(And((eq("Number", "10"), eq("Club", "PSG"))), eq("Nationality", "Brazil"))
    assert from_json(ConditionExpr, to_json(expr)) == expr


def test_plan_json_round_trip(f2):
    rng = random.Random(4)
    for shape in PLAN_SHAPES:
        plan = random_plan(rng, f2, shape)
        assert from_json(QueryPlan, to_json(plan)) == plan


def test_gold_json_round_trip(f2):
    rng = random.Random(11)
    for shape in PLAN_SHAPES:
        gold = evaluate(random_plan(rng, f2, shape), f2)
        assert from_json(GoldAnswer, to_json(gold)) == gold


def test_gold_json_key_order_is_stable(f2):
    gold = evaluate(Retrieve(eq("Number", "10")), f2)
    payload = to_json(gold)
    assert payload["keys"] == sorted(payload["keys"])
    tuples = to_json(EXAMPLES[GoldAnswer][1])["tuples"]
    assert tuples == [["Messi", "Barcelona"], ["Neymar", "PSG"]]


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
        payload = to_json(plan)
        assert json.dumps(payload, sort_keys=True) == text.replace("EXPR", EXPR_BYTES)
        assert from_json(QueryPlan, payload) == plan


def test_result_line_and_provider_config_round_trip():
    line = ResultLine(attempts=2, error=None, id="000001-soccer-count-and-t0", model="m", text="ANSWER:\n3")
    assert to_json(line) == {"attempts": 2, "error": None, "id": "000001-soccer-count-and-t0", "model": "m",
                             "text": "ANSWER:\n3"}
    assert from_json(ResultLine, to_json(line)) == line
    config = ProviderConfig(name="n", endpoint="http://127.0.0.1:9/v1", model="m", auth_env="KEY", temperature=0.5)
    assert from_json(ProviderConfig, json.loads(json.dumps(to_json(config)))) == config


FULL_GRID = SuiteConfig(pair_count=3, request_types=tuple(RequestType), connectives=("and", "or", "diff"),
                        n_conditions=(1, 2, 3), levels=(StructuringLevel.NATURAL,), portions=(0.0, 0.25, 0.5, 1.0),
                        seed=9, min_support=2, max_resample=10, mode=Mode.TWO_TURN)


@pytest.mark.parametrize("config", [
    pytest.param(SuiteConfig(), id="default grid"),
    pytest.param(FULL_GRID, id="full grid"),
])
def test_suite_config_round_trip(config):
    assert from_json(SuiteConfig, json.loads(json.dumps(to_json(config)))) == config


@pytest.mark.parametrize("config", [
    pytest.param(HarnessConfig(dataset="soccer", suite=SuiteConfig()), id="defaults"),
    pytest.param(HarnessConfig(dataset="pii", suite=FULL_GRID, sample_n=0, models=(
        ProviderConfig(name="a", endpoint="e", model="m", auth_env="K"),
        ProviderConfig(name="b", endpoint="e", model="m", auth_env="K", timeout_s=5.0, max_in_flight=1),
    )), id="full"),
])
def test_harness_config_round_trip(config):
    assert from_json(HarnessConfig, json.loads(json.dumps(to_json(config)))) == config


def test_a_missing_field_with_a_default_takes_it():
    assert from_json(GoldAnswer, {"kind": "entity_set", "keys": ["Messi"]}) == EntitySet(frozenset({"Messi"}))
    assert from_json(ProviderConfig, {"name": "n", "endpoint": "e", "model": "m", "auth_env": "K"}) == ProviderConfig(
        "n", "e", "m", "K")


def test_a_float_takes_an_integer_and_stores_a_float():
    number = from_json(GoldAnswer, {"kind": "number", "value": 3})
    assert number == Number(3.0) and type(number.value) is float
    assert type(from_json(ProviderConfig, {"name": "n", "endpoint": "e", "model": "m", "auth_env": "K",
                                           "timeout_s": 5}).timeout_s) is float


def test_an_enum_is_written_as_its_value():
    assert to_json(StructuringLevel.TABLE) == "table"
    assert from_json(StructuringLevel, "natural") is StructuringLevel.NATURAL


@pytest.mark.parametrize("cls", [StructuringLevel, RequestType, Mode])
def test_an_enum_takes_each_value_and_each_member_as_its_member(cls):
    for member in cls:
        assert from_json(cls, member.value) is member
        assert from_json(cls, member) is member


@pytest.mark.parametrize("cls", [StructuringLevel, RequestType, Mode])
@pytest.mark.parametrize("value", ["bogus", ["table"], {"value": "table"}, 1, True, None])
def test_an_enum_refuses_what_is_none_of_its_values(cls, value):
    """An unknown value, a list and an object, hashable or not, are refused
    with the same message."""
    with pytest.raises(CodecError) as raised:
        from_json(cls, value)
    assert str(raised.value) == f"value must be {cls.__name__}, got {value!r}"


def test_a_value_already_decoded_is_taken_as_it_is():
    gold, keys = EXAMPLES[GoldAnswer][0], ("Messi", "Neymar")
    assert from_json(GoldAnswer, gold) is gold
    assert from_json(tuple[str, ...], keys) is keys


def test_a_dict_takes_an_object_of_its_values():
    assert from_json(dict[str, tuple[str, ...]], {"Club": ["at {value}"], "League": []}) == {
        "Club": ("at {value}",), "League": ()}
    bank = from_json(PhraseBank, {"frames": [{"head": "{key} plays", "order": ["Club"]}],
                                  "clauses": {"Club": ["at {value}", "for {value}"]}})
    assert bank == PhraseBank((SentenceFrame("{key} plays", ("Club",)),), {"Club": ("at {value}", "for {value}")})


SUM_PLAN = to_json(Sum(target_attr="Number", expr=PLAN_EXPR))
RELATION_GOLD = {"columns": ["Name", "Number"], "key": "Name", "kind": "relation", "rows": [["Messi", "10"]]}
REMOTE = {"name": "n", "endpoint": "http://127.0.0.1:9/v1", "model": "m", "auth_env": "KEY"}
LINE = {"attempts": 1, "error": None, "id": "x", "model": "m", "text": "ANSWER:\n3"}


@pytest.mark.parametrize("tp,obj,error,message", [
    # a union of kind-tagged classes picks its class by kind
    pytest.param(QueryPlan, {**SUM_PLAN, "kind": "retrieval"}, CodecError,
                 "kind must be 'retrieve' | 'delete' | 'update' | 'count' | 'sum' | 'superlative' | 'exists' | "
                 "'project', got 'retrieval'", id="unknown kind"),
    pytest.param(GoldAnswer, {"keys": []}, CodecError,
                 "kind must be 'entity_set' | 'tuple_set' | 'relation' | 'number' | 'witnessed', got None",
                 id="no kind"),
    # a field without a default must be there, and no key the class lacks
    pytest.param(QueryPlan, {k: v for k, v in SUM_PLAN.items() if k != "target_attr"}, CodecError,
                 "target_attr must be str, got nothing", id="missing field"),
    pytest.param(QueryPlan, {**SUM_PLAN, "negated": False}, CodecError, "unknown key 'negated'", id="unknown key"),
    pytest.param(ProviderConfig, {**REMOTE, "max_retires": 0}, CodecError, "unknown key 'max_retires'",
                 id="unknown models key"),
    # each scalar is exactly its type; a bool is not an int or a float
    pytest.param(QueryPlan, {**SUM_PLAN, "target_attr": ["Number"]}, CodecError,
                 "target_attr must be str, got ['Number']", id="str"),
    pytest.param(QueryPlan, to_json(Exists(PLAN_EXPR)) | {"negated": 1}, CodecError, "negated must be bool, got 1",
                 id="bool"),
    pytest.param(QueryPlan, to_json(Exists(PLAN_EXPR)) | {"negated": "true"}, CodecError,
                 "negated must be bool, got 'true'", id="bool from a string"),
    pytest.param(GoldAnswer, {"kind": "number", "value": "10"}, CodecError, "value must be float, got '10'",
                 id="float"),
    pytest.param(GoldAnswer, {"kind": "number", "value": True}, CodecError, "value must be float, got True",
                 id="float from a bool"),
    pytest.param(ResultLine, {**LINE, "attempts": True}, CodecError, "attempts must be int, got True",
                 id="int from a bool"),
    pytest.param(ProviderConfig, {**REMOTE, "max_in_flight": "4"}, CodecError,
                 "max_in_flight must be int, got '4'", id="int from a string"),
    pytest.param(ResultLine, {**LINE, "text": 5}, CodecError, "text must be str | None, got 5", id="optional"),
    pytest.param(StructuringLevel, "tabular", CodecError, "value must be StructuringLevel, got 'tabular'",
                 id="enum"),
    # a tuple or a frozenset takes a list of its items
    pytest.param(QueryPlan, to_json(Project(("Name",), PLAN_EXPR)) | {"attrs": "Name"}, CodecError,
                 "attrs must be tuple[str, ...], got 'Name'", id="tuple"),
    pytest.param(GoldAnswer, {"kind": "entity_set", "keys": "Messi"}, CodecError,
                 "keys must be frozenset[str], got 'Messi'", id="frozenset"),
    pytest.param(GoldAnswer, {"kind": "entity_set", "keys": [1, 2]}, CodecError,
                 "keys must be frozenset[str], got [1, 2]", id="frozenset item"),
    pytest.param(GoldAnswer, {"kind": "witnessed", "witnesses": "Messi"}, CodecError,
                 "witnesses must be frozenset[str], got 'Messi'", id="witnesses"),
    pytest.param(GoldAnswer, {"kind": "entity_set", "keys": ["Messi"], "degenerate": 1}, CodecError,
                 "degenerate must be bool, got 1", id="degenerate"),
    pytest.param(GoldAnswer, {"kind": "tuple_set", "tuples": "ab"}, CodecError,
                 "tuples must be frozenset[tuple[str, ...]], got 'ab'", id="tuple_set tuples"),
    pytest.param(GoldAnswer, {"kind": "tuple_set", "tuples": [["Messi", 10]]}, CodecError,
                 "tuples must be frozenset[tuple[str, ...]], got [['Messi', 10]]", id="nested item"),
    pytest.param(GoldAnswer, {**RELATION_GOLD, "rows": [["Messi", 7]]}, CodecError,
                 "rows must be tuple[tuple[str, ...], ...], got [['Messi', 7]]", id="relation cell"),
    pytest.param(GoldAnswer, {**RELATION_GOLD, "columns": "Name"}, CodecError,
                 "columns must be tuple[str, ...], got 'Name'", id="relation columns"),
    pytest.param(ConditionExpr, {"kind": "and", "children": [5, 6]}, CodecError,
                 "children must be tuple[ConditionExpr, ...], got [5, 6]", id="expression children"),
    pytest.param(ResultLine, [1], CodecError, "value must be ResultLine, got [1]", id="not an object"),
    # a dict takes an object of its values
    pytest.param(TemplatePack, {"footers": ["ANSWER:"]}, CodecError, "footers must be dict[str, str], got ['ANSWER:']",
                 id="dict from a list"),
    pytest.param(TemplatePack, {"footers": {"count": 5}}, CodecError, "footers must be dict[str, str], got {'count': 5}",
                 id="dict value"),
    pytest.param(PhraseBank, {"frames": [], "clauses": {"Club": "at {value}"}}, CodecError,
                 "clauses must be dict[str, tuple[str, ...]], got {'Club': 'at {value}'}", id="dict of tuples"),
    # a class's own checks run on the values it is built from
    pytest.param(GoldAnswer, {**RELATION_GOLD, "rows": [["Messi"]]}, PlanError,
                 "row ['Messi'] is not 2 cells wide", id="relation row width"),
    pytest.param(GoldAnswer, {**RELATION_GOLD, "key": "Club"}, PlanError,
                 "key 'Club' is not one of the columns ['Name', 'Number']", id="relation key"),
    pytest.param(GoldAnswer, {**RELATION_GOLD, "rows": [["Messi", "10"], [" messi", "7"]]}, DuplicateKeyError,
                 "duplicate key ' messi'", id="relation duplicate key"),
    pytest.param(ResultLine, {**LINE, "text": None}, GatewayError,
                 "exactly one of text and error must be set, got neither", id="result neither"),
    pytest.param(ResultLine, {**LINE, "error": "provider: 500"}, GatewayError,
                 "exactly one of text and error must be set, got both", id="result both"),
    pytest.param(ProviderConfig, {**REMOTE, "max_in_flight": 0}, GatewayError,
                 "max_in_flight must be at least 1, got 0", id="models range"),
    pytest.param(ProviderConfig, {**REMOTE, "auth_env": ""}, GatewayError, "auth_env must be non-empty, got ''",
                 id="models empty string"),
    pytest.param(SuiteConfig, {"pair_count": -1}, GenError, "pair_count must be at least 0, got -1",
                 id="grid pair_count"),
    pytest.param(SuiteConfig, {"max_resample": -1}, GenError, "max_resample must be at least 0, got -1",
                 id="grid max_resample"),
    pytest.param(SuiteConfig, {"min_support": 0}, GenError, "min_support must be at least 1, got 0",
                 id="grid min_support"),
    pytest.param(SuiteConfig, {"n_conditions": [2, 0]}, GenError, "n_conditions must each be at least 1, got 0",
                 id="grid n_conditions"),
    pytest.param(SuiteConfig, {"connectives": ["and", "xor"]}, GenError,
                 "connectives must each be one of ('and', 'or', 'diff'), got 'xor'", id="grid connective"),
    pytest.param(SuiteConfig, {"portions": [0.3]}, GenError,
                 "portions must each be one of (0.0, 0.25, 0.5, 1.0), got 0.3", id="grid portion"),
    pytest.param(SuiteConfig, {"levels": ["table", "natural", "table"]}, GenError,
                 "levels must not repeat a value, got ['table', 'natural', 'table']", id="grid repeat"),
    pytest.param(SuiteConfig, {"mode": "three_turn"}, CodecError, "mode must be Mode, got 'three_turn'",
                 id="grid mode"),
    pytest.param(HarnessConfig, {"dataset": "", "suite": {}}, ConfigError, "dataset must be non-empty, got ''",
                 id="config dataset"),
    pytest.param(HarnessConfig, {"dataset": "soccer", "suite": {}, "sample_n": -1}, ConfigError,
                 "sample_n must be at least 0, got -1", id="config sample_n"),
    pytest.param(HarnessConfig, {"dataset": "soccer", "suite": {}, "models": [REMOTE, REMOTE]}, ConfigError,
                 "models: name 'n' is given to more than one entry", id="config model names"),
    pytest.param(HarnessConfig, {"dataset": "soccer", "suite": {"portions": [0.5], "levels": ["natural", "table"]}},
                 ConfigError, "portions: a partial mix has no structuring level, so it takes at most one level, "
                 "got levels ['natural', 'table']", id="config portions with levels"),
])
def test_rejections(tp, obj, error, message):
    with pytest.raises(error) as raised:
        from_json(tp, obj)
    assert str(raised.value) == message


def test_a_request_instance_reads_its_plan_and_gold_by_kind(f2):
    plan = Exists(PLAN_EXPR, negated=True)
    instance = RequestInstance(id="i", dataset="soccer", template_id=0, connective="and",
                               level=StructuringLevel.TABLE, portion=None, plan=plan, prompt="p", context="c",
                               pre_instruction=None, gold=evaluate(plan, f2), entity_keys=("Messi",))
    payload = json.loads(json.dumps(to_json(instance)))
    assert payload["level"] == "table" and payload["plan"]["kind"] == "exists"
    assert from_json(RequestInstance, payload) == instance
    del payload["mode"], payload["resamples"]
    assert from_json(RequestInstance, payload) == instance
