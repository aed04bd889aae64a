from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from tabbench import requestgen
from tabbench.condgen import GenError
from tabbench.oracle import AND, DIFF, EQ, OR, And, Condition, Diff, Or, QueryPlan, Witnessed, evaluate
from tabbench.requestgen import (
    CORE_TYPES,
    PromptTemplate,
    RequestInstance,
    RequestType,
    SHARED_FIELDS,
    SuiteConfig,
    SuiteFormatError,
    TemplateMismatchError,
    dump_suite,
    expr_phrase,
    generate_suite,
    load_suite,
    make_pre_instruction,
)
from tabbench.requesttypes import ROWS
from tabbench.runio import from_json, to_json
from tabbench.structurer import StructuringLevel, render, render_partial

from conftest import eq, instances_per_type, instantiate_one, tiny_soccer_pack


@pytest.fixture
def pack(f2):
    return tiny_soccer_pack(f2)


def retrieval_expr():
    return And((
        Condition("Nationality", EQ, "Argentina", "nationality is Argentina"),
        Condition("Number", EQ, "10", "number is 10"),
    ))


def test_template_pack_shape(pack):
    for request_type in RequestType:
        templates = pack.templates.templates_for(request_type)
        assert len(templates) == 3
        assert [t.template_id for t in templates] == [0, 1, 2]
        assert pack.templates.footer_for(request_type)
    assert len(pack.templates.templates_for(RequestType.EXISTENCE, negated=True)) == 3


def test_template_requires_conditions_slot():
    with pytest.raises(TemplateMismatchError):
        PromptTemplate(RequestType.RETRIEVAL, 0, "Give me everything.")
    with pytest.raises(TemplateMismatchError):
        PromptTemplate(RequestType.RETRIEVAL, 0, "{conditions} and {conditions}")


def test_instantiate_retrieval_prompt(pack, f2):
    template = pack.templates.templates_for(RequestType.RETRIEVAL)[0]
    expr = retrieval_expr()
    instance = instantiate_one(RequestType.RETRIEVAL, template, expr, (), f2,
                               StructuringLevel.TABLE, 5, pack=pack)
    assert instance.prompt.startswith("Give me the soccer players with")
    for leaf in ("nationality is Argentina", "number is 10"):
        assert leaf in instance.prompt
    assert instance.context == render(f2, StructuringLevel.TABLE, 5, pack.bank)
    assert instance.gold == evaluate(instance.plan, f2)
    assert instance.entity_keys == f2.keys()
    assert "ANSWER:" in instance.prompt


def test_instantiate_negated_existence_prompt(pack, f2):
    template = pack.templates.templates_for(RequestType.EXISTENCE, negated=True)[0]
    instance = instantiate_one(RequestType.EXISTENCE, template, retrieval_expr(), (), f2,
                               StructuringLevel.TABLE, 0, pack=pack)
    assert instance.prompt.startswith("Is it true that there are no")
    assert instance.plan.negated is True
    assert instance.negated is True


def test_instantiate_update_requires_target(pack, f2):
    template = pack.templates.templates_for(RequestType.UPDATE)[0]
    with pytest.raises(TemplateMismatchError):
        instantiate_one(RequestType.UPDATE, template, retrieval_expr(), (), f2,
                        StructuringLevel.TABLE, 0, pack=pack)


def test_instantiate_rejects_unexpected_target(pack, f2):
    template = pack.templates.templates_for(RequestType.COUNT)[0]
    with pytest.raises(TemplateMismatchError):
        instantiate_one(RequestType.COUNT, template, retrieval_expr(), ("Number",), f2,
                        StructuringLevel.TABLE, 0, pack=pack)


def test_instantiate_type_template_mismatch(pack, f2):
    template = pack.templates.templates_for(RequestType.DELETION)[0]
    with pytest.raises(TemplateMismatchError):
        instantiate_one(RequestType.RETRIEVAL, template, retrieval_expr(), (), f2,
                        StructuringLevel.TABLE, 0, pack=pack)


def test_update_template_zero_wording(pack, f2):
    template = pack.templates.templates_for(RequestType.UPDATE)[0]
    instance = instantiate_one(RequestType.UPDATE, template, retrieval_expr(), ("Number",), f2,
                               StructuringLevel.TABLE, 0, pack=pack)
    assert instance.prompt.startswith("Replace the uniform numbers of soccer players to N/A if")


def test_expr_phrase_connectives(f2):
    a, b = eq("Nationality", "Argentina"), eq("Number", "10")
    assert expr_phrase(f2, And((a, b))) == "nationality is Argentina and number is 10"
    assert expr_phrase(f2, Or((a, b))) == "nationality is Argentina or number is 10"
    diff = Diff(
        Condition("Number", EQ, "10", "uniform number is 10"),
        Condition("Nationality", EQ, "Argentina", "nationality is Argentina"),
    )
    assert expr_phrase(f2, diff) == "uniform number is 10 and nationality is not Argentina"


def test_pre_instruction_variants(pack):
    assert make_pre_instruction("soccer players") == "Create a table of soccer players."
    with_columns = make_pre_instruction("movies", ("movie title", "director name", "movie length"))
    assert with_columns == "Create a table of movies with columns: movie title, director name, movie length."
    with pytest.raises(GenError):
        make_pre_instruction("")


def test_suite_size_single_slot(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.RETRIEVAL,),
                         connectives=(AND,), seed=1)
    assert len(generate_suite(f2, config, pack)) == 3


def test_suite_size_formula_over_grid(pack, f2):
    grids = [
        dict(pair_count=2, request_types=(RequestType.RETRIEVAL, RequestType.COUNT),
             connectives=(AND, OR), levels=(StructuringLevel.TABLE, StructuringLevel.NATURAL)),
        dict(pair_count=1, request_types=(RequestType.EXISTENCE,), connectives=(AND,)),
        dict(pair_count=2, request_types=(RequestType.SUM,), connectives=(OR,),
             n_conditions=(1, 2, 3)),
        dict(pair_count=1, request_types=(RequestType.RETRIEVAL,), connectives=(AND,),
             portions=(0.0, 0.5, 1.0)),
    ]
    for grid in grids:
        config = SuiteConfig(seed=3, **grid)
        suite = generate_suite(f2, config, pack)
        expected = sum(instances_per_type(config, t) for t in config.request_types)
        assert len(suite) == expected


def test_ablation_grid_size(pack, f2):
    # conditions 1..3 over the three eligible attributes; or-joins keep support
    config = SuiteConfig(pair_count=10, request_types=(RequestType.RETRIEVAL,),
                         connectives=(OR,), n_conditions=(1, 2, 3), seed=5)
    suite = generate_suite(f2, config, pack)
    assert len(suite) == 10 * 1 * 3 * 3


def test_suite_deterministic_serialization(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.RETRIEVAL, RequestType.EXISTENCE),
                         seed=21)
    first = dump_suite(generate_suite(f2, config, pack))
    second = dump_suite(generate_suite(f2, config, pack))
    assert first == second


def test_templates_share_conditions_across_wordings(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.RETRIEVAL,), seed=9)
    suite = generate_suite(f2, config, pack)
    # consecutive triples are the three wordings of one (pair, connective) slot
    for start in range(0, len(suite), 3):
        triple = suite[start : start + 3]
        assert {i.template_id for i in triple} == {0, 1, 2}
        assert len({i.plan.expr for i in triple}) == 1
        assert len({i.prompt for i in triple}) == 3


def test_gold_reproducible_from_serialized_plan(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=CORE_TYPES, seed=2)
    suite = generate_suite(f2, config, pack)
    for instance in load_suite(dump_suite(suite)):
        payload = to_json(instance)
        plan = from_json(QueryPlan, payload["plan"])
        assert to_json(evaluate(plan, f2)) == payload["gold"]


def test_instance_json_round_trip(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.PROJECTION, RequestType.EXISTENCE),
                         seed=6)
    for instance in generate_suite(f2, config, pack):
        assert from_json(RequestInstance, to_json(instance)) == instance


def test_instance_reads_what_was_asked_from_plan_and_gold(pack, f2):
    names = {f.name for f in dataclasses.fields(RequestInstance)}
    assert len(names) == 14 and not names & {"expr", "target", "n_conditions", "negated", "request_type"}
    assert [f.name for f in dataclasses.fields(Witnessed)] == ["witnesses"]
    config = SuiteConfig(pair_count=2, request_types=(RequestType.EXISTENCE,), connectives=(OR,),
                         n_conditions=(3,), seed=4)
    suite = generate_suite(f2, config, pack)
    assert {i.negated for i in suite} == {False, True}
    assert all(i.negated is i.plan.negated and i.n_conditions == 3 for i in suite)
    assert all(i.gold.value is bool(i.gold.witnesses) for i in suite)
    for line in dump_suite(suite).splitlines():
        obj = json.loads(line)
        assert not obj.keys() & {"expr", "target", "n_conditions", "negated", "request_type"}
        assert "value" not in obj["gold"]


def test_suite_text_round_trip(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.SUPERLATIVE,), seed=4)
    suite = generate_suite(f2, config, pack)
    assert load_suite(dump_suite(suite)) == suite


def test_request_type_is_read_from_the_plan_through_the_codec(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=tuple(RequestType), connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    assert [i.request_type for i in suite] == [t for t in RequestType for _ in range(3 * len(ROWS[t].wordings))]
    text = dump_suite(suite)
    assert all("request_type" not in json.loads(line) for line in text.splitlines())
    loaded = load_suite(text)
    assert loaded == suite
    assert [i.request_type for i in loaded] == [i.request_type for i in suite]
    assert all(f"-{i.request_type.value}-" in i.id for i in loaded)


def test_suite_line_with_a_request_type_key_loads_the_same(pack, f2):
    """Suites written before the type was read from the plan state it on
    every line; such a line loads to the same instance."""
    config = SuiteConfig(pair_count=1, request_types=(RequestType.EXISTENCE, RequestType.PROJECTION),
                         connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    old_lines = []
    for instance, line in zip(suite, dump_suite(suite).splitlines()):
        obj = json.loads(line)
        obj["request_type"] = instance.request_type.value
        old_lines.append(json.dumps(obj, sort_keys=True) + "\n")
    assert load_suite("".join(old_lines)) == suite


def test_suite_line_with_a_wrong_plan_field_does_not_load(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.EXISTENCE,), connectives=(AND,), seed=5)
    lines = dump_suite(generate_suite(f2, config, pack)).splitlines()
    obj = json.loads(lines[1])
    obj["plan"]["negated"] = "yes"
    lines[1] = json.dumps(obj, sort_keys=True)
    with pytest.raises(SuiteFormatError, match="line 2: .*negated must be bool, got 'yes'"):
        load_suite("\n".join(lines))


@pytest.mark.parametrize("key,value,message", [
    ("template_id", "x", "template_id must be int, got 'x'"),
    ("prompt", 5, "prompt must be str, got 5"),
    ("context", 5, "context must be str, got 5"),
    ("portion", "half", "portion must be float \\| None, got 'half'"),
    ("entity_keys", "abc", "entity_keys must be tuple\\[str, ...\\], got 'abc'"),
    ("entity_keys", [1], "entity_keys must be tuple\\[str, ...\\], got \\[1\\]"),
    ("mode", "three_turn", "mode must be Mode, got 'three_turn'"),
    # a boolean is not a number, though Python's bool is an int
    ("template_id", True, "template_id must be int, got True"),
    ("portion", False, "portion must be float \\| None, got False"),
    ("resamples", True, "resamples must be int, got True"),
])
def test_suite_line_with_a_value_of_the_wrong_type_does_not_load(pack, f2, key, value, message):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.COUNT,), connectives=(AND,), seed=5)
    lines = dump_suite(generate_suite(f2, config, pack)).splitlines()
    # the first line states the shared values in full
    obj = json.loads(lines[0])
    obj[key] = value
    lines[0] = json.dumps(obj, sort_keys=True)
    with pytest.raises(SuiteFormatError, match=f"line 1: .*{message}"):
        load_suite("\n".join(lines))


def test_suite_states_each_shared_value_once(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.DELETION, RequestType.EXISTENCE),
                         levels=(StructuringLevel.NATURAL, StructuringLevel.TABLE), seed=4)
    suite = generate_suite(f2, config, pack)
    text = dump_suite(suite)
    full = "".join(json.dumps(to_json(i), sort_keys=True) + "\n" for i in suite)
    assert len(text) < len(full)
    # a suite with every value in full, as written before refs, loads to the same instances
    loaded = load_suite(text)
    assert loaded == load_suite(full)

    first_id: dict[tuple[str, str], str] = {}
    for line, instance in zip(text.splitlines(), suite):
        obj = json.loads(line)
        full_obj = to_json(instance)
        assert obj.keys() == full_obj.keys()
        for key, value in obj.items():
            if key not in SHARED_FIELDS:
                assert value == full_obj[key]
                continue
            canonical = json.dumps(full_obj[key], sort_keys=True)
            source = first_id.setdefault((key, canonical), instance.id)
            assert value == (full_obj[key] if source == instance.id else {"same_as": source})
    assert {key for key, _ in first_id} == set(SHARED_FIELDS)

    # equal values are one object after loading
    for field in SHARED_FIELDS:
        objects = {}
        for instance in loaded:
            value = getattr(instance, field)
            assert objects.setdefault(json.dumps(to_json(instance)[field], sort_keys=True),
                                      value) is value
        assert len(objects) < len(loaded)


def test_suite_ordering_matches_ids(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.RETRIEVAL, RequestType.COUNT), seed=3)
    suite = generate_suite(f2, config, pack)
    ids = [i.id for i in suite]
    assert ids == sorted(ids)


def test_two_turn_mode_sets_pre_instruction(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.RETRIEVAL,),
                         connectives=(AND,), seed=8, mode="two_turn")
    suite = generate_suite(f2, config, pack)
    assert all(i.mode == "two_turn" for i in suite)
    assert all(i.pre_instruction == "Create a table of soccer players." for i in suite)


def test_ablation_grid_reference_arithmetic():
    """10 pairs x {or} x 3 templates x condition counts 1..5 = 150 instances,
    on the full builtin pack whose five non-key attributes support n=5."""
    from tabbench.datasets import load_pack
    from tabbench.relation import sample_entities

    pack = load_pack("soccer")
    rel = sample_entities(pack.relation, 100, 4)
    config = SuiteConfig(pair_count=10, request_types=(RequestType.RETRIEVAL,),
                         connectives=(OR,), n_conditions=(1, 2, 3, 4, 5), seed=12)
    suite = generate_suite(rel, config, pack)
    assert len(suite) == 150
    assert {i.n_conditions for i in suite} == {1, 2, 3, 4, 5}


# every level, partial mixes, two-turn mode, negated existence and diff
PINNED_CONFIG = SuiteConfig(
    pair_count=2,
    request_types=(RequestType.EXISTENCE, RequestType.SUPERLATIVE, RequestType.DELETION),
    connectives=(AND, OR, DIFF),
    levels=tuple(StructuringLevel),
    portions=(None, 0.0, 0.25, 0.5, 1.0),
    seed=13,
    mode="two_turn",
)


def test_suite_bytes_pinned(pack, f2):
    """The digest was computed from the suite of the commit before the request
    type was read from the plan (digest 4220b818...6fd6): each line of its
    dump of this config lost its `request_type` key and was re-dumped with
    sort_keys=True (which, with no key removed, gives that dump byte for
    byte). That digest came from the one before shared values were written
    once (668a726e...8f98): walking its dump in order, a `context`,
    `entity_keys` or `gold` value whose json.dumps(..., sort_keys=True) an
    earlier line already had became {"same_as": <id of the first such line>}.
    The suite text, instance order and ids must not move."""
    text = dump_suite(generate_suite(f2, PINNED_CONFIG, pack))
    assert len(text.splitlines()) == 1440
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "c3322c0d65e61d09a76f38f2c14eee2016f3e3fe9eacbc40ff304679ea1d182a"
    )


def test_suite_renders_per_cell_and_evaluates_per_slot(pack, f2, monkeypatch):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.EXISTENCE, RequestType.COUNT),
                         connectives=(AND, OR), n_conditions=(1, 2),
                         levels=(StructuringLevel.NATURAL, StructuringLevel.TABLE),
                         portions=(None, 0.5), seed=17)
    expected = dump_suite(generate_suite(f2, config, pack))
    calls = {"render": 0, "render_partial": 0, "evaluate": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(requestgen, "render", counting("render", render))
    monkeypatch.setattr(requestgen, "render_partial", counting("render_partial", render_partial))
    monkeypatch.setattr(requestgen, "evaluate", counting("evaluate", evaluate))
    assert dump_suite(generate_suite(f2, config, pack)) == expected

    slots = len(config.request_types) * len(config.n_conditions) * config.pair_count
    # one context per (type, n, pair, level, portion); one gold per (type, n, pair, connective, negation)
    assert calls["render"] == slots * len(config.levels)
    assert calls["render_partial"] == slots * len(config.levels)
    assert calls["evaluate"] == len(config.n_conditions) * config.pair_count * len(config.connectives) * sum(
        len(ROWS[t].wordings) for t in config.request_types)
