from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from tabbench import requestgen
from tabbench.condgen import GenError
from tabbench.datasets import BUILTIN_PACKS
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

from conftest import (
    eq,
    every_key_on_every_line,
    footer_in_prompt,
    instances_per_type,
    instantiate_one,
    tiny_soccer_pack,
)


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
    assert "ANSWER:" in instance.footer and "ANSWER:" not in instance.prompt


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
    for instance in load_suite(dump_suite(suite).splitlines()):
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
    assert len(names) == 16 and not names & {"expr", "target", "n_conditions", "negated", "request_type"}
    assert [f.name for f in dataclasses.fields(Witnessed)] == ["witnesses"]
    config = SuiteConfig(pair_count=2, request_types=(RequestType.EXISTENCE,), connectives=(OR,),
                         n_conditions=(3,), seed=4)
    suite = generate_suite(f2, config, pack)
    assert {i.negated for i in suite} == {False, True}
    assert all(i.negated is i.plan.negated and i.n_conditions == 3 for i in suite)
    assert all(i.gold.value is bool(i.gold.witnesses) for i in suite)
    for line in every_key_on_every_line(dump_suite(suite)).splitlines():
        obj = json.loads(line)
        assert not obj.keys() & {"expr", "target", "n_conditions", "negated", "request_type"}
        assert "value" not in obj["gold"]


def test_suite_states_each_request_types_footer_once(pack, f2):
    """Every instance carries its request type's answer footer, apart from the
    prompt; the dump states it on the first line of each type, unless the type
    before has the same footer (sum and count do), and the lines after take it
    from the line before."""
    config = SuiteConfig(pair_count=1, request_types=tuple(RequestType), connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    assert all(i.footer == pack.templates.footer_for(i.request_type) for i in suite)
    assert not any(i.footer in i.prompt for i in suite)
    text = dump_suite(suite)
    stating = [json.loads(line)["id"] for line in text.splitlines() if "footer" in json.loads(line)]
    firsts = [next(i for i in suite if i.request_type is t) for t in RequestType]
    assert [i.request_type for i in firsts][4:6] == [RequestType.SUM, RequestType.COUNT]
    assert stating == [i.id for n, i in enumerate(firsts) if n == 0 or i.footer != firsts[n - 1].footer]
    assert len(stating) == len(RequestType) - 1
    assert list(load_suite(text.splitlines())) == suite


def test_suite_text_round_trip(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.SUPERLATIVE,), seed=4)
    suite = generate_suite(f2, config, pack)
    assert list(load_suite(dump_suite(suite).splitlines())) == suite


def test_request_type_is_read_from_the_plan_through_the_codec(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=tuple(RequestType), connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    assert [i.request_type for i in suite] == [t for t in RequestType for _ in range(3 * len(ROWS[t].wordings))]
    text = dump_suite(suite)
    assert all("request_type" not in json.loads(line) for line in text.splitlines())
    loaded = list(load_suite(text.splitlines()))
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
    assert list(load_suite(old_lines)) == suite


def test_suite_line_with_a_wrong_plan_field_does_not_load(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.EXISTENCE,), connectives=(AND,), seed=5)
    lines = dump_suite(generate_suite(f2, config, pack)).splitlines()
    # line 4 is the first negated wording: it states its plan in full
    obj = json.loads(lines[3])
    obj["plan"]["negated"] = "yes"
    lines[3] = json.dumps(obj, sort_keys=True)
    with pytest.raises(SuiteFormatError, match="line 4: .*negated must be bool, got 'yes'"):
        list(load_suite(lines))


def test_suite_lines_are_decoded_as_they_are_reached(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.COUNT,), connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    lines = dump_suite(suite).splitlines()
    lines[2] = "{"
    read = []

    def reading():
        for line in lines:
            read.append(line)
            yield line

    instances = load_suite(reading())
    assert read == []
    assert [next(instances), next(instances)] == suite[:2]
    assert read == lines[:2]
    with pytest.raises(SuiteFormatError, match="line 3: not a suite instance"):
        next(instances)


def test_suite_line_repeating_an_id_does_not_load(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.COUNT,), connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    lines = dump_suite(suite).splitlines()
    obj = json.loads(lines[2])
    obj["id"] = suite[0].id
    lines[2] = json.dumps(obj, sort_keys=True)
    with pytest.raises(SuiteFormatError, match=f"line 3: id '{suite[0].id}' is already the id of line 1"):
        list(load_suite(lines))


def test_suite_line_same_as_a_line_that_does_not_state_the_value_does_not_load(pack, f2):
    config = SuiteConfig(pair_count=1, request_types=(RequestType.COUNT,), connectives=(AND,), seed=5)
    suite = generate_suite(f2, config, pack)
    lines = every_key_on_every_line(dump_suite(suite)).splitlines()
    assert json.loads(lines[1])["context"] == {"same_as": suite[0].id}
    obj = json.loads(lines[2])
    obj["context"] = {"same_as": suite[1].id}
    lines[2] = json.dumps(obj, sort_keys=True)
    with pytest.raises(SuiteFormatError, match="line 3: context is the same as .*, but line 2 does not state it"):
        list(load_suite(lines))


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
        list(load_suite(lines))


def test_suite_states_each_shared_value_once(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.DELETION, RequestType.EXISTENCE),
                         levels=(StructuringLevel.NATURAL, StructuringLevel.TABLE), seed=4)
    suite = generate_suite(f2, config, pack)
    text = dump_suite(suite)
    full = "".join(json.dumps(to_json(i), sort_keys=True) + "\n" for i in suite)
    assert len(text) < len(full)
    # a suite with every value in full, as written before refs, loads to the same instances
    loaded = list(load_suite(text.splitlines()))
    assert loaded == list(load_suite(full.splitlines()))

    first_id: dict[tuple[str, str], str] = {}
    for line, instance in zip(every_key_on_every_line(text).splitlines(), suite):
        obj = json.loads(line)
        full_obj = to_json(instance)
        assert obj.keys() == full_obj.keys()
        for key, value in obj.items():
            if key not in SHARED_FIELDS:
                assert value == full_obj[key]
                continue
            canonical = json.dumps(full_obj[key], sort_keys=True)
            source = first_id.setdefault((key, canonical), instance.id)
            if source != instance.id:
                assert value == {"same_as": source}
            elif key == "gold" and instance.request_type is RequestType.DELETION:
                # stated as the rows it drops from the line's relation
                dropped = [k for k in instance.relation.keys() if k not in instance.gold.key_set]
                assert value == {"edit": {"drop": dropped, "set": []}, "kind": "relation"}
            else:
                assert value == full_obj[key]
    assert {key for key, _ in first_id} == set(SHARED_FIELDS)

    # equal values are one object after loading
    for field in SHARED_FIELDS:
        objects = {}
        for instance in loaded:
            value = getattr(instance, field)
            assert objects.setdefault(json.dumps(to_json(instance)[field], sort_keys=True),
                                      value) is value
        assert len(objects) < len(loaded)


def test_suite_line_takes_each_key_it_leaves_out_from_the_line_before(pack, f2):
    """Past the first line, a line carries `id` and the keys whose values
    differ from the line before's; loading fills each key it leaves out with
    the object the instance before holds, across blank lines, so a deletion
    gold written as an edit is applied once and then passed on."""
    config = SuiteConfig(pair_count=2, request_types=(RequestType.DELETION, RequestType.COUNT),
                         levels=(StructuringLevel.NATURAL, StructuringLevel.TABLE), seed=4)
    suite = generate_suite(f2, config, pack)
    lines = dump_suite(suite).splitlines()
    names = [f.name for f in dataclasses.fields(RequestInstance)]
    left_out = [[name for name in names if name not in json.loads(line)] for line in lines]
    assert left_out[0] == [] and all("id" not in keys for keys in left_out)
    assert left_out[1] == [name for name in names if name not in ("id", "template_id", "prompt")]
    assert any("gold" in keys for keys, instance in zip(left_out, suite)
               if instance.request_type is RequestType.DELETION)

    loaded = list(load_suite(line for text in lines for line in (text, "", "  \n")))
    assert loaded == suite
    for number in range(1, len(loaded)):
        for name in left_out[number]:
            assert getattr(loaded[number], name) is getattr(loaded[number - 1], name)


@pytest.mark.parametrize("size", [1, 7, None])
def test_suite_dumped_in_batches_sharing_what_is_stated_joins_to_its_one_dump(pack, f2, size):
    config = SuiteConfig(pair_count=2, request_types=(RequestType.DELETION, RequestType.EXISTENCE),
                         levels=(StructuringLevel.NATURAL, StructuringLevel.TABLE), seed=4)
    suite = generate_suite(f2, config, pack)
    # the last line's context and keys equal the first line's, as other objects
    context, keys = "".join(list(suite[0].context)), tuple(list(suite[0].entity_keys))
    assert context == suite[0].context and context is not suite[0].context
    assert keys == suite[0].entity_keys and keys is not suite[0].entity_keys
    suite[-1] = dataclasses.replace(suite[-1], context=context, entity_keys=keys)
    size = size or len(suite)

    stated = {}
    batches = [dump_suite(suite[start:start + size], stated) for start in range(0, len(suite), size)]
    assert "".join(batches) == dump_suite(suite)

    # (id, field) of each same_as naming a line of an earlier batch
    batch_of = {instance.id: number // size for number, instance in enumerate(suite)}
    crossing = []
    for line in every_key_on_every_line("".join(batches)).splitlines():
        obj = json.loads(line)
        crossing += [(obj["id"], field) for field in SHARED_FIELDS if isinstance(obj[field], dict)
                     and obj[field].keys() == {"same_as"} and batch_of[obj[field]["same_as"]] != batch_of[obj["id"]]]
    if size < len(suite):
        assert (suite[-1].id, "context") in crossing and (suite[-1].id, "entity_keys") in crossing
        assert len(crossing) > 2
    else:
        assert crossing == []


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
    The next digest came from that one (c3322c0d...182a) the same way, when
    `plan` and `prompt` became shared fields: walking its dump in order, a
    `plan` or `prompt` value whose json.dumps(..., sort_keys=True) an earlier
    line already had became {"same_as": <id of the first such line>}, and
    each line was re-dumped with sort_keys=True. The present digest came from
    that one (d3b3ddb0...b380) when the sampled relation became a shared
    field and deletion and update golds edits of it; state_in_full(text, ())
    undoes that. The present digest came from that one (e60d4458...2e21) when
    a line began to leave out each key whose value equals the line before's;
    every_key_on_every_line undoes that. The present digest came from that
    one (01af5941...40ff) when each request type's answer footer moved out of
    the prompt into its own `footer` key, stated on the first line of each
    type here, as the three types' footers differ; footer_in_prompt undoes
    that, and state_in_full does it first. The suite text, instance order and
    ids must not move."""
    text = dump_suite(generate_suite(f2, PINNED_CONFIG, pack))
    assert len(text.splitlines()) == 1440
    assert text.count('"footer":') == len(PINNED_CONFIG.request_types)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "a9e948e2916442c79f3a3ead7fde5d2b005790172249ac63dc6156a1d6adbdb2"
    )
    assert hashlib.sha256(footer_in_prompt(text).encode("utf-8")).hexdigest() == (
        "01af5941a02f893e68e168324dc3d006124f979d19214509a1b7341465aa40ff"
    )
    assert hashlib.sha256(every_key_on_every_line(footer_in_prompt(text)).encode("utf-8")).hexdigest() == (
        "e60d445864f2914e41820695ab699747407863de8e5762b189ba824c2a132e21"
    )
    assert hashlib.sha256(state_in_full(text, ()).encode("utf-8")).hexdigest() == (
        "d3b3ddb0bd5483ab993d0be51433bacf34658cfb6704dae0d61fe187c5a6b380"
    )
    assert hashlib.sha256(state_in_full(text, ("plan", "prompt")).encode("utf-8")).hexdigest() == (
        "c3322c0d65e61d09a76f38f2c14eee2016f3e3fe9eacbc40ff304679ea1d182a"
    )


# natural, order_fixed and table over every request type and connective, n 1-3;
# diff takes exactly two conditions, so n=3 is asked under and/or only
PACK_CONFIGS = tuple(
    SuiteConfig(pair_count=2, request_types=tuple(RequestType), connectives=connectives, n_conditions=n,
                levels=(StructuringLevel.NATURAL, StructuringLevel.ORDER_FIXED, StructuringLevel.TABLE), seed=23)
    for connectives, n in (((AND, OR, DIFF), (1, 2)), ((AND, OR), (3,)))
)


def state_in_full(text, fields):
    """`text`, a suite dump, as it was dumped before the sampled relation was
    a shared field, and while `fields` were not shared either: each footer
    put back at the end of its prompt (footer_in_prompt), each key a line
    leaves out filled from the line before (every_key_on_every_line), each
    gold written as an edit replaced by the gold it makes of its line's
    relation, the `relation` key dropped, each {"same_as": id} of `fields`
    replaced by the value the line with that id states, and each line
    re-dumped with keys sorted."""
    stated = {}
    lines = []
    for line in every_key_on_every_line(footer_in_prompt(text)).splitlines():
        obj = json.loads(line)
        for field in ("relation", *fields):
            value = obj[field]
            if isinstance(value, dict) and value.keys() == {"same_as"}:
                obj[field] = stated[value["same_as"], field]
            else:
                stated[obj["id"], field] = value
        relation, gold = obj.pop("relation"), obj["gold"]
        if "edit" in gold:
            key = relation["columns"].index(relation["key"])
            changes = {(k, column): value for k, column, value in gold["edit"]["set"]}
            obj["gold"] = {**gold, "columns": relation["columns"], "key": relation["key"], "rows": [
                [changes.get((row[key], column), cell) for column, cell in zip(relation["columns"], row)]
                for row in relation["rows"] if row[key] not in gold["edit"]["drop"]]}
            del obj["gold"]["edit"]
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)


# each case is named by the digest of its dump from before `plan` and `prompt`
# were shared, which state_in_full recovers from the present dump
@pytest.mark.parametrize("name, unshared_digest, unrelated_digest, filled_digest, in_prompt_digest, digest", [
    pytest.param("soccer", "e61b0a973ed677af5c3ff2412b814f428c34edf6e70ede9953132e7d9ac90ebe",
                 "6f3abc8eb7d6904c7ddf38d7942a0915ca1a9ebd5c6304d7d51ffa521cefc412",
                 "9be6a92fe55168845b807e40d134c49d050e9056e9961a990ea870f9abd3a0e6",
                 "403d907a63d73a59fc6fe8913aa87f5808a13c0a1154aac2ea7c41c1bafa1ced",
                 "2fa602febc4c0a9a4cbf060e1ea971f13ba7ea0d90f2c51b2c85d14f4ed433cf",
                 id="soccer-e61b0a973ed677af5c3ff2412b814f428c34edf6e70ede9953132e7d9ac90ebe"),
    pytest.param("movie", "e814c692e46d1d0ddc4ca7e83acafec97a75f7d6bdfab28ae91205f5fe21cf72",
                 "354fafb2504ae78edf05700bcb9b1f74726c70ea797dcb0be6322a90f1077bf2",
                 "7941a38f601c0bd03761e47b8b773ac9bcb75739645a65573e9d899011f85461",
                 "55c1e4099eabf792160a2f7973b4b3a7cf0ada117e534c9022b8af355a60dc9e",
                 "8ec0e884a2eef341034d53023a7f99d0e401f0f28c085d2d604a64698fa56191",
                 id="movie-e814c692e46d1d0ddc4ca7e83acafec97a75f7d6bdfab28ae91205f5fe21cf72"),
    pytest.param("pii", "94798442c95e2d1e09b59be623065c1c330c820d3a89fff0e4f5da948a4bb13f",
                 "b8486880674207983c8d64ea2bac5c0dae1d2ac758157c7e7794070667e7e9ca",
                 "84fd75933a2eb4b5fe4c7b1153ca0cd884266c487248c7875d188b30ce4c471a",
                 "c7d7c3f672c865ae29d6fc7240e1d3c46511743f617f59fb5823e45923652019",
                 "3ad3f6831df10dd009160ed607d390112287db547872d111e5abe9064b7be94c",
                 id="pii-94798442c95e2d1e09b59be623065c1c330c820d3a89fff0e4f5da948a4bb13f"),
])
def test_pack_suite_bytes_pinned(name, unshared_digest, unrelated_digest, filled_digest, in_prompt_digest,
                                 digest):
    """Each built-in pack's phrase bank, schema and ops through the whole
    generator: the digest of the dumps of PACK_CONFIGS, one after the other,
    on 16 sampled entities. The conditions use every op the pack allows, and
    pii's e-mail column is drawn under `contains` as an @domain token. The
    digests were taken before render looked each wording up once per call and
    before condition scans were kept on the relation. When `plan` and `prompt`
    became shared fields they were re-pinned from those digests (the
    `unshared_digest` of each case): in each dump of the parent, walked in
    order, a `plan` or `prompt` value whose json.dumps(..., sort_keys=True) an
    earlier line of that dump already had became {"same_as": <id of the first
    such line>}, and each line was re-dumped with sort_keys=True. When the
    sampled relation became a shared field and deletion and update golds
    edits of it, they were re-pinned again from the digests of that time (the
    `unrelated_digest` of each case), which state_in_full(text, ()) recovers.
    When a line began to leave out each key whose value equals the line
    before's, they were re-pinned from the digests of that time (the
    `filled_digest` of each case), which every_key_on_every_line recovers.
    When each request type's answer footer moved out of the prompt into its
    own `footer` key, they were re-pinned from the digests of that time (the
    `in_prompt_digest` of each case), which footer_in_prompt recovers. All
    five must hold: the present dumps, those with each footer in its prompt,
    those with every key on every line too, those before the relation was
    shared, and those with `plan` and `prompt` stated in full again."""
    from tabbench.datasets import load_pack
    from tabbench.oracle import leaf_conditions
    from tabbench.relation import sample_entities

    pack = load_pack(name)
    rel = sample_entities(pack.relation, 16, 5)
    digest_of = hashlib.sha256()
    in_prompt_digest_of = hashlib.sha256()
    filled_digest_of = hashlib.sha256()
    unrelated_digest_of = hashlib.sha256()
    unshared_digest_of = hashlib.sha256()
    conditions = []
    for config in PACK_CONFIGS:
        suite = generate_suite(rel, config, pack)
        text = dump_suite(suite)
        digest_of.update(text.encode("utf-8"))
        in_prompt_digest_of.update(footer_in_prompt(text).encode("utf-8"))
        filled_digest_of.update(every_key_on_every_line(footer_in_prompt(text)).encode("utf-8"))
        unrelated_digest_of.update(state_in_full(text, ()).encode("utf-8"))
        unshared_digest_of.update(state_in_full(text, ("plan", "prompt")).encode("utf-8"))
        conditions += [c for i in suite for c in leaf_conditions(i.plan.expr)]
    assert {c.op for c in conditions} == set(pack.allowed_ops)
    assert any(c.attr == "Email" and c.value.startswith("@") for c in conditions) == (name == "pii")
    assert digest_of.hexdigest() == digest
    assert in_prompt_digest_of.hexdigest() == in_prompt_digest
    assert filled_digest_of.hexdigest() == filled_digest
    assert unrelated_digest_of.hexdigest() == unrelated_digest
    assert unshared_digest_of.hexdigest() == unshared_digest


@pytest.mark.parametrize("name", BUILTIN_PACKS)
def test_suite_states_deletion_and_update_golds_as_edits_and_no_value_twice(name):
    """Over every pack and request type, a generated suite states its sampled
    relation once, each deletion and update gold as an edit of it (the keys it
    drops, the target cells an update sets to N/A) and no value in full twice;
    loaded, a gold keeps the relation's row tuples where it left them as they
    were."""
    from tabbench.datasets import load_pack
    from tabbench.relation import sample_entities

    pack = load_pack(name)
    rel = sample_entities(pack.relation, 16, 5)
    suite = generate_suite(rel, PACK_CONFIGS[0], pack)
    text = dump_suite(suite)
    stated = set()
    edited = {RequestType.DELETION: 0, RequestType.UPDATE: 0}
    for line, instance in zip(every_key_on_every_line(text).splitlines(), suite):
        obj = json.loads(line)
        in_full = [field for field in SHARED_FIELDS
                   if not (isinstance(obj[field], dict) and obj[field].keys() == {"same_as"})]
        for field in in_full:
            full = json.dumps(to_json(getattr(instance, field)), sort_keys=True)
            assert (field, full) not in stated
            stated.add((field, full))
        if "gold" not in in_full:
            continue
        gold = obj["gold"]
        assert ("edit" in gold) == (instance.request_type in edited)
        if "edit" in gold:
            edited[instance.request_type] += 1
            kept = instance.gold.key_set
            assert gold["edit"]["drop"] == [k for k in rel.keys() if k not in kept]
            if instance.request_type is RequestType.UPDATE:
                assert gold["edit"]["drop"] == []
                assert {(column, value) for _, column, value in gold["edit"]["set"]} <= {
                    (instance.plan.target_attr, "N/A")}
            else:
                assert gold["edit"]["set"] == []
    assert [field for field, _ in stated].count("relation") == 1
    assert all(edited.values())

    loaded = list(load_suite(text.splitlines()))
    assert loaded == suite
    relation_rows = {id(row) for row in loaded[0].relation.rows}
    unchanged = []
    for instance in loaded:
        if instance.request_type in edited:
            assert instance.relation is loaded[0].relation
            unchanged += [row for row in instance.gold.rows if row in instance.relation.rows]
    assert unchanged and all(id(row) in relation_rows for row in unchanged)


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


def test_suite_scans_each_column_and_condition_once(pack, f2, monkeypatch):
    """One generate_suite finds each column's distinct values once, and scans
    the rows for each distinct condition once, however many draws, connectives
    and negation slots ask for it."""
    from tabbench import oracle, relation
    from tabbench.oracle import eval_expr

    config = SuiteConfig(pair_count=3, request_types=(RequestType.EXISTENCE, RequestType.COUNT),
                         connectives=(AND, OR, DIFF), n_conditions=(1, 2), seed=17)
    expected = dump_suite(generate_suite(f2, config, pack))
    calls = {"_distinct": [], "_scan": []}

    def recording(module, name):
        fn = getattr(module, name)

        def wrapper(rel, *args):
            calls[name].append(args)
            return fn(rel, *args)
        monkeypatch.setattr(module, name, wrapper)

    recording(relation, "_distinct")
    recording(oracle, "_scan")
    rel = dataclasses.replace(f2)  # nothing derived from its rows yet
    suite = generate_suite(rel, config, pack)
    assert dump_suite(suite) == expected

    assert sorted(calls["_distinct"]) == [(i,) for i in range(len(rel.schema))]
    scans = list(calls["_scan"])
    assert len(scans) == len(set(scans)) == len(rel.key_sets)
    # every condition in the suite was among them: evaluating them again scans nothing
    for instance in suite:
        eval_expr(instance.plan.expr, rel)
    assert calls["_scan"] == scans
