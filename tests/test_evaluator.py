from __future__ import annotations

import dataclasses
import random

import pytest

from tabbench.answers import EntityList, Judgement, NumberAnswer, TupleList, Unparseable, parse
from tabbench.evaluator import (
    EvalRecord,
    ReportError,
    UnalignedError,
    aggregate,
    compare_formats,
    existence_robustness,
    f1 as set_f1,
    records_to_csv,
    report_markdown,
    report_to_csv,
    score,
)
from tabbench.gateway import LossyOracle, PerfectOracle
from tabbench.oracle import Condition, EQ, GT, EntitySet, Witnessed
from tabbench.relation import Relation
from tabbench.requestgen import RequestType, SuiteConfig, generate_suite
from tabbench.requesttypes import ROWS
from tabbench.structurer import StructuringLevel, parse_table

from conftest import instantiate_one, tiny_soccer_pack


@pytest.fixture
def pack(f2):
    return tiny_soccer_pack(f2)


def make_instance(pack, rel, request_type, *, expr=None, target=None, negated=False,
                  template_id=0, gold=None):
    expr = expr or Condition("Nationality", EQ, "Argentina", "nationality is Argentina")
    if target is None:
        target = pack.target_for(request_type)
    template = pack.templates.templates_for(request_type, negated)[template_id]
    instance = instantiate_one(request_type, template, expr, target, rel,
                               StructuringLevel.TABLE, 0, pack=pack)
    if gold is not None:
        instance = dataclasses.replace(instance, gold=gold)
    return instance


# ---------------------------------------------------------------------------
# F1 primitive
# ---------------------------------------------------------------------------


def test_f1_mixed_sets():
    precision, recall, score_value = set_f1(frozenset("ABC"), frozenset("ABD"))
    assert (precision, recall, score_value) == pytest.approx((2 / 3, 2 / 3, 2 / 3))


def test_f1_degenerate_conventions():
    assert set_f1(frozenset(), frozenset()) == (1.0, 1.0, 1.0)
    assert set_f1(frozenset(), frozenset({"A"})) == (0.0, 1.0, 0.0)
    assert set_f1(frozenset({"A"}), frozenset()) == (0.0, 0.0, 0.0)
    assert set_f1(frozenset({"A"}), frozenset({"A"})) == (1.0, 1.0, 1.0)


def test_f1_precision_recall_duality():
    rng = random.Random(3)
    universe = list("abcdefgh")
    for _ in range(100):
        gold = frozenset(rng.sample(universe, rng.randint(0, 6)))
        pred = frozenset(rng.sample(universe, rng.randint(0, 6)))
        if not gold or not pred:
            continue
        assert set_f1(gold, pred)[0] == set_f1(pred, gold)[1]


# ---------------------------------------------------------------------------
# Per-type scoring
# ---------------------------------------------------------------------------


def test_perfect_chain_every_type(pack, f2):
    oracle = PerfectOracle()
    config = SuiteConfig(pair_count=2, request_types=tuple(RequestType), seed=31)
    for instance in generate_suite(f2, config, pack):
        parsed = parse(oracle.complete(instance).text, instance.request_type)
        record = score(instance, parsed)
        if record.metric == "abs_diff":
            assert record.value == 0.0
        else:
            assert record.value == 1.0
        if record.request_type == RequestType.EXISTENCE.value:
            assert record.extras["rationale_accuracy"] == 1.0


def test_retrieval_partial_credit(pack, f2):
    gold = EntitySet(frozenset({"Messi", "Neymar", "Ramos"}))
    instance = make_instance(pack, f2, RequestType.RETRIEVAL, gold=gold)
    record = score(instance, EntityList(("messi", "neymar", "ronaldo")))
    assert record.value == pytest.approx(2 / 3)
    assert record.extras["precision"] == pytest.approx(2 / 3)
    assert record.extras["recall"] == pytest.approx(2 / 3)


def test_retrieval_unparseable_scores_zero(pack, f2):
    instance = make_instance(pack, f2, RequestType.RETRIEVAL)
    record = score(instance, Unparseable("nope"))
    assert record.value == 0.0 and record.unparsed


def test_deletion_scores_retained_entities(pack, f2):
    instance = make_instance(pack, f2, RequestType.DELETION)  # deletes Messi
    record = score(instance, EntityList(("ronaldo", "neymar", "ramos")))
    assert record.value == 1.0
    partial = score(instance, EntityList(("ronaldo", "neymar")))
    assert partial.value == pytest.approx(2 * (1.0 * 2 / 3) / (1.0 + 2 / 3))


def test_update_cell_level_f1(pack, f2):
    instance = make_instance(pack, f2, RequestType.UPDATE)  # Number -> N/A for Messi
    perfect_table = parse_table(
        "| Name | Number | Nationality | Club |\n"
        "| Ronaldo | 7 | Portugal | Juventus |\n"
        "| Messi | N/A | Argentina | Barcelona |\n"
        "| Neymar | 10 | Brazil | PSG |\n"
        "| Ramos | 4 | Spain | Sevilla |"
    )
    assert score(instance, perfect_table).value == 1.0

    over_updated = parse_table(
        "| Name | Number | Nationality | Club |\n"
        "| Ronaldo | N/A | Portugal | Juventus |\n"
        "| Messi | N/A | Argentina | Barcelona |\n"
        "| Neymar | 10 | Brazil | PSG |\n"
        "| Ramos | 4 | Spain | Sevilla |"
    )
    record = score(instance, over_updated)
    # TP=1 FP=1 FN=0 -> precision .5, recall 1
    assert record.value == pytest.approx(2 * 0.5 / 1.5)

    missing_row = parse_table(
        "| Name | Number | Nationality | Club |\n"
        "| Ronaldo | 7 | Portugal | Juventus |"
    )
    assert score(instance, missing_row).value == 0.0


@pytest.mark.parametrize("mark", ["**", "`"])
def test_update_under_emphasized_headers_scores_as_under_plain_ones(pack, f2, mark):
    """A model that writes `| **Name** | **Number** |` or `` | `Name` | `` has
    named the columns as plainly as `| Name | Number |`."""
    instance = make_instance(pack, f2, RequestType.UPDATE)
    text = PerfectOracle().complete(instance).text
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if "|" in line)
    cells = [cell.strip() for cell in lines[header].strip().strip("|").split("|")]
    lines[header] = "| " + " | ".join(f"{mark}{cell}{mark}" for cell in cells) + " |"
    emphasized = "\n".join(lines)
    assert f"{mark}Name{mark}" in emphasized
    assert score(instance, parse(text, RequestType.UPDATE)).value == 1.0
    assert score(instance, parse(emphasized, RequestType.UPDATE)).value == 1.0


@pytest.mark.parametrize("na", ["**N/A**", "`N/A`", "_N/A_"])
def test_update_with_emphasized_cells_scores_as_with_plain_ones(pack, f2, na):
    """An N/A cell written `**N/A**`, a key cell written `**Messi**` and an
    untouched cell written `**Portugal**` read as their plain text."""
    instance = make_instance(pack, f2, RequestType.UPDATE)  # Number -> N/A for Messi
    text = PerfectOracle().complete(instance).text
    assert "| Messi | N/A |" in text and "| Portugal |" in text
    emphasized = (text.replace("| Messi | N/A |", f"| **Messi** | {na} |")
                  .replace("| Portugal |", "| **Portugal** |"))
    record = score(instance, parse(emphasized, RequestType.UPDATE))
    assert record.value == 1.0
    assert record.extras["collateral_damage"] == 0.0


@pytest.mark.parametrize("key", ["Ana Lima", "**Ana Lima**"])
def test_deletion_with_emphasized_key_cells_scores_as_with_plain_ones(pack, schema, key):
    """A kept row's key written `**Ana Lima**` names Ana Lima alone, not the
    two keys (Ana, Ana Lima) that `**ana lima**` contains."""
    rel = Relation.from_values("Soccer", schema, [("Ana", "1", "Brazil", "X"), ("Ana Lima", "2", "Brazil", "Y"),
                                                  ("Bo", "3", "Spain", "X")])
    instance = make_instance(pack, rel, RequestType.DELETION, expr=Condition("Club", EQ, "X", "club is X"))
    assert instance.gold.keys() == ("Ana Lima",)
    record = score(instance, parse_table(f"| Name | Club |\n| {key} | Y |"))
    assert (record.value, record.dropped_names) == (1.0, 0)


def test_update_collateral_damage_diagnostic(pack, f2):
    instance = make_instance(pack, f2, RequestType.UPDATE)
    damaged = parse_table(
        "| Name | Number | Nationality | Club |\n"
        "| Ronaldo | 7 | Portugal | Inter |\n"
        "| Messi | N/A | Argentina | Barcelona |\n"
        "| Neymar | 10 | Brazil | PSG |\n"
        "| Ramos | 4 | Spain | Sevilla |"
    )
    record = score(instance, damaged)
    assert record.value == 1.0
    assert record.extras["collateral_damage"] == 1.0


def test_superlative_exact_singleton(pack, f2):
    instance = make_instance(pack, f2, RequestType.SUPERLATIVE)
    gold_key = next(iter(instance.gold.keys))
    assert score(instance, EntityList((gold_key.lower(),))).value == 1.0
    assert score(instance, EntityList((gold_key.lower(), "ronaldo"))).value == 0.0
    assert score(instance, EntityList(())).value == 0.0


def test_sum_exact_for_integers(pack, f2):
    instance = make_instance(pack, f2, RequestType.SUM)
    gold_value = instance.gold.value
    assert score(instance, NumberAnswer(gold_value)).value == 1.0
    assert score(instance, NumberAnswer(gold_value + 1)).value == 0.0


def test_sum_relative_tolerance_for_reals(pack, f2):
    from tabbench.oracle import Number

    instance = make_instance(pack, f2, RequestType.SUM, gold=Number(10.5))
    assert score(instance, NumberAnswer(10.5 + 1e-8)).value == 1.0
    assert score(instance, NumberAnswer(10.6)).value == 0.0


def test_count_absolute_difference(pack, f2):
    from tabbench.oracle import Number

    instance = make_instance(pack, f2, RequestType.COUNT, gold=Number(5.0))
    assert score(instance, NumberAnswer(3.0)).value == 2.0
    unparsed = score(instance, Unparseable("n/a"))
    assert unparsed.value == 5.0 and unparsed.unparsed


def test_existence_case_study_scoring(pack, f2):
    """Correct rationale naming the witness, wrong verdict on the negated
    wording: judgement accuracy 0, rationale accuracy 1."""
    gold = Witnessed(frozenset({"Kevin De Bruyne"}))
    instance = make_instance(pack, f2, RequestType.EXISTENCE, negated=True, gold=gold)
    parsed = Judgement(
        value=True,
        rationale=("According to the table, the player from Belgium who played for "
                   "Manchester City is Kevin De Bruyne and his uniform number is 17."),
    )
    record = score(instance, parsed)
    assert record.value == 0.0
    assert record.extras["rationale_accuracy"] == 1.0


def test_existence_false_gold_rationale(pack, f2):
    gold = Witnessed(frozenset())
    instance = make_instance(pack, f2, RequestType.EXISTENCE, gold=gold)
    clean = Judgement(False, "Nothing in the table satisfies the conditions.")
    assert score(instance, clean).value == 1.0
    assert score(instance, clean).extras["rationale_accuracy"] == 1.0
    asserting = Judgement(False, "No, only Ramos comes close but his club differs.")
    record = score(instance, asserting)
    assert record.value == 1.0
    assert record.extras["rationale_accuracy"] == 0.0


def test_projection_tuple_f1(pack, f2):
    instance = make_instance(pack, f2, RequestType.PROJECTION)
    assert instance.gold.tuples == frozenset({("Messi", "Barcelona")})
    assert score(instance, TupleList((("messi", "barcelona"),))).value == 1.0
    record = score(instance, TupleList((("messi", "psg"),)))
    assert record.value == 0.0


UPDATED_TABLE = parse_table(
    "| Name | Number | Nationality | Club |\n"
    "| Ronaldo | N/A | Portugal | Juventus |\n"
    "| Messi | N/A | Argentina | Barcelona |\n"
    "| Neymar | 10 | Brazil | Inter |\n"
    "| Xavi | 6 | Spain | Barcelona |"
)
KEPT_TABLE = parse_table(
    "| Name | Number | Nationality | Club |\n"
    "| Ronaldo | 7 | Portugal | Juventus |\n"
    "| Messi | 10 | Argentina | Barcelona |\n"
    "| Neymar | 10 | Brazil | PSG |\n"
    "| Xavi | 6 | Spain | Barcelona |"
)
TWO_THIRDS = {"precision": pytest.approx(2 / 3), "recall": pytest.approx(2 / 3)}
HALF_RECALLED = {"precision": 0.5, "recall": 1.0}
NO_PR = {"precision": 0.0, "recall": 0.0}
NO_ANSWER = Unparseable("no response text")


@pytest.mark.parametrize("request_type,answer,value,dropped,extras", [
    # the gold of each: "nationality is Argentina" over the four fixture rows
    (RequestType.RETRIEVAL, EntityList(("messi", "ramos", "xavi")), pytest.approx(2 / 3), 1, HALF_RECALLED),
    (RequestType.RETRIEVAL, NO_ANSWER, 0.0, 0, NO_PR),
    (RequestType.DELETION, KEPT_TABLE, pytest.approx(2 / 3), 1, TWO_THIRDS),
    (RequestType.DELETION, NO_ANSWER, 0.0, 0, NO_PR),
    (RequestType.UPDATE, UPDATED_TABLE, pytest.approx(2 / 3), 1, {**HALF_RECALLED, "collateral_damage": 1.0}),
    (RequestType.UPDATE, NO_ANSWER, 0.0, 0, NO_PR),
    (RequestType.SUPERLATIVE, EntityList(("messi", "xavi")), 1.0, 1, {}),
    (RequestType.SUPERLATIVE, NO_ANSWER, 0.0, 0, {}),
    (RequestType.SUM, NumberAnswer(10.0), 1.0, 0, {}),
    (RequestType.SUM, NO_ANSWER, 0.0, 0, {}),
    (RequestType.COUNT, NumberAnswer(3.0), 2.0, 0, {}),
    (RequestType.COUNT, NO_ANSWER, 1.0, 0, {}),
    (RequestType.EXISTENCE, Judgement(True, "Messi plays for Barcelona."), 1.0, 0, {"rationale_accuracy": 1.0}),
    (RequestType.EXISTENCE, NO_ANSWER, 0.0, 0, {"rationale_accuracy": 0.0}),
    (RequestType.PROJECTION, TupleList((("messi", "barcelona"), ("ramos", "sevilla"))), pytest.approx(2 / 3), 0,
     HALF_RECALLED),
    (RequestType.PROJECTION, NO_ANSWER, 0.0, 0, NO_PR),
])
def test_score_of_each_type_parsed_and_unparsed(pack, f2, request_type, answer, value, dropped, extras):
    instance = make_instance(pack, f2, request_type)
    record = score(instance, answer)
    assert record.metric == ROWS[request_type].metric
    assert record.value == value
    assert record.unparsed == isinstance(answer, Unparseable)
    assert record.dropped_names == dropped
    assert record.extras == extras


def test_unparsed_answer_gets_no_credit_against_an_empty_gold(pack, f2):
    """Gold that deletes every row is an empty set; a parsed empty answer is
    right (f1 of two empty sets), an answer that did not parse is not."""
    instance = make_instance(pack, f2, RequestType.DELETION, expr=Condition("Number", GT, 0.0, "number above 0"))
    assert instance.gold.rows == ()
    assert score(instance, EntityList(())).value == 1.0
    record = score(instance, Unparseable("no response text"))
    assert (record.value, record.extras, record.unparsed) == (0.0, {"precision": 0.0, "recall": 0.0}, True)


def test_metric_ranges_on_lossy_noise(pack, f2):
    lossy = LossyOracle(omission_prob=0.4, flip_prob=0.4, seed=17)
    config = SuiteConfig(pair_count=3, request_types=tuple(RequestType), seed=8)
    for instance in generate_suite(f2, config, pack):
        parsed = parse(lossy.complete(instance).text, instance.request_type)
        record = score(instance, parsed)
        if record.metric == "abs_diff":
            assert record.value >= 0.0
        else:
            assert 0.0 <= record.value <= 1.0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _record(value, template_id, model="m", request_type="retrieval", level="table",
            negated=False, request_id="x"):
    return EvalRecord(
        request_id=request_id, model=model, dataset="soccer", request_type=request_type,
        level=level, template_id=template_id, connective="and", n_conditions=2,
        portion=None, negated=negated, metric="f1", value=value,
    )


def test_aggregate_constant_templates():
    rows = aggregate([_record(0.5, t) for t in (0, 1, 2)])
    assert rows[0].mean == 0.5
    assert rows[0].variance == 0.0
    assert rows[0].templates == 3


def test_aggregate_population_variance():
    rows = aggregate([_record(0.2, 0), _record(0.4, 1), _record(0.6, 2)])
    assert rows[0].mean == pytest.approx(0.4)
    assert rows[0].variance == pytest.approx(0.02666666666, rel=1e-6)


def test_aggregate_empty():
    assert aggregate([]) == []


def test_aggregate_order_invariant():
    records = [_record(v, t) for t, v in ((0, 0.1), (1, 0.9), (2, 0.5), (0, 0.3))]
    forward = aggregate(records)
    backward = aggregate(list(reversed(records)))
    assert forward == backward


def test_aggregate_missing_template_coverage():
    rows = aggregate([_record(0.2, 0), _record(0.6, 1)])
    assert rows[0].templates == 2
    assert rows[0].variance == pytest.approx(0.04)


# ---------------------------------------------------------------------------
# Format comparison
# ---------------------------------------------------------------------------

TEXT_AVG = {
    "retrieval": ("f1", 55.5), "deletion": ("f1", 33.3), "update": ("f1", 8.5),
    "superlative": ("accuracy", 24.8), "sum": ("accuracy", 12.1), "count": ("abs_diff", 6.42),
}
TABLE_AVG = {
    "retrieval": ("f1", 62.1), "deletion": ("f1", 39.0), "update": ("f1", 20.5),
    "superlative": ("accuracy", 26.0), "sum": ("accuracy", 13.3), "count": ("abs_diff", 5.52),
}


def _cells(avg):
    return [
        {"model": "avg", "request_type": rt, "metric": metric, "mean": value}
        for rt, (metric, value) in sorted(avg.items())
    ]


def test_compare_formats_headline_aggregates():
    comparison = compare_formats(_cells(TEXT_AVG), _cells(TABLE_AVG))
    assert comparison.mean_improvement_pp == pytest.approx(5.34, abs=1e-9)
    assert comparison.count_abs_reduction == pytest.approx(0.90, abs=1e-9)
    assert comparison.count_relative_reduction == pytest.approx(0.90 / 6.42, rel=1e-6)
    # per-cell relative mean lands near 37%; the aggregate is convention-dependent
    assert 0.36 < comparison.mean_relative_change < 0.38
    assert comparison.convention
    assert comparison.notes


def test_compare_formats_identity_is_zero():
    comparison = compare_formats(_cells(TEXT_AVG), _cells(TEXT_AVG))
    assert comparison.mean_improvement_pp == 0.0
    assert comparison.count_abs_reduction == 0.0
    assert all(cell.improvement_pp == 0.0 for cell in comparison.cells)


def test_compare_formats_unaligned():
    with pytest.raises(UnalignedError):
        compare_formats(_cells(TEXT_AVG)[:-1], _cells(TABLE_AVG))


def test_compare_formats_of_no_cells_is_a_report_error():
    with pytest.raises(ReportError, match="no \\(model, request_type\\) cells to compare"):
        compare_formats([], [])


# ---------------------------------------------------------------------------
# Existence robustness report
# ---------------------------------------------------------------------------


def test_existence_robustness_hand_fixture():
    """20 hand-built judgements: model A 8/10 original, 6/10 negated."""
    records = []
    for i in range(10):
        records.append(_record(1.0 if i < 8 else 0.0, i % 3, request_type="existence",
                               negated=False, request_id=f"o{i}"))
    for i in range(10):
        records.append(_record(1.0 if i < 6 else 0.0, i % 3, request_type="existence",
                               negated=True, request_id=f"n{i}"))
    rows = existence_robustness(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.original_accuracy == pytest.approx(0.8)
    assert row.negated_accuracy == pytest.approx(0.6)
    assert row.delta == pytest.approx(0.2)


def test_existence_robustness_ignores_other_types():
    rows = existence_robustness([_record(1.0, 0, request_type="retrieval")])
    assert rows == []


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def test_report_outputs_are_deterministic():
    records = [_record(0.25, t, request_id=f"r{t}") for t in (0, 1, 2)]
    rows = aggregate(records)
    assert records_to_csv(records) == records_to_csv(list(reversed(records)))
    assert report_to_csv(rows).splitlines()[0] == "model,request_type,level,mean,variance,count,templates"
    markdown = report_markdown(rows)
    assert markdown.splitlines()[0].startswith("| Request Type | Data Type | m")
    assert "0.2500" in markdown
