from __future__ import annotations

import random
import string

import pytest

from tabbench.answers import (
    EntityList,
    Judgement,
    NumberAnswer,
    TupleList,
    Unparseable,
    _answer_block,
    match_entities,
    parse,
)
from tabbench.gateway import PerfectOracle
from tabbench.requestgen import RequestType, SuiteConfig, generate_suite
from tabbench.structurer import PipeTable

from conftest import tiny_soccer_pack
from reference_reading import answer_block


def test_simple_retrieval_answer():
    assert parse("ANSWER:\nMessi", RequestType.RETRIEVAL) == EntityList(("messi",))


def test_retrieval_tolerates_commas_and_bullets():
    parsed = parse("ANSWER:\n- Messi, Ronaldo\n* Neymar\n2) Ramos", RequestType.RETRIEVAL)
    assert parsed == EntityList(("messi", "ronaldo", "neymar", "ramos"))


def test_duplicate_mentions_collapse():
    parsed = parse("ANSWER:\nronaldo\nRonaldo", RequestType.RETRIEVAL)
    assert parsed == EntityList(("ronaldo",))


@pytest.mark.parametrize("text, block", [
    ("Messi", "Messi"),
    ("", ""),
    ("Messi\nANSWER:", ""),
    ("ANSWER: Ronaldo\nanswer :\tMessi", "\tMessi"),
    ("answer::", ":"),
    ("ANSWER \xa0\x85\n: Messi", " Messi"),
    ("ANSWER \u200b: Messi", "ANSWER \u200b: Messi"),  # a zero-width space is not whitespace
    ("anſwer: Messi", " Messi"),  # the long s folds to s, as the regex reads it under IGNORECASE
    ("Note: ANSWER: a | b: c", " a | b: c"),
    ("swer: Messi", "swer: Messi"),
])
def test_answer_block_named_cases(text, block):
    assert _answer_block(text) == block == answer_block(text)


def test_answer_block_matches_the_regex_twin_on_random_text():
    """The walk back from the colons finds the block the last regex match
    gives, over strings made of the marker's letters in either case, the long
    s, colons, kinds of whitespace the regex class reads (tab, newline, file
    separator, next line, no-break space), a Kelvin sign, pipes and whole
    markers."""
    pieces = list("aAnNsSſwWeErR:K|: ") + ["\t", "\n", "\x1c", "\x85", "\xa0", "\u212a",
                                          "answer", "ANSWER :", "Answer\t:", "answer"]
    rng = random.Random(35)
    mismatches = []
    for _ in range(100_000):
        text = "".join(rng.choices(pieces, k=rng.randrange(16)))
        if _answer_block(text) != answer_block(text):
            mismatches.append(text)
    assert mismatches == []


def test_last_answer_block_wins():
    text = "Thinking: maybe Messi?\nANSWER:\nRonaldo\nwait no\nANSWER:\nMessi"
    assert parse(text, RequestType.RETRIEVAL) == EntityList(("messi",))


def test_missing_marker_falls_back_to_whole_text():
    assert parse("Messi\nRonaldo", RequestType.RETRIEVAL) == EntityList(("messi", "ronaldo"))


def test_count_parses_last_standalone_number():
    text = "There are 1,234 players overall.\nANSWER:\nAfter filtering, the count is 42."
    assert parse(text, RequestType.COUNT) == NumberAnswer(42.0)


def test_count_thousands_separator():
    assert parse("ANSWER:\n1,234", RequestType.SUM) == NumberAnswer(1234.0)


@pytest.mark.parametrize("text, value", [
    ("ANSWER:\n**12** (computed over 100 rows)", 12.0),
    ("Of the 100 rows, 3 have number 10 and 9 have number 7.\nANSWER:\n12", 12.0),
    ("ANSWER:\nThe total is 12,345 (over 3 rows).", 12345.0),
    ("**12** (computed over 100 rows)", 12.0),
], ids=["trailing note", "numbers before the marker", "thousands separator", "no marker"])
def test_number_answer_is_the_first_number_of_the_answer(text, value):
    """The footer asks for a single number after the marker: the first one
    there is the answer, and a note after it is not read in its place."""
    for request_type in (RequestType.COUNT, RequestType.SUM):
        assert parse(text, request_type) == NumberAnswer(value)


def test_count_unparseable():
    parsed = parse("ANSWER:\nno idea", RequestType.COUNT)
    assert isinstance(parsed, Unparseable)


def test_number_too_large_for_a_float_is_unparseable():
    # float reads 309 digits or more as inf; 308 nines still read as a finite number
    for request_type in (RequestType.COUNT, RequestType.SUM):
        assert parse("ANSWER: " + "9" * 400, request_type) == Unparseable("number too large to read")
        assert parse("ANSWER: -" + "9" * 309, request_type) == Unparseable("number too large to read")
        assert parse("ANSWER: " + "9" * 308, request_type) == NumberAnswer(float("9" * 308))


def test_existence_judgement_and_rationale():
    text = ("ANSWER:\nYes, it is true. According to the table, the player from Belgium "
            "who played for Manchester City is Kevin De Bruyne and his uniform number is 17.")
    parsed = parse(text, RequestType.EXISTENCE)
    assert isinstance(parsed, Judgement)
    assert parsed.value is True
    assert "Kevin De Bruyne" in parsed.rationale


def test_existence_no_verdict_is_unparseable():
    assert isinstance(parse("ANSWER:\nPerhaps.", RequestType.EXISTENCE), Unparseable)


def test_update_requires_table():
    assert isinstance(parse("ANSWER:\nMessi", RequestType.UPDATE), Unparseable)


def test_deletion_falls_back_to_entity_list():
    parsed = parse("ANSWER:\nRonaldo\nRamos", RequestType.DELETION)
    assert parsed == EntityList(("ronaldo", "ramos"))


def test_projection_pipe_rows():
    parsed = parse("ANSWER:\nMessi | Barcelona\nNeymar | PSG", RequestType.PROJECTION)
    assert parsed == TupleList((("messi", "barcelona"), ("neymar", "psg")))


def test_projection_comma_fallback():
    parsed = parse("ANSWER:\nMessi, Barcelona", RequestType.PROJECTION)
    assert parsed == TupleList((("messi", "barcelona"),))


def test_none_response_is_unparseable():
    assert isinstance(parse(None, RequestType.RETRIEVAL), Unparseable)


def test_perfect_responses_parse_to_gold_shapes(f2):
    pack = tiny_soccer_pack(f2)
    config = SuiteConfig(pair_count=2, request_types=tuple(RequestType), seed=3)
    oracle = PerfectOracle()
    expected_shape = {
        RequestType.RETRIEVAL: EntityList,
        RequestType.DELETION: PipeTable,
        RequestType.UPDATE: PipeTable,
        RequestType.SUPERLATIVE: EntityList,
        RequestType.SUM: NumberAnswer,
        RequestType.COUNT: NumberAnswer,
        RequestType.EXISTENCE: Judgement,
        RequestType.PROJECTION: TupleList,
    }
    for instance in generate_suite(f2, config, pack):
        parsed = parse(oracle.complete(instance).text, instance.request_type)
        assert isinstance(parsed, expected_shape[instance.request_type]), instance.request_type


def test_parse_is_total_on_noise():
    rng = random.Random(1234)
    alphabet = string.printable
    for _ in range(300):
        blob = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 200)))
        for request_type in RequestType:
            parse(blob, request_type)  # must never raise


# ---------------------------------------------------------------------------
# Entity matching
# ---------------------------------------------------------------------------


def test_match_exact(f1):
    result = match_entities(EntityList(("messi",)), f1.keys())
    assert result.keys == {"Messi"} and result.dropped == 0


def test_match_unique_substring_superset():
    keys = ("L. Messi", "Ronaldo")
    result = match_entities(EntityList(("messi",)), keys)
    assert result.keys == {"L. Messi"}


def test_match_unique_substring_subset():
    keys = ("Messi", "Ronaldo")
    result = match_entities(EntityList(("l. messi",)), keys)
    assert result.keys == {"Messi"}


def test_match_ambiguous_is_dropped():
    keys = ("Messi Alves", "Messi Branco")
    result = match_entities(EntityList(("messi",)), keys)
    assert result.keys == frozenset()
    assert result.dropped == 1


def test_match_duplicates_stay_sets(f1):
    result = match_entities(EntityList(("ronaldo", "ronaldo")), f1.keys())
    assert result.keys == {"Ronaldo"}


def test_match_output_subset_of_keys(f2):
    result = match_entities(EntityList(("messi", "zidane", "neymar")), f2.keys())
    assert result.keys <= set(f2.keys())
    assert result.dropped == 1
