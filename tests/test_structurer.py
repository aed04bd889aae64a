from __future__ import annotations

import random

import pytest

from tabbench import structurer
from tabbench.datasets import BUILTIN_PACKS, load_pack
from tabbench.relation import AttributeSpec, Relation, normalize, sample_entities
from tabbench.structurer import (
    PORTIONS,
    BadPortionError,
    NoBankError,
    NoTableError,
    PhraseBank,
    PipeTable,
    RenderError,
    SentenceFrame,
    StructuringLevel,
    cell_fill_rate,
    is_separator_row,
    parse_table,
    render,
    render_partial,
    render_table,
    split_pipe_line,
)

from conftest import as_pipe_table, random_relation, table_equal
from reference_render import reference_render

ALL_LEVELS = tuple(StructuringLevel)

F1_TABLE = (
    "| Name | Number | Nationality | Club |\n"
    "| Ronaldo | 7 | Portugal | Juventus |\n"
    "| Messi | 10 | Argentina | Barcelona |"
)


def test_structuredness_ordering():
    # the levels are declared from least to most structured
    assert [level.value for level in StructuringLevel] == ["natural", "order_fixed", "template_based", "table"]


def test_table_rendering_exact(f1):
    for seed in (0, 5, 99):
        assert render(f1, StructuringLevel.TABLE, seed) == F1_TABLE


def test_template_based_canonical_sentence(f1, bank):
    text = render(f1, StructuringLevel.TEMPLATE_BASED, 3, bank)
    lines = text.splitlines()
    assert lines[0] == "Ronaldo is a player from Portugal playing for Juventus with uniform number 7."
    assert lines[1] == "Messi is a player from Argentina playing for Barcelona with uniform number 10."


def test_template_based_is_seed_independent(f1, bank):
    assert render(f1, StructuringLevel.TEMPLATE_BASED, 1, bank) == render(
        f1, StructuringLevel.TEMPLATE_BASED, 2, bank
    )


def test_degenerate_natural_falls_back_to_canonical():
    schema = (
        AttributeSpec("Name", "freetext", "name", is_key=True),
        AttributeSpec("Club", "categorical", "club"),
    )
    rel = Relation.from_values("tiny", schema, [("Ronaldo", "Juventus")])
    bank = PhraseBank(
        frames=(SentenceFrame("{key} is a player", ("Club",)),),
        clauses={"Club": ("playing for {value}",)},
    )
    for seed in range(5):
        assert render(rel, StructuringLevel.NATURAL, seed, bank) == "Ronaldo is a player playing for Juventus."


def test_information_equivalence_all_levels(f2, bank):
    for level in ALL_LEVELS:
        for seed in (0, 1, 17):
            text = normalize(render(f2, level, seed, bank))
            for row in f2.rows:
                for cell in row:
                    assert normalize(cell) in text, (level, seed, cell)


def test_order_fixed_keeps_attribute_order(f2, bank):
    text = render(f2, StructuringLevel.ORDER_FIXED, 9, bank)
    for line, row in zip(text.splitlines(), f2.rows):
        nationality = line.index(row[f2.index("Nationality")])
        club = line.index(row[f2.index("Club")])
        number = line.rindex(row[f2.index("Number")])
        assert nationality < club < number


def test_natural_varies_with_seed(f2, bank):
    outputs = {render(f2, StructuringLevel.NATURAL, seed, bank) for seed in range(8)}
    assert len(outputs) > 1


def test_render_is_deterministic(f2, bank):
    for level in ALL_LEVELS:
        assert render(f2, level, 123, bank) == render(f2, level, 123, bank)


TEXT_LEVELS = (StructuringLevel.NATURAL, StructuringLevel.ORDER_FIXED, StructuringLevel.TEMPLATE_BASED)


@pytest.mark.parametrize("name", BUILTIN_PACKS)
def test_render_draws_what_a_random_per_entity_draws(name, monkeypatch):
    """Every text level and every partial mix of each built-in pack, over 20
    seeds, reads as the per-entity Random twin renders it."""
    pack = load_pack(name)
    for seed in range(20):
        rel = sample_entities(pack.relation, 12, seed)
        for level in TEXT_LEVELS:
            assert render(rel, level, seed, pack.bank) == reference_render(rel, level, seed, pack.bank)
        mixes = [render_partial(rel, portion, seed, pack.bank) for portion in PORTIONS]
        # render_partial looks render up when it runs, so this renders each mix's text through the twin
        monkeypatch.setattr(structurer, "render", lambda r, level, s, b=None: (
            render(r, level, s, b) if level is StructuringLevel.TABLE else reference_render(r, level, s, b)))
        assert mixes == [render_partial(rel, portion, seed, pack.bank) for portion in PORTIONS]
        monkeypatch.undo()


def test_render_seeds_and_words_each_entity_by_its_stripped_key(schema, bank):
    spaced = Relation.from_values("Soccer", schema, [(" Ronaldo ", "7", "Portugal", "Juventus"),
                                                     ("Messi  ", "10", "Argentina", "Barcelona")])
    stripped = Relation.from_values("Soccer", schema, [tuple(cell.strip() for cell in row) for row in spaced.rows])
    for seed in range(20):
        for level in TEXT_LEVELS:
            text = render(spaced, level, seed, bank)
            assert text == reference_render(spaced, level, seed, bank) == render(stripped, level, seed, bank)
            assert [line.split(" ", 1)[0].rstrip(",") for line in text.splitlines()] == ["Ronaldo", "Messi"]


def test_render_empty_relation_rejected(schema, bank):
    empty = Relation.from_values("none", schema, [])
    with pytest.raises(RenderError):
        render(empty, StructuringLevel.TABLE, 0, bank)


def test_text_levels_need_bank(f1):
    with pytest.raises(NoBankError):
        render(f1, StructuringLevel.NATURAL, 0, None)


def test_bank_schema_check(f1):
    incomplete = PhraseBank(
        frames=(SentenceFrame("{key} is a player", ("Nationality",)),),
        clauses={"Nationality": ("from {value}",)},
    )
    with pytest.raises(NoBankError):
        render(f1, StructuringLevel.TEMPLATE_BASED, 0, incomplete)


# ---------------------------------------------------------------------------
# Partial structuring
# ---------------------------------------------------------------------------


def test_partial_zero_is_pure_text(f2, bank):
    assert render_partial(f2, 0.0, 4, bank) == render(f2, StructuringLevel.NATURAL, 4, bank)


def test_partial_one_is_pure_table(f2, bank):
    assert render_partial(f2, 1.0, 4, bank) == render(f2, StructuringLevel.TABLE, 4, bank)


def test_partial_half_partitions_exactly(f2, bank):
    text = render_partial(f2, 0.5, 3, bank)
    text_block, table_block = text.split("\n\n")
    table_keys = {row[0] for row in parse_table(table_block).rows}
    assert len(table_keys) == 2
    text_norm = normalize(text_block)
    text_keys = {k for k in f2.keys() if normalize(k) in text_norm}
    assert table_keys | text_keys == set(f2.keys())
    assert not table_keys & text_keys


def test_partial_bad_portion(f2, bank):
    with pytest.raises(BadPortionError):
        render_partial(f2, 0.3, 0, bank)


def test_partial_partition_property(bank):
    rng = random.Random(8)
    from conftest import soccer_schema

    schema = soccer_schema()
    rows = [(f"Player {i:02d}", str(rng.randint(1, 30)), "Spain", "ClubX") for i in range(12)]
    rel = Relation.from_values("many", schema, rows)
    for portion in (0.0, 0.25, 0.5, 1.0):
        for seed in (1, 2, 3):
            text = render_partial(rel, portion, seed, bank)
            blocks = text.split("\n\n")
            if portion in (0.0, 1.0):
                assert len(blocks) == 1
                continue
            table_keys = {row[0] for row in parse_table(blocks[1]).rows}
            assert len(table_keys) == int(portion * 12)
            text_norm = normalize(blocks[0])
            text_keys = {k for k in rel.keys() if normalize(k) in text_norm}
            assert table_keys | text_keys == set(rel.keys())
            assert not table_keys & text_keys


# ---------------------------------------------------------------------------
# Table parsing
# ---------------------------------------------------------------------------


def test_parse_render_round_trip(f1):
    parsed = parse_table(render(f1, StructuringLevel.TABLE, 0))
    assert table_equal(parsed, f1)
    # columns are found by normalized header, the first of equal ones
    assert parsed.column("NUMBER ") == 1
    assert parsed.column("Goals") is None and parsed.column("Goals", 0) == 0
    assert parse_table("| A | B | a |\n| k | 1 | 2 |").column("a") == 0


def test_parse_round_trip_randomized(bank):
    rng = random.Random(31)
    for _ in range(40):
        rel = random_relation(rng)
        if not rel.rows:
            continue
        assert table_equal(parse_table(render_table(rel.attribute_names, rel.rows)), rel)


def test_parse_markdown_separator(f1):
    text = (
        "| Name | Number | Nationality | Club |\n"
        "|---|---:|:--|:-:|\n"
        "| Ronaldo | 7 | Portugal | Juventus |\n"
        "| Messi | 10 | Argentina | Barcelona |"
    )
    assert table_equal(parse_table(text), f1)


def test_parse_tolerates_prose_and_missing_pipes(f1):
    text = (
        "Sure! Here is the table you asked for:\n\n"
        "Name | Number | Nationality | Club\n"
        "Ronaldo | 7 | Portugal | Juventus\n"
        "Messi | 10 | Argentina | Barcelona\n\n"
        "Let me know if you need anything else."
    )
    assert table_equal(parse_table(text), f1)


def test_parse_stops_at_first_block(f1):
    text = F1_TABLE + "\n\nAnd a second table:\n| X | Y |\n| 1 | 2 |"
    assert table_equal(parse_table(text), f1)


def test_parse_pads_ragged_rows():
    table = parse_table("| A | B | C |\n| one | two |\n| x | y | z | extra |")
    assert table.rows == (("one", "two", ""), ("x", "y", "z"))


# rows as a model writes them: ragged, emphasized, rule rows in their
# spellings, a first cell that starts like a rule and empty first cells
PIPE_ROWS = [
    ("| Messi | 10 |", ["Messi", "10"], False),
    ("Messi | 10", ["Messi", "10"], False),
    ("| Messi |", ["Messi"], False),
    ("| Messi | 10 | Argentina | extra |", ["Messi", "10", "Argentina", "extra"], False),
    ("| **Messi** | *10* | `AR` |", ["**Messi**", "*10*", "`AR`"], False),
    ("| __Messi__ | _10_ |", ["__Messi__", "_10_"], False),
    ("|---|---:|:--|:-:|", ["---", "---:", ":--", ":-:"], True),
    ("--- | ---", ["---", "---"], True),
    ("| - | --- |", ["-", "---"], True),
    ("| | --- |", ["", "---"], True),
    ("| --- | Messi |", ["---", "Messi"], False),
    ("| -5 | 3 |", ["-5", "3"], False),
    ("| :) | ok |", [":)", "ok"], False),
    ("|  |  |", ["", ""], False),
    ("|", None, False),
    ("||", [""], False),
    ("| Messi", ["Messi"], False),
    ("  Messi |  ", ["Messi"], False),
    ("\t|\xa0Messi\xa0| 10 |\x85", ["Messi", "10"], False),
]


@pytest.mark.parametrize("line, cells, rule", PIPE_ROWS)
def test_pipe_rows_split_and_skip_as_the_full_separator_test_says(line, cells, rule):
    """parse_table skips a row by is_separator_row, and keeps every other row
    with its key, padded or cut to the header's width."""
    assert split_pipe_line(line) == cells
    assert cells is None or is_separator_row(cells) == rule
    kept = () if not cells or rule or not cells[0] else (tuple((cells + [""] * 3)[:3]),)
    assert parse_table("| A | B | C |\n" + line).rows == kept


def test_parse_drops_repeated_keys():
    table = parse_table("| A | B |\n| k | 1 |\n| k | 2 |")
    assert table.rows == (("k", "1"),)


def test_parse_no_table(f1):
    with pytest.raises(NoTableError):
        parse_table("There is no table here at all.")


# ---------------------------------------------------------------------------
# Cell fill rate
# ---------------------------------------------------------------------------


def test_fill_rate_identity(f1):
    assert cell_fill_rate(as_pipe_table(f1), f1) == 1.0


def test_fill_rate_empty_prediction(f1):
    empty = PipeTable(f1.attribute_names, ())
    assert cell_fill_rate(empty, f1) == 0.0


def test_fill_rate_one_blank_cell(f1):
    damaged = PipeTable(
        f1.attribute_names,
        (("Ronaldo", "7", "Portugal", "Juventus"), ("Messi", "10", "Argentina", "")),
    )
    assert cell_fill_rate(damaged, f1) == pytest.approx(7 / 8)


def test_fill_rate_reads_cells_without_emphasis(f1):
    emphasized = PipeTable(
        f1.attribute_names,
        (("**Ronaldo**", "7", "Portugal", "Juventus"), ("`Messi`", "**10**", "_Argentina_", "Barcelona")),
    )
    assert cell_fill_rate(emphasized, f1) == 1.0


def test_fill_rate_handles_column_and_row_renames(schema, f1):
    parsed = parse_table(
        "| name | NUMBER | Nationality | Club |\n"
        "| ronaldo | 7.0 | portugal | Juventus |"
    )
    # one full row matched case-insensitively, numeric compared by value
    assert cell_fill_rate(parsed, f1) == pytest.approx(4 / 8)
