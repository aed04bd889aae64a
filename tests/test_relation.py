from __future__ import annotations

import random

import pytest

from tabbench.relation import (
    AttributeSpec,
    DuplicateKeyError,
    MissingColumnError,
    Relation,
    SampleError,
    SchemaError,
    TypeMismatchError,
    UnknownAttributeError,
    load_csv,
    sample_entities,
    unique_values,
)

from conftest import random_relation


def test_load_csv_reference_rows(f1):
    assert len(f1.rows) == 2
    assert f1.key_attr.name == "Name"
    assert f1.keys() == ("Ronaldo", "Messi")
    assert f1.value(f1.rows[1], "Club") == "Barcelona"
    assert f1.rows[0].numbers[f1.index("Number")] == 7.0


def test_lookups_by_name_and_key_column(schema):
    # key in the last column, so the key lookup cannot lean on position 0
    keyed_last = (*schema[1:], schema[0])
    rel = load_csv("Number,Club,Name,Nationality\n7,Juventus,Ronaldo ,Portugal\n", keyed_last, name="Soccer")
    assert [rel.index(a.name) for a in keyed_last] == [0, 1, 2, 3]
    assert rel.attribute("Club") is keyed_last[2]
    assert rel.key_attr is keyed_last[3]
    assert rel.key_of(rel.rows[0]) == "Ronaldo" and rel.keys() == ("Ronaldo",)
    assert rel.value(rel.rows[0], "Club") == "Juventus"
    for lookup in (rel.index, rel.attribute, lambda name: rel.value(rel.rows[0], name)):
        with pytest.raises(UnknownAttributeError, match="^no attribute 'Stadium' in 'Soccer'$"):
            lookup("Stadium")


def test_load_csv_header_only_is_valid_empty(schema):
    rel = load_csv("Name,Number,Nationality,Club\n", schema)
    assert rel.rows == ()


def test_load_csv_duplicate_key(schema):
    csv_text = "Name,Number,Nationality,Club\nMessi,10,Argentina,Barcelona\n messi ,9,Argentina,PSG\n"
    with pytest.raises(DuplicateKeyError):
        load_csv(csv_text, schema)


def test_load_csv_missing_column(schema):
    with pytest.raises(MissingColumnError):
        load_csv("Name,Number,Nationality\nMessi,10,Argentina\n", schema)


def test_load_csv_type_mismatch_carries_position(schema):
    csv_text = "Name,Number,Nationality,Club\nMessi,ten,Argentina,Barcelona\n"
    with pytest.raises(TypeMismatchError) as info:
        load_csv(csv_text, schema)
    assert info.value.row_index == 0
    assert info.value.attr == "Number"


def test_load_csv_header_order_insensitive_and_drops_extras(schema):
    csv_text = "Club,Name,Agent,Nationality,Number\nJuventus,Ronaldo,X,Portugal,7\n"
    rel = load_csv(csv_text, schema)
    assert rel.keys() == ("Ronaldo",)
    assert rel.value(rel.rows[0], "Number") == "7"
    assert rel.dropped_columns == ("Agent",)


def test_csv_round_trip_identity(schema, f1):
    again = load_csv(f1.to_csv(), schema, name=f1.name)
    assert again.name == f1.name
    assert again.schema == f1.schema
    assert again.rows == f1.rows


def test_round_trip_survives_quoting(schema):
    rel = Relation.from_values(
        "q", schema, [("Player, The", "7", 'said "hi"', "Club\nNewline")]
    )
    again = load_csv(rel.to_csv(), schema, name="q")
    assert again.rows == rel.rows


def test_sample_full_size_is_identity(f1):
    for seed in (0, 7, 123456789):
        assert sample_entities(f1, 2, seed).rows == f1.rows


def test_sample_zero_is_empty(f1):
    assert sample_entities(f1, 0, 99).rows == ()


def test_sample_too_few_rows(f1):
    with pytest.raises(SampleError):
        sample_entities(f1, 3, 0)


def test_sample_deterministic_subset(f2):
    first = sample_entities(f2, 2, 7)
    second = sample_entities(f2, 2, 7)
    assert first.rows == second.rows
    assert len(first.rows) == 2
    # first-appearance order preserved
    order = {k: i for i, k in enumerate(f2.keys())}
    picked = [order[k] for k in first.keys()]
    assert picked == sorted(picked)


def test_unique_values_reference(f1, f2):
    assert unique_values(f1, "Nationality") == ["Portugal", "Argentina"]
    assert unique_values(f2, "Number") == ["7", "10", "4"]


def test_unique_values_empty_relation(schema):
    rel = load_csv("Name,Number,Nationality,Club\n", schema)
    assert unique_values(rel, "Nationality") == []


def test_unique_values_unknown_attribute(f1):
    with pytest.raises(UnknownAttributeError):
        unique_values(f1, "Stadium")


def test_unique_values_covers_rows_property():
    rng = random.Random(5150)
    for _ in range(50):
        rel = random_relation(rng)
        for spec in rel.schema:
            values = unique_values(rel, spec.name)
            assert len(values) <= len(rel.rows) or not rel.rows
            normalized = {v.strip().casefold() for v in values}
            for row in rel.rows:
                cell = rel.value(row, spec.name).strip().casefold()
                if spec.kind == "numeric":
                    assert any(float(v) == float(cell) for v in values)
                else:
                    assert cell in normalized


def test_attribute_spec_validation():
    with pytest.raises(SchemaError):
        AttributeSpec("X", "weird", "x")
    spec = AttributeSpec("Number", "numeric", "uniform number", ("jersey number",))
    assert spec.paraphrases[0] == "uniform number"
    assert "jersey number" in spec.paraphrases


def test_relation_requires_exactly_one_key(schema):
    no_key = tuple(
        AttributeSpec(a.name, a.kind, a.canonical_phrase, a.paraphrases, is_key=False) for a in schema
    )
    with pytest.raises(SchemaError):
        Relation.from_values("x", no_key, [])


def test_relation_arity_check(schema):
    with pytest.raises(SchemaError):
        Relation.from_values("x", schema, [("OnlyName",)])


def test_cross_seed_samples_differ(f2):
    rows = {sample_entities(f2, 2, seed).keys() for seed in range(30)}
    assert len(rows) > 1


def test_schema_json_round_trip(schema):
    from tabbench.relation import schema_from_json, schema_to_json

    assert schema_from_json(schema_to_json(schema)) == schema
