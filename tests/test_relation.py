from __future__ import annotations

import csv
import io
import json
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


def to_csv(rel: Relation) -> str:
    """RFC-4180 CSV with header row, in schema order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rel.attribute_names)
    writer.writerows(row.values for row in rel.rows)
    return buf.getvalue()


def test_load_csv_reference_rows(f1):
    assert len(f1.rows) == 2
    assert f1.key_attr.name == "Name"
    assert f1.keys() == ("Ronaldo", "Messi")
    assert f1.rows[1].values[f1.index("Club")] == "Barcelona"
    assert f1.rows[0].numbers[f1.index("Number")] == 7.0


def test_lookups_by_name_and_key_column(schema):
    # key in the last column, so the key lookup cannot lean on position 0
    keyed_last = (*schema[1:], schema[0])
    rel = load_csv("Number,Club,Name,Nationality\n7,Juventus,Ronaldo ,Portugal\n", keyed_last, name="Soccer")
    assert [rel.index(a.name) for a in keyed_last] == [0, 1, 2, 3]
    assert rel.attribute("Club") is keyed_last[2]
    assert rel.key_attr is keyed_last[3]
    assert rel.key_of(rel.rows[0]) == "Ronaldo" and rel.keys() == ("Ronaldo",)
    assert rel.rows[0].values[rel.index("Club")] == "Juventus"
    for lookup in (rel.index, rel.attribute):
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
    assert rel.rows[0].values[rel.index("Number")] == "7"
    assert rel.dropped_columns == ("Agent",)


def test_csv_round_trip_identity(schema, f1):
    again = load_csv(to_csv(f1), schema, name=f1.name)
    assert again.name == f1.name
    assert again.schema == f1.schema
    assert again.rows == f1.rows


def test_round_trip_survives_quoting(schema):
    rel = Relation.from_values(
        "q", schema, [("Player, The", "7", 'said "hi"', "Club\nNewline")]
    )
    again = load_csv(to_csv(rel), schema, name="q")
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
                cell = row.values[rel.index(spec.name)].strip().casefold()
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
    from tabbench.relation import schema_from_json

    text = json.dumps([
        {"name": a.name, "kind": a.kind, "canonical_phrase": a.canonical_phrase,
         "paraphrases": list(a.paraphrases), "is_key": a.is_key}
        for a in schema
    ], indent=2)
    assert schema_from_json(text) == schema


@pytest.mark.parametrize("field,value,message", [
    ("is_key", "false", "is_key must be bool, got 'false'"),
    ("paraphrases", "nm", "paraphrases must be tuple[str, ...], got 'nm'"),
])
def test_schema_json_of_the_wrong_type_is_not_read(schema, tmp_path, field, value, message):
    """A schema attribute is read by the codec: a string is neither a boolean
    nor a list of phrases, and a pack with such a schema does not load."""
    import shutil

    from tabbench.datasets import DATA_DIR, PackError, load_pack
    from tabbench.relation import schema_from_json
    from tabbench.runio import CodecError

    pack = tmp_path / "pack"
    shutil.copytree(DATA_DIR / "soccer", pack)
    attributes = json.loads((pack / "schema.json").read_text(encoding="utf-8"))
    attributes[1][field] = value
    text = json.dumps(attributes)
    with pytest.raises(CodecError, match=message.replace("[", "\\[")):
        schema_from_json(text)
    (pack / "schema.json").write_text(text, encoding="utf-8")
    with pytest.raises(PackError, match=f"CodecError: {message}".replace("[", "\\[")):
        load_pack(pack)


@pytest.mark.parametrize("text", ["{}", "[5]", '"Name"'])
def test_schema_json_not_a_list_of_attributes_names_the_type_as_written(text):
    """A schema that is not a list of attribute objects names the hint as a
    field's message would, not only its origin `tuple`."""
    import re

    from tabbench.relation import schema_from_json
    from tabbench.runio import CodecError

    message = f"value must be tuple[AttributeSpec, ...], got {json.loads(text)!r}"
    with pytest.raises(CodecError, match=f"^{re.escape(message)}$"):
        schema_from_json(text)
