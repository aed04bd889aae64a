from __future__ import annotations

import json
from collections import Counter

import pytest

from tabbench.answers import parse
from tabbench.datasets import BUILTIN_PACKS, PackError, load_pack
from tabbench.evaluator import score
from tabbench.gateway import PerfectOracle, complete
from tabbench.oracle import CONTAINS, GT, LT
from tabbench import relation
from tabbench.relation import parse_number, sample_entities
from tabbench.requestgen import RequestType, SuiteConfig, generate_suite
from tabbench.requesttypes import ROWS


def test_load_pack_parses_each_numeric_cell_once(monkeypatch):
    parsed = Counter()

    def counting(text):
        parsed[text] += 1
        return parse_number(text)

    monkeypatch.setattr(relation, "parse_number", counting)
    rel = load_pack("soccer").relation
    numeric = [i for i, a in enumerate(rel.schema) if a.kind == "numeric"]
    assert numeric
    assert sum(parsed.values()) == len(rel.rows) * len(numeric)
    assert parsed == Counter(row[i] for row in rel.rows for i in numeric)


@pytest.mark.parametrize("name", BUILTIN_PACKS)
def test_builtin_pack_loads_complete(name):
    pack = load_pack(name)
    assert pack.entity_noun and pack.entity_noun_plural
    assert len(pack.relation.rows) >= 100
    assert pack.relation.attribute(pack.numeric_target).kind == "numeric"
    for request_type, row in ROWS.items():
        for negated in row.wordings:
            assert len(pack.templates.templates_for(request_type, negated)) == 3
        assert pack.templates.footer_for(request_type)
    assert set(pack.templates.footers) == {t.value for t in RequestType}
    assert len(pack.templates.templates_for(RequestType.EXISTENCE, negated=True)) == 3
    pack.bank.check_schema(pack.relation.schema)


def test_movie_and_pii_allow_inequality_and_partial_equality():
    assert set(load_pack("movie").allowed_ops) >= {GT, LT, CONTAINS}
    assert set(load_pack("pii").allowed_ops) >= {GT, LT, CONTAINS}
    assert load_pack("soccer").allowed_ops == ("eq",)


@pytest.mark.parametrize("name", BUILTIN_PACKS)
def test_perfect_identity_on_every_pack(name):
    pack = load_pack(name)
    rel = sample_entities(pack.relation, 20, 5)
    config = SuiteConfig(pair_count=2, request_types=tuple(RequestType), seed=17)
    model = PerfectOracle()
    for instance in generate_suite(rel, config, pack):
        parsed = parse(complete(instance, model).text, instance.request_type)
        record = score(instance, parsed, model=model.model_id)
        expected = 0.0 if record.metric == "abs_diff" else 1.0
        assert record.value == expected, (name, record.request_id)


def test_pii_suites_include_domain_conditions():
    pack = load_pack("pii")
    rel = sample_entities(pack.relation, 40, 3)
    config = SuiteConfig(pair_count=20, request_types=(RequestType.RETRIEVAL,), seed=23)
    suite = generate_suite(rel, config, pack)
    prompts = "\n".join(i.prompt for i in suite)
    assert "e-mail domain is" in prompts


def test_missing_pack_dir_raises():
    with pytest.raises(PackError):
        load_pack("/nonexistent/pack/dir")


def test_pack_validation_rejects_empty_noun(tmp_path):
    from tabbench.datasets import DATA_DIR

    for name in ("schema.json", "rows.csv", "phrases.json", "templates.json"):
        (tmp_path / name).write_bytes((DATA_DIR / "soccer" / name).read_bytes())
    meta = {
        "name": "soccer", "entity_noun": "", "entity_noun_plural": "soccer players",
        "allowed_ops": ["eq"], "numeric_target": "Number",
    }
    (tmp_path / "dataset.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(PackError):
        load_pack(tmp_path)


def test_dataset_json_keys_left_out_take_their_defaults(tmp_path):
    """A pack's files take their default names unless dataset.json names
    them, and without projection_attrs a projection asks for the key."""
    import shutil

    from tabbench.datasets import DATA_DIR

    shutil.copytree(DATA_DIR / "soccer", tmp_path / "pack")
    (tmp_path / "pack" / "phrases.json").rename(tmp_path / "pack" / "wording.json")
    meta = {"name": "soccer", "entity_noun": "soccer player", "entity_noun_plural": "soccer players",
            "allowed_ops": ["eq"], "numeric_target": "Number", "phrases": "wording.json"}
    (tmp_path / "pack" / "dataset.json").write_text(json.dumps(meta), encoding="utf-8")
    pack, builtin = load_pack(tmp_path / "pack"), load_pack("soccer")
    assert pack.target_for(RequestType.PROJECTION) == ("Name",)
    assert (pack.relation, pack.bank, pack.templates) == (builtin.relation, builtin.bank, builtin.templates)
