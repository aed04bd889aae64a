"""Acceptance gate: one test per shipping criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
(after `pip install -e .`). Without an install, put `src` on the path:
`PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest tests/test_acceptance.py -v -s`.
"""
from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tabbench
from tabbench.answers import EntityList, Judgement, parse
from tabbench.datasets import load_pack
from tabbench.evaluator import aggregate, compare_formats, existence_robustness, score
from tabbench.gateway import LossyOracle, PerfectOracle, complete
from tabbench.oracle import (
    AND,
    DIFF,
    PlanError,
    evaluate,
)
from tabbench.relation import normalize, sample_entities
from tabbench.requestgen import (
    CORE_TYPES,
    RequestType,
    SuiteConfig,
    generate_suite,
)
from tabbench.seeding import derive_seed
from tabbench.structurer import (
    PhraseBank,
    SentenceFrame,
    StructuringLevel,
    parse_table,
    render,
    render_partial,
)

from conftest import PLAN_SHAPES, instances_per_type, random_plan, random_relation, table_equal
from reference_oracle import brute_force_reference

DATA = Path(__file__).parent / "data"


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def soccer_pack():
    return load_pack("soccer")


@pytest.fixture(scope="module")
def soccer_100(soccer_pack):
    return sample_entities(soccer_pack.relation, 100, derive_seed(11, "sample"))


def run_model(instances, model):
    """In-memory run -> parse -> score chain for one mock model."""
    records = []
    for instance in instances:
        response = complete(instance, model)
        parsed = parse(response.text, instance.request_type)
        records.append(score(instance, parsed, model=model.model_id))
    return records


@criterion(1, "oracle differential, 1000+ seeded instances, all nine plan shapes")
def test_criterion_1_oracle_differential():
    started = time.monotonic()
    rng = random.Random(987654321)
    checked = {shape: 0 for shape in PLAN_SHAPES}
    total = 0
    while total < 1100:
        rel = random_relation(rng, max_rows=20)
        shape = PLAN_SHAPES[total % len(PLAN_SHAPES)]
        plan = random_plan(rng, rel, shape)
        try:
            expected = evaluate(plan, rel)
        except PlanError:
            continue
        assert brute_force_reference(plan, rel) == expected, (shape, plan)
        checked[shape] += 1
        total += 1
    elapsed = time.monotonic() - started
    assert all(count > 0 for count in checked.values()), checked
    assert elapsed < 10.0, f"differential battery took {elapsed:.1f}s"


@criterion(2, "perfect end-to-end identity over the default suite plus extensions")
def test_criterion_2_perfect_identity(soccer_pack, soccer_100):
    started = time.monotonic()
    core = SuiteConfig(seed=11)  # 100 pairs x {and, or} x 3 templates per core type
    existence = SuiteConfig(seed=12, request_types=(RequestType.EXISTENCE,))
    projection = SuiteConfig(seed=13, request_types=(RequestType.PROJECTION,))
    difference = SuiteConfig(seed=14, pair_count=50, connectives=(DIFF,),
                             request_types=(RequestType.RETRIEVAL, RequestType.SUM, RequestType.COUNT))

    core_suite = generate_suite(soccer_100, core, soccer_pack)
    per_type = {t: sum(1 for i in core_suite if i.request_type is t) for t in CORE_TYPES}
    assert all(count == 600 for count in per_type.values()), per_type

    instances = list(core_suite)
    for config in (existence, projection, difference):
        instances.extend(generate_suite(soccer_100, config, soccer_pack))

    records = run_model(instances, PerfectOracle())
    assert len(records) == len(instances)
    for record in records:
        if record.metric == "abs_diff":
            assert record.value == 0.0, record
        else:
            assert record.value == 1.0, record
        if record.request_type == "existence":
            assert record.extras["rationale_accuracy"] == 1.0

    for row in aggregate(records):
        assert row.variance == 0.0, row

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"end-to-end identity took {elapsed:.1f}s"


@criterion(3, "lossy mock statistics: recall within 3 binomial sigma, precision exactly 1")
def test_criterion_3_lossy_statistics(soccer_pack, soccer_100):
    q = 0.2
    config = SuiteConfig(seed=21, request_types=(RequestType.RETRIEVAL,))
    instances = generate_suite(soccer_100, config, soccer_pack)
    model = LossyOracle(omission_prob=q, flip_prob=0.0, seed=303)

    total_gold = 0
    total_tp = 0
    total_pred = 0
    for instance in instances:
        response = complete(instance, model)
        parsed = parse(response.text, instance.request_type)
        assert isinstance(parsed, EntityList)
        from tabbench.answers import match_entities

        pred = match_entities(parsed, instance.entity_keys).keys
        gold = instance.gold.keys
        assert pred <= gold  # omissions only: nothing invented
        total_gold += len(gold)
        total_tp += len(pred & gold)
        total_pred += len(pred)

    assert total_gold >= 500, f"fixture too small: {total_gold} gold entities"
    precision = total_tp / total_pred
    recall = total_tp / total_gold
    sigma = (q * (1 - q) / total_gold) ** 0.5
    assert precision == 1.0
    assert abs(recall - (1 - q)) <= 3 * sigma, (recall, 3 * sigma)


@criterion(4, "suite-size arithmetic: 600 instructions per request type under defaults")
def test_criterion_4_suite_size(soccer_pack, soccer_100):
    config = SuiteConfig(seed=31)
    suite = generate_suite(soccer_100, config, soccer_pack)
    assert len(config.request_types) == 6
    counts = {}
    for instance in suite:
        counts[instance.request_type] = counts.get(instance.request_type, 0) + 1
    for request_type in config.request_types:
        assert counts[request_type] == 600, counts
        assert instances_per_type(config, request_type) == 600
    assert len(suite) == 3600


@criterion(5, "headline aggregates: 5.34 pp over score-typed requests, 0.90 count reduction")
def test_criterion_5_headline_aggregates():
    fixture = json.loads((DATA / "aggregate_avgs.json").read_text(encoding="utf-8"))
    comparison = compare_formats(fixture["text"], fixture["table"])
    assert comparison.mean_improvement_pp == pytest.approx(5.34, abs=1e-9)
    assert comparison.count_abs_reduction == pytest.approx(0.90, abs=1e-9)
    # relative-change headline is convention-dependent and must say so
    assert comparison.convention
    assert any("convention" in note for note in comparison.notes)
    assert 0.36 < comparison.mean_relative_change < 0.38


def _auto_bank(schema) -> PhraseBank:
    non_key = tuple(a.name for a in schema if not a.is_key)
    clauses = {
        name: (f"with {name} equal to {{value}}", f"whose {name} reads {{value}}")
        for name in non_key
    }
    return PhraseBank(
        frames=(
            SentenceFrame("{key} is an entry", non_key),
            SentenceFrame("{key}, on record,", non_key),
        ),
        clauses=clauses,
    )


@criterion(6, "structuring invariants over 100 seeded relations")
def test_criterion_6_structuring_invariants():
    rng = random.Random(5091)
    relations = []
    while len(relations) < 100:
        rel = random_relation(rng, max_rows=12)
        if rel.rows:
            relations.append(rel)

    for index, rel in enumerate(relations):
        bank = _auto_bank(rel.schema)
        seed = 1000 + index
        for level in StructuringLevel:
            text = normalize(render(rel, level, seed, bank))
            for row in rel.rows:
                for cell in row:
                    assert normalize(cell) in text, (level, cell)

        assert table_equal(parse_table(render(rel, StructuringLevel.TABLE, seed)), rel)

        n = len(rel.rows)
        for portion in (0.0, 0.25, 0.5, 1.0):
            text = render_partial(rel, portion, seed, bank)
            take = int(portion * n)
            if take == 0:
                assert text == render(rel, StructuringLevel.NATURAL, seed, bank)
                continue
            if take == n:
                assert text == render(rel, StructuringLevel.TABLE, seed, bank)
                continue
            text_block, table_block = text.split("\n\n")
            table_keys = {row[0] for row in parse_table(table_block).rows}
            assert len(table_keys) == take
            text_norm = normalize(text_block)
            text_keys = {k for k in rel.keys() if normalize(k) in text_norm}
            assert table_keys | text_keys == set(rel.keys())
            assert not (table_keys & text_keys)


_PIPELINE_CONFIG = {
    "dataset": "soccer",
    "seed": 77,
    "sample_n": 12,
    "pair_count": 3,
    "request_types": ["retrieval", "count", "existence", "projection"],
    "connectives": ["and", "or"],
    "levels": ["natural", "table"],
}

_PIPELINE_FILES = (
    "gen/suite.jsonl", "results.jsonl", "eval/records.csv", "eval/aggregate.csv",
    "eval/aggregate.md", "eval/variance.csv", "eval/compare.json", "eval/existence.csv",
)


def _run_pipeline(root: Path, hash_seed: str) -> None:
    root.mkdir(parents=True)
    config = root / "config.json"
    config.write_text(json.dumps(_PIPELINE_CONFIG), encoding="utf-8")
    # The subprocesses import the same tabbench copy as this process (src/ or an
    # installed package), ahead of any PYTHONPATH the caller already set.
    package_root = str(Path(tabbench.__file__).resolve().parent.parent)
    python_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {
        "PYTHONHASHSEED": hash_seed,
        "PATH": "/usr/bin:/bin:/usr/local/bin",
        "PYTHONPATH": python_path,
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    commands = [
        [sys.executable, "-m", "tabbench.cli", "generate", "--config", str(config), "--out", str(root / "gen")],
        [sys.executable, "-m", "tabbench.cli", "run", "--suite", str(root / "gen" / "suite.jsonl"),
         "--model", "perfect", "--out", str(root / "results.jsonl")],
        [sys.executable, "-m", "tabbench.cli", "eval", "--suite", str(root / "gen" / "suite.jsonl"),
         "--results", str(root / "results.jsonl"), "--out", str(root / "eval")],
    ]
    for command in commands:
        finished = subprocess.run(command, capture_output=True, text=True, env=env)
        assert finished.returncode == 0, f"{' '.join(command)} failed:\n{finished.stderr}"


@criterion(7, "byte-identical suite, results, and reports across pipeline executions")
def test_criterion_7_determinism(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    _run_pipeline(first, hash_seed="1")
    _run_pipeline(second, hash_seed="31337")
    for name in _PIPELINE_FILES:
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between executions"
        assert a, f"{name} is empty"


@criterion(8, "conversion-rate path: perfect mock fills every cell, all packs, both variants")
def test_criterion_8_convert_rate():
    from click.testing import CliRunner

    from tabbench.cli import main

    result = CliRunner().invoke(main, ["convert-rate", "--seed", "5", "--sample-n", "10"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 6
    for dataset in ("soccer", "movie", "pii"):
        for label in ("given", "none"):
            assert f"dataset={dataset} columns={label} cell_fill_rate=1.0000" in lines


@criterion(9, "existence robustness report exact on a hand-scored fixture")
def test_criterion_9_existence_robustness(soccer_pack):
    rel = sample_entities(soccer_pack.relation, 12, derive_seed(3, "sample"))
    config = SuiteConfig(seed=41, pair_count=5, connectives=(AND,),
                         request_types=(RequestType.EXISTENCE,))
    instances = generate_suite(rel, config, soccer_pack)
    originals = [i for i in instances if not i.negated][:10]
    negateds = [i for i in instances if i.negated][:10]
    assert len(originals) == 10 and len(negateds) == 10

    # hand-built judgements: 9/10 correct on original wording, 7/10 on negated
    records = []
    for index, instance in enumerate(originals):
        correct = instance.gold.value  # original wording: gold spoken answer
        answer = correct if index < 9 else not correct
        records.append(score(instance, Judgement(answer, "checked by hand"), model="mock"))
    for index, instance in enumerate(negateds):
        correct = not instance.gold.value  # negated wording flips the spoken answer
        answer = correct if index < 7 else not correct
        records.append(score(instance, Judgement(answer, "checked by hand"), model="mock"))

    rows = existence_robustness(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.original_accuracy == pytest.approx(0.9)
    assert row.negated_accuracy == pytest.approx(0.7)
    assert row.delta == pytest.approx(0.2)
