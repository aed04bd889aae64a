"""The benchmark's tracer (bench/tracing.py) wraps tabbench functions by module
and attribute name, so a rename in src/ must fail here rather than crash a
traced benchmark run; so must a change to what a wrapped function returns,
which the tracer's observers read."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_call_site_exists():
    table = _tracing()._patch_table()
    assert table
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_pass_reports_every_benchmark_layer(tmp_path):
    tracing = _tracing()
    # 9 wordings x 3 templates x 6 pairs x 2 connectives = 324 completions,
    # between 100 and 999, so the tail latency is reported at p90
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": "soccer", "seed": 7, "pair_count": 6, "connectives": ["and", "or"], "levels": ["table"],
        "request_types": ["retrieval", "deletion", "update", "superlative", "sum", "count", "existence",
                          "projection"],
    }), encoding="utf-8")
    suite, results = tmp_path / "gen" / "suite.jsonl", tmp_path / "results.jsonl"
    stages = {
        "generate": ["generate", "--config", str(config), "--out", str(suite.parent)],
        "run": ["run", "--suite", str(suite), "--model", "perfect", "--out", str(results)],
        "eval": ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
    }
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, codes = tracing.run_pass(stages, tracer)
    assert codes == {"generate": 0, "run": 0, "eval": 0}
    metrics = tracing.layer_metrics(tracer)
    assert metrics["gateway.complete_calls"] == 324
    # each wrapped name is one that a stage really calls: a stage that went
    # round it would leave its span or count at 0
    assert metrics["requestgen.suite_bytes"] == suite.stat().st_size
    assert metrics["answers.parse_calls"] == metrics["gateway.complete_calls"]
    assert metrics["structurer.parse_table_calls"] == 72
    for span in ("requestgen.dump_suite_s", "gateway.run_suite_s", "evaluator.score_s", "evaluator.write_reports_s"):
        assert metrics[span] > 0, span
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = [layer["name"] for layer in benchmark["per_layer"]
               if layer["name"] != "trace.overhead_s" and layer["name"] not in metrics]
    assert missing == []
