from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

from tabbench.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path: Path, **overrides) -> Path:
    payload = {
        "dataset": "soccer",
        "seed": 11,
        "sample_n": 12,
        "pair_count": 2,
        "request_types": ["retrieval", "count", "existence"],
        "connectives": ["and", "or"],
        "levels": ["table"],
    }
    payload.update(overrides)
    target = path / "config.json"
    target.write_text(json.dumps(payload), encoding="utf-8")
    return target


def test_generate_without_seed_exits_2(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": "soccer"}), encoding="utf-8")
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / "gen")])
    assert result.exit_code == 2
    assert "seed" in result.output
    assert not (tmp_path / "gen" / "suite.jsonl").exists()


def test_generate_with_missing_dataset_exits_2(runner, tmp_path):
    config = write_config(tmp_path, dataset=str(tmp_path / "nope"))
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / "gen")])
    assert result.exit_code == 2
    assert not (tmp_path / "gen" / "suite.jsonl").exists()


def test_generate_zero_pairs_is_valid_noop(runner, tmp_path):
    config = write_config(tmp_path, pair_count=0)
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / "gen")])
    assert result.exit_code == 0
    assert (tmp_path / "gen" / "suite.jsonl").read_text() == ""


def test_pipeline_with_resume_and_reports(runner, tmp_path):
    config = write_config(tmp_path)
    gen_dir = tmp_path / "gen"
    results = tmp_path / "results.jsonl"
    eval_dir = tmp_path / "eval"

    generated = runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    assert generated.exit_code == 0, generated.output
    assert "retrieval: 12 instances" in generated.output
    assert "existence: 24 instances" in generated.output

    first = runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"),
                                 "--model", "perfect", "--out", str(results)])
    assert first.exit_code == 0, first.output
    assert "answered 48" in first.output

    again = runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"),
                                 "--model", "perfect", "--out", str(results)])
    assert again.exit_code == 0
    assert "answered 0 (reused 48" in again.output

    scored = runner.invoke(main, ["eval", "--suite", str(gen_dir / "suite.jsonl"),
                                  "--results", str(results), "--out", str(eval_dir)])
    assert scored.exit_code == 0, scored.output
    for name in ("records.csv", "aggregate.csv", "aggregate.md", "variance.csv", "existence.csv"):
        assert (eval_dir / name).is_file(), name

    report = runner.invoke(main, ["report", "--eval-dir", str(eval_dir)])
    assert report.exit_code == 0
    assert "Request Type" in report.output
    assert "existence robustness" in report.output


def test_run_rejects_tampered_suite(runner, tmp_path):
    config = write_config(tmp_path)
    gen_dir = tmp_path / "gen"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    suite = gen_dir / "suite.jsonl"
    suite.write_text(suite.read_text().replace("Argentina", "Atlantis"), encoding="utf-8")
    result = runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect",
                                  "--out", str(tmp_path / "results.jsonl")])
    assert result.exit_code == 2
    assert "digest mismatch" in result.output


def test_eval_rejects_unknown_result_ids(runner, tmp_path):
    config = write_config(tmp_path)
    gen_dir = tmp_path / "gen"
    results = tmp_path / "results.jsonl"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"), "--model", "perfect",
                         "--out", str(results)])
    # without its manifest the edited results reach the id check, not the digest check
    (tmp_path / "results.jsonl.manifest.json").unlink()
    with open(results, "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "ghost", "model": "m", "text": "ANSWER:\nx",
                            "error": None, "attempts": 1}) + "\n")
    result = runner.invoke(main, ["eval", "--suite", str(gen_dir / "suite.jsonl"),
                                  "--results", str(results), "--out", str(tmp_path / "eval")])
    assert result.exit_code == 2
    assert "ghost" in result.output


def test_unknown_model_exits_2(runner, tmp_path):
    config = write_config(tmp_path)
    gen_dir = tmp_path / "gen"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    result = runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"),
                                  "--model", "gpt-nonexistent", "--out", str(tmp_path / "r.jsonl")])
    assert result.exit_code == 2


def test_lossy_model_spec_parsing(runner, tmp_path):
    config = write_config(tmp_path, request_types=["retrieval"])
    gen_dir = tmp_path / "gen"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    result = runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"),
                                  "--model", "lossy:q=0.5,r=0.1,seed=3",
                                  "--out", str(tmp_path / "r.jsonl")])
    assert result.exit_code == 0, result.output


def test_convert_rate_perfect(runner):
    result = runner.invoke(main, ["convert-rate", "--seed", "4", "--sample-n", "6"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 6  # three packs x columns given/none
    assert all(line.endswith("cell_fill_rate=1.0000") for line in lines)


class _Failing500(BaseHTTPRequestHandler):
    def do_POST(self):
        self.send_response(500)
        self.end_headers()

    def log_message(self, *args):
        pass


def test_remote_500s_recorded_without_aborting(runner, tmp_path, monkeypatch):
    server = HTTPServer(("127.0.0.1", 0), _Failing500)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    monkeypatch.setenv("STUB_KEY", "k")
    config = write_config(
        tmp_path,
        request_types=["count"],
        pair_count=1,
        models=[{
            "name": "stub", "endpoint": f"http://127.0.0.1:{server.server_port}/v1",
            "model": "stub-model", "auth_env": "STUB_KEY",
            "max_retries": 1, "backoff_base_ms": 1, "timeout_s": 5,
        }],
    )
    gen_dir = tmp_path / "gen"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    result = runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"),
                                  "--model", "stub", "--config", str(config),
                                  "--out", str(tmp_path / "r.jsonl")])
    server.shutdown()
    assert result.exit_code == 0, result.output
    lines = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert lines and all(l["error"] == "provider: 500" for l in lines)


def test_generated_files_match_manifest_digests(runner, tmp_path):
    from tabbench.runio import read_manifest, verify_manifest

    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    gen_dir = tmp_path / "gen"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    manifest = read_manifest(gen_dir / "suite.manifest.json")
    verify_manifest(manifest, gen_dir)  # should not raise
    assert manifest["tool_version"]
    assert manifest["config_hash"]


def test_report_compare_file_headline(runner):
    fixture = Path(__file__).parent / "data" / "aggregate_avgs.json"
    result = runner.invoke(main, ["report", "--compare-file", str(fixture)])
    assert result.exit_code == 0, result.output
    assert "mean improvement 5.34 pp" in result.output
    assert "count difference reduction: 0.90" in result.output


def test_generate_seed_override_changes_suite(runner, tmp_path):
    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    for seed, out in (("11", "a"), ("12", "b")):
        result = runner.invoke(main, ["generate", "--config", str(config),
                                      "--out", str(tmp_path / out), "--seed", seed])
        assert result.exit_code == 0
    first = (tmp_path / "a" / "suite.jsonl").read_text()
    second = (tmp_path / "b" / "suite.jsonl").read_text()
    assert first != second


def test_eval_emits_manifest_covering_reports(runner, tmp_path):
    from tabbench.runio import read_manifest, verify_manifest

    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    gen_dir, results, eval_dir = tmp_path / "gen", tmp_path / "r.jsonl", tmp_path / "eval"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"), "--model", "perfect",
                         "--out", str(results)])
    runner.invoke(main, ["eval", "--suite", str(gen_dir / "suite.jsonl"),
                         "--results", str(results), "--out", str(eval_dir)])
    manifest = read_manifest(eval_dir / "eval.manifest.json")
    assert "records.csv" in manifest["files"]
    assert "aggregate.md" in manifest["files"]
    verify_manifest(manifest, eval_dir)


def test_eval_groups_by_portion_when_grid_present(runner, tmp_path):
    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1,
                          levels=["natural"], portions=[0.0, 0.5, 1.0])
    gen_dir, results, eval_dir = tmp_path / "gen", tmp_path / "r.jsonl", tmp_path / "eval"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)]).exit_code == 0
    runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"), "--model", "perfect",
                         "--out", str(results)])
    scored = runner.invoke(main, ["eval", "--suite", str(gen_dir / "suite.jsonl"),
                                  "--results", str(results), "--out", str(eval_dir)])
    assert scored.exit_code == 0, scored.output
    header = (eval_dir / "aggregate.csv").read_text().splitlines()[0]
    assert header.endswith("portion,mean,variance,count,templates")


def test_generate_sink_failure_exits_3(runner, tmp_path):
    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    result = runner.invoke(main, ["generate", "--config", str(config),
                                  "--out", str(blocker / "gen")])
    assert result.exit_code == 3


def test_default_pair_count_yields_600_per_type(runner, tmp_path):
    config = write_config(tmp_path, sample_n=100, pair_count=100, request_types=["count"])
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / "gen")])
    assert result.exit_code == 0, result.output
    assert "count: 600 instances" in result.output
    assert len((tmp_path / "gen" / "suite.jsonl").read_text().splitlines()) == 600


def _generated_and_run(runner, tmp_path) -> tuple[Path, Path]:
    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    suite, results = tmp_path / "gen" / "suite.jsonl", tmp_path / "results.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suite.parent)]).exit_code == 0
    assert runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect",
                                "--out", str(results)]).exit_code == 0
    return suite, results


def _truncate_last_line(path: Path) -> None:
    """Cut the file 19 characters into its last line, as an interrupted write leaves it."""
    text = path.read_text(encoding="utf-8").rstrip("\n")
    path.write_text(text[: text.rfind("\n") + 20], encoding="utf-8")


def _config_errors(result) -> list[str]:
    assert result.exit_code == 2, result.output
    return json.loads(result.stderr)["errors"]


def test_eval_truncated_results_line_exits_2(runner, tmp_path):
    suite, results = _generated_and_run(runner, tmp_path)
    results.with_name("results.jsonl.manifest.json").unlink()
    _truncate_last_line(results)
    lines = len(results.read_text().splitlines())
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert str(results) in error and f"line {lines}" in error


def test_run_resume_over_truncated_results_exits_2(runner, tmp_path):
    suite, results = _generated_and_run(runner, tmp_path)
    _truncate_last_line(results)
    lines = len(results.read_text().splitlines())
    result = runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect", "--out", str(results)])
    [error] = _config_errors(result)
    assert str(results) in error and f"line {lines}" in error


def test_eval_results_line_with_wrong_type_exits_2(runner, tmp_path):
    suite, results = _generated_and_run(runner, tmp_path)
    results.with_name("results.jsonl.manifest.json").unlink()
    lines = results.read_text(encoding="utf-8").splitlines()
    broken = json.loads(lines[0])
    broken["text"] = 5
    lines[0] = json.dumps(broken, sort_keys=True)
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert str(results) in error and "line 1" in error


def test_eval_suite_line_missing_keys_exits_2(runner, tmp_path):
    suite, results = _generated_and_run(runner, tmp_path)
    # without its manifest the edited suite reaches the line check, not the digest check
    (suite.parent / "suite.manifest.json").unlink()
    lines = suite.read_text(encoding="utf-8").splitlines()
    broken = json.loads(lines[1])
    del broken["gold"]
    lines[1] = json.dumps(broken, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert str(suite) in error and "line 2" in error and "gold" in error


@pytest.mark.parametrize("ref", ["nowhere", "later"])
def test_eval_suite_ref_to_an_id_not_read_earlier_exits_2(runner, tmp_path, ref):
    suite, results = _generated_and_run(runner, tmp_path)
    (suite.parent / "suite.manifest.json").unlink()
    lines = suite.read_text(encoding="utf-8").splitlines()
    broken = json.loads(lines[1])
    broken["context"] = {"same_as": json.loads(lines[2])["id"] if ref == "later" else ref}
    lines[1] = json.dumps(broken, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert str(suite) in error and "line 2: context is the same as" in error


def test_eval_rejects_results_of_another_suite(runner, tmp_path):
    config = write_config(tmp_path, request_types=["count"], pair_count=2)
    suites = {seed: tmp_path / f"gen{seed}" / "suite.jsonl" for seed in (1, 2)}
    for seed, suite in suites.items():
        assert runner.invoke(main, ["generate", "--config", str(config), "--seed", str(seed),
                                    "--out", str(suite.parent)]).exit_code == 0
    results = tmp_path / "results.jsonl"
    assert runner.invoke(main, ["run", "--suite", str(suites[1]), "--model", "perfect",
                                "--out", str(results)]).exit_code == 0
    ids = [[json.loads(line)["id"] for line in s.read_text().splitlines()] for s in suites.values()]
    assert ids[0] == ids[1]

    matching = runner.invoke(main, ["eval", "--suite", str(suites[1]), "--results", str(results),
                                    "--out", str(tmp_path / "eval1")])
    assert matching.exit_code == 0, matching.output
    crossed = runner.invoke(main, ["eval", "--suite", str(suites[2]), "--results", str(results),
                                   "--out", str(tmp_path / "eval2")])
    [error] = _config_errors(crossed)
    assert str(results) in error and "not the suite being scored" in error
    assert not (tmp_path / "eval2").exists()


@pytest.mark.parametrize("edited,message", [
    ("results", "digest mismatch for results.jsonl"),
    ("manifest", "corrupt manifest"),
])
def test_eval_rejects_results_or_manifest_edited_after_run(runner, tmp_path, edited, message):
    suite, results = _generated_and_run(runner, tmp_path)
    if edited == "results":
        results.write_text(results.read_text(encoding="utf-8").replace("ANSWER", "answer"), encoding="utf-8")
    else:
        results.with_name("results.jsonl.manifest.json").write_text("[]\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert message in error


@pytest.mark.parametrize("payload,message", [
    ([], "config: must be a JSON object"),
    ({"dataset": "soccer", "seed": 1, "models": [5]}, "models: entry 5 is not a JSON object"),
    ({"dataset": "soccer", "seed": 1, "request_types": 5}, "request_types: must be a list"),
    # entries of the wrong type
    ({"dataset": "soccer", "seed": 1, "n_conditions": ["x"]}, "n_conditions: 'x' is not a positive integer"),
    ({"dataset": "soccer", "seed": 1, "n_conditions": [0]}, "n_conditions: 0 is not a positive integer"),
    ({"dataset": "soccer", "seed": 1, "n_conditions": [True]}, "n_conditions: True is not a positive integer"),
    ({"dataset": "soccer", "seed": 1, "levels": [{}]}, "levels: unknown value {}"),
    ({"dataset": "soccer", "seed": 1, "request_types": [[]]}, "request_types: unknown value []"),
    ({"dataset": "soccer", "seed": 1, "connectives": [1]}, "connectives: unknown value 1"),
    ({"dataset": "soccer", "seed": 1, "portions": [True]}, "portions: True not in (0.0, 0.25, 0.5, 1.0)"),
    ({"dataset": "soccer", "seed": 1, "pair_count": True}, "pair_count: must be a non-negative integer"),
    ({"dataset": "soccer", "seed": False}, "seed: must be an integer"),
    ({"dataset": ["soccer"], "seed": 1}, "dataset: required (builtin name or pack directory)"),
])
def test_config_of_the_wrong_shape_exits_2(runner, tmp_path, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / "gen")])
    assert _config_errors(result) == [message]
    assert not (tmp_path / "gen").exists()


def test_eval_rejects_suite_edited_after_generate(runner, tmp_path):
    config = write_config(tmp_path, request_types=["count"], pair_count=1)
    suite, results = tmp_path / "gen" / "suite.jsonl", tmp_path / "results.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suite.parent)]).exit_code == 0
    assert runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect",
                                "--out", str(results)]).exit_code == 0
    lines = suite.read_text(encoding="utf-8").splitlines()
    edited = json.loads(lines[0])
    edited["gold"] = {"kind": "number", "value": 999}
    lines[0] = json.dumps(edited, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    eval_dir = tmp_path / "eval"
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(eval_dir)])
    [error] = _config_errors(result)
    assert "digest mismatch for suite.jsonl" in error
    assert not eval_dir.exists()


def test_suite_copy_is_checked_against_the_manifest(runner, tmp_path):
    config = write_config(tmp_path, request_types=["count"], pair_count=1)
    gen_dir, results = tmp_path / "gen", tmp_path / "results.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)]).exit_code == 0
    assert runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"), "--model", "perfect",
                                "--out", str(results)]).exit_code == 0
    lines = (gen_dir / "suite.jsonl").read_text(encoding="utf-8").splitlines()
    copy = gen_dir / "copy.jsonl"
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    unedited = runner.invoke(main, ["eval", "--suite", str(copy), "--results", str(results),
                                    "--out", str(tmp_path / "eval")])
    assert unedited.exit_code == 0, unedited.output

    edited = json.loads(lines[0])
    edited["gold"] = {"kind": "number", "value": 999}
    copy.write_text("\n".join([json.dumps(edited, sort_keys=True), *lines[1:]]) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(copy), "--results", str(results),
                                  "--out", str(tmp_path / "eval2")])
    [error] = _config_errors(result)
    assert "digest mismatch for suite.jsonl" in error
    assert not (tmp_path / "eval2").exists()


@pytest.mark.parametrize("stage,broken", [
    ("generate", "config"), ("run", "suite"), ("eval", "suite"), ("eval", "results"),
])
def test_input_that_is_not_utf8_exits_2(runner, tmp_path, stage, broken):
    suite, results = _generated_and_run(runner, tmp_path)
    config = tmp_path / "config.json"
    path = {"config": config, "suite": suite, "results": results}[broken]
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    args = {
        "generate": ["generate", "--config", str(config), "--out", str(tmp_path / "gen2")],
        "run": ["run", "--suite", str(suite), "--model", "perfect", "--out", str(tmp_path / "r2.jsonl")],
        "eval": ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
    }[stage]
    [error] = _config_errors(runner.invoke(main, args))
    assert str(path) in error and "not UTF-8" in error


def test_portions_with_more_than_one_level_exit_2(runner, tmp_path):
    config = write_config(tmp_path, levels=["natural", "table"], portions=[0.5])
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / "gen")])
    [error] = _config_errors(result)
    assert error.startswith("portions:")
    assert not (tmp_path / "gen").exists()
