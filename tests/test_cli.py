from __future__ import annotations

import errno
import json
import os
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from click.testing import CliRunner

import tabbench
from tabbench import gateway
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
    server.server_close()
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
    from tabbench.runio import read_manifest

    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    for seed, out in (("11", "a"), ("12", "b")):
        result = runner.invoke(main, ["generate", "--config", str(config),
                                      "--out", str(tmp_path / out), "--seed", seed])
        assert result.exit_code == 0
    first = (tmp_path / "a" / "suite.jsonl").read_text()
    second = (tmp_path / "b" / "suite.jsonl").read_text()
    assert first != second
    manifests = [read_manifest(tmp_path / out / "suite.manifest.json") for out in "ab"]
    assert [m["seed"] for m in manifests] == [11, 12]
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]


def test_config_spelling_out_defaults_hashes_as_one_omitting_them(runner, tmp_path):
    from tabbench.runio import read_manifest

    spelled = {"n_conditions": [2], "portions": [], "min_support": 1, "max_resample": 1000, "mode": "surrogate",
               "models": [{**REMOTE, "temperature": 0, "timeout_s": 60, "max_retries": 3, "max_in_flight": 4}]}
    hashes = []
    for out, extra in (("a", {"models": [REMOTE]}), ("b", spelled)):
        config = write_config(tmp_path, request_types=["count"], pair_count=1, **extra)
        assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(tmp_path / out)]).exit_code == 0
        hashes.append(read_manifest(tmp_path / out / "suite.manifest.json")["config_hash"])
    assert hashes[0] == hashes[1]


def test_eval_emits_manifest_covering_reports(runner, tmp_path):
    from tabbench.runio import read_manifest, verify_manifest

    config = write_config(tmp_path, request_types=["retrieval"], pair_count=1)
    gen_dir, results, eval_dir = tmp_path / "gen", tmp_path / "r.jsonl", tmp_path / "eval"
    runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)])
    runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"), "--model", "perfect",
                         "--out", str(results)])
    # reports an earlier eval into the same directory left; this suite has
    # neither a natural level nor existence requests, so it writes neither
    eval_dir.mkdir()
    for stale in ("compare.json", "existence.csv"):
        (eval_dir / stale).write_text("stale\n", encoding="utf-8")
    runner.invoke(main, ["eval", "--suite", str(gen_dir / "suite.jsonl"),
                         "--results", str(results), "--out", str(eval_dir)])
    manifest = read_manifest(eval_dir / "eval.manifest.json")
    assert set(manifest["files"]) == {"records.csv", "aggregate.csv", "aggregate.md", "variance.csv"}
    assert not (eval_dir / "compare.json").exists() and not (eval_dir / "existence.csv").exists()
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


class _FullDisk:
    """A file that takes one write and then fails, as a full disk does."""

    def __init__(self, stream):
        self.stream, self.writes = stream, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def write(self, text):
        if self.writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes += 1
        return self.stream.write(text)


def test_run_results_write_failing_part_way_keeps_previous_results(runner, tmp_path, monkeypatch):
    suite, results = _generated_and_run(runner, tmp_path)
    before, names = results.read_bytes(), {p.name for p in tmp_path.iterdir()}
    # every answer is reused, so the only write is the sorted results file
    monkeypatch.setattr(gateway, "open", lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)), raising=False)
    result = runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect", "--out", str(results)])
    assert result.exit_code == 3, result.output
    assert "No space left on device" in json.loads(result.stderr)["errors"][0]
    assert results.read_bytes() == before
    # only the .partial of the interrupted run is left beside it
    assert {p.name for p in tmp_path.iterdir()} - names == {"results.jsonl.partial"}


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


def test_run_does_not_resume_results_of_another_suite(runner, tmp_path):
    config = write_config(tmp_path, request_types=["count"], pair_count=1)
    suites = {seed: tmp_path / f"gen{seed}" / "suite.jsonl" for seed in (1, 2)}
    for seed, suite in suites.items():
        assert runner.invoke(main, ["generate", "--config", str(config), "--seed", str(seed),
                                    "--out", str(suite.parent)]).exit_code == 0
    results = tmp_path / "results.jsonl"
    assert runner.invoke(main, ["run", "--suite", str(suites[1]), "--model", "lossy:r=1",
                                "--out", str(results)]).exit_code == 0
    answered = results.read_bytes()
    crossed = runner.invoke(main, ["run", "--suite", str(suites[2]), "--model", "perfect", "--out", str(results)])
    [error] = _config_errors(crossed)
    assert str(results) in error and "not the suite being scored or answered" in error
    assert results.read_bytes() == answered


def test_run_does_not_resume_answers_of_another_model(runner, tmp_path):
    suite, results = _generated_and_run(runner, tmp_path)
    answered = results.read_bytes()
    result = runner.invoke(main, ["run", "--suite", str(suite), "--model", "lossy:q=0.5", "--out", str(results)])
    [error] = _config_errors(result)
    assert error == (f"{results}: line 1: answered by model 'perfect-oracle', "
                     f"not by 'lossy-oracle-q0.5-r0.0', the model of this run")
    assert results.read_bytes() == answered


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


@pytest.mark.parametrize("repeat", ["file", "line"])
def test_eval_rejects_a_result_it_has_already_scored(runner, tmp_path, repeat):
    suite, results = _generated_and_run(runner, tmp_path)
    lines = results.read_text(encoding="utf-8").splitlines()
    if repeat == "file":
        args, where = ["--results", str(results), "--results", str(results)], f"{results}: line 1"
    else:
        results.with_name("results.jsonl.manifest.json").unlink()
        results.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        args, where = ["--results", str(results)], f"{results}: line {len(lines) + 1}"
    result = runner.invoke(main, ["eval", "--suite", str(suite), *args, "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert error.startswith(f"{where}: model 'perfect-oracle' already answered {json.loads(lines[0])['id']!r}")
    assert not (tmp_path / "eval").exists()


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


REMOTE = {"name": "stub", "endpoint": "http://127.0.0.1:9/v1", "model": "stub-model", "auth_env": "TABBENCH_KEY"}


# Each case keeps the id it had when its expected message was the rule it
# breaks ("payload<n>-<rule>"); the message is now the one the codec or the
# class that owns the field reports: the first bad field and its value.
@pytest.mark.parametrize("payload,message", [
    pytest.param([], "config: must be a JSON object", id="payload0-config: must be a JSON object"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [5]},
                 "models must be tuple[ProviderConfig, ...], got [5]",
                 id="payload1-models: entry 5 is not a JSON object"),
    pytest.param({"dataset": "soccer", "seed": 1, "request_types": 5},
                 "request_types must be tuple[RequestType, ...], got 5", id="payload2-request_types: must be a list"),
    # entries of the wrong type
    pytest.param({"dataset": "soccer", "seed": 1, "n_conditions": ["x"]},
                 "n_conditions must be tuple[int, ...], got ['x']",
                 id="payload3-n_conditions: 'x' is not a positive integer"),
    pytest.param({"dataset": "soccer", "seed": 1, "n_conditions": [0]},
                 "n_conditions must each be at least 1, got 0", id="payload4-n_conditions: 0 is not a positive integer"),
    pytest.param({"dataset": "soccer", "seed": 1, "n_conditions": [True]},
                 "n_conditions must be tuple[int, ...], got [True]",
                 id="payload5-n_conditions: True is not a positive integer"),
    pytest.param({"dataset": "soccer", "seed": 1, "levels": [{}]},
                 "levels must be tuple[StructuringLevel, ...], got [{}]", id="payload6-levels: unknown value {}"),
    pytest.param({"dataset": "soccer", "seed": 1, "request_types": [[]]},
                 "request_types must be tuple[RequestType, ...], got [[]]",
                 id="payload7-request_types: unknown value []"),
    pytest.param({"dataset": "soccer", "seed": 1, "connectives": [1]},
                 "connectives must be tuple[str, ...], got [1]", id="payload8-connectives: unknown value 1"),
    pytest.param({"dataset": "soccer", "seed": 1, "portions": [True]},
                 "portions must be tuple[float, ...], got [True]",
                 id="payload9-portions: True not in (0.0, 0.25, 0.5, 1.0)"),
    pytest.param({"dataset": "soccer", "seed": 1, "pair_count": True},
                 "pair_count must be int, got True", id="payload10-pair_count: must be a non-negative integer"),
    pytest.param({"dataset": "soccer", "seed": False}, "seed must be int, got False",
                 id="payload11-seed: must be an integer"),
    pytest.param({"dataset": ["soccer"], "seed": 1}, "dataset must be str, got ['soccer']",
                 id="payload12-dataset: required (builtin name or pack directory)"),
    pytest.param({"dataset": "soccer", "seed": 1, "min_support": 0}, "min_support must be at least 1, got 0",
                 id="payload13-min_support: must be a positive integer"),
    # keys the config does not have
    pytest.param({"dataset": "soccer", "seed": 1, "request_type": ["count"]}, "unknown key 'request_type'",
                 id="payload14-request_type: unknown key; the keys are connectives, dataset, levels, max_resample, "
                    "min_support, mode, models, n_conditions, pair_count, portions, request_types, sample_n, seed"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "max_retires": 0}]},
                 "unknown key 'max_retires'", id="payload15-models: 'stub': unknown key 'max_retires'"),
    # models fields of the wrong type, and one name given twice
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "max_in_flight": "4"}]},
                 "max_in_flight must be int, got '4'", id="payload16-models: 'stub': max_in_flight must be int, got '4'"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "max_retries": "2"}]},
                 "max_retries must be int, got '2'", id="payload17-models: 'stub': max_retries must be int, got '2'"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "timeout_s": "1"}]},
                 "timeout_s must be float, got '1'", id="payload18-models: 'stub': timeout_s must be float, got '1'"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "temperature": False}]},
                 "temperature must be float, got False",
                 id="payload19-models: 'stub': temperature must be float, got False"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [REMOTE, {**REMOTE, "model": "other"}]},
                 "models: name 'stub' is given to more than one entry",
                 id="payload20-models: name 'stub' is given to more than one entry"),
    # models fields out of range
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "max_retries": -1}]},
                 "max_retries must be at least 0, got -1",
                 id="payload21-models: 'stub': max_retries must be at least 0"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "backoff_base_ms": -1}]},
                 "backoff_base_ms must be at least 0, got -1",
                 id="payload22-models: 'stub': backoff_base_ms must be at least 0"),
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "timeout_s": 0}]},
                 "timeout_s must be positive, got 0.0", id="payload23-models: 'stub': timeout_s must be positive"),
    # a name that is not a string
    pytest.param({"dataset": "soccer", "seed": 1, "models": [{**REMOTE, "name": [1]}]},
                 "name must be str, got [1]", id="payload24-models: [1]: name must be str, got [1]"),
    # a grid axis that repeats a value would count its cells twice
    pytest.param({"dataset": "soccer", "seed": 1, "request_types": ["count", "count"]},
                 "request_types must not repeat a value, got ['count', 'count']", id="repeated request type"),
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


@pytest.mark.parametrize("command", ["run", "convert-rate"])
@pytest.mark.parametrize("spec,message", [
    ("lossy:q=abc", "model: lossy parameter 'q' needs a number, got 'abc'"),
    ("lossy:q", "model: lossy parameter 'q' needs a number, got ''"),
    ("lossy:q=2", "model: lossy parameter 'q' must lie in [0, 1], got '2'"),
])
def test_bad_lossy_parameter_exits_2(runner, tmp_path, command, spec, message):
    args = {
        "run": ["run", "--suite", str(tmp_path / "suite.jsonl"), "--out", str(tmp_path / "r.jsonl")],
        "convert-rate": ["convert-rate", "--seed", "4", "--sample-n", "6"],
    }[command]
    assert _config_errors(runner.invoke(main, [*args, "--model", spec])) == [message]


@pytest.mark.parametrize("sample_n", ["0", "-1"])
def test_convert_rate_sample_n_below_one_exits_2(runner, sample_n):
    result = runner.invoke(main, ["convert-rate", "--seed", "4", "--sample-n", sample_n])
    assert _config_errors(result) == [f"--sample-n: {sample_n} is not a positive integer"]


def test_report_on_corrupt_compare_json_exits_2(runner, tmp_path):
    (tmp_path / "aggregate.md").write_text("| Request Type |\n", encoding="utf-8")
    compare = tmp_path / "compare.json"
    compare.write_text('{"mean_improvement_pp": 1.0,', encoding="utf-8")
    result = runner.invoke(main, ["report", "--eval-dir", str(tmp_path)])
    [error] = _config_errors(result)
    assert error.startswith(f"cannot read {compare}:")
    assert result.stdout == ""


def test_report_compare_file_with_a_mean_that_is_not_a_number_exits_2(runner, tmp_path):
    fixture = json.loads((Path(__file__).parent / "data" / "aggregate_avgs.json").read_text(encoding="utf-8"))
    fixture["table"][0]["mean"] = "abc"
    compare_file = tmp_path / "cells.json"
    compare_file.write_text(json.dumps(fixture), encoding="utf-8")
    [error] = _config_errors(runner.invoke(main, ["report", "--compare-file", str(compare_file)]))
    assert error.startswith(f"cannot compare {compare_file}:") and "'abc'" in error


# a pack file, the path of one value in it, a bad value for it, and the
# start of the error it must give
_BAD_PACK_VALUES = {
    "pack entity_noun_plural a number": ("dataset.json", ["entity_noun_plural"], 5,
                                         "CodecError: entity_noun_plural must be str, got 5"),
    "pack entity_noun a list": ("dataset.json", ["entity_noun"], ["x"],
                                "CodecError: entity_noun must be str, got ['x']"),
    "pack dataset.json with a misspelt key": ("dataset.json", ["projection_atrs"], ["Name"],
                                              "CodecError: unknown key 'projection_atrs'"),
    "pack footer a number": ("templates.json", ["footers", "count"], 5,
                             "CodecError: footers must be dict[str, str], got"),
    "pack clause template a number": ("phrases.json", ["clauses", "Club", 1], 5,
                                      "CodecError: clauses must be dict[str, tuple[str, ...]], got"),
    "pack sentence frame with an unknown key": ("phrases.json", ["frames", 0, "tail"], ".",
                                                "CodecError: unknown key 'tail'"),
    "pack numeric_target not in the schema": ("dataset.json", ["numeric_target"], "Goals",
                                              "PackError: numeric_target must be a schema attribute, got 'Goals'"),
    "pack numeric_target not numeric": ("dataset.json", ["numeric_target"], "Club",
                                        "PackError: numeric_target must be a numeric attribute, got 'Club'"),
    "pack projection attribute not in the schema": (
        "dataset.json", ["projection_attrs", 1], "Goals",
        "PackError: projection_attrs must each be a schema attribute, got 'Goals'"),
    "pack allowed_ops with an unknown op": ("dataset.json", ["allowed_ops"], ["eq", "between"],
                                            "PackError: allowed_ops must each be one of eq, gt, lt, contains, "
                                            "got 'between'"),
    "pack retrieval template with a target slot": (
        "templates.json", ["retrieval", 0], "List the {target} of soccer players with {conditions}.",
        "TemplateMismatchError: template retrieval/0 uses {target}, but retrieval takes no target attribute"),
}


def _broken_input(case: str, tmp_path: Path, suite: Path, monkeypatch) -> tuple[list[str], str]:
    """The command line that reads one broken input, and the file or setting its error must name."""
    from tabbench.datasets import DATA_DIR

    config, manifest, pack = tmp_path / "config.json", suite.parent / "suite.manifest.json", tmp_path / "pack"
    generate = ["generate", "--config", str(config), "--out", str(tmp_path / "gen2")]
    run = ["run", "--suite", str(suite), "--model", "perfect", "--out", str(tmp_path / "r2.jsonl")]
    if case.startswith("pack"):
        shutil.copytree(DATA_DIR / "soccer", pack)
        write_config(tmp_path, dataset=str(pack))
    run_remote = ["run", "--suite", str(suite), "--model", "stub", "--config", str(config),
                  "--out", str(tmp_path / "r2.jsonl")]

    if case == "--config a directory":
        return ["generate", "--config", str(suite.parent), "--out", str(tmp_path / "gen2")], str(suite.parent)
    if case == "--suite a directory":
        return [run[0], "--suite", str(suite.parent), *run[3:]], str(suite.parent)
    if case == "--results a directory":
        return (["eval", "--suite", str(suite), "--results", str(suite.parent), "--out", str(tmp_path / "eval")],
                str(suite.parent))
    if case == "pack dataset.json not JSON":
        (pack / "dataset.json").write_text("{", encoding="utf-8")
        return generate, str(pack)
    if case == "pack rows.csv without a schema column":
        rows = pack / "rows.csv"
        rows.write_text(rows.read_text(encoding="utf-8").replace("Name,", "Player,", 1), encoding="utf-8")
        return generate, str(pack)
    if case == "pack schema.json naming an attribute twice":
        schema = pack / "schema.json"
        attributes = json.loads(schema.read_text(encoding="utf-8"))
        schema.write_text(json.dumps([*attributes, attributes[1]]), encoding="utf-8")
        return generate, "'Number' more than once"
    if case == "pack without phrases.json":
        (pack / "phrases.json").unlink()
        return generate, str(pack)
    if case in _BAD_PACK_VALUES:
        file, path, value, named = _BAD_PACK_VALUES[case]
        obj = json.loads((pack / file).read_text(encoding="utf-8"))
        holder = obj
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        (pack / file).write_text(json.dumps(obj), encoding="utf-8")
        return generate, f"{pack / file}: cannot load pack ({named}"
    if case == "report aggregate.md not UTF-8":
        (tmp_path / "eval").mkdir()
        (tmp_path / "eval" / "aggregate.md").write_bytes(b"\xff\xfe| Request Type |\n")
        return ["report", "--eval-dir", str(tmp_path / "eval")], str(tmp_path / "eval" / "aggregate.md")
    if case == "suite manifest not UTF-8":
        manifest.write_bytes(b"\xff\xfe" + manifest.read_bytes())
        return run, str(manifest)
    if case == "suite manifest digest not a string":
        manifest.write_text(json.dumps({"files": {"suite.jsonl": 5}}), encoding="utf-8")
        return run, str(manifest)
    if case == "suite gold keys not a list":
        manifest.unlink()
        lines = suite.read_text(encoding="utf-8").splitlines()
        broken = json.loads(lines[0])
        broken["gold"]["keys"] = "Messi"
        suite.write_text("\n".join([json.dumps(broken, sort_keys=True), *lines[1:]]) + "\n", encoding="utf-8")
        return run, "keys must be frozenset[str], got 'Messi'"
    if case == "suite relation gold repeating a key":
        manifest.unlink()
        lines = suite.read_text(encoding="utf-8").splitlines()
        broken = json.loads(lines[1])
        broken["gold"] = {"kind": "relation", "columns": ["Name"], "key": "Name", "rows": [["Messi"], ["messi "]]}
        suite.write_text("\n".join([lines[0], json.dumps(broken, sort_keys=True), *lines[2:]]) + "\n",
                         encoding="utf-8")
        return run, "line 2: not a suite instance (DuplicateKeyError: duplicate key 'messi ')"
    if case == "suite retrieval gold a number":
        manifest.unlink()
        lines = suite.read_text(encoding="utf-8").splitlines()
        broken = json.loads(lines[0])
        broken["gold"] = {"kind": "number", "value": 3}
        suite.write_text("\n".join([json.dumps(broken, sort_keys=True), *lines[1:]]) + "\n", encoding="utf-8")
        return run, "line 1: not a suite instance (ValueError: gold must be entity_set for retrieval, got number)"
    if case == "results line attempts a boolean":
        results = tmp_path / "results.jsonl"
        results.with_name("results.jsonl.manifest.json").unlink()
        lines = results.read_text(encoding="utf-8").splitlines()
        broken = json.loads(lines[0])
        broken["attempts"] = True
        results.write_text("\n".join([json.dumps(broken, sort_keys=True), *lines[1:]]) + "\n", encoding="utf-8")
        return (["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
                f"{results}: line 1: not a result line (attempts must be int, got True)")
    if case in ("results line with neither text nor error", "results line with both text and error"):
        results = tmp_path / "results.jsonl"
        results.with_name("results.jsonl.manifest.json").unlink()
        lines = results.read_text(encoding="utf-8").splitlines()
        broken = json.loads(lines[0])
        neither = case == "results line with neither text nor error"
        broken["text" if neither else "error"] = None if neither else "provider: 500"
        results.write_text("\n".join([json.dumps(broken, sort_keys=True), *lines[1:]]) + "\n", encoding="utf-8")
        # eval reads the file, and so does run when it resumes it
        args = (["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")]
                if neither else [*run[:5], "--out", str(results)])
        return args, f"{results}: line 1: not a result line (exactly one of text and error must be set"
    if case == "models entry with an unset auth_env":
        monkeypatch.delenv("TABBENCH_KEY", raising=False)
        write_config(tmp_path, models=[REMOTE])
        return run_remote, "TABBENCH_KEY"
    if case == "models entry with max_in_flight 0":
        monkeypatch.setenv("TABBENCH_KEY", "k")
        write_config(tmp_path, models=[{**REMOTE, "max_in_flight": 0}])
        return run_remote, "max_in_flight"
    assert case == "--max-in-flight 0"
    return [*run, "--max-in-flight", "0"], "--max-in-flight"


@pytest.mark.parametrize("case", [
    "--config a directory", "--suite a directory", "--results a directory",
    "pack dataset.json not JSON", "pack rows.csv without a schema column", "pack without phrases.json",
    "pack schema.json naming an attribute twice", *_BAD_PACK_VALUES,
    "report aggregate.md not UTF-8", "suite manifest not UTF-8", "suite manifest digest not a string",
    "suite gold keys not a list", "suite relation gold repeating a key", "suite retrieval gold a number",
    "results line attempts a boolean", "results line with neither text nor error",
    "results line with both text and error",
    "models entry with an unset auth_env", "models entry with max_in_flight 0", "--max-in-flight 0",
])
def test_input_that_cannot_be_read_or_used_exits_2(runner, tmp_path, monkeypatch, case):
    suite, _ = _generated_and_run(runner, tmp_path)
    args, named = _broken_input(case, tmp_path, suite, monkeypatch)
    result = runner.invoke(main, args)
    [error] = _config_errors(result)
    assert named in error
    assert result.stdout == ""
    assert not list(tmp_path.rglob("*.partial"))


def test_importing_the_cli_loads_no_http_client():
    """Only a remote model's answer needs the HTTP stack, so no stage pays for
    importing it up front."""
    package_root = str(Path(tabbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, tabbench.cli; print(sorted({'requests', 'urllib3', 'http.client'} & set(sys.modules)))"
    finished = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert finished.stdout == "[]\n"
