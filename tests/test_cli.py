from __future__ import annotations

import csv
import dataclasses
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
from tabbench import cli, requestgen, runio
from tabbench.cli import main
from tabbench.datasets import BUILTIN_PACKS
from tabbench.requesttypes import RequestType

from conftest import every_key_on_every_line, footer_in_prompt


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
    # the digest is checked after the last line, and before anything is dispatched
    assert not (tmp_path / "results.jsonl").exists()
    assert not list(tmp_path.rglob("*.partial"))


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


def test_generate_writes_the_suite_in_batches_and_records_the_digest_of_what_it_wrote(runner, tmp_path,
                                                                                        monkeypatch):
    import hashlib

    from tabbench.requestgen import dump_suite, generate_suite
    from tabbench.runio import read_manifest

    config_path = write_config(tmp_path, pair_count=12)
    config = cli.load_config(config_path)
    pack = cli.load_pack(config.dataset)
    expected = dump_suite(generate_suite(cli.sampled_relation(pack, config), config.suite, pack)).encode("utf-8")
    assert len(expected.splitlines()) > requestgen.SUITE_BATCH

    batches, hashed = [], []

    def dumping(instances, stated=None):
        batches.append(len(instances))
        return dump_suite(instances, stated)

    def hashing(sha256_file):
        def wrapper(path):
            hashed.append(Path(path).name)
            return sha256_file(path)
        return wrapper

    monkeypatch.setattr(cli, "dump_suite", dumping)
    monkeypatch.setattr(cli, "sha256_file", hashing(cli.sha256_file))
    monkeypatch.setattr(runio, "sha256_file", hashing(runio.sha256_file))
    gen_dir = tmp_path / "gen"
    result = runner.invoke(main, ["generate", "--config", str(config_path), "--out", str(gen_dir)])
    assert result.exit_code == 0, result.output
    written = (gen_dir / "suite.jsonl").read_bytes()
    assert written == expected
    assert read_manifest(gen_dir / "suite.manifest.json")["files"] == {
        "suite.jsonl": hashlib.sha256(written).hexdigest()}
    assert len(batches) > 1 and max(batches) == requestgen.SUITE_BATCH and sum(batches) == len(expected.splitlines())
    assert hashed == []

    # run and eval hash the suite as they decode it, and no file they write
    results = tmp_path / "results.jsonl"
    result = runner.invoke(main, ["run", "--suite", str(gen_dir / "suite.jsonl"), "--model", "perfect",
                                  "--out", str(results)])
    assert result.exit_code == 0, result.output
    assert read_manifest(tmp_path / "results.jsonl.manifest.json")["files"] == {
        "results.jsonl": hashlib.sha256(results.read_bytes()).hexdigest()}
    assert hashed == []
    eval_dir = tmp_path / "eval"
    result = runner.invoke(main, ["eval", "--suite", str(gen_dir / "suite.jsonl"), "--results", str(results),
                                  "--out", str(eval_dir)])
    assert result.exit_code == 0, result.output
    reports = {p.name for p in eval_dir.iterdir()} - {"eval.manifest.json"}
    assert read_manifest(eval_dir / "eval.manifest.json")["files"] == {
        name: hashlib.sha256((eval_dir / name).read_bytes()).hexdigest() for name in reports}
    assert hashed == []


@pytest.mark.parametrize("in_full, relation, filled", [
    (("plan", "prompt"), True, True), (requestgen.SHARED_FIELDS, True, True), ((), False, True), ((), True, True),
    ((), True, False),
], ids=["plans and prompts in full", "every value in full", "golds in full, no relation", "every key on every line",
        "footer in the prompt"])
def test_suite_stating_shared_values_in_full_runs_and_scores_the_same(runner, tmp_path, monkeypatch, in_full,
                                                                     relation, filled):
    """A suite written before each request type's answer footer was its own
    key, and so with the footer at the end of each prompt it states in full,
    is run and scored as the suite generate writes now; so is one written
    before that, when a line did not yet leave out the keys whose values
    equal the line before's, before the relation was shared and deletion and
    update golds were edits of it, before plans and prompts were shared
    fields, or before any value was. Each of these but the first states every
    key on every line. Each loads with every footer None."""
    config = write_config(tmp_path, request_types=["retrieval", "update", "count", "existence"],
                          connectives=["and", "or", "diff"], levels=["natural", "table"])
    suites = {"new": tmp_path / "new" / "suite.jsonl", "old": tmp_path / "old" / "suite.jsonl"}
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suites["new"].parent)]).exit_code == 0
    new_text = suites["new"].read_text(encoding="utf-8")
    instances = list(requestgen.load_suite(new_text.splitlines()))
    if not relation:
        instances = [dataclasses.replace(instance, relation=None) for instance in instances]
    with monkeypatch.context() as patch:
        patch.setattr(requestgen, "SHARED_FIELDS", tuple(f for f in requestgen.SHARED_FIELDS if f not in in_full))
        old_text = footer_in_prompt(requestgen.dump_suite(instances))
        if filled:
            old_text = every_key_on_every_line(old_text)
    if not relation:
        old_text = "".join(json.dumps({key: value for key, value in json.loads(line).items() if key != "relation"},
                                      sort_keys=True) + "\n" for line in old_text.splitlines())
        assert '"edit"' not in old_text and '"relation":' not in old_text
    suites["old"].parent.mkdir()
    suites["old"].write_text(old_text, encoding="utf-8")
    if relation:
        assert len(old_text) > len(new_text)
    stated = [json.loads(line)[field] for line in old_text.splitlines() for field in in_full]
    assert not any(isinstance(value, dict) and "same_as" in value for value in stated)
    assert '"footer"' not in old_text
    assert list(requestgen.load_suite(old_text.splitlines())) == [
        dataclasses.replace(instance, prompt=instance.prompt + "\n" + instance.footer, footer=None)
        for instance in instances]

    outputs = {}
    for name, suite in suites.items():
        results, eval_dir = suite.parent / "results.jsonl", suite.parent / "eval"
        ran = runner.invoke(main, ["run", "--suite", str(suite), "--model", "lossy:q=0.3,r=0.3,seed=2",
                                   "--out", str(results)])
        assert ran.exit_code == 0, ran.output
        scored = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                      "--out", str(eval_dir)])
        assert scored.exit_code == 0, scored.output
        outputs[name] = {"results.jsonl": results.read_bytes(), **{
            path.name: path.read_bytes() for path in eval_dir.iterdir() if path.name != "eval.manifest.json"}}
    assert {"compare.json", "existence.csv", "records.csv"} <= outputs["new"].keys()
    assert outputs["old"] == outputs["new"]


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


def _generated_and_run(runner, tmp_path, **overrides) -> tuple[Path, Path]:
    config = write_config(tmp_path, **{"request_types": ["retrieval"], "pair_count": 1, **overrides})
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
    """A file that takes `room` writes and then fails, as a full disk does."""

    def __init__(self, stream, room):
        self.stream, self.room = stream, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def write(self, data):
        if not self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= 1
        return self.stream.write(data)


def _fill_disk(monkeypatch, room: int, whole: int = 0) -> None:
    """Make every file runio opens for writing, after the first `whole` of
    them, a _FullDisk with `room` writes; the files it opens to read
    (sha256_file's) are left as they are."""
    written = []

    def opening(file, mode="r", *args, **kwargs):
        stream = open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return stream
        written.append(file)
        return _FullDisk(stream, room) if len(written) > whole else stream

    monkeypatch.setattr(runio, "open", opening, raising=False)


def test_run_results_write_failing_part_way_keeps_previous_results(runner, tmp_path, monkeypatch):
    suite, results = _generated_and_run(runner, tmp_path)
    before, names = results.read_bytes(), {p.name for p in tmp_path.iterdir()}
    # every answer is reused, so the only write is the sorted results file
    _fill_disk(monkeypatch, room=1)
    result = runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect", "--out", str(results)])
    assert result.exit_code == 3, result.output
    assert "No space left on device" in json.loads(result.stderr)["errors"][0]
    assert results.read_bytes() == before
    # only the .partial of the interrupted run is left beside it
    assert {p.name for p in tmp_path.iterdir()} - names == {"results.jsonl.partial"}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_generate_write_failing_part_way_keeps_previous_suite(runner, tmp_path, monkeypatch):
    config = write_config(tmp_path, pair_count=12)
    gen_dir = tmp_path / "gen"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir)]).exit_code == 0
    before = _files(gen_dir)
    assert len(before["suite.jsonl"].splitlines()) > requestgen.SUITE_BATCH
    # the first batch of another seed's suite is written, the second fails
    _fill_disk(monkeypatch, room=1)
    result = runner.invoke(main, ["generate", "--config", str(config), "--out", str(gen_dir), "--seed", "12"])
    assert result.exit_code == 3, result.output
    assert "No space left on device" in json.loads(result.stderr)["errors"][0]
    assert _files(gen_dir) == before


def test_eval_report_write_failing_keeps_previous_reports(runner, tmp_path, monkeypatch):
    suite, results = _generated_and_run(runner, tmp_path)
    eval_dir = tmp_path / "eval"

    def evaluate(results_path):
        return runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results_path),
                                    "--out", str(eval_dir)])

    assert evaluate(results).exit_code == 0
    before = _files(eval_dir)
    lossy = tmp_path / "lossy.jsonl"
    answered = runner.invoke(main, ["run", "--suite", str(suite), "--model", "lossy:q=0.5,seed=1",
                                    "--out", str(lossy)])
    assert answered.exit_code == 0, answered.output
    _fill_disk(monkeypatch, room=0)
    result = evaluate(lossy)
    assert result.exit_code == 3, result.output
    assert "No space left on device" in json.loads(result.stderr)["errors"][0]
    assert _files(eval_dir) == before


def test_report_on_an_eval_directory_its_manifest_does_not_cover_exits_2(runner, tmp_path, monkeypatch):
    suite, results = _generated_and_run(runner, tmp_path)
    eval_dir = tmp_path / "eval"

    def evaluate(results_path):
        return runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results_path),
                                    "--out", str(eval_dir)])

    assert evaluate(results).exit_code == 0
    before = _files(eval_dir)
    lossy = tmp_path / "lossy.jsonl"
    answered = runner.invoke(main, ["run", "--suite", str(suite), "--model", "lossy:q=0.5,seed=1",
                                    "--out", str(lossy)])
    assert answered.exit_code == 0, answered.output
    # records.csv and aggregate.csv are written, aggregate.md is not
    _fill_disk(monkeypatch, room=0, whole=2)
    assert evaluate(lossy).exit_code == 3
    after = _files(eval_dir)
    assert after["records.csv"] != before["records.csv"] and after["aggregate.md"] == before["aggregate.md"]
    result = runner.invoke(main, ["report", "--eval-dir", str(eval_dir)])
    [error] = _config_errors(result)
    # the manifest lists its files by name, and aggregate.csv comes first
    assert "digest mismatch for aggregate.csv" in error
    assert result.stdout == ""


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
    # after a blank line, line 2 is the first instance line: it has no line before to take its gold from
    lines = ["", *every_key_on_every_line(suite.read_text(encoding="utf-8")).splitlines()]
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


@pytest.mark.parametrize("stage", ["run", "eval"])
@pytest.mark.parametrize("case, message", [
    ("no relation", "line 1: not a suite instance (ValueError: gold is an edit of the relation, but the line "
                    "states no relation)"),
    ("dropped key", "line 1: not a suite instance (ValueError: gold edit names key 'Nobody', which no row of the "
                    "relation has)"),
    ("set key", "line 1: not a suite instance (ValueError: gold edit names key 'Nobody', which no row of the "
                "relation has)"),
    ("set column", "line 1: not a suite instance (ValueError: gold edit sets column 'Shoe size', which is not one "
                   "of the relation's columns"),
    ("relation ref", "line 2: relation is the same as 'nowhere', an id that no earlier line has"),
])
def test_suite_with_a_bad_gold_edit_or_relation_exits_2(runner, tmp_path, stage, case, message):
    suite, results = _generated_and_run(runner, tmp_path, request_types=["deletion", "update"])
    (suite.parent / "suite.manifest.json").unlink()
    lines = suite.read_text(encoding="utf-8").splitlines()
    first, second = json.loads(lines[0]), json.loads(lines[1])
    relation, edit = first["relation"], first["gold"]["edit"]
    key = relation["rows"][0][relation["columns"].index(relation["key"])]
    if case == "no relation":
        del first["relation"]
    elif case == "dropped key":
        edit["drop"].append("Nobody")
    elif case == "set key":
        edit["set"].append(["Nobody", relation["columns"][1], "N/A"])
    elif case == "set column":
        edit["set"].append([key, "Shoe size", "44"])
    else:
        second["relation"] = {"same_as": "nowhere"}
    lines[:2] = [json.dumps(first, sort_keys=True), json.dumps(second, sort_keys=True)]
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {
        "run": ["run", "--suite", str(suite), "--model", "perfect", "--out", str(tmp_path / "r2.jsonl")],
        "eval": ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
    }[stage]
    [error] = _config_errors(runner.invoke(main, args))
    assert str(suite) in error and message in error
    assert not (tmp_path / "r2.jsonl").exists() and not (tmp_path / "eval").exists()


@pytest.mark.parametrize("stage", ["run", "eval"])
@pytest.mark.parametrize("number, key, message", [
    pytest.param(1, "plan", "line 1: not a suite instance (CodecError: plan must be QueryPlan, got nothing)",
                 id="first line without a plan"),
    pytest.param(7, "gold", "line 7: not a suite instance (ValueError: gold must be number for count, got entity_set)",
                 id="inherited gold of another type"),
    pytest.param(3, "context", "line 3: context is the same as '000001-soccer-retrieval-and-t1', but line 2 does "
                               "not state it in full", id="same_as a line that inherited the value"),
])
def test_suite_line_that_cannot_take_what_it_leaves_out_exits_2(runner, tmp_path, stage, number, key, message):
    """A line takes each key it leaves out from the line before. The first line
    has none to take it from; a count line that leaves out its gold takes the
    retrieval gold of the line before, which it cannot be scored against; and
    a line that only took a value from the line before does not state it, so
    no same_as may name it."""
    suite, results = _generated_and_run(runner, tmp_path, request_types=["retrieval", "count"])
    (suite.parent / "suite.manifest.json").unlink()
    lines = suite.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[number - 1])
    assert "-count-" in json.loads(lines[6])["id"] and "-retrieval-" in json.loads(lines[5])["id"]
    if key == "context":
        assert "context" not in json.loads(lines[1]) and "context" not in obj
        obj["context"] = {"same_as": json.loads(lines[1])["id"]}
    else:
        del obj[key]
    lines[number - 1] = json.dumps(obj, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {
        "run": ["run", "--suite", str(suite), "--model", "perfect", "--out", str(tmp_path / "r2.jsonl")],
        "eval": ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
    }[stage]
    [error] = _config_errors(runner.invoke(main, args))
    assert str(suite) in error and message in error
    assert not (tmp_path / "r2.jsonl").exists() and not (tmp_path / "eval").exists()


@pytest.mark.parametrize("name", sorted(BUILTIN_PACKS))
def test_generated_suite_line_leaves_out_each_key_equal_to_the_line_before(runner, tmp_path, name):
    """In a suite generate writes for a built-in pack, in several batches, the
    first line states every key and no later line carries a key other than
    `id` whose value equals the line before's: a shared value when both name
    the same line as stating it, any other when both have the same JSON."""
    config = write_config(tmp_path, dataset=name, seed=23, sample_n=16, request_types=[t.value for t in RequestType],
                          connectives=["and", "or", "diff"], n_conditions=[1, 2],
                          levels=["natural", "order_fixed", "table"])
    suite = tmp_path / "gen" / "suite.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suite.parent)]).exit_code == 0
    lines = suite.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 3 * requestgen.SUITE_BATCH
    keys = {field.name for field in dataclasses.fields(requestgen.RequestInstance)}
    before = None
    for line in lines:
        obj = json.loads(line)
        value_of = {key: (value["same_as"] if isinstance(value, dict) and value.keys() == {"same_as"} else obj["id"])
                    if key in requestgen.SHARED_FIELDS else json.dumps(value) for key, value in obj.items()}
        if before is None:
            assert obj.keys() == keys
        else:
            assert "id" in obj and not [key for key in obj if key != "id" and value_of[key] == before[key]]
            value_of = {**before, **value_of}
        before = value_of
    assert [instance.id for instance in requestgen.load_suite(lines)] == [json.loads(line)["id"] for line in lines]


def test_eval_of_count_answers_near_the_largest_float_writes_json_reports(runner, tmp_path):
    """Two count answers of 308 nines, which read as finite floats near the
    largest, in one cell: their mean is taken without overflowing, and the
    variance across templates, beyond the largest float, reads inf."""
    suite, results = _generated_and_run(runner, tmp_path, request_types=["count"], pair_count=3,
                                        connectives=["and"], levels=["natural", "table"])
    results.with_name("results.jsonl.manifest.json").unlink()
    lines = results.read_text(encoding="utf-8").splitlines()
    for number in (0, 1):
        line = json.loads(lines[number])
        line["text"] = "ANSWER: " + "9" * 308
        lines[number] = json.dumps(line, sort_keys=True)
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    assert result.exit_code == 0, result.output

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")
    compare = json.loads((tmp_path / "eval" / "compare.json").read_text(encoding="utf-8"),
                         parse_constant=no_constant)
    assert 1e306 < compare["count_abs_reduction"] < 1e308
    with open(tmp_path / "eval" / "aggregate.csv", encoding="utf-8", newline="") as f:
        cells = {row["level"]: row for row in csv.DictReader(f)}
    assert 1e306 < float(cells["natural"]["mean"]) < 1e308 and cells["natural"]["variance"] == "inf"
    assert (cells["table"]["mean"], cells["table"]["variance"]) == ("0.0", "0.0")


def test_eval_of_a_relative_change_beyond_the_largest_float_writes_that_float(runner, tmp_path):
    """A count cell whose natural-level difference is small but not 0 (one
    answer of 1.1) and whose table-level difference is near the largest float
    (one answer of 308 nines): its relative change, improvement / text, is
    beyond the largest float, so compare.json holds the largest float with the
    change's sign, not -Infinity. Every other number stays as it was."""
    suite, results = _generated_and_run(runner, tmp_path, request_types=["count"], pair_count=3, seed=3,
                                        connectives=["and"], levels=["natural", "table"])
    results.with_name("results.jsonl.manifest.json").unlink()
    lines = results.read_text(encoding="utf-8").splitlines()
    for number, text in ((0, "ANSWER: 1.1"), (3, "ANSWER: " + "9" * 308)):
        line = json.loads(lines[number])
        assert ("-t0" in line["id"], number == 0) == (True, int(line["id"][:6]) < 3)
        lines[number] = json.dumps({**line, "text": text}, sort_keys=True)
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    assert result.exit_code == 0, result.output
    compare = json.loads((tmp_path / "eval" / "compare.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    [cell] = compare["cells"]
    assert 0 < cell["text"] < 1 and 1e306 < cell["table"] < 1e308
    assert cell["improvement_pp"] == compare["count_abs_reduction"] == cell["text"] - cell["table"]
    assert cell["relative_change"] == compare["count_relative_reduction"] == -sys.float_info.max
    # no cell has a score metric, so the score headline has no value
    assert (compare["mean_improvement_pp"], compare["mean_relative_change"]) == (None, None)


@pytest.mark.parametrize("stage", ["run", "eval"])
def test_suite_repeating_an_id_exits_2(runner, tmp_path, stage):
    suite, results = _generated_and_run(runner, tmp_path)
    (suite.parent / "suite.manifest.json").unlink()
    lines = suite.read_text(encoding="utf-8").splitlines()
    repeated = json.loads(lines[1])
    repeated["id"] = json.loads(lines[0])["id"]
    lines[1] = json.dumps(repeated, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {
        "run": ["run", "--suite", str(suite), "--model", "perfect", "--out", str(tmp_path / "r2.jsonl")],
        "eval": ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
    }[stage]
    [error] = _config_errors(runner.invoke(main, args))
    assert str(suite) in error and f"line 2: id {repeated['id']!r} is already the id of line 1" in error
    assert not (tmp_path / "r2.jsonl").exists() and not (tmp_path / "eval").exists()
    assert not list(tmp_path.rglob("*.partial"))


def test_eval_suite_with_a_bad_last_line_writes_no_reports(runner, tmp_path):
    suite, results = _generated_and_run(runner, tmp_path)
    (suite.parent / "suite.manifest.json").unlink()
    _truncate_last_line(suite)
    lines = len(suite.read_text(encoding="utf-8").splitlines())
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert str(suite) in error and f"line {lines}: not a suite instance" in error
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("stage", ["run", "eval"])
def test_suite_edited_to_a_bad_line_names_the_line(runner, tmp_path, stage):
    suite, results = _generated_and_run(runner, tmp_path)
    # the manifest is kept: the line is decoded before the digest is checked
    lines = every_key_on_every_line(suite.read_text(encoding="utf-8")).splitlines()
    broken = json.loads(lines[1])
    # line 2 then takes line 1's retrieval gold for a count plan
    del broken["gold"]
    broken["plan"] = {**json.loads(lines[0])["plan"], "kind": "count"}
    lines[1] = json.dumps(broken, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = {
        "run": ["run", "--suite", str(suite), "--model", "perfect", "--out", str(tmp_path / "r2.jsonl")],
        "eval": ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")],
    }[stage]
    [error] = _config_errors(runner.invoke(main, args))
    assert str(suite) in error and "line 2: not a suite instance" in error
    assert not (tmp_path / "r2.jsonl").exists() and not (tmp_path / "eval").exists()
    assert not list(tmp_path.rglob("*.partial"))


def test_run_and_eval_open_the_suite_once(runner, tmp_path, monkeypatch):
    suite, results = _generated_and_run(runner, tmp_path)
    opened = []

    def opening(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", opening, raising=False)
    monkeypatch.setattr(runio, "open", opening, raising=False)
    for args in (["run", "--suite", str(suite), "--model", "perfect", "--out", str(results)],
                 ["eval", "--suite", str(suite), "--results", str(results), "--out", str(tmp_path / "eval")]):
        opened.clear()
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert opened.count(suite) == 1, args[0]


def test_eval_suite_update_whose_target_is_not_a_gold_column_exits_2(runner, tmp_path):
    config = write_config(tmp_path, request_types=["update"], pair_count=1)
    suite, results = tmp_path / "gen" / "suite.jsonl", tmp_path / "results.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suite.parent)]).exit_code == 0
    assert runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect",
                                "--out", str(results)]).exit_code == 0
    (suite.parent / "suite.manifest.json").unlink()
    lines = suite.read_text(encoding="utf-8").splitlines()
    edited = json.loads(lines[0])
    target = edited["plan"]["target_attr"]
    # the gold stated in full, not as an edit of the relation
    edited["gold"] = runio.to_json(next(requestgen.load_suite(lines)).gold)
    assert target in edited["gold"]["columns"]
    edited["gold"]["columns"] = [f"{name} (renamed)" if name == target else name
                                 for name in edited["gold"]["columns"]]
    suite.write_text("\n".join([json.dumps(edited, sort_keys=True), *lines[1:]]) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert str(suite) in error
    assert f"line 1: not a suite instance (ValueError: update target {target!r} is not one of" in error
    assert not (tmp_path / "eval").exists()


def test_read_lines_feeds_the_digest_and_counts_bad_bytes_from_the_start_of_the_file(tmp_path):
    import hashlib

    from tabbench.runio import read_lines, sha256_file

    path = tmp_path / "lines.txt"
    path.write_bytes("ab\nçd\n".encode("utf-8") + b"e\xfff\n")
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        lines = read_lines(f, digest)
        assert [next(lines), next(lines)] == ["ab\n", "çd\n"]
        with pytest.raises(UnicodeDecodeError) as raised:
            next(lines)
    assert raised.value.start == len("ab\nçd\n".encode("utf-8")) + 1
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    with pytest.raises(UnicodeDecodeError):
        sha256_file(path)
    path.write_bytes(b"ab\ncd")
    assert sha256_file(path) == hashlib.sha256(b"ab\ncd").hexdigest()


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


@pytest.mark.parametrize("edit", ["repeat", "foreign"])
def test_run_does_not_resume_a_line_it_cannot_keep(runner, tmp_path, edit):
    # a repeated answer would be collapsed, and one to an id the suite lacks
    # would be kept beside a manifest claiming the suite
    suite, results = _generated_and_run(runner, tmp_path, seed=3, request_types=["retrieval", "count"],
                                        connectives=["and"])
    results.with_name("results.jsonl.manifest.json").unlink()
    first = results.read_text(encoding="utf-8").splitlines()[0]
    if edit == "repeat":
        lines = [first, first]
        expected = f"{results}: line 2: model 'perfect-oracle' already answered {json.loads(first)['id']!r} at "
    else:
        lines = [json.dumps({**json.loads(first), "id": "999999-nowhere"}, sort_keys=True)]
        expected = f"{results}: line 1: result id '999999-nowhere' is not in the suite"
    results.write_text("\n".join(lines) + "\n", encoding="utf-8")
    answered = results.read_bytes()
    result = runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect", "--out", str(results)])
    [error] = _config_errors(result)
    assert error.startswith(expected)
    assert results.read_bytes() == answered
    assert not results.with_name("results.jsonl.manifest.json").exists()


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("models", [("model-a",), ("model-a", "model-b")])
def test_eval_of_a_number_too_large_for_a_float_exits_0_and_writes_json(runner, tmp_path, models):
    """float reads an answer of 400 nines as inf. Each model answers every
    instance as the perfect mock does, except one count: model-a's first at the
    natural level, model-b's first at the table level. That answer is unparsed,
    so every compare.json number is finite; before, two models made eval fail on
    `-inf + inf` and one wrote Infinity and NaN."""
    config = write_config(tmp_path, request_types=["count", "sum"], levels=["natural", "table"], seed=3)
    suite = tmp_path / "gen" / "suite.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suite.parent)]).exit_code == 0
    perfect = tmp_path / "perfect.jsonl"
    assert runner.invoke(main, ["run", "--suite", str(suite), "--model", "perfect",
                                "--out", str(perfect)]).exit_code == 0
    instances = [json.loads(line) for line in every_key_on_every_line(suite.read_text(encoding="utf-8")).splitlines()]
    paths = []
    for model, level in zip(models, ("natural", "table")):
        huge = next(i["id"] for i in instances if i["level"] == level and "-count-" in i["id"])
        lines = []
        for line in perfect.read_text(encoding="utf-8").splitlines():
            obj = {**json.loads(line), "model": model}
            if obj["id"] == huge:
                obj["text"] = "ANSWER: " + "9" * 400
            lines.append(json.dumps(obj, sort_keys=True) + "\n")
        paths.append(tmp_path / f"{model}.jsonl")
        paths[-1].write_text("".join(lines), encoding="utf-8")

    args = [arg for path in paths for arg in ("--results", str(path))]
    result = runner.invoke(main, ["eval", "--suite", str(suite), *args, "--out", str(tmp_path / "eval")])
    assert result.exit_code == 0, result.output
    compare = json.loads((tmp_path / "eval" / "compare.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    assert {cell["model"] for cell in compare["cells"]} == set(models)
    with open(tmp_path / "eval" / "records.csv", encoding="utf-8", newline="") as f:
        unparsed = [row["request_id"] for row in csv.DictReader(f) if row["unparsed"] == "True"]
    assert len(unparsed) == len(models) and all("-count-" in request_id for request_id in unparsed)


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


def _reports(eval_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in eval_dir.iterdir() if path.name != "eval.manifest.json"}


@pytest.mark.parametrize("order", ["reversed", "split", "swapped"])
def test_eval_scores_results_in_any_order_to_the_same_reports(runner, tmp_path, order):
    """Each results line is scored as it is read, so the reports must not
    depend on the order of the lines, on how they are shared among files or
    on the order of the files. The suite is answered by two models, one file
    each, so records.csv holds two rows for each id."""
    config = write_config(tmp_path, levels=["natural", "table"])
    suite = tmp_path / "gen" / "suite.jsonl"
    assert runner.invoke(main, ["generate", "--config", str(config), "--out", str(suite.parent)]).exit_code == 0
    files = {"lossy.jsonl": "lossy:q=0.3,r=0.2,seed=1", "perfect.jsonl": "perfect"}
    for name, model in files.items():
        assert runner.invoke(main, ["run", "--suite", str(suite), "--model", model,
                                    "--out", str(tmp_path / name)]).exit_code == 0
    scored = runner.invoke(main, ["eval", "--suite", str(suite), *(arg for name in files for arg in (
        "--results", str(tmp_path / name))), "--out", str(tmp_path / "in-order")])
    assert scored.exit_code == 0, scored.output
    lossy, perfect = ((tmp_path / name).read_text(encoding="utf-8").splitlines(keepends=True) for name in files)
    shares = {"reversed": [lossy[::-1], perfect[::-1]], "split": [lossy[1::2], lossy[::2], perfect],
              "swapped": [perfect, lossy]}[order]
    args = []
    for n, share in enumerate(shares):
        path = tmp_path / f"share-{n}.jsonl"
        path.write_text("".join(share), encoding="utf-8")
        args += ["--results", str(path)]
    result = runner.invoke(main, ["eval", "--suite", str(suite), *args, "--out", str(tmp_path / order)])
    assert result.exit_code == 0, result.output
    expected = _reports(tmp_path / "in-order")
    assert {"records.csv", "aggregate.md", "compare.json", "existence.csv"} <= set(expected)
    assert _reports(tmp_path / order) == expected


def test_eval_of_a_bad_suite_line_and_a_bad_results_line_names_the_suite_line(runner, tmp_path):
    """The suite is read whole before the first results line."""
    suite, results = _generated_and_run(runner, tmp_path)
    (suite.parent / "suite.manifest.json").unlink()
    results.with_name("results.jsonl.manifest.json").unlink()
    # after a blank line, line 2 is the first instance line: it has no line before to take its gold from
    lines = ["", *every_key_on_every_line(suite.read_text(encoding="utf-8")).splitlines()]
    broken = json.loads(lines[1])
    del broken["gold"]
    lines[1] = json.dumps(broken, sort_keys=True)
    suite.write_text("\n".join(lines) + "\n", encoding="utf-8")
    results.write_text("not json\n" + results.read_text(encoding="utf-8"), encoding="utf-8")
    result = runner.invoke(main, ["eval", "--suite", str(suite), "--results", str(results),
                                  "--out", str(tmp_path / "eval")])
    [error] = _config_errors(result)
    assert error.startswith(f"{suite}: line 2: ") and "gold" in error
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
    if case == "suite manifest listing a file that is not UTF-8":
        (suite.parent / "extra.bin").write_bytes(b"\xff\xfe")
        listed = json.loads(manifest.read_text(encoding="utf-8"))
        listed["files"]["extra.bin"] = "0" * 64
        manifest.write_text(json.dumps(listed), encoding="utf-8")
        return run, f"{suite.parent / 'extra.bin'}, listed in the manifest, is not UTF-8 text"
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
    "report aggregate.md not UTF-8", "suite manifest not UTF-8", "suite manifest listing a file that is not UTF-8",
    "suite manifest digest not a string",
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


def _loaded_by_importing_the_cli(modules: set[str]) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded once it imports tabbench.cli."""
    package_root = str(Path(tabbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    probe = f"import json, sys, tabbench.cli; print(json.dumps(sorted({sorted(modules)!r} & sys.modules.keys())))"
    finished = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return json.loads(finished.stdout)


def test_importing_the_cli_loads_no_http_client():
    """Only a remote model's answer needs the HTTP stack, so no stage pays for
    importing it up front."""
    assert _loaded_by_importing_the_cli({"requests", "urllib3", "http.client"}) == []


def test_importing_the_cli_loads_no_scoring_code_thread_pool_or_logging():
    """The scoring code loads in eval and report, the thread pool for a remote
    model's run, and logging for a pack with columns beyond its schema, so
    generate, run and the start of every stage do not pay for them."""
    assert _loaded_by_importing_the_cli({"tabbench.evaluator", "statistics", "concurrent.futures", "logging"}) == []


def test_report_compare_file_with_cells_that_do_not_align_exits_2(runner, tmp_path):
    fixture = json.loads((Path(__file__).parent / "data" / "aggregate_avgs.json").read_text(encoding="utf-8"))
    fixture["table"][0]["request_type"] = "projection"
    compare_file = tmp_path / "cells.json"
    compare_file.write_text(json.dumps(fixture), encoding="utf-8")
    result = runner.invoke(main, ["report", "--compare-file", str(compare_file)])
    [error] = _config_errors(result)
    assert error.startswith(f"cannot compare {compare_file}: rows not aligned on (model, request_type)")
    assert "projection" in error and "retrieval" in error
    assert result.stdout == ""


def test_report_compare_file_of_count_cells_prints_only_the_count_headline(runner, tmp_path):
    """With no F1 or accuracy cell there is no score headline to print, not
    a mean improvement of 0."""
    compare_file = tmp_path / "cells.json"
    compare_file.write_text(json.dumps({side: [{"model": "m", "request_type": "count", "metric": "abs_diff",
                                                "mean": mean}] for side, mean in (("text", 2.5), ("table", 1.0))}),
                            encoding="utf-8")
    result = runner.invoke(main, ["report", "--compare-file", str(compare_file)])
    assert result.exit_code == 0, result.output
    assert result.stdout == "count difference reduction: 1.50\n"


def test_report_compare_file_with_a_metric_it_does_not_know_exits_2(runner, tmp_path):
    """A cell that is neither a score nor a count has no headline to go in."""
    compare_file = tmp_path / "cells.json"
    compare_file.write_text(json.dumps({side: [{"model": "m", "request_type": "count", "metric": "bleu", "mean": 1.0}]
                                        for side in ("text", "table")}), encoding="utf-8")
    result = runner.invoke(main, ["report", "--compare-file", str(compare_file)])
    assert _config_errors(result) == [f"cannot compare {compare_file}: metric 'bleu' for ('m', 'count') is not one of "
                                      f"['f1', 'accuracy', 'abs_diff']"]
    assert result.stdout == ""


def test_report_compare_file_with_no_cells_exits_2(runner, tmp_path):
    compare_file = tmp_path / "cells.json"
    compare_file.write_text(json.dumps({"text": [], "table": []}), encoding="utf-8")
    result = runner.invoke(main, ["report", "--compare-file", str(compare_file)])
    assert _config_errors(result) == [f"cannot compare {compare_file}: no (model, request_type) cells to compare"]
    assert result.stdout == ""
