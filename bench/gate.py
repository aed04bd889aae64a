"""Correctness gate over one pipeline's artifacts.

The suite is checked by instance count and ids, never by bytes, so a change of
suite format does not trip it. Results and eval reports are byte-stable for a
mock model, so at a workload's default seed they must match digests.json.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Paths, Workload

DIGESTS = Path(__file__).resolve().parent / "digests.json"
# eval.manifest.json holds a creation timestamp, so it is not byte-stable
UNSTABLE_REPORTS = {"eval.manifest.json"}


@dataclass
class Verdict:
    instances: int
    failed: int = 0
    violations: list[str] = field(default_factory=list)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def artifact_digests(paths: Paths) -> dict[str, str]:
    """Digests of results.jsonl and every byte-stable eval report."""
    out = {"results.jsonl": sha256(paths.results)}
    for report in sorted(paths.eval.iterdir()):
        if report.name not in UNSTABLE_REPORTS:
            out[f"eval/{report.name}"] = sha256(report)
    return out


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _empty_prediction(request_type: str, text: str) -> bool:
    """Whether a response predicts no entity at all. The program's f1 convention
    scores an empty prediction against non-empty gold as precision 0, recall 0."""
    block = text.split("ANSWER:", 1)[-1].strip()
    if request_type == "update":
        return "N/A" not in block
    if request_type == "deletion":
        return len([line for line in block.splitlines() if line.strip()]) <= 1  # header only
    return block == ""


def check(workload: Workload, seed: int, paths: Paths, exit_codes: dict[str, int]) -> Verdict:
    """Every violation of the benchmark's correctness contract, and the number of
    failed instances: a result line missing or carrying an error, or an eval
    record marked unparsed. A stage that exits non-zero fails every instance."""
    verdict = Verdict(instances=workload.expected_instances())
    bad_stages = [s for s, code in exit_codes.items() if code != 0]
    if bad_stages:
        verdict.failed = verdict.instances
        verdict.violations.append(f"stages exited non-zero: {bad_stages}")
        return verdict

    suite_ids = [obj["id"] for obj in _read_jsonl(paths.suite)]
    if len(suite_ids) != verdict.instances:
        verdict.violations.append(f"suite has {len(suite_ids)} instances, expected {verdict.instances}")
    if len(set(suite_ids)) != len(suite_ids):
        verdict.violations.append("suite ids are not unique")
    suite = set(suite_ids)

    results = {obj["id"]: obj for obj in _read_jsonl(paths.results)}
    if set(results) - suite:
        verdict.violations.append(f"{len(set(results) - suite)} result ids are not in the suite")
    failed = {i for i in suite if i not in results or results[i]["error"] is not None}

    with open(paths.eval / "records.csv", encoding="utf-8", newline="") as f:
        records = list(csv.DictReader(f))
    if len(records) != len(suite):
        verdict.violations.append(f"{len(records)} eval records for {len(suite)} instances")
    failed |= {r["request_id"] for r in records if r["unparsed"] == "True"}
    verdict.failed = len(failed)

    if seed == workload.default_seed:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload.name]
        actual = artifact_digests(paths)
        for name in sorted(set(expected) | set(actual)):
            if expected.get(name) != actual.get(name):
                verdict.violations.append(f"{name}: digest differs from digests.json at default seed")

    if workload.perfect:
        with open(paths.eval / "aggregate.csv", encoding="utf-8", newline="") as f:
            for cell in csv.DictReader(f):
                want = 0.0 if cell["request_type"] == "count" else 1.0
                if float(cell["mean"]) != want:
                    verdict.violations.append(f"perfect model: cell {cell['request_type']}/{cell['level']} "
                                              f"mean {cell['mean']}, expected {want}")
    else:
        # omission-only noise never adds an entity: precision is exactly 1
        # unless nothing was predicted
        for r in records:
            if r["metric"] != "f1":
                continue
            extras = json.loads(r["extras"])
            if extras["precision"] == 1.0:
                continue
            empty = (extras["precision"] == extras["recall"] == 0.0
                     and _empty_prediction(r["request_type"], results[r["request_id"]]["text"] or ""))
            if not empty:
                verdict.violations.append(f"{r['request_id']}: precision {extras['precision']} is not 1")

    if workload.resume and sha256(paths.results) != sha256(paths.clean_results):
        verdict.violations.append("resumed results.jsonl differs from the clean run")
    return verdict
