"""The SHA-256 of every artifact of one seeded pipeline, run through the library.

    PYTHONPATH=src python tests/pipeline_digests.py OUT_DIR

generates a suite over every request type, connective and structuring level,
writes it in batches of SUITE_BATCH as `generate` does, reads it back, answers
it with a noisy LossyOracle through run_suite, scores each answer as `eval`
does and writes every eval report, all under OUT_DIR. It prints one
`<sha256>  <file>` line per artifact. It does not import tabbench.cli, so an
interpreter without click runs it; test_pipeline_digests.py compares its
lines across interpreters.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from tabbench import evaluator
from tabbench.answers import parse
from tabbench.datasets import load_pack
from tabbench.gateway import LossyOracle, ResultLine, run_suite
from tabbench.oracle import AND, DIFF, OR
from tabbench.relation import sample_entities
from tabbench.requestgen import SUITE_BATCH, RequestType, SuiteConfig, dump_suite, generate_suite, load_suite
from tabbench.runio import from_json, read_lines, write_file
from tabbench.seeding import derive_seed
from tabbench.structurer import StructuringLevel

SEED = 7
CONFIG = SuiteConfig(pair_count=2, request_types=tuple(RequestType), connectives=(AND, OR, DIFF),
                     n_conditions=(1, 2), levels=tuple(StructuringLevel), seed=SEED)
MODEL = LossyOracle(omission_prob=0.2, flip_prob=0.1, seed=3)


def digests(out: Path) -> dict[str, str]:
    """Each artifact's file name under `out` and the SHA-256 of its bytes."""
    pack = load_pack("soccer")
    rel = sample_entities(pack.relation, 100, derive_seed(SEED, "sample"))
    instances = generate_suite(rel, CONFIG, pack)
    stated = {}
    found = {"suite.jsonl": write_file(out / "suite.jsonl", (
        dump_suite(instances[start:start + SUITE_BATCH], stated) for start in range(0, len(instances), SUITE_BATCH)))}
    with open(out / "suite.jsonl", "rb") as f:
        loaded = {instance.id: instance for instance in load_suite(read_lines(f, hashlib.sha256()))}
    found["results.jsonl"] = run_suite(list(loaded.values()), MODEL, out / "results.jsonl")["digest"]
    # scored as `eval` scores them: each results line as it is read, against the suite's instance of its id
    records = []
    with open(out / "results.jsonl", encoding="utf-8") as f:
        for result in (from_json(ResultLine, json.loads(text)) for text in f):
            if result.id not in loaded:
                raise ValueError(f"result id {result.id!r} is not in the suite")
            instance = loaded[result.id]
            records.append(evaluator.score(instance, parse(result.text, instance.request_type), model=result.model))
    _, reports = evaluator.eval_reports(records)
    for name, text in reports.items():
        if text is not None:
            found[name] = write_file(out / name, [text])
    return found


if __name__ == "__main__":
    for name, digest in digests(Path(sys.argv[1])).items():
        print(f"{digest}  {name}")
