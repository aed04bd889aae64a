"""The benchmark's named workloads and the stage commands that drive them.

Each workload is a tabbench config without its seed; the benchmark's `--seed`
becomes the config seed, so the program only ever sees the generated config.
Sizes are about a tenth of the reference sizes (10,800 / 16,200 / 9,600
instances) so that several whole pipelines fit into one timed run; each
workload dispatches between 100 and 999 completions, which keeps the tail
latency percentile at p90 (see tracing.tail_percentile).
Why each workload exists is recorded in bench/README.md, and for the workloads
BENCHMARK.json lists, there too.
"""
from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

ALL_TYPES = ("retrieval", "deletion", "update", "superlative", "sum", "count", "existence", "projection")
TEMPLATES_PER_TYPE = 3
MAX_IN_FLIGHT = "2"


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    config: dict
    model: str
    resume: bool

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    @property
    def perfect(self) -> bool:
        return self.model == "perfect"

    def expected_instances(self) -> int:
        """Suite size from the grid: pairs x connectives x templates x levels x
        condition counts x portions per type, existence twice (original and negated)."""
        c = self.config
        per_variant = (
            c["pair_count"]
            * len(c["connectives"])
            * TEMPLATES_PER_TYPE
            * len(c.get("levels", ["table"]))
            * len(c.get("n_conditions", [2]))
            * max(1, len(c.get("portions", [])))
        )
        return sum(per_variant * (2 if t == "existence" else 1) for t in c["request_types"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reference",
            default_seed=7,
            config={
                "dataset": "soccer",
                "pair_count": 9,
                "request_types": list(ALL_TYPES),
                "connectives": ["and", "or"],
                "levels": ["natural", "table"],
            },
            model="perfect",
            resume=False,
        ),
        Workload(
            name="table-lossy",
            default_seed=11,
            config={
                "dataset": "pii",
                "pair_count": 12,
                "request_types": list(ALL_TYPES),
                "connectives": ["and", "or", "diff"],
                "levels": ["table"],
            },
            model="lossy:q=0.2,r=0.1,seed=3",
            resume=False,
        ),
        Workload(
            name="partial-resume",
            default_seed=5,
            config={
                "dataset": "movie",
                "pair_count": 5,
                "request_types": ["retrieval", "deletion", "update", "count"],
                "connectives": ["and", "or"],
                "n_conditions": [2, 3],
                "portions": [0.0, 0.25, 0.5, 1.0],
                "mode": "two_turn",
            },
            model="perfect",
            resume=True,
        ),
    )
}


@dataclass(frozen=True)
class Paths:
    """Layout of one workload's working directory under bench/work/."""

    root: Path

    @property
    def config(self) -> Path:
        return self.root / "config.json"

    @property
    def gen(self) -> Path:
        return self.root / "gen"

    @property
    def suite(self) -> Path:
        return self.gen / "suite.jsonl"

    @property
    def results(self) -> Path:
        return self.root / "results.jsonl"

    @property
    def eval(self) -> Path:
        return self.root / "eval"

    @property
    def clean_results(self) -> Path:
        """Untimed clean run of the suite: the resume fixture's source."""
        return self.root / "fixture" / "clean.jsonl"

    @property
    def half_results(self) -> Path:
        """Every second line of the clean run: what the timed run resumes."""
        return self.root / "fixture" / "half.jsonl"

    @property
    def logs(self) -> Path:
        return self.root / "logs"


def reset_outputs(workload: Workload, paths: Paths) -> None:
    """Remove one pipeline's artifacts; a resume workload starts its run from
    the half-done results fixture."""
    shutil.rmtree(paths.gen, ignore_errors=True)
    shutil.rmtree(paths.eval, ignore_errors=True)
    for leftover in paths.root.glob(paths.results.name + "*"):
        leftover.unlink()
    if workload.resume:
        shutil.copyfile(paths.half_results, paths.results)


def stage_args(workload: Workload, paths: Paths) -> dict[str, list[str]]:
    """Arguments to `tabbench.cli` for each stage, in pipeline order."""
    return {
        "generate": ["generate", "--config", str(paths.config), "--out", str(paths.gen)],
        "run": ["run", "--suite", str(paths.suite), "--model", workload.model,
                "--out", str(paths.results), "--max-in-flight", MAX_IN_FLIGHT],
        "eval": ["eval", "--suite", str(paths.suite), "--results", str(paths.results),
                 "--out", str(paths.eval)],
    }
