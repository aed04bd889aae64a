#!/usr/bin/env python3
"""Benchmark of tabbench's generate → run → eval pipeline.

    python3 bench/run.py --workload reference --seed 7 --seconds 60 --trace 0

Run from any directory; the benchmark uses the tabbench source in src/ next to
bench/, and writes only under bench/work/.

--trace 0: each stage runs as its own `python -m tabbench.cli` process, as a
user runs it. Whole pipelines repeat, closed loop, until --seconds is used up
(at least MIN_REPS of them). Stage times are means over them, set-up time,
peak RSS and file sizes medians; instances_per_s is all instances over all
stage time.
--trace 1: bench/tracing.py runs the same stage commands in one process and
reports the per-layer metrics and the tracing overhead instead.

Every pipeline goes through the correctness gate (bench/gate.py). The last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics. Exit code 0 when the gate passes, 1 when it fails, 2 when the
checkout holds no tabbench source.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check
from workloads import WORKLOADS, Paths, Workload, reset_outputs, stage_args

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
MIN_REPS = 3
SETUP_PER_REP = 2
MB = 1e6
# what setup_s times: a fresh process importing the CLI and building the
# sampled relation every stage starts from
SETUP_PROBE = (
    "import sys\n"
    "from tabbench.cli import load_config, load_pack, sampled_relation\n"
    "config = load_config(sys.argv[1])\n"
    "sampled_relation(load_pack(config.dataset), config)\n"
)


class BenchError(Exception):
    pass


def spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run one process to completion: wall seconds, exit code, peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / MB


def cli(stage_argv: list[str], log: Path) -> tuple[float, int, float]:
    return spawn([sys.executable, "-m", "tabbench.cli", *stage_argv], log)


def loadavg() -> list[str]:
    return Path("/proc/loadavg").read_text().split()[:3]


def repo_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except FileNotFoundError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def prepare(workload: Workload, seed: int, paths: Paths) -> None:
    """Fresh working directory with the generated config and, for a resume
    workload, the untimed fixture: a clean run and every second line of it."""
    shutil.rmtree(paths.root, ignore_errors=True)
    paths.logs.mkdir(parents=True)
    paths.config.write_text(json.dumps(workload.config_for(seed), indent=2) + "\n", encoding="utf-8")
    if not workload.resume:
        return
    paths.clean_results.parent.mkdir()
    stages = stage_args(workload, paths)
    clean_run = [str(paths.clean_results) if a == str(paths.results) else a for a in stages["run"]]
    for name, argv in (("fixture-generate", stages["generate"]), ("fixture-run", clean_run)):
        _, code, _ = cli(argv, paths.logs / name)
        if code != 0:
            raise BenchError(f"{name} exited {code}; see {paths.logs}")
    lines = paths.clean_results.read_text(encoding="utf-8").splitlines(keepends=True)
    paths.half_results.write_text("".join(lines[::2]), encoding="utf-8")


def pipeline(workload: Workload, seed: int, paths: Paths) -> dict:
    """One closed-loop generate → run → eval, each stage its own process."""
    reset_outputs(workload, paths)
    rep = {"times": {}, "rss": {}, "codes": {}}
    for stage, argv in stage_args(workload, paths).items():
        wall, code, rss = cli(argv, paths.logs / stage)
        rep["times"][stage], rep["codes"][stage], rep["rss"][stage] = wall, code, rss
        if code != 0:
            break
    rep["verdict"] = check(workload, seed, paths, rep["codes"])
    if not rep["verdict"].violations:
        rep["suite_mb"] = paths.suite.stat().st_size / MB
        rep["results_mb"] = paths.results.stat().st_size / MB
    return rep


def setup_probe(paths: Paths) -> float:
    wall, code, _ = spawn([sys.executable, "-c", SETUP_PROBE, str(paths.config)], paths.logs / "setup")
    if code != 0:
        raise BenchError(f"setup probe exited {code}; see {paths.logs / 'setup.err'}")
    return wall


def end_to_end(workload: Workload, seed: int, seconds: float, paths: Paths) -> tuple[dict, int, int, list[str]]:
    setup: list[float] = []
    reps: list[dict] = []
    deadline = time.perf_counter() + seconds
    rep_s = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() + rep_s <= deadline:
        started = time.perf_counter()
        # set-up samples spread over the run, like the pipelines they precede
        setup += [setup_probe(paths) for _ in range(SETUP_PER_REP)]
        reps.append(pipeline(workload, seed, paths))
        rep_s = time.perf_counter() - started
        if reps[-1]["verdict"].violations:
            break

    attempted = sum(r["verdict"].instances for r in reps)
    failed = sum(r["verdict"].failed for r in reps)
    violations = [v for r in reps for v in r["verdict"].violations]
    metrics = {"setup_s": statistics.median(setup)}
    if violations:
        return metrics, attempted, failed, violations

    # Stage times are means over the run, not medians: this host's speed
    # shifts by up to a third between neighbouring pipelines, so the median of
    # a handful of them jumps between a fast and a slow level, while the mean
    # moves in proportion to how much of the run each level took.
    for stage in ("generate", "run", "eval"):
        metrics[f"{stage}_s"] = statistics.fmean(r["times"][stage] for r in reps)
    metrics["instances_per_s"] = attempted / sum(sum(r["times"].values()) for r in reps)
    for stage in ("generate", "run", "eval"):
        metrics[f"{stage}_rss_mb"] = statistics.median(r["rss"][stage] for r in reps)
    metrics["suite_mb"] = statistics.median(r["suite_mb"] for r in reps)
    metrics["results_mb"] = statistics.median(r["results_mb"] for r in reps)
    metrics["failed_ratio"] = failed / attempted
    metrics["pipelines"] = len(reps)
    return metrics, attempted, failed, violations


def traced(workload: Workload, seed: int, seconds: float, paths: Paths) -> tuple[dict, int, int, list[str]]:
    out = paths.root / "trace.json"
    argv = [sys.executable, str(BENCH / "tracing.py"), "--workload", workload.name, "--seed", str(seed),
            "--seconds", str(seconds), "--work", str(paths.root), "--out", str(out)]
    _, code, _ = spawn(argv, paths.logs / "trace")
    if code != 0:
        raise BenchError(f"traced pass exited {code}; see {paths.logs / 'trace.err'}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["metrics"]["pairs"] = result["pairs"]
    return result["metrics"], result["attempted"], result["failed"], result["violations"]


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of tabbench's generate → run → eval pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tabbench" / "cli.py").is_file():
        print(f"no tabbench source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    paths = Paths(WORK / workload.name)
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "loadavg_start": loadavg(), "commit": repo_commit(),
           "workload": workload.name, "seed": args.seed, "trace": args.trace}
    try:
        prepare(workload, args.seed, paths)
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, violations = measure(workload, args.seed, args.seconds, paths)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()
    (paths.root / "env.json").write_text(json.dumps(env, indent=2) + "\n", encoding="utf-8")

    print("env " + json.dumps(env))
    for violation in violations:
        print(f"VIOLATION {violation}")
    units = {"failed_ratio": "ratio", "pipelines": "count", "pairs": "count"}
    units.update((m["name"], m["unit"]) for m in declared)
    for name, value in metrics.items():
        print(f"{name:38s} {value:<14.6g} {units.get(name, '')}")
    correct = not violations
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if correct and missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
