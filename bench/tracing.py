"""Traced, in-process pass over the generate → run → eval stages.

Spans are recorded from the benchmark's own files: `instrument` replaces the
public functions of each tabbench module at the names their callers look up
(for example `tabbench.requestgen.render`, `tabbench.gateway.complete`) with
wrappers that open a span. Nothing is added inside the program. Spans stay in
memory; the pass reports per-layer totals, self times (span minus the part of
it that child spans cover) and counts.

Run by bench/run.py with `--trace 1`:
    python3 bench/tracing.py --workload NAME --seed N --seconds S --work DIR --out FILE
with PYTHONPATH pointing at the checkout's src/. Untraced and traced passes
alternate until the time is up; the difference is the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

TAIL_LADDER = ("50", "90", "99", "99.9", "99.99")
MIN_BEYOND = 10


class Span:
    __slots__ = ("id", "parent", "name", "start", "end")

    def __init__(self, span_id: int, parent: int | None, name: str, start: float, end: float = 0.0):
        self.id, self.parent, self.name, self.start, self.end = span_id, parent, name, start, end


class Tracer:
    """In-memory spans with parent ids, plus counters and samples.

    Each thread keeps its own stack of open spans. A thread whose stack is empty
    (a worker of the run_suite pool) parents its spans under the innermost open
    span of the thread that created the tracer."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        top = stack[-1:] or self._root[-1:]
        span = Span(next(self._ids), top[0].id if top else None, name, time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def see(self, name: str, key) -> None:
        with self._lock:
            self.distinct[name].add(key)

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part of its interval that its
    children cover. Overlapping children (pool workers) count once."""
    children: defaultdict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - covered([iv for iv in clipped if iv[0] < iv[1]])
    return out


def percentile(values: list[float], p: str) -> float:
    """Nearest-rank percentile of unsorted values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(p) * len(ordered) / 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> str | None:
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of n samples
    beyond its nearest rank, or None when even the median has fewer."""
    for p in reversed(TAIL_LADDER):
        if n - math.ceil(Fraction(p) * n / 100) >= MIN_BEYOND:
            return p
    return None


# ---------------------------------------------------------------------------
# Instrumentation of tabbench's public functions
# ---------------------------------------------------------------------------


def _count_attempts(tracer, span, args, result):
    tracer.add("condgen.attempts", result[2] + 1)


def _distinct_plan(tracer, span, args, result):
    tracer.see("oracle.plans", args[0])


def _distinct_context(tracer, span, args, result):
    tracer.see("structurer.contexts", hash(result))


def _suite_bytes(tracer, span, args, result):
    tracer.add("requestgen.suite_bytes", len(result.encode("utf-8")))


def _hashed_bytes(tracer, span, args, result):
    tracer.add("runio.sha256_bytes", os.path.getsize(args[0]))


def _run_manifest(tracer, span, args, result):
    tracer.add("gateway.reused", result["reused"])
    tracer.add("gateway.errors", result["errors"])


def _latency(tracer, span, args, result):
    tracer.sample("gateway.complete_ms", (span.end - span.start) * 1000.0)


def _unparsed(tracer, span, args, result):
    from tabbench.answers import Unparseable

    tracer.add("answers.unparsed", isinstance(result, Unparseable))


def _dropped(tracer, span, args, result):
    tracer.add("answers.dropped_names", result.dropped)


def _patch_table():
    """(module, attribute, span name, observer) for every wrapped call site."""
    from tabbench import answers, cli, evaluator, gateway, requestgen, runio, structurer

    return [
        (cli, "load_pack", "datasets.load_pack", None),
        (cli, "sample_entities", "relation.sample_entities", None),
        (requestgen, "generate_suite", "requestgen.generate_suite", None),
        (requestgen, "draw_condition_set", "condgen.draw", _count_attempts),
        (requestgen, "evaluate", "oracle.evaluate", _distinct_plan),
        (requestgen, "render", "structurer.render", _distinct_context),
        (requestgen, "render_partial", "structurer.render", _distinct_context),
        # the gateway imports parse_table from structurer at call time
        (structurer, "parse_table", "structurer.parse_table", None),
        (answers, "parse_table", "structurer.parse_table", None),
        (cli, "dump_suite", "requestgen.dump_suite", _suite_bytes),
        (cli, "load_suite", "requestgen.load_suite", None),
        (cli, "sha256_file", "runio.sha256", _hashed_bytes),
        (runio, "sha256_file", "runio.sha256", _hashed_bytes),
        (cli, "run_suite", "gateway.run_suite", _run_manifest),
        (gateway, "complete", "gateway.complete", _latency),
        (cli, "parse_answer", "answers.parse", _unparsed),
        (evaluator, "match_entities", "answers.match_entities", _dropped),
        (evaluator, "score", "evaluator.score", None),
        (evaluator, "aggregate", "evaluator.aggregate", None),
        (evaluator, "records_to_csv", "evaluator.write_reports", None),
        (evaluator, "report_to_csv", "evaluator.write_reports", None),
        (evaluator, "report_markdown", "evaluator.write_reports", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, span, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every call site in the patch table for the duration of the block."""
    table = _patch_table()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in table]
    try:
        for (module, attr, name, observe), (_, _, fn) in zip(table, originals):
            setattr(module, attr, _wrap(tracer, fn, name, observe))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer table of one traced pass."""
    total: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    selfs = self_times(tracer.spans)
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        calls[s.name] += 1
    c = tracer.counts
    latency = tracer.samples["gateway.complete_ms"]
    metrics = {
        "datasets.load_pack_s": total["datasets.load_pack"],
        "relation.sample_entities_s": total["relation.sample_entities"],
        "condgen.draw_s": total["condgen.draw"],
        "condgen.draws": calls["condgen.draw"],
        "condgen.attempts": c["condgen.attempts"],
        "condgen.accept_ratio": _ratio(calls["condgen.draw"], c["condgen.attempts"]),
        "oracle.evaluate_s": total["oracle.evaluate"],
        "oracle.evaluate_calls": calls["oracle.evaluate"],
        "oracle.gold_distinct_ratio": _ratio(len(tracer.distinct["oracle.plans"]), calls["oracle.evaluate"]),
        "structurer.render_s": total["structurer.render"],
        "structurer.render_calls": calls["structurer.render"],
        "structurer.context_distinct_ratio": _ratio(len(tracer.distinct["structurer.contexts"]),
                                                    calls["structurer.render"]),
        "structurer.parse_table_s": total["structurer.parse_table"],
        "structurer.parse_table_calls": calls["structurer.parse_table"],
        "requestgen.generate_suite_self_s": own["requestgen.generate_suite"],
        "requestgen.dump_suite_s": total["requestgen.dump_suite"],
        "requestgen.suite_bytes": c["requestgen.suite_bytes"],
        "requestgen.load_suite_s": total["requestgen.load_suite"],
        "runio.sha256_s": total["runio.sha256"],
        "runio.sha256_bytes": c["runio.sha256_bytes"],
        "gateway.run_suite_s": total["gateway.run_suite"],
        "gateway.complete_calls": calls["gateway.complete"],
        "gateway.reused": c["gateway.reused"],
        "gateway.errors": c["gateway.errors"],
        "answers.parse_s": total["answers.parse"],
        "answers.parse_calls": calls["answers.parse"],
        "answers.match_entities_s": total["answers.match_entities"],
        "answers.unparsed_ratio": _ratio(c["answers.unparsed"], calls["answers.parse"]),
        "answers.dropped_names": c["answers.dropped_names"],
        "evaluator.score_s": total["evaluator.score"],
        "evaluator.aggregate_s": total["evaluator.aggregate"],
        "evaluator.write_reports_s": total["evaluator.write_reports"],
        "cli.generate_self_s": own["cli.generate"],
        "cli.run_self_s": own["cli.run"],
        "cli.eval_self_s": own["cli.eval"],
    }
    if latency:
        metrics["gateway.complete_ms_p50"] = percentile(latency, "50")
        tail = tail_percentile(len(latency))
        if tail is not None:
            metrics[f"gateway.complete_ms_p{tail}"] = percentile(latency, tail)
    return metrics


# ---------------------------------------------------------------------------
# The in-process pass
# ---------------------------------------------------------------------------


def invoke(argv: list[str]) -> int:
    """One `tabbench` stage in this process; its stdout is discarded."""
    from tabbench import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(args=argv, standalone_mode=False)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
    return 0


def run_pass(stages: dict[str, list[str]], tracer: Tracer | None) -> tuple[dict[str, float], dict[str, int]]:
    """Stage wall times and exit codes of one in-process pipeline."""
    times, codes = {}, {}
    for stage, argv in stages.items():
        started = time.perf_counter()
        if tracer is None:
            codes[stage] = invoke(argv)
        else:
            with tracer.span(f"cli.{stage}"):
                codes[stage] = invoke(argv)
        times[stage] = time.perf_counter() - started
        if codes[stage] != 0:
            break
    return times, codes


def main() -> int:
    from gate import check
    from workloads import WORKLOADS, Paths, reset_outputs, stage_args

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    import tabbench.cli  # noqa: F401  (import cost stays out of the first pass)

    workload, paths = WORKLOADS[args.workload], Paths(args.work)
    stages = stage_args(workload, paths)
    deadline = time.perf_counter() + args.seconds
    passes: list[dict[str, float]] = []
    overheads: list[float] = []
    attempted = failed = 0
    violations: list[str] = []
    while not passes or (not violations and time.perf_counter() + pair_s <= deadline):
        pair_started = time.perf_counter()
        elapsed = {}
        # alternate which pass goes first, so warm-up does not bias the overhead
        for traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
            reset_outputs(workload, paths)
            tracer = Tracer() if traced else None
            with instrument(tracer) if traced else contextlib.nullcontext():
                times, codes = run_pass(stages, tracer)
            verdict = check(workload, args.seed, paths, codes)
            attempted += verdict.instances
            failed += verdict.failed
            violations += verdict.violations
            elapsed[traced] = sum(times.values())
            if traced:
                passes.append(layer_metrics(tracer))
            del tracer
            gc.collect()
        overheads.append(elapsed[True] - elapsed[False])
        pair_s = time.perf_counter() - pair_started

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    args.out.write_text(json.dumps({
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "violations": violations, "pairs": len(passes),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
