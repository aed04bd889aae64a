"""Scoring of parsed answers against gold, with grouped means and robustness variance.

Each request type is scored by the metric its row in `requesttypes.ROWS`
names: set-valued requests with entity/tuple F1, single-answer requests with
accuracy, and counting requests with the absolute difference from gold (lower
is better). Variance is taken across the wording templates of a cell, which is
what makes the robustness comparison between formats possible.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import operator
import statistics
import sys
from dataclasses import dataclass, field

from .answers import EntityList, Judgement, NumberAnswer, ParsedAnswer, TupleList, match_entities
from .relation import normalize
from .requestgen import RequestInstance
from .requesttypes import ABS_DIFF, ACCURACY, F1, ROWS, RequestType
from .structurer import PipeTable, StructuringLevel, unemphasized


class ReportError(Exception):
    pass


class UnalignedError(ReportError):
    pass


# metrics where higher is better; abs_diff is the lower-is-better exception
SCORE_METRICS = (F1, ACCURACY)


def f1(gold: frozenset, pred: frozenset) -> tuple[float, float, float]:
    """Set precision/recall/F1 with pinned degenerate conventions:
    empty gold and empty prediction is a perfect (1, 1, 1); empty gold with a
    non-empty prediction is (0, 1, 0); other zero denominators score 0."""
    if not gold and not pred:
        return (1.0, 1.0, 1.0)
    if not gold:
        return (0.0, 1.0, 0.0)
    tp = len(gold & pred)
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(gold)
    score = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return (precision, recall, score)


def _equal(gold, predicted) -> bool:
    """Exact match, within a relative 1e-6 for a number that is not an integer."""
    if isinstance(gold, float) and not gold.is_integer():
        return abs(predicted - gold) / max(abs(gold), 1e-12) <= 1e-6
    return predicted == gold


@dataclass
class EvalRecord:
    """One scored response, carrying every key the reports group by."""

    request_id: str
    model: str
    dataset: str
    request_type: str
    level: str
    template_id: int
    connective: str
    n_conditions: int
    portion: float | None
    negated: bool
    metric: str
    value: float
    unparsed: bool = False
    dropped_names: int = 0
    resamples: int = 0
    extras: dict[str, float] = field(default_factory=dict)


# Each request type's reader turns its gold and a parsed answer into what its
# metric compares: (gold, predicted, mentions dropped, diagnostics), with
# predicted None for an answer in none of the type's formats.


def _named(gold: frozenset[str], instance: RequestInstance, parsed: ParsedAnswer):
    """The keys of the instance's entities that a list of names matches."""
    if not isinstance(parsed, EntityList):
        return gold, None, 0, {}
    match = match_entities(parsed, instance.entity_keys)
    return gold, match.keys, match.dropped, {}


def _entities(instance: RequestInstance, parsed: ParsedAnswer):
    """Retrieval and superlative: the entities the answer names."""
    return _named(instance.gold.keys, instance, parsed)


def _kept_rows(instance: RequestInstance, parsed: ParsedAnswer):
    """Deletion: the entities the answer keeps, named in a list or in the key
    column of a table (found by header name, else its first column). Key cells
    are read without markdown emphasis, as header cells are."""
    snapshot = instance.gold
    if isinstance(parsed, PipeTable):
        key_col = parsed.column(snapshot.key, 0)
        parsed = EntityList(tuple(unemphasized(row[key_col]) for row in parsed.rows))
    return _named(snapshot.key_set, instance, parsed)


def _updated_cells(instance: RequestInstance, parsed: ParsedAnswer):
    """Update: the entities whose target cell reads N/A. Entities missing from
    the answer count against recall when gold updates them. Damage to
    non-target cells is tallied as a diagnostic, not folded into the score.
    Cells are compared without markdown emphasis, as header cells are."""
    snapshot = instance.gold
    target = instance.plan.target_attr
    target_idx = snapshot.columns.index(target)
    # entities are counted by row position: the F1 of positions is the F1 of keys
    gold = frozenset(i for i, row in enumerate(snapshot.rows) if normalize(row[target_idx]) == "n/a")
    if not isinstance(parsed, PipeTable):
        return gold, None, 0, {}

    target_col = parsed.column(target)
    key_col = parsed.column(snapshot.key, 0)
    positions = snapshot.positions
    shared = [(col, i) for i, name in enumerate(snapshot.columns)
              if i != target_idx and (col := parsed.column(name)) is not None]
    # a row's shared cells as one value, on each side (of one index, the cell itself)
    pick, pick_gold = (operator.itemgetter(*side) for side in zip(*shared)) if shared else (None, None)

    predicted = set()
    collateral = 0
    matched_rows = 0
    for row in parsed.rows:
        position = positions.get(unemphasized(row[key_col]))
        if position is None:
            continue
        matched_rows += 1
        if target_col is not None and unemphasized(row[target_col]) == "n/a":
            predicted.add(position)
        gold_row = snapshot.rows[position]
        # most rows copy every shared cell verbatim, so one comparison settles them
        if shared and pick(row) != pick_gold(gold_row):
            for col, gold_col in shared:
                # most cells carry no emphasis, so the plain comparison goes first
                cell, gold_cell = row[col], gold_row[gold_col]
                if normalize(cell) != normalize(gold_cell) and unemphasized(cell) != unemphasized(gold_cell):
                    collateral += 1
    return gold, frozenset(predicted), len(parsed.rows) - matched_rows, {"collateral_damage": float(collateral)}


def _number(instance: RequestInstance, parsed: ParsedAnswer):
    """Sum and count: the number the answer gives."""
    return float(instance.gold.value), parsed.value if isinstance(parsed, NumberAnswer) else None, 0, {}


def _verdict(instance: RequestInstance, parsed: ParsedAnswer):
    """Existence: the yes/no verdict, against gold flipped for a negated
    wording. The diagnostic is whether the rationale names every witness or,
    when there is none, no entity at all."""
    witnessed = instance.gold
    gold = witnessed.value != instance.negated
    if not isinstance(parsed, Judgement):
        return gold, None, 0, {"rationale_accuracy": 0.0}
    rationale = normalize(parsed.rationale)
    if witnessed.value:
        rationale_ok = all(normalize(w) in rationale for w in witnessed.witnesses)
    else:
        rationale_ok = not any(normalize(k) in rationale for k in instance.entity_keys)
    return gold, parsed.value, 0, {"rationale_accuracy": float(rationale_ok)}


def _tuples(instance: RequestInstance, parsed: ParsedAnswer):
    """Projection: the tuples the answer lists."""
    gold = frozenset(tuple(normalize(c) for c in t) for t in instance.gold.tuples)
    return gold, frozenset(parsed.tuples) if isinstance(parsed, TupleList) else None, 0, {}


_READERS = {
    RequestType.RETRIEVAL: _entities,
    RequestType.DELETION: _kept_rows,
    RequestType.UPDATE: _updated_cells,
    RequestType.SUPERLATIVE: _entities,
    RequestType.SUM: _number,
    RequestType.COUNT: _number,
    RequestType.EXISTENCE: _verdict,
    RequestType.PROJECTION: _tuples,
}


def score(instance: RequestInstance, parsed: ParsedAnswer, model: str = "model") -> EvalRecord:
    """Score one parsed answer against the instance's gold by the metric of its
    type's row. An answer in none of the type's formats is flagged unparsed
    and gets no credit: F1, precision and recall 0, accuracy 0, and for a count
    the difference of answering 0, so it looks no better than a wrong count."""
    metric = ROWS[instance.request_type].metric
    gold, predicted, dropped, extras = _READERS[instance.request_type](instance, parsed)
    unparsed = predicted is None
    if metric == F1:
        precision, recall, value = (0.0, 0.0, 0.0) if unparsed else f1(gold, predicted)
        extras = {"precision": precision, "recall": recall, **extras}
    elif metric == ACCURACY:
        value = 0.0 if unparsed else float(_equal(gold, predicted))
    else:
        value = abs((0.0 if unparsed else predicted) - gold)
    return EvalRecord(
        request_id=instance.id,
        model=model,
        dataset=instance.dataset,
        request_type=instance.request_type.value,
        level=instance.level.value,
        template_id=instance.template_id,
        connective=instance.connective,
        n_conditions=instance.n_conditions,
        portion=instance.portion,
        negated=instance.negated,
        metric=metric,
        value=value,
        unparsed=unparsed,
        dropped_names=dropped,
        resamples=instance.resamples,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _mean(values: list[float]) -> float:
    """The mean of finite values. fmean sums them first, which overflows for
    values near the largest float (a count answered with 308 digits); their
    mean is then the sum of each value's share, which cannot."""
    try:
        return statistics.fmean(values)
    except OverflowError:
        return math.fsum(v / len(values) for v in values)


def _variance(values: list[float]) -> float:
    """The population variance, or inf when it is beyond the largest float."""
    try:
        return statistics.pvariance(values)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ReportRow:
    group: tuple[tuple[str, object], ...]  # (key, value) pairs, in grouping order
    mean: float
    variance: float  # population variance across template means
    count: int
    templates: int

    def key(self, name: str):
        for k, v in self.group:
            if k == name:
                return v
        raise KeyError(name)


DEFAULT_GROUPING = ("model", "request_type", "level")


def aggregate(records: list[EvalRecord], group_by: tuple[str, ...] = DEFAULT_GROUPING) -> list[ReportRow]:
    """Group records, with the mean over all records in the cell and the
    population variance across per-template means (the robustness statistic).
    Cells covering fewer than the expected templates still report, with the
    coverage visible in the `templates` field."""
    cells: dict[tuple, dict[int, list[float]]] = {}
    for record in records:
        key = tuple(getattr(record, name) for name in group_by)
        cells.setdefault(key, {}).setdefault(record.template_id, []).append(record.value)

    rows = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        by_template = cells[key]
        template_means = [_mean(v) for _, v in sorted(by_template.items())]
        values = [v for vs in by_template.values() for v in vs]
        rows.append(
            ReportRow(
                group=tuple(zip(group_by, key)),
                mean=_mean(values),
                variance=_variance(template_means) if len(template_means) > 1 else 0.0,
                count=len(values),
                templates=len(template_means),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Text-vs-table improvement summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellDelta:
    model: str
    request_type: str
    metric: str
    text: float
    table: float
    improvement_pp: float  # sign-corrected: positive means the table side is better
    relative_change: float


@dataclass(frozen=True)
class FormatComparison:
    cells: tuple[CellDelta, ...]
    mean_improvement_pp: float | None  # over score-typed cells (higher-better metrics)
    mean_relative_change: float | None  # mean of per-cell relative changes, score-typed
    count_abs_reduction: float | None  # mean reduction of the count difference
    count_relative_reduction: float | None
    convention: str
    notes: tuple[str, ...]


_CONVENTION = "pp = table - text per cell (difference sign-flipped for abs_diff); relative = pp / text; aggregates are unweighted means over cells"


def compare_formats(text_cells: list[dict], table_cells: list[dict]) -> FormatComparison:
    """Per-cell and headline improvement of table-format context over text.

    Cells are {model, request_type, metric, mean} dicts aligned on
    (model, request_type); cells that do not align, a metric other than F1,
    accuracy and the count difference, or no cells at all, are a
    ReportError. The score headline (`mean_improvement_pp`,
    `mean_relative_change`) is None when no cell has a score metric, and the
    count headline when no cell is a count. The relative aggregate depends
    on averaging convention; the one used here is declared in `convention`
    and alternatives are flagged in `notes` instead of silently picked.
    """
    def index(cells):
        return {(c["model"], c["request_type"]): c for c in cells}

    text_index, table_index = index(text_cells), index(table_cells)
    if set(text_index) != set(table_index):
        missing = set(text_index) ^ set(table_index)
        raise UnalignedError(f"rows not aligned on (model, request_type): {sorted(missing)}")
    if not text_index:
        raise ReportError("no (model, request_type) cells to compare")

    deltas = []
    for key in sorted(text_index):
        text_cell, table_cell = text_index[key], table_index[key]
        if text_cell["metric"] != table_cell["metric"]:
            raise UnalignedError(f"metric mismatch for {key}")
        metric = text_cell["metric"]
        text_value, table_value = float(text_cell["mean"]), float(table_cell["mean"])
        if metric in SCORE_METRICS:
            improvement = table_value - text_value
        elif metric == ABS_DIFF:
            improvement = text_value - table_value
        else:
            raise ReportError(f"metric {metric!r} for {key} is not one of {[*SCORE_METRICS, ABS_DIFF]}")
        # a quotient beyond the largest float would read inf, which is not JSON: it is that float instead
        relative = max(-sys.float_info.max, min(improvement / text_value if text_value else 0.0, sys.float_info.max))
        deltas.append(
            CellDelta(
                model=key[0],
                request_type=key[1],
                metric=metric,
                text=text_value,
                table=table_value,
                improvement_pp=improvement,
                relative_change=relative,
            )
        )

    scored = [d for d in deltas if d.metric in SCORE_METRICS]
    counted = [d for d in deltas if d.metric == ABS_DIFF]
    return FormatComparison(
        cells=tuple(deltas),
        mean_improvement_pp=_mean([d.improvement_pp for d in scored]) if scored else None,
        mean_relative_change=_mean([d.relative_change for d in scored]) if scored else None,
        count_abs_reduction=_mean([d.improvement_pp for d in counted]) if counted else None,
        count_relative_reduction=_mean([d.relative_change for d in counted]) if counted else None,
        convention=_CONVENTION,
        notes=(
            "headline relative-change figures depend on the aggregation convention "
            "(per-cell mean of ratios here; ratio of means and entity-weighted "
            "variants give different numbers), so compare only under a declared convention",
        ),
    )


def text_vs_table(rows: list[ReportRow]) -> FormatComparison | None:
    """compare_formats over the (model, request type) cells that have both a
    natural- and a table-level row; None when no cell has both."""
    def cells(level):
        return [
            {"model": str(r.key("model")), "request_type": str(r.key("request_type")),
             "metric": ROWS[RequestType(r.key("request_type"))].metric, "mean": r.mean}
            for r in rows
            if str(r.key("level")) == level
        ]

    text_cells = cells(StructuringLevel.NATURAL.value)
    table_cells = cells(StructuringLevel.TABLE.value)
    aligned = {(c["model"], c["request_type"]) for c in text_cells} & {
        (c["model"], c["request_type"]) for c in table_cells
    }
    if not aligned:
        return None
    return compare_formats(*([c for c in side if (c["model"], c["request_type"]) in aligned]
                             for side in (text_cells, table_cells)))


# ---------------------------------------------------------------------------
# Existence robustness: original vs negated wording
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobustnessRow:
    model: str
    level: str
    original_accuracy: float
    negated_accuracy: float
    delta: float  # |original - negated|, lower is more robust


def existence_robustness(records: list[EvalRecord]) -> list[RobustnessRow]:
    """Accuracy on original vs negated existence wording per (model, level),
    with the absolute gap between the two as the robustness figure."""
    cells: dict[tuple[str, str], dict[bool, float]] = {}
    existence = [r for r in records if r.request_type == RequestType.EXISTENCE.value]
    for row in aggregate(existence, ("model", "level", "negated")):
        model, level, negated = (value for _, value in row.group)
        cells.setdefault((model, level), {})[negated] = row.mean

    rows = []
    for (model, level), sides in sorted(cells.items()):
        original, negated = sides.get(False, 0.0), sides.get(True, 0.0)
        rows.append(
            RobustnessRow(
                model=model,
                level=level,
                original_accuracy=original,
                negated_accuracy=negated,
                delta=abs(original - negated),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Rendering: the eval reports
# ---------------------------------------------------------------------------


def eval_reports(records: list[EvalRecord]) -> tuple[list[ReportRow], dict[str, str | None]]:
    """The aggregate rows of the records and the text of every eval report by
    file name; compare.json and existence.csv are None when the records hold
    no natural/table pair or no existence request. A mix of portions is also
    grouped by portion."""
    grouping = DEFAULT_GROUPING
    if len({r.portion for r in records}) > 1:
        grouping = (*grouping, "portion")
    rows = aggregate(records, grouping)
    comparison = text_vs_table(rows)
    robustness = existence_robustness(records)
    existence_columns = sorted(f.name for f in dataclasses.fields(RobustnessRow))
    return rows, {
        "records.csv": records_to_csv(records),
        "aggregate.csv": report_to_csv(rows),
        "aggregate.md": report_markdown(rows),
        "variance.csv": _csv(("level", "model", "request_type", "variance"), (
            [r.key("level"), r.key("model"), r.key("request_type"), r.variance] for r in rows)) if rows else "",
        "compare.json": (json.dumps(dataclasses.asdict(comparison), indent=2, sort_keys=True) + "\n"
                         if comparison is not None else None),
        "existence.csv": (_csv(existence_columns, ([getattr(r, name) for name in existence_columns]
                                                   for r in robustness)) if robustness else None),
    }


def _csv(header, rows) -> str:
    """A header line and one line per row; None is written empty, a dict as
    sorted-key JSON and any other value as str() gives it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([json.dumps(v, sort_keys=True) if isinstance(v, dict) else v for v in row] for row in rows)
    return buf.getvalue()


def records_to_csv(records: list[EvalRecord]) -> str:
    """One row per record, ordered by (request id, model), so the rows do not
    depend on the order the records were scored in."""
    columns = [f.name for f in dataclasses.fields(EvalRecord)]
    return _csv(columns, ([getattr(r, name) for name in columns]
                          for r in sorted(records, key=lambda r: (r.request_id, r.model))))


def report_to_csv(rows: list[ReportRow]) -> str:
    if not rows:
        return ""
    return _csv(
        [*(k for k, _ in rows[0].group), "mean", "variance", "count", "templates"],
        ([*(v for _, v in row.group), row.mean, row.variance, row.count, row.templates] for row in rows),
    )


def report_markdown(rows: list[ReportRow]) -> str:
    """Aligned pipe table: one line per (request type, level) pair, one column
    per model, plus an Avg. column."""
    models = sorted({row.key("model") for row in rows})
    lines_index: dict[tuple[str, str], dict[str, float]] = {}
    for row in rows:
        slot = (str(row.key("request_type")), str(row.key("level")))
        lines_index.setdefault(slot, {})[str(row.key("model"))] = row.mean

    header = ["Request Type", "Data Type", *models, "Avg."]
    body = []
    for slot in sorted(lines_index):
        values = lines_index[slot]
        cells = [f"{values[m]:.4f}" if m in values else "-" for m in models]
        present = [values[m] for m in models if m in values]
        avg = f"{_mean(present):.4f}" if present else "-"
        body.append([slot[0], slot[1], *cells, avg])

    widths = [max(len(str(line[i])) for line in [header, *body]) for i in range(len(header))]

    def fmt(line):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(line, widths)) + " |"

    separator = "| " + " | ".join("-" * w for w in widths) + " |"
    return "\n".join([fmt(header), separator, *[fmt(line) for line in body]]) + "\n"
