"""Scoring of parsed answers against gold, with grouped means and robustness variance.

Set-valued requests score with entity/tuple F1, single-answer requests with
accuracy, and counting requests with the absolute difference from gold (lower
is better). Variance is taken across the wording templates of a cell, which is
what makes the robustness comparison between formats possible.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field

from .answers import (
    EntityList,
    Judgement,
    MatchResult,
    NumberAnswer,
    ParsedAnswer,
    TupleList,
    match_entities,
)
from .oracle import EntitySet, Number, RelationSnapshot, TupleSet, Witnessed
from .relation import normalize
from .requestgen import RequestInstance
from .requesttypes import ROWS, RequestType
from .structurer import PipeTable


class ReportError(Exception):
    pass


class UnalignedError(ReportError):
    pass


# metrics where higher is better; abs_diff is the lower-is-better exception
SCORE_METRICS = ("f1", "accuracy")


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


def _record(instance: RequestInstance, model: str, value: float, *, unparsed=False,
            dropped=0, extras: dict[str, float] | None = None) -> EvalRecord:
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
        metric=ROWS[instance.request_type].metric,
        value=value,
        unparsed=unparsed,
        dropped_names=dropped,
        resamples=instance.resamples,
        extras=extras or {},
    )


def _snapshot_keys(table: PipeTable, key_name: str, instance: RequestInstance) -> MatchResult:
    """Keys present in a predicted table, matched against the instance's entities.

    The key column is found by header name against `key_name`; a table
    without that header falls back to its first column."""
    key_col = table.column(key_name, 0)
    names = tuple(normalize(row[key_col]) for row in table.rows)
    return match_entities(EntityList(names), instance.entity_keys)


def _f1_record(instance: RequestInstance, model: str, gold_keys: frozenset[str],
               match: MatchResult, *, unparsed=False, extras=None) -> EvalRecord:
    precision, recall, score = f1(gold_keys, match.keys)
    merged = {"precision": precision, "recall": recall}
    merged.update(extras or {})
    return _record(instance, model, score, unparsed=unparsed, dropped=match.dropped, extras=merged)


def score(instance: RequestInstance, parsed: ParsedAnswer, model: str = "model") -> EvalRecord:
    """Score one parsed answer against the instance's gold. Unparseable answers
    get zero credit (or the worst plausible count difference) plus a flag."""
    handler = {
        RequestType.RETRIEVAL: _score_retrieval,
        RequestType.DELETION: _score_deletion,
        RequestType.UPDATE: _score_update,
        RequestType.SUPERLATIVE: _score_superlative,
        RequestType.SUM: _score_sum,
        RequestType.COUNT: _score_count,
        RequestType.EXISTENCE: _score_existence,
        RequestType.PROJECTION: _score_projection,
    }[instance.request_type]
    return handler(instance, parsed, model)


def _score_retrieval(instance, parsed, model):
    gold: EntitySet = instance.gold
    if isinstance(parsed, EntityList):
        match = match_entities(parsed, instance.entity_keys)
        return _f1_record(instance, model, gold.keys, match)
    return _f1_record(instance, model, gold.keys, MatchResult(frozenset(), 0), unparsed=True)


def _score_deletion(instance, parsed, model):
    gold: RelationSnapshot = instance.gold
    gold_keys = frozenset(gold.relation.keys())
    if isinstance(parsed, PipeTable):
        match = _snapshot_keys(parsed, gold.relation.key_attr.name, instance)
        return _f1_record(instance, model, gold_keys, match)
    if isinstance(parsed, EntityList):
        match = match_entities(parsed, instance.entity_keys)
        return _f1_record(instance, model, gold_keys, match)
    return _f1_record(instance, model, gold_keys, MatchResult(frozenset(), 0), unparsed=True)


def _score_update(instance, parsed, model):
    """Cell-level F1 on the target column: an entity counts as updated when its
    target cell reads N/A. Entities missing from the prediction count against
    recall when gold updates them. Damage to non-target cells is tallied as a
    diagnostic, not folded into the score."""
    gold: RelationSnapshot = instance.gold
    target = instance.plan.target_attr
    gold_rel = gold.relation
    target_idx = gold_rel.index(target)
    key_idx = gold_rel.index(gold_rel.key_attr.name)
    gold_updated = frozenset(
        r.values[key_idx].strip() for r in gold_rel.rows if normalize(r.values[target_idx]) == "n/a"
    )

    if not isinstance(parsed, PipeTable):
        return _f1_record(instance, model, gold_updated, MatchResult(frozenset(), 0), unparsed=True)

    target_col = parsed.column(target)
    key_col = parsed.column(gold_rel.key_attr.name, 0)

    by_key = {normalize(k): k for k in gold_rel.keys()}
    gold_rows = {r.values[key_idx].strip(): r for r in gold_rel.rows}
    shared = [(col, i) for i, a in enumerate(gold_rel.schema)
              if i != target_idx and (col := parsed.column(a.name)) is not None]

    predicted_updated = set()
    collateral = 0
    matched_rows = 0
    for row in parsed.rows:
        key = by_key.get(normalize(row[key_col]))
        if key is None:
            continue
        matched_rows += 1
        if target_col is not None and normalize(row[target_col]) == "n/a":
            predicted_updated.add(key)
        gold_row = gold_rows[key]
        for col, gold_col in shared:
            if normalize(row[col]) != normalize(gold_row.values[gold_col]):
                collateral += 1

    match = MatchResult(frozenset(predicted_updated), dropped=len(parsed.rows) - matched_rows)
    return _f1_record(instance, model, gold_updated, match, extras={"collateral_damage": float(collateral)})


def _score_superlative(instance, parsed, model):
    gold: EntitySet = instance.gold
    if isinstance(parsed, EntityList):
        match = match_entities(parsed, instance.entity_keys)
        value = 1.0 if match.keys == gold.keys else 0.0
        return _record(instance, model, value, dropped=match.dropped)
    return _record(instance, model, 0.0, unparsed=True)


def _score_sum(instance, parsed, model):
    gold: Number = instance.gold
    if not isinstance(parsed, NumberAnswer):
        return _record(instance, model, 0.0, unparsed=True)
    if float(gold.value).is_integer():
        ok = parsed.value == gold.value
    else:
        scale = max(abs(gold.value), 1e-12)
        ok = abs(parsed.value - gold.value) / scale <= 1e-6
    return _record(instance, model, 1.0 if ok else 0.0)


def _score_count(instance, parsed, model):
    gold: Number = instance.gold
    if not isinstance(parsed, NumberAnswer):
        # worst plausible difference, flagged: an unparsed count must not
        # look better than a wrong one
        return _record(instance, model, abs(gold.value), unparsed=True)
    return _record(instance, model, abs(parsed.value - gold.value))


def _score_existence(instance, parsed, model):
    gold: Witnessed = instance.gold
    expected = gold.value != instance.negated
    if not isinstance(parsed, Judgement):
        return _record(instance, model, 0.0, unparsed=True, extras={"rationale_accuracy": 0.0})

    rationale = normalize(parsed.rationale)
    if gold.value:
        rationale_ok = all(normalize(w) in rationale for w in gold.witnesses)
    else:
        rationale_ok = not any(normalize(k) in rationale for k in instance.entity_keys)
    return _record(
        instance,
        model,
        1.0 if parsed.value == expected else 0.0,
        extras={"rationale_accuracy": 1.0 if rationale_ok else 0.0},
    )


def _score_projection(instance, parsed, model):
    gold: TupleSet = instance.gold
    gold_tuples = frozenset(tuple(normalize(c) for c in t) for t in gold.tuples)
    if not isinstance(parsed, TupleList):
        precision, recall, value = f1(gold_tuples, frozenset())
        return _record(instance, model, value, unparsed=True,
                       extras={"precision": precision, "recall": recall})
    pred = frozenset(parsed.tuples)
    precision, recall, value = f1(gold_tuples, pred)
    return _record(instance, model, value, extras={"precision": precision, "recall": recall})


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


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
        template_means = [statistics.fmean(v) for _, v in sorted(by_template.items())]
        values = [v for vs in by_template.values() for v in vs]
        rows.append(
            ReportRow(
                group=tuple(zip(group_by, key)),
                mean=statistics.fmean(values),
                variance=statistics.pvariance(template_means) if len(template_means) > 1 else 0.0,
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
    mean_improvement_pp: float  # over score-typed cells (higher-better metrics)
    mean_relative_change: float  # mean of per-cell relative changes, score-typed
    count_abs_reduction: float | None  # mean reduction of the count difference
    count_relative_reduction: float | None
    convention: str
    notes: tuple[str, ...]


_CONVENTION = "pp = table - text per cell (difference sign-flipped for abs_diff); relative = pp / text; aggregates are unweighted means over cells"


def compare_formats(text_cells: list[dict], table_cells: list[dict]) -> FormatComparison:
    """Per-cell and headline improvement of table-format context over text.

    Cells are {model, request_type, metric, mean} dicts aligned on
    (model, request_type). The relative aggregate depends on averaging
    convention; the one used here is declared in `convention` and alternatives
    are flagged in `notes` instead of silently picked.
    """
    def index(cells):
        return {(c["model"], c["request_type"]): c for c in cells}

    text_index, table_index = index(text_cells), index(table_cells)
    if set(text_index) != set(table_index):
        missing = set(text_index) ^ set(table_index)
        raise UnalignedError(f"rows not aligned on (model, request_type): {sorted(missing)}")

    deltas = []
    for key in sorted(text_index):
        text_cell, table_cell = text_index[key], table_index[key]
        if text_cell["metric"] != table_cell["metric"]:
            raise UnalignedError(f"metric mismatch for {key}")
        metric = text_cell["metric"]
        text_value, table_value = float(text_cell["mean"]), float(table_cell["mean"])
        if metric in SCORE_METRICS:
            improvement = table_value - text_value
        else:
            improvement = text_value - table_value
        relative = improvement / text_value if text_value else 0.0
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
    counted = [d for d in deltas if d.metric == "abs_diff"]
    return FormatComparison(
        cells=tuple(deltas),
        mean_improvement_pp=statistics.fmean(d.improvement_pp for d in scored) if scored else 0.0,
        mean_relative_change=statistics.fmean(d.relative_change for d in scored) if scored else 0.0,
        count_abs_reduction=statistics.fmean(d.improvement_pp for d in counted) if counted else None,
        count_relative_reduction=statistics.fmean(d.relative_change for d in counted) if counted else None,
        convention=_CONVENTION,
        notes=(
            "headline relative-change figures depend on the aggregation convention "
            "(per-cell mean of ratios here; ratio of means and entity-weighted "
            "variants give different numbers), so compare only under a declared convention",
        ),
    )


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
    cells: dict[tuple[str, str], dict[bool, list[float]]] = {}
    for record in records:
        if record.request_type != RequestType.EXISTENCE.value:
            continue
        cells.setdefault((record.model, record.level), {}).setdefault(record.negated, []).append(record.value)

    rows = []
    for (model, level) in sorted(cells):
        sides = cells[(model, level)]
        original = statistics.fmean(sides.get(False, [])) if sides.get(False) else 0.0
        negated = statistics.fmean(sides.get(True, [])) if sides.get(True) else 0.0
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
# Rendering: per-record CSV, aggregate CSV, aligned markdown
# ---------------------------------------------------------------------------

RECORD_FIELDS = (
    "request_id", "model", "dataset", "request_type", "level", "template_id",
    "connective", "n_conditions", "portion", "negated", "metric", "value",
    "unparsed", "dropped_names", "resamples", "extras",
)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(records: list[EvalRecord]) -> str:
    return _csv(RECORD_FIELDS, (
        [r.request_id, r.model, r.dataset, r.request_type, r.level, r.template_id,
         r.connective, r.n_conditions, "" if r.portion is None else r.portion,
         r.negated, r.metric, repr(r.value), r.unparsed, r.dropped_names, r.resamples,
         json.dumps(r.extras, sort_keys=True)]
        for r in sorted(records, key=lambda r: r.request_id)
    ))


def report_to_csv(rows: list[ReportRow]) -> str:
    if not rows:
        return ""
    return _csv(
        [*(k for k, _ in rows[0].group), "mean", "variance", "count", "templates"],
        ([*(v for _, v in row.group), repr(row.mean), repr(row.variance), row.count, row.templates]
         for row in rows),
    )


def dicts_to_csv(rows: list[dict]) -> str:
    """One column per key of the first row, in sorted order; "" for no rows."""
    if not rows:
        return ""
    names = sorted(rows[0])
    return _csv(names, ([row.get(k, "") for k in names] for row in rows))


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
        avg = f"{statistics.fmean(present):.4f}" if present else "-"
        body.append([slot[0], slot[1], *cells, avg])

    widths = [max(len(str(line[i])) for line in [header, *body]) for i in range(len(header))]

    def fmt(line):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(line, widths)) + " |"

    separator = "| " + " | ".join("-" * w for w in widths) + " |"
    return "\n".join([fmt(header), separator, *[fmt(line) for line in body]]) + "\n"
