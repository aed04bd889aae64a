"""The eight request types, with every fact about each in one plain-data row.

A plan's class names its request type, so nothing else records the type: the
row of `type_of(plan)` says how the question is scored, how its answer is
read, which target attributes it takes and in which wordings it is asked.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import oracle


class RequestType(Enum):
    RETRIEVAL = "retrieval"
    DELETION = "deletion"
    UPDATE = "update"
    SUPERLATIVE = "superlative"
    SUM = "sum"
    COUNT = "count"
    EXISTENCE = "existence"
    PROJECTION = "projection"


# metrics, as evaluator.score applies them: set F1, exact match, and the
# absolute difference from gold (the one where lower is better)
F1 = "f1"
ACCURACY = "accuracy"
ABS_DIFF = "abs_diff"

# answer formats, as answers.parse reads them
ENTITIES = "entities"
TABLE = "table"
NUMBER = "number"
VERDICT = "verdict"
TUPLES = "tuples"

# how many target attributes a plan takes
NO_TARGET = "none"
ONE_TARGET = "one"
MANY_TARGETS = "many"


@dataclass(frozen=True)
class TypeRow:
    plan: type  # the oracle plan class that asks this type
    gold: type  # the oracle gold class its answer is scored against
    metric: str  # F1, ACCURACY or ABS_DIFF
    answers: tuple[str, ...]  # answer formats to try, in order
    targets: str  # NO_TARGET, ONE_TARGET or MANY_TARGETS
    wordings: tuple[bool, ...] = (False,)  # the negated flag of each wording asked
    default: bool = True  # in the default set of request types


ROWS: dict[RequestType, TypeRow] = {
    RequestType.RETRIEVAL: TypeRow(oracle.Retrieve, oracle.EntitySet, F1, (ENTITIES,), NO_TARGET),
    RequestType.DELETION: TypeRow(oracle.Delete, oracle.RelationSnapshot, F1, (TABLE, ENTITIES), NO_TARGET),
    RequestType.UPDATE: TypeRow(oracle.Update, oracle.RelationSnapshot, F1, (TABLE,), ONE_TARGET),
    RequestType.SUPERLATIVE: TypeRow(oracle.Superlative, oracle.EntitySet, ACCURACY, (ENTITIES,), ONE_TARGET),
    RequestType.SUM: TypeRow(oracle.Sum, oracle.Number, ACCURACY, (NUMBER,), ONE_TARGET),
    RequestType.COUNT: TypeRow(oracle.Count, oracle.Number, ABS_DIFF, (NUMBER,), NO_TARGET),
    RequestType.EXISTENCE: TypeRow(oracle.Exists, oracle.Witnessed, ACCURACY, (VERDICT,), NO_TARGET,
                                   wordings=(False, True), default=False),
    RequestType.PROJECTION: TypeRow(oracle.Project, oracle.TupleSet, F1, (TUPLES,), MANY_TARGETS, default=False),
}

CORE_TYPES = tuple(t for t in RequestType if ROWS[t].default)

_TYPE_OF_PLAN = {row.plan: t for t, row in ROWS.items()}


def type_of(plan: oracle.QueryPlan) -> RequestType:
    """The request type a plan asks."""
    return _TYPE_OF_PLAN[type(plan)]
