"""Uniform completion interface: remote chat providers plus offline mock models.

The mocks are first-class citizens so the whole pipeline, acceptance suite
included, runs without credentials: the lossy mock writes each instance's gold
answer in the declared answer format and degrades it with seeded omissions and
perturbations; the perfect mock is its zero-noise case.
"""
from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import requests as _requests

from .oracle import EntitySet, Number, RelationSnapshot, TupleSet, Witnessed
from .relation import Relation
from .requestgen import RequestInstance
from .seeding import rng_for
from .structurer import render_table

DEFAULT_TIMEOUT_S = 60.0


class GatewayError(Exception):
    pass


class MissingAuthError(GatewayError):
    pass


class SinkError(GatewayError):
    """Result file could not be written; the run aborts."""


@dataclass(frozen=True)
class ProviderConfig:
    """One remote chat endpoint. max_retries counts retries after the first
    attempt; the backoff doubles per retry starting from backoff_base_ms."""

    endpoint: str
    model: str
    auth_env: str
    temperature: float = 0.0
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_retries: int = 3
    backoff_base_ms: int = 250
    max_in_flight: int = 4

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise GatewayError("max_in_flight must be at least 1")


@dataclass(frozen=True)
class ModelResponse:
    request_id: str
    text: str | None
    error: str | None
    latency_ms: float
    attempts: int

    def __post_init__(self):
        if (self.text is None) == (self.error is None):
            raise GatewayError("exactly one of text/error must be set")


def _format_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


class LossyOracle:
    """Mock model that answers with the gold, formatted per the footer, then
    degraded with seeded noise: each gold entity (or snapshot row, or projected
    tuple) is omitted with probability q; each scalar is perturbed and each
    judgement flipped with probability r. Never adds entities, so precision of
    entity answers stays exact."""

    def __init__(self, omission_prob: float = 0.0, flip_prob: float = 0.0, seed: int = 0):
        if not (0.0 <= omission_prob <= 1.0 and 0.0 <= flip_prob <= 1.0):
            raise GatewayError("probabilities must lie in [0, 1]")
        self.omission_prob = omission_prob
        self.flip_prob = flip_prob
        self.seed = seed

    @property
    def model_id(self) -> str:
        return f"lossy-oracle-q{self.omission_prob}-r{self.flip_prob}"

    def complete(self, instance: RequestInstance) -> ModelResponse:
        rng = rng_for(self.seed, "lossy", instance.id)
        gold = instance.gold
        q, r = self.omission_prob, self.flip_prob

        if isinstance(gold, EntitySet):
            body = "\n".join(k for k in sorted(gold.keys) if rng.random() >= q)
        elif isinstance(gold, RelationSnapshot):
            rel = gold.relation
            rows = tuple(row for row in rel.rows if rng.random() >= q)
            body = render_table(rel if len(rows) == len(rel.rows) else Relation(rel.name, rel.schema, rows))
        elif isinstance(gold, Number):
            value = gold.value
            if rng.random() < r:
                value += 1 + rng.randrange(5)
            body = _format_number(value)
        elif isinstance(gold, TupleSet):
            body = "\n".join(" | ".join(t) for t in sorted(gold.tuples) if rng.random() >= q)
        elif isinstance(gold, Witnessed):
            spoken = gold.value != instance.negated
            if rng.random() < r:
                spoken = not spoken
            if gold.witnesses:
                rationale = "The entities satisfying the conditions are: " + ", ".join(sorted(gold.witnesses)) + "."
            else:
                rationale = "Nothing in the table satisfies the conditions."
            body = f"{'Yes' if spoken else 'No'}. {rationale}"
        else:
            raise GatewayError(f"unknown gold answer {gold!r}")

        return ModelResponse(request_id=instance.id, text="ANSWER:\n" + body, error=None,
                             latency_ms=0.0, attempts=1)


class PerfectOracle(LossyOracle):
    """The lossy mock without noise: always answers with the gold."""

    model_id = "perfect-oracle"

    def __init__(self):
        super().__init__()


class RemoteModel:
    """Chat-completions adapter: messages array, model id, temperature.

    Auth comes from the environment variable named in the config, never from
    files. Other wire shapes plug in by overriding build_payload/extract_text.
    """

    def __init__(self, config: ProviderConfig):
        self.config = config

    @property
    def model_id(self) -> str:
        return self.config.model

    def build_payload(self, message: str) -> dict:
        return {
            "model": self.config.model,
            "messages": [{"role": "user", "content": message}],
            "temperature": self.config.temperature,
        }

    def extract_text(self, payload: dict) -> str:
        return payload["choices"][0]["message"]["content"]

    def complete(self, instance: RequestInstance) -> ModelResponse:
        token = os.environ.get(self.config.auth_env, "")
        if not token:
            raise MissingAuthError(f"environment variable {self.config.auth_env!r} is not set")
        headers = {"Content-Type": "application/json", "Authorization": f"Bearer {token}"}
        message = compose_message(instance)
        started = time.monotonic()
        error = "no attempt made"
        attempts = 0
        for attempt in range(self.config.max_retries + 1):
            attempts = attempt + 1
            if attempt:
                time.sleep(self.config.backoff_base_ms * (2 ** (attempt - 1)) / 1000.0)
            try:
                reply = _requests.post(
                    self.config.endpoint,
                    headers=headers,
                    json=self.build_payload(message),
                    timeout=self.config.timeout_s,
                )
            except _requests.RequestException as e:
                error = f"transport: {e}"
                continue
            if reply.ok:
                try:
                    text = self.extract_text(reply.json())
                except (ValueError, KeyError, IndexError) as e:
                    error = f"provider: malformed response body ({e})"
                    continue
                return ModelResponse(
                    request_id=instance.id,
                    text=text,
                    error=None,
                    latency_ms=(time.monotonic() - started) * 1000.0,
                    attempts=attempts,
                )
            error = f"provider: {reply.status_code}"
        return ModelResponse(
            request_id=instance.id,
            text=None,
            error=error,
            latency_ms=(time.monotonic() - started) * 1000.0,
            attempts=attempts,
        )


ModelKind = LossyOracle | RemoteModel


def compose_message(instance: RequestInstance) -> str:
    """Knowledge context first, then the instruction, as one user message."""
    return instance.context + "\n\n" + instance.prompt


def complete(instance: RequestInstance, model: ModelKind) -> ModelResponse:
    """Answer one instance. In two-turn mode the model is first asked to lay the
    facts out as a table, and its own table replaces the context for the main
    instruction; mocks answer the first turn with the exact table."""
    if instance.mode != "two_turn":
        return model.complete(instance)

    from dataclasses import replace as _replace

    pre = instance.pre_instruction or ""
    if isinstance(model, RemoteModel):
        first = model.complete(_replace(instance, context=instance.context, prompt=pre))
        if first.error is not None:
            return first
        table_text = first.text
    else:
        table_text = render_table_from_keys(instance)
    return model.complete(_replace(instance, context=table_text))


def render_table_from_keys(instance: RequestInstance) -> str:
    """Mock first-turn output: the context parsed back into a pipe table when it
    already is one, else a table block found inside it, else the context as-is."""
    from .structurer import NoTableError, parse_table

    try:
        return render_table(parse_table(instance.context))
    except NoTableError:
        return instance.context


def response_to_json(response: ModelResponse, model_id: str) -> dict:
    # latency is deliberately left out: result files must be byte-stable across runs
    return {
        "attempts": response.attempts,
        "error": response.error,
        "id": response.request_id,
        "model": model_id,
        "text": response.text,
    }


def run_suite(
    instances: list[RequestInstance],
    model: ModelKind,
    sink: str | Path,
    *,
    max_in_flight: int = 4,
    existing: dict[str, dict] | None = None,
) -> dict:
    """Answer every instance exactly once, streaming results as JSONL.

    Results stream to "<sink>.partial" in completion order; at the end the file
    is sorted by request id and atomically renamed, so a leftover .partial file
    marks an interrupted run. Lines in `existing` are kept and not re-dispatched.
    """
    sink = Path(sink)
    partial = sink.with_name(sink.name + ".partial")
    existing = dict(existing or {})
    todo = [i for i in instances if i.id not in existing]

    if isinstance(model, RemoteModel):
        max_in_flight = model.config.max_in_flight

    started = time.time()
    lines: dict[str, dict] = dict(existing)
    lock = threading.Lock()
    errors = 0

    try:
        with open(partial, "w", encoding="utf-8") as stream:
            with ThreadPoolExecutor(max_workers=max(1, max_in_flight)) as pool:
                futures = {pool.submit(complete, inst, model): inst for inst in todo}
                for future in as_completed(futures):
                    response = future.result()
                    record = response_to_json(response, model.model_id)
                    with lock:
                        stream.write(json.dumps(record, sort_keys=True) + "\n")
                        lines[response.request_id] = record
                        if response.error is not None:
                            errors += 1
        with open(sink, "w", encoding="utf-8") as final:
            for request_id in sorted(lines):
                final.write(json.dumps(lines[request_id], sort_keys=True) + "\n")
        partial.unlink(missing_ok=True)
    except OSError as e:
        raise SinkError(f"cannot write results to {sink}: {e}") from e

    return {
        "model": model.model_id,
        "requested": len(instances),
        "dispatched": len(todo),
        "reused": len(existing),
        "errors": errors,
        "started": started,
        "finished": time.time(),
    }
