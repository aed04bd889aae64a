"""Uniform completion interface: remote chat providers plus offline mock models.

The mocks are first-class citizens so the whole pipeline, acceptance suite
included, runs without credentials: the lossy mock writes each instance's gold
answer in the declared answer format and degrades it with seeded omissions and
perturbations; the perfect mock is its zero-noise case.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path

from .oracle import EntitySet, Number, RelationSnapshot, TupleSet, Witnessed
from .requestgen import Mode, RequestInstance
from .runio import to_json
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
    """One remote chat endpoint, which `--model` asks for by its name.
    max_retries counts retries after the first attempt; the backoff doubles
    per retry starting from backoff_base_ms."""

    name: str
    endpoint: str
    model: str
    auth_env: str
    temperature: float = 0.0
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_retries: int = 3
    backoff_base_ms: int = 250
    max_in_flight: int = 4

    def __post_init__(self):
        for name in ("name", "endpoint", "model", "auth_env"):
            if not getattr(self, name):
                raise GatewayError(f"{name} must be non-empty, got {getattr(self, name)!r}")
        for name, least in (("max_in_flight", 1), ("max_retries", 0), ("backoff_base_ms", 0)):
            if getattr(self, name) < least:
                raise GatewayError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        if not self.timeout_s > 0:
            raise GatewayError(f"timeout_s must be positive, got {self.timeout_s!r}")


@dataclass(frozen=True)
class ResultLine:
    """One line of a results file: a model's answer to one instance, or the
    error that ended its attempts; without latency, so it is byte-stable."""

    attempts: int
    error: str | None
    id: str
    model: str
    text: str | None

    def __post_init__(self):
        if (self.text is None) == (self.error is None):
            got = "neither" if self.text is None else "both"
            raise GatewayError(f"exactly one of text and error must be set, got {got}")


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
            body = render_table(gold.columns, [row for row in gold.rows if rng.random() >= q])
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
    files.
    """

    def __init__(self, config: ProviderConfig):
        self.config = config

    @property
    def model_id(self) -> str:
        return self.config.model

    def complete(self, instance: RequestInstance) -> ModelResponse:
        # imported here, so that only a process that asks a remote model loads the HTTP stack
        import requests

        token = os.environ.get(self.config.auth_env, "")
        if not token:
            raise MissingAuthError(f"environment variable {self.config.auth_env!r} is not set")
        headers = {"Content-Type": "application/json", "Authorization": f"Bearer {token}"}
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": compose_message(instance)}],
            "temperature": self.config.temperature,
        }
        started = time.monotonic()
        error = "no attempt made"
        attempts = 0
        for attempt in range(self.config.max_retries + 1):
            attempts = attempt + 1
            if attempt:
                time.sleep(self.config.backoff_base_ms * (2 ** (attempt - 1)) / 1000.0)
            try:
                reply = requests.post(
                    self.config.endpoint,
                    headers=headers,
                    json=payload,
                    timeout=self.config.timeout_s,
                )
            except requests.RequestException as e:
                error = f"transport: {e}"
                continue
            if reply.ok:
                try:
                    text = reply.json()["choices"][0]["message"]["content"]
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
    """Answer one instance. In two-turn mode a remote model is first asked to
    lay the facts out as a table, and its own table replaces the context for
    the main instruction; a mock never reads the context, so it answers at once."""
    if instance.mode != Mode.TWO_TURN or not isinstance(model, RemoteModel):
        return model.complete(instance)
    first = model.complete(replace(instance, prompt=instance.pre_instruction or ""))
    if first.error is not None:
        return first
    return model.complete(replace(instance, context=first.text))


def _answers(todo: list[RequestInstance], model: ModelKind):
    """Responses to `todo` in completion order. A mock is CPU-bound, so a pool
    would only add overhead under the GIL: it answers inline, one instance at a
    time. A remote model is asked through a pool of its config's max_in_flight."""
    if not isinstance(model, RemoteModel):
        for instance in todo:
            yield complete(instance, model)
        return
    with ThreadPoolExecutor(max_workers=model.config.max_in_flight) as pool:
        for future in as_completed([pool.submit(complete, instance, model) for instance in todo]):
            yield future.result()


def run_suite(
    instances: list[RequestInstance],
    model: ModelKind,
    sink: str | Path,
    *,
    existing: dict[str, ResultLine] | None = None,
) -> dict:
    """Answer every instance exactly once, streaming results as JSONL.

    Results stream to "<sink>.partial" in completion order; at the end they are
    written sorted by request id to "<sink>.tmp", which is atomically renamed
    onto the sink, so a failed or interrupted write leaves the previous sink as
    it was and a leftover .partial file marks an interrupted run. Lines in
    `existing` are kept and not re-dispatched.
    """
    sink = Path(sink)
    partial = sink.with_name(sink.name + ".partial")
    staged = sink.with_name(sink.name + ".tmp")
    existing = dict(existing or {})
    todo = [i for i in instances if i.id not in existing]

    started = time.time()
    lines = {request_id: json.dumps(to_json(line), sort_keys=True) for request_id, line in existing.items()}
    errors = 0

    try:
        with open(partial, "w", encoding="utf-8") as stream:
            for response in _answers(todo, model):
                line = ResultLine(attempts=response.attempts, error=response.error, id=response.request_id,
                                  model=model.model_id, text=response.text)
                lines[line.id] = json.dumps(to_json(line), sort_keys=True)
                stream.write(lines[line.id] + "\n")
                if response.error is not None:
                    errors += 1
        # the sorted file replaces the sink only once it is whole
        with open(staged, "w", encoding="utf-8") as final:
            for request_id in sorted(lines):
                final.write(lines[request_id] + "\n")
        os.replace(staged, sink)
        partial.unlink(missing_ok=True)
    except OSError as e:
        staged.unlink(missing_ok=True)
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
