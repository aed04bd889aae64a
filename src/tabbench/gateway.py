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
from dataclasses import dataclass, replace
from pathlib import Path

from .oracle import EntitySet, Number, RelationSnapshot, TupleSet, Witnessed
from .requestgen import Mode, RequestInstance
from .runio import to_json, write_file
from .seeding import rng_for
from .structurer import render_table

DEFAULT_TIMEOUT_S = 60.0


class GatewayError(Exception):
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
    error that ended its attempts, as every model's complete returns it;
    without latency, so it is byte-stable."""

    attempts: int
    error: str | None
    id: str
    model: str
    text: str | None

    def __post_init__(self):
        if (self.text is None) == (self.error is None):
            got = "neither" if self.text is None else "both"
            raise GatewayError(f"exactly one of text and error must be set, got {got}")


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

    def complete(self, instance: RequestInstance) -> ResultLine:
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

        return ResultLine(attempts=1, error=None, id=instance.id, model=self.model_id, text="ANSWER:\n" + body)


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

    def complete(self, instance: RequestInstance) -> ResultLine:
        # imported here, so that only a process that asks a remote model loads the HTTP stack
        import requests

        # cli.resolve_model refused an unset auth_env before the run began
        token = os.environ.get(self.config.auth_env, "")
        headers = {"Content-Type": "application/json", "Authorization": f"Bearer {token}"}
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": compose_message(instance)}],
            "temperature": self.config.temperature,
        }
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
                    if not isinstance(text, str):
                        raise TypeError(f"content must be str, got {text!r}")
                except (ValueError, LookupError, TypeError) as e:
                    error = f"provider: malformed response body ({e})"
                    continue
                return ResultLine(attempts=attempts, error=None, id=instance.id, model=self.model_id, text=text)
            error = f"provider: {reply.status_code}"
        return ResultLine(attempts=attempts, error=error, id=instance.id, model=self.model_id, text=None)


ModelKind = LossyOracle | RemoteModel


def compose_message(instance: RequestInstance) -> str:
    """Knowledge context first, then the instruction and its answer footer on
    the line after it, as one user message."""
    message = instance.context + "\n\n" + instance.prompt
    return message if instance.footer is None else message + "\n" + instance.footer


def complete(instance: RequestInstance, model: ModelKind) -> ResultLine:
    """Answer one instance with the line that run writes. In two-turn mode a
    remote model is first asked to lay the facts out as a table, with the
    pre-instruction alone and no answer footer, and its own table replaces
    the context for the main instruction and its footer; the line counts the
    attempts of both turns, and an error in the first ends the instance. A
    mock never reads the context, so it answers at once."""
    if instance.mode != Mode.TWO_TURN or not isinstance(model, RemoteModel):
        return model.complete(instance)
    first = model.complete(replace(instance, prompt=instance.pre_instruction or "", footer=None))
    if first.error is not None:
        return first
    second = model.complete(replace(instance, context=first.text))
    return replace(second, attempts=first.attempts + second.attempts)


def _answer(instance: RequestInstance, model: ModelKind) -> ResultLine:
    """complete's line for one instance; an exception raised while answering
    it becomes its error line, `<exception class>: <message>`, so that it
    ends only this instance and not the run."""
    try:
        return complete(instance, model)
    except Exception as e:
        return ResultLine(attempts=1, error=f"{type(e).__name__}: {e}", id=instance.id, model=model.model_id,
                          text=None)


def _answers(todo: list[RequestInstance], model: ModelKind):
    """Result lines of `todo` in its order. A mock is CPU-bound, so a pool
    would only add overhead under the GIL: it answers inline, one instance at a
    time. A remote model is asked through a pool of its config's max_in_flight,
    and each answer is handed on once those asked before it are."""
    if not isinstance(model, RemoteModel):
        for instance in todo:
            yield _answer(instance, model)
        return
    # imported here, as requests is, so that only a process that asks a remote model loads the pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=model.config.max_in_flight) as pool:
        yield from pool.map(_answer, todo, [model] * len(todo))


def run_suite(
    instances: list[RequestInstance],
    model: ModelKind,
    sink: str | Path,
    *,
    existing: dict[str, ResultLine] | None = None,
) -> dict:
    """Answer every instance exactly once, streaming results as JSONL.

    The sink is written through write_file in the order of `instances`, one
    line as each is answered, so a failed or interrupted write leaves the
    previous sink as it was. Each new answer also goes to "<sink>.partial" as
    it is written, and a leftover .partial file marks an interrupted run.
    Lines in `existing` are kept in their instance's place and not
    re-dispatched; an id in `existing` that no instance has is a GatewayError.
    The counts returned carry the sink's `digest`.
    """
    sink = Path(sink)
    partial = sink.with_name(sink.name + ".partial")
    existing = dict(existing or {})
    unknown = existing.keys() - {instance.id for instance in instances}
    if unknown:
        raise GatewayError(f"existing result id {min(unknown)!r} is not in the suite")
    todo = [i for i in instances if i.id not in existing]

    started = time.time()
    errors = 0

    def lines(stream):
        nonlocal errors
        answers = _answers(todo, model)
        for instance in instances:
            reused = existing.get(instance.id)
            line = reused or next(answers)
            text = json.dumps(to_json(line), sort_keys=True) + "\n"
            if reused is None:
                stream.write(text)
                if line.error is not None:
                    errors += 1
            yield text

    try:
        with open(partial, "w", encoding="utf-8") as stream:
            digest = write_file(sink, lines(stream))
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
        "digest": digest,
    }
