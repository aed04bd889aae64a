from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tabbench import gateway
from tabbench.gateway import (
    GatewayError,
    LossyOracle,
    PerfectOracle,
    ProviderConfig,
    RemoteModel,
    complete,
    compose_message,
    ResultLine,
    run_suite,
)
from tabbench.oracle import Condition, EQ, GT, EntitySet
from tabbench.requestgen import RequestType, SuiteConfig, generate_suite
from tabbench.runio import from_json
from tabbench.structurer import StructuringLevel

from conftest import instantiate_one, tiny_soccer_pack


@pytest.fixture
def pack(f2):
    return tiny_soccer_pack(f2)


@pytest.fixture
def small_suite(pack, f2):
    config = SuiteConfig(pair_count=2, request_types=tuple(RequestType), seed=13)
    return generate_suite(f2, config, pack)


def _retrieval_instance(pack, f2, gold_keys, instance_id="r0"):
    """Instance with a hand-set gold entity set, for mock statistics."""
    template = pack.templates.templates_for(RequestType.RETRIEVAL)[0]
    expr = Condition("Nationality", EQ, "Argentina", "nationality is Argentina")
    instance = instantiate_one(RequestType.RETRIEVAL, template, expr, (), f2,
                               StructuringLevel.TABLE, 0, pack=pack, instance_id=instance_id)
    return dataclasses.replace(instance, gold=EntitySet(frozenset(gold_keys)))


def test_perfect_oracle_count_format(pack, f2):
    template = pack.templates.templates_for(RequestType.COUNT)[0]
    expr = Condition("Number", EQ, "10", "number is 10")
    instance = instantiate_one(RequestType.COUNT, template, expr, (), f2,
                               StructuringLevel.TABLE, 0, pack=pack)
    response = PerfectOracle().complete(instance)
    assert response.text == "ANSWER:\n2"


def test_lossy_full_omission(pack, f2):
    instance = _retrieval_instance(pack, f2, {"Messi", "Ronaldo", "Neymar"})
    response = LossyOracle(omission_prob=1.0, flip_prob=0.0, seed=1).complete(instance)
    assert response.text == "ANSWER:\n"


def test_lossy_zero_noise_equals_perfect(small_suite):
    lossy = LossyOracle(omission_prob=0.0, flip_prob=0.0, seed=9)
    perfect = PerfectOracle()
    for instance in small_suite:
        assert lossy.complete(instance).text == perfect.complete(instance).text


def test_lossy_omissions_are_binomial(pack, f2):
    q = 0.2
    total = 600
    keys = [f"Player {i:03d}" for i in range(total)]
    instance = _retrieval_instance(pack, f2, keys)
    response = LossyOracle(omission_prob=q, flip_prob=0.0, seed=77).complete(instance)
    emitted = [line for line in response.text.splitlines()[1:] if line]
    mean = total * (1 - q)
    sigma = (total * q * (1 - q)) ** 0.5
    assert abs(len(emitted) - mean) <= 3 * sigma
    assert set(emitted) <= set(keys)


def test_lossy_is_deterministic(small_suite):
    lossy = LossyOracle(omission_prob=0.3, flip_prob=0.3, seed=5)
    first = [lossy.complete(i).text for i in small_suite]
    second = [lossy.complete(i).text for i in small_suite]
    assert first == second


def test_lossy_probability_validation():
    with pytest.raises(GatewayError):
        LossyOracle(omission_prob=1.5)


def test_perfect_oracle_takes_no_noise_arguments():
    # noisy answers labelled perfect-oracle would pass for gold in reports
    with pytest.raises(TypeError):
        PerfectOracle(omission_prob=0.3)


def _instance(pack, f2, request_type, expr, negated=False):
    template = pack.templates.templates_for(request_type, negated=negated)[0]
    return instantiate_one(request_type, template, expr, (), f2, StructuringLevel.TABLE, 0, pack=pack)


def test_lossy_flip_inverts_existence_verdict_and_keeps_rationale(pack, f2):
    expr = Condition("Nationality", EQ, "Argentina", "nationality is Argentina")
    rationale = " The entities satisfying the conditions are: Messi."
    always_flip = LossyOracle(omission_prob=0.0, flip_prob=1.0, seed=4)
    for negated, perfect_verdict, flipped_verdict in ((False, "Yes.", "No."), (True, "No.", "Yes.")):
        instance = _instance(pack, f2, RequestType.EXISTENCE, expr, negated=negated)
        assert PerfectOracle().complete(instance).text == "ANSWER:\n" + perfect_verdict + rationale
        assert always_flip.complete(instance).text == "ANSWER:\n" + flipped_verdict + rationale


def test_lossy_flip_moves_number_by_one_to_five(pack, f2):
    instance = _instance(pack, f2, RequestType.COUNT, Condition("Number", EQ, "10", "number is 10"))
    offsets = {
        int(LossyOracle(omission_prob=0.0, flip_prob=1.0, seed=seed).complete(instance).text.split("\n")[1]) - 2
        for seed in range(40)
    }
    assert offsets <= set(range(1, 6))
    assert len(offsets) > 1


def test_deletion_of_every_row_renders_header_alone(pack, f2):
    everyone = Condition("Number", GT, "0", "uniform number is higher than 0")
    instance = _instance(pack, f2, RequestType.DELETION, everyone)
    assert not instance.gold.rows
    header = "ANSWER:\n| Name | Number | Nationality | Club |"
    assert PerfectOracle().complete(instance).text == header
    assert LossyOracle(omission_prob=1.0, flip_prob=1.0, seed=2).complete(instance).text == header


def test_compose_message_order(small_suite):
    message = compose_message(small_suite[0])
    assert message.startswith(small_suite[0].context)
    assert message.endswith(small_suite[0].prompt + "\n" + small_suite[0].footer)


def test_compose_message_of_a_prompt_holding_its_footer(small_suite):
    """An instance of a suite written while each prompt held its footer has
    footer None, and is composed to the same message."""
    instance = small_suite[0]
    folded = dataclasses.replace(instance, prompt=instance.prompt + "\n" + instance.footer, footer=None)
    assert compose_message(folded) == compose_message(instance) == (
        instance.context + "\n\n" + instance.prompt + "\n" + instance.footer)


def test_format_gold_negated_existence_answers_no(pack, f2):
    template = pack.templates.templates_for(RequestType.EXISTENCE, negated=True)[0]
    expr = Condition("Nationality", EQ, "Argentina", "nationality is Argentina")
    instance = instantiate_one(RequestType.EXISTENCE, template, expr, (), f2,
                               StructuringLevel.TABLE, 0, pack=pack)
    text = PerfectOracle().complete(instance).text
    assert text.startswith("ANSWER:\nNo.")
    assert "Messi" in text


def test_run_suite_perfect_complete_and_sorted(tmp_path, small_suite):
    sink = tmp_path / "results.jsonl"
    manifest = run_suite(small_suite, PerfectOracle(), sink)
    lines = [json.loads(l) for l in sink.read_text().splitlines()]
    assert len(lines) == len(small_suite)
    assert manifest["errors"] == 0
    ids = [l["id"] for l in lines]
    assert ids == sorted(ids)
    assert not (tmp_path / "results.jsonl.partial").exists()


def test_run_suite_rerun_is_byte_identical(tmp_path, small_suite):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    run_suite(small_suite, PerfectOracle(), first)
    run_suite(small_suite, PerfectOracle(), second)
    assert first.read_bytes() == second.read_bytes()


def test_run_suite_resumes_from_existing(tmp_path, small_suite):
    sink = tmp_path / "results.jsonl"
    run_suite(small_suite, PerfectOracle(), sink)
    existing = {r.id: r for r in (from_json(ResultLine, json.loads(l)) for l in sink.read_text().splitlines())}
    manifest = run_suite(small_suite, PerfectOracle(), sink, existing=existing)
    assert manifest["dispatched"] == 0
    assert manifest["reused"] == len(small_suite)


def test_run_suite_refuses_an_existing_line_no_instance_has(tmp_path, small_suite):
    stray = ResultLine(attempts=1, error=None, id="999999-nowhere", model="perfect-oracle", text="ANSWER:\n1")
    with pytest.raises(GatewayError, match="existing result id '999999-nowhere' is not in the suite"):
        run_suite(small_suite, PerfectOracle(), tmp_path / "results.jsonl", existing={stray.id: stray})
    assert not (tmp_path / "results.jsonl").exists()


def _recording_threads(monkeypatch):
    """Wrap gateway.complete, as a tracer would, to record the thread of each call."""
    threads = []

    def recorded(instance, model):
        threads.append(threading.current_thread())
        return complete(instance, model)

    monkeypatch.setattr(gateway, "complete", recorded)
    return threads


def test_run_suite_answers_a_mock_on_the_calling_thread(tmp_path, small_suite, monkeypatch):
    threads = _recording_threads(monkeypatch)
    run_suite(small_suite, PerfectOracle(), tmp_path / "results.jsonl")
    assert threads == [threading.current_thread()] * len(small_suite)


@pytest.mark.parametrize("remote", [False, True], ids=["mock", "remote"])
def test_run_suite_keeps_every_answer_when_answering_one_instance_raises(stub_server, small_suite, tmp_path,
                                                                         monkeypatch, remote):
    """An exception raised while answering instance k, inline for a mock or in
    the pool for a remote model, becomes that instance's error line, named by
    the exception's class; every other instance is answered as without it."""
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    model = _remote(stub_server, max_in_flight=2) if remote else PerfectOracle()
    suite, k = small_suite[:6], 3
    expected = tmp_path / "expected.jsonl"
    run_suite(suite, model, expected)

    def raising(instance, model):
        if instance.id == suite[k].id:
            raise KeyError("no such column")
        return complete(instance, model)

    monkeypatch.setattr(gateway, "complete", raising)
    sink = tmp_path / "results.jsonl"
    manifest = run_suite(suite, model, sink)
    assert (manifest["dispatched"], manifest["errors"]) == (6, 1)
    lines = {line["id"]: line for line in map(json.loads, sink.read_text(encoding="utf-8").splitlines())}
    assert lines.pop(suite[k].id) == {"attempts": 1, "error": "KeyError: 'no such column'", "id": suite[k].id,
                                      "model": model.model_id, "text": None}
    assert lines == {line["id"]: line for line in map(json.loads, expected.read_text(encoding="utf-8").splitlines())
                     if line["id"] != suite[k].id}
    assert not (tmp_path / "results.jsonl.partial").exists()


@pytest.mark.parametrize("remote", [False, True], ids=["mock", "remote"])
def test_run_suite_writes_lines_in_the_order_of_its_instances(stub_server, small_suite, tmp_path, monkeypatch,
                                                              remote):
    """Results are written in the order the instances are given, not sorted by
    id, also when a remote model's pool answers earlier instances later; a
    reused line keeps its instance's place."""
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    suite = small_suite[:6][::-1]
    model = _remote(stub_server, max_in_flight=3) if remote else PerfectOracle()
    finished = []

    def late_for_earlier(instance, model):
        time.sleep(0.03 * (len(suite) - suite.index(instance)) if remote else 0)
        line = complete(instance, model)
        finished.append(line.id)
        return line

    monkeypatch.setattr(gateway, "complete", late_for_earlier)
    sink = tmp_path / "results.jsonl"
    run_suite(suite, model, sink)
    ids = [i.id for i in suite]
    assert sorted(finished) == sorted(ids) and (finished != ids) == remote
    lines = sink.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == ids

    reused = {line.id: line for line in (from_json(ResultLine, json.loads(text)) for text in lines[1::2])}
    run_suite(suite, model, sink, existing=reused)
    assert sink.read_text(encoding="utf-8").splitlines() == lines


def test_response_json_round_trip(small_suite, tmp_path):
    """run_suite writes each line as the model's complete returns it."""
    class Retried(PerfectOracle):
        def complete(self, instance):
            return ResultLine(attempts=2, error=None, id=instance.id, model=self.model_id, text="ANSWER:\nok")

    sink = tmp_path / "results.jsonl"
    run_suite(small_suite[:1], Retried(), sink)
    [line] = sink.read_text(encoding="utf-8").splitlines()
    assert from_json(ResultLine, json.loads(line)) == ResultLine(
        attempts=2, error=None, id=small_suite[0].id, model="perfect-oracle", text="ANSWER:\nok")


def test_mock_answers_are_lines_stamped_with_its_model_id(small_suite):
    lossy = LossyOracle(omission_prob=0.5, seed=3)
    for model in (PerfectOracle(), lossy):
        line = model.complete(small_suite[0])
        assert (line.id, line.model, line.attempts, line.error) == (small_suite[0].id, model.model_id, 1, None)


# ---------------------------------------------------------------------------
# Remote provider adapter against a local stub server
# ---------------------------------------------------------------------------


# 200 replies whose body is not the chat shape with a string content
_MALFORMED_REPLIES = {
    "null content": {"choices": [{"message": {"content": None}}]},
    "list body": [{"message": {"content": "ANSWER:\n3"}}],
    "number content": {"choices": [{"message": {"content": 5}}]},
}


class _StubHandler(BaseHTTPRequestHandler):
    """Chat endpoint that records each request body. `behavior` is "ok" (echo
    the model id), "fail" (500 on every request), "fail first" (500 on the
    first request only) or a key of _MALFORMED_REPLIES."""

    behavior = "ok"
    bodies: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).bodies.append(body)
        behavior = type(self).behavior
        if behavior == "fail" or (behavior == "fail first" and len(type(self).bodies) == 1):
            self.send_response(500)
            self.end_headers()
            return
        reply = _MALFORMED_REPLIES.get(behavior, {"choices": [{"message": {"content": f"echo:{body['model']}"}}]})
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    # shutdown() waits up to one poll interval, 0.5 s by default, for the loop to see it
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    _StubHandler.behavior = "ok"
    _StubHandler.bodies = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _remote(endpoint, **overrides):
    fields = dict(name="stub", endpoint=endpoint, model="stub-model", auth_env="TABBENCH_TEST_TOKEN",
                  max_retries=2, backoff_base_ms=1, timeout_s=5)
    fields.update(overrides)
    return RemoteModel(ProviderConfig(**fields))


def test_remote_success_path(stub_server, small_suite, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    response = _remote(stub_server).complete(small_suite[0])
    assert response.error is None
    assert response.text == "echo:stub-model"
    assert response.attempts == 1


def test_remote_500_retries_then_records_provider_error(stub_server, small_suite, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    _StubHandler.behavior = "fail"
    model = _remote(stub_server)
    response = model.complete(small_suite[0])
    assert response.error == "provider: 500"
    assert response.attempts == model.config.max_retries + 1
    assert len(_StubHandler.bodies) == model.config.max_retries + 1


def test_remote_transport_error(small_suite, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    model = _remote("http://127.0.0.1:9/nothing", max_retries=1)
    response = model.complete(small_suite[0])
    assert response.error is not None
    assert response.error.startswith("transport:")


def test_run_suite_with_failing_remote_records_errors(stub_server, small_suite, tmp_path, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    _StubHandler.behavior = "fail"
    sink = tmp_path / "results.jsonl"
    manifest = run_suite(small_suite[:6], _remote(stub_server), sink)
    assert manifest["errors"] == 6
    lines = [json.loads(l) for l in sink.read_text().splitlines()]
    assert all(l["error"] == "provider: 500" for l in lines)


def test_run_suite_asks_a_remote_model_from_its_pool(stub_server, small_suite, tmp_path, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    threads = _recording_threads(monkeypatch)
    manifest = run_suite(small_suite[:6], _remote(stub_server, max_in_flight=2), tmp_path / "results.jsonl")
    assert manifest["errors"] == 0
    assert len(threads) == 6
    assert threading.current_thread() not in threads
    assert len(set(threads)) <= 2


@pytest.mark.parametrize("behavior", sorted(_MALFORMED_REPLIES))
def test_remote_malformed_reply_is_retried_then_recorded_as_an_error(stub_server, small_suite, tmp_path,
                                                                    monkeypatch, behavior):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    _StubHandler.behavior = behavior
    sink = tmp_path / "results.jsonl"
    manifest = run_suite(small_suite[:2], _remote(stub_server, max_retries=1), sink)
    assert manifest["errors"] == 2
    lines = [from_json(ResultLine, json.loads(l)) for l in sink.read_text().splitlines()]
    assert [(l.text, l.attempts) for l in lines] == [(None, 2)] * 2
    assert all(l.error.startswith("provider: malformed response body (") for l in lines)


def _two_turn(pack, f2):
    template = pack.templates.templates_for(RequestType.RETRIEVAL)[0]
    expr = Condition("Nationality", EQ, "Argentina", "nationality is Argentina")
    return instantiate_one(RequestType.RETRIEVAL, template, expr, (), f2,
                           StructuringLevel.NATURAL, 0, pack=pack, mode="two_turn",
                           pre_instruction="Create a table of soccer players.")


def _sent(body: dict) -> str:
    [message] = body["messages"]
    return message["content"]


def test_two_turn_remote_sends_its_own_table_in_place_of_the_context(stub_server, pack, f2, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    _StubHandler.behavior = "fail first"
    instance = _two_turn(pack, f2)
    line = complete(instance, _remote(stub_server))
    turn_1, retried_1, turn_2 = map(_sent, _StubHandler.bodies)
    assert turn_1 == retried_1 == instance.context + "\n\n" + instance.pre_instruction
    assert instance.footer not in turn_1
    assert turn_2 == "echo:stub-model\n\n" + instance.prompt + "\n" + instance.footer
    assert turn_2.endswith("\nOutput the final answer after the line ANSWER:, one player name per line. "
                           "If no player satisfies the conditions, output nothing after ANSWER:.")
    assert (line.id, line.text, line.attempts) == (instance.id, "echo:stub-model", 3)


@pytest.mark.parametrize("asked, digest", [
    ("surrogate", "0bad07b8251bf55a3786bb6932bc74f064671a125e4be926e43591b611b1650d"),
    ("two_turn", "c871efbe7de9c1b35003bf377dedb3e5da640d5071b9f095c641a454edd02915"),
    ("convert-rate probes", "ccc4b91393847a0c85599a3a218ec31fe2dc4f3217d32219579d74bb375c980f"),
])
def test_remote_messages_are_those_sent_when_each_prompt_held_its_footer(stub_server, pack, f2, tmp_path,
                                                                         monkeypatch, asked, digest):
    """Every message sent to a remote model for a suite of every request type,
    in surrogate mode and in both turns of two-turn mode, and for convert-rate's
    structuring probes. Each digest was taken (of the sorted messages, joined
    by NUL) before each request type's answer footer moved out of the prompt
    into its own field, when the probe's prompt held its footer too: the bytes
    sent must not move."""
    from tabbench.cli import structuring_probe
    from tabbench.datasets import load_pack
    from tabbench.relation import sample_entities

    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    model = _remote(stub_server, max_in_flight=2)
    if asked == "convert-rate probes":
        soccer = load_pack("soccer")
        rel = sample_entities(soccer.relation, 6, 4)
        for with_columns in (True, False):
            assert complete(structuring_probe(soccer, rel, 3, with_columns), model).error is None
        expected = 2
    else:
        suite = generate_suite(f2, SuiteConfig(pair_count=1, request_types=tuple(RequestType), seed=13,
                                               mode=asked), pack)
        assert run_suite(suite, model, tmp_path / "results.jsonl")["errors"] == 0
        expected = len(suite) * (2 if asked == "two_turn" else 1)
    sent = sorted(map(_sent, _StubHandler.bodies))
    assert len(sent) == expected
    assert hashlib.sha256("\0".join(sent).encode("utf-8")).hexdigest() == digest


def test_two_turn_remote_error_in_the_first_turn_ends_the_instance(stub_server, pack, f2, monkeypatch):
    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    _StubHandler.behavior = "fail"
    instance = _two_turn(pack, f2)
    model = _remote(stub_server)
    line = complete(instance, model)
    assert (line.id, line.error, line.attempts) == (instance.id, "provider: 500", model.config.max_retries + 1)
    assert {_sent(body) for body in _StubHandler.bodies} == {instance.context + "\n\n" + instance.pre_instruction}


def test_two_turn_mock_passes_table_context(pack, f2):
    response = complete(_two_turn(pack, f2), PerfectOracle())
    assert response.text.startswith("ANSWER:")


def test_backoff_is_monotone(stub_server, small_suite, monkeypatch):
    import time as time_module

    monkeypatch.setenv("TABBENCH_TEST_TOKEN", "token")
    _StubHandler.behavior = "fail"
    sleeps = []
    monkeypatch.setattr(time_module, "sleep", lambda s: sleeps.append(s))
    _remote(stub_server, max_retries=3, backoff_base_ms=40).complete(small_suite[0])
    assert len(sleeps) == 3
    assert sleeps == sorted(sleeps)
    assert sleeps[0] == pytest.approx(0.04)
