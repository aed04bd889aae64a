from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tabbench import gateway
from tabbench.gateway import (
    GatewayError,
    LossyOracle,
    MissingAuthError,
    ModelResponse,
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
    import dataclasses

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


def test_model_response_exclusivity():
    with pytest.raises(GatewayError):
        ModelResponse("x", text="hi", error="boom", latency_ms=0, attempts=1)
    with pytest.raises(GatewayError):
        ModelResponse("x", text=None, error=None, latency_ms=0, attempts=1)


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
    assert message.endswith(small_suite[0].prompt)


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


def test_response_json_round_trip(small_suite, tmp_path):
    """run_suite writes each response as a result line, without its latency."""
    class Timed(PerfectOracle):
        def complete(self, instance):
            return ModelResponse(instance.id, text="ANSWER:\nok", error=None, latency_ms=4.2, attempts=2)

    sink = tmp_path / "results.jsonl"
    run_suite(small_suite[:1], Timed(), sink)
    [line] = sink.read_text(encoding="utf-8").splitlines()
    assert "latency" not in line
    assert from_json(ResultLine, json.loads(line)) == ResultLine(
        attempts=2, error=None, id=small_suite[0].id, model="perfect-oracle", text="ANSWER:\nok")


# ---------------------------------------------------------------------------
# Remote provider adapter against a local stub server
# ---------------------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    behavior = "ok"
    hits = 0

    def do_POST(self):
        type(self).hits += 1
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        if type(self).behavior == "fail":
            self.send_response(500)
            self.end_headers()
            return
        reply = {"choices": [{"message": {"content": f"echo:{body['model']}"}}]}
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.behavior = "ok"
    _StubHandler.hits = 0
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def _remote(endpoint, **overrides):
    fields = dict(name="stub", endpoint=endpoint, model="stub-model", auth_env="TABBENCH_TEST_TOKEN",
                  max_retries=2, backoff_base_ms=1, timeout_s=5)
    fields.update(overrides)
    return RemoteModel(ProviderConfig(**fields))


def test_remote_requires_auth_env(stub_server, small_suite, monkeypatch):
    monkeypatch.delenv("TABBENCH_TEST_TOKEN", raising=False)
    with pytest.raises(MissingAuthError):
        _remote(stub_server).complete(small_suite[0])


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
    assert _StubHandler.hits == model.config.max_retries + 1


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


def test_two_turn_mock_passes_table_context(pack, f2):
    import dataclasses

    template = pack.templates.templates_for(RequestType.RETRIEVAL)[0]
    expr = Condition("Nationality", EQ, "Argentina", "nationality is Argentina")
    instance = instantiate_one(RequestType.RETRIEVAL, template, expr, (), f2,
                               StructuringLevel.TABLE, 0, pack=pack, mode="two_turn",
                               pre_instruction="Create a table of soccer players.")
    response = complete(instance, PerfectOracle())
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
