"""Tests of the HTTP transport layer (:mod:`repro.runtime.server`).

The daemon contract lives here:

* **endpoint contract** — ``/healthz``, ``/stats``, ``/models``,
  ``POST /jobs`` + ``GET /jobs/<id>`` speak the documented JSON shapes,
  and error paths return the documented statuses (404 unknown model/job,
  400 malformed plans, 429 admission rejections with a machine-readable
  reason);
* **served-vs-local parity** — jobs submitted over HTTP through
  :class:`~repro.runtime.jobs.client.HttpJobClient` return accuracies
  bit-identical to the in-process engine, and a DSE campaign driven by a
  :class:`~repro.runtime.jobs.client.RemotePlanEvaluator` produces the
  exact front of a local campaign with the same measurement setup;
* **cross-client caching over the wire** — a duplicate HTTP submission is
  served from the daemon's result cache, visible in ``/stats``;
* **no polling** — the ``POST`` reply of a fully cached job reads
  ``done`` with its accuracies, and the client then sends no ``GET``;
  ``GET /jobs/<id>?wait=S`` answers when the job ends, or after S seconds
  capped by the server, and ``close()`` ends a held wait;
* **malformed wire input** — a bad ``Content-Length`` is answered at once
  without reading the body, and unknown payload keys, malformed plan
  numbers (``"m": 1e400``, a string control-variate flag), a ``model``,
  ``dataset``, ``session`` or ``label`` that is not a JSON string, arrays
  nested past the JSON decoder's recursion limit and a ``wait`` that is
  not a finite number ``>= 0`` are a 400; fuzzed ``POST /jobs`` bodies
  (hypothesis) get only 202, 400 or 404, and the daemon keeps serving;
* **client resilience** — :class:`~repro.runtime.jobs.client.HttpJobClient`
  retries idempotent GETs through transient connection failures (flaky
  stub server) but never retries a POST.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import run_campaign
from repro.runtime.jobs import (
    AdmissionError,
    HttpJobClient,
    JobClientError,
    JobFailedError,
    JobManager,
    LocalJobClient,
    RemotePlanEvaluator,
    encode_plans,
    sweep_over_jobs,
)
from repro.runtime.jobs.client import GET_RETRIES
from repro.runtime.server import JobServer
from repro.simulation.campaign import TrainedModel, accuracy_sweep
from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


@pytest.fixture(scope="module")
def server(trained, tiny_dataset):
    manager = JobManager([trained], {tiny_dataset.name: tiny_dataset})
    srv = JobServer(manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown_and_close()
    thread.join(timeout=10)


@pytest.fixture()
def client(server):
    return HttpJobClient(server.url)


@pytest.fixture()
def idle_server(trained, tiny_dataset):
    """A daemon whose dispatcher has not started: jobs stay queued until
    the test calls ``idle_server.manager.start()``."""
    manager = JobManager(
        [trained], {tiny_dataset.name: tiny_dataset}, auto_start=False
    )
    srv = JobServer(manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown_and_close()
    thread.join(timeout=10)


def _post_job(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"{url}/jobs",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 202
        return json.loads(response.read().decode())["job"]


def _post_status(url: str, body: bytes) -> int:
    """HTTP status of ``POST /jobs`` with a raw body."""
    request = urllib.request.Request(
        f"{url}/jobs",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status
    except urllib.error.HTTPError as error:
        with error:
            return error.code


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["models"] == 1
        assert payload["uptime_s"] >= 0

    def test_models_descriptors(self, client, trained, tiny_dataset):
        infos = client.models()
        assert len(infos) == 1
        info = infos[0]
        assert info["name"] == trained.name
        assert info["dataset"] == tiny_dataset.name
        assert info["mac_layer_names"]
        assert len(info["context_key"]) == 64

    def test_stats_schema_over_the_wire(self, client):
        stats = client.stats()
        assert stats["schema"] == "repro-runtime-stats/v1.7"
        assert set(stats) == {"schema", "engine", "jobs", "cache"}
        assert "max_inflight_per_session" not in stats["jobs"]
        assert not {"max_entries", "evictions"} & set(stats["cache"])

    def test_unknown_job_is_404(self, client):
        with pytest.raises(JobClientError) as error:
            client.job("job-999999")
        assert error.value.status == 404

    def test_unknown_model_is_404(self, client):
        with pytest.raises(JobClientError) as error:
            client.submit_job("lenet9000", [ExecutionPlan.uniform(AccurateProduct())])
        assert error.value.status == 404

    def test_boolean_model_index_is_rejected(self, server):
        # bool subclasses int: `true` must not be accepted as index 1 (or,
        # with one hosted model, silently rejected for the wrong reason).
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"model_index": True, "plans": []}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 404
        body = json.loads(error.value.read().decode())
        assert "model index" in body["error"]

    def test_unreachable_daemon_is_a_client_error(self):
        # Connection refused (no HTTP response at all) must surface as
        # JobClientError with status None, not leak a raw URLError.
        client = HttpJobClient("http://127.0.0.1:9", request_timeout=2.0)
        with pytest.raises(JobClientError) as error:
            client.healthz()
        assert error.value.status is None
        assert "cannot reach" in str(error.value)

    def test_bad_plan_payload_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps(
                {"model_index": 0, "plans": [{"default": {"kind": "warp-drive"}}]}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400

    @pytest.mark.parametrize(
        "product",
        [
            '{"kind": "perforated", "m": 1e400}',
            '{"kind": "perforated", "m": 2, "use_control_variate": "false"}',
            '{"kind": "perforated", "m": "3"}',
        ],
    )
    def test_malformed_plan_numbers_are_400(self, server, product):
        """``1e400`` parses as infinity, which ``int()`` cannot convert: it
        must be a 400 like any other malformed number, not a 500."""
        submitted = server.manager.stats()["jobs"]["submitted"]
        body = '{"model_index": 0, "plans": [{"default": %s}]}' % product
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=body.encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400
        assert "perforated payload" in json.loads(error.value.read().decode())["error"]
        assert server.manager.stats()["jobs"]["submitted"] == submitted

    def test_unknown_layer_is_400(self, server, trained):
        first = trained.model.conv_dense_nodes()[0].name
        accurate = ExecutionPlan.uniform(AccurateProduct())
        plans = [
            accurate,
            accurate.with_layer("conv_does_not_exist", PerforatedProduct(3)),
            accurate.with_layer(first, PerforatedProduct(3)),
        ]
        entries = server.manager.cache.stats()["entries"]
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"model_index": 0, "plans": encode_plans(plans)}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400
        assert "conv_does_not_exist" in json.loads(error.value.read().decode())["error"]
        assert server.manager.cache.stats()["entries"] == entries

    def test_empty_plans_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"model_index": 0, "plans": []}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=b"perforate all the layers",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400

    def test_deeply_nested_body_is_400(self, server):
        """Arrays nested past the JSON decoder's recursion limit (a 2 KB
        body) are malformed input like any other: a 400, not a 500, at the
        top level and inside ``plans``."""
        nested = "[" * 1000 + "]" * 1000
        for body in (nested, '{"model_index": 0, "plans": %s}' % nested):
            request = urllib.request.Request(
                f"{server.url}/jobs",
                data=body.encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request)
            with error.value:
                assert error.value.code == 400
                message = json.loads(error.value.read().decode())["error"]
            assert message.startswith("request body is not valid JSON: ")

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{server.url}/teapot")
        assert error.value.code == 404

    def test_bad_priority_and_deadline_are_400(self, server):
        """Unknown payload keys are refused and named — a stale client's
        ``priority``/``deadline_s`` or a misspelled ``session`` must not
        run silently with defaults."""
        plans = encode_plans([ExecutionPlan.uniform(AccurateProduct())])
        submitted = server.manager.stats()["jobs"]["submitted"]
        for extra, named in (
            ({"priority": 2}, "priority"),
            ({"deadline_s": 120.0}, "deadline_s"),
            ({"sesion": "alice"}, "sesion"),
            ({"priority": 1, "deadline_s": 5}, "deadline_s, priority"),
        ):
            request = urllib.request.Request(
                f"{server.url}/jobs",
                data=json.dumps({"model_index": 0, "plans": plans, **extra}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request)
            assert error.value.code == 400, extra
            message = json.loads(error.value.read().decode())["error"]
            assert f"unknown job payload keys: {named} " in message
        assert server.manager.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"session": None}, "session"),
            ({"session": True}, "session"),
            ({"session": 7}, "session"),
            ({"session": ["alice"]}, "session"),
            ({"label": {"a": 1}}, "label"),
            ({"label": 3.5}, "label"),
            ({"label": None}, "label"),
            ({"session": "../escape"}, "session"),
        ],
        ids=[
            "session-null",
            "session-bool",
            "session-int",
            "session-list",
            "label-object",
            "label-float",
            "label-null",
            "session-path",
        ],
    )
    def test_session_and_label_must_be_json_strings(self, server, fields, named):
        """``session`` and ``label`` are taken as sent, never ``str()``-ed:
        ``null`` must not run as session ``"None"``, nor a dict as the
        label ``"{'a': 1}"``."""
        plans = encode_plans([ExecutionPlan.uniform(AccurateProduct())])
        submitted = server.manager.stats()["jobs"]["submitted"]
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"model_index": 0, "plans": plans, **fields}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        with error.value:
            assert error.value.code == 400
            assert named in json.loads(error.value.read().decode())["error"]
        assert server.manager.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"model": None}, "model"),
            ({"model": ["vgg13"]}, "model"),
            ({"model": 7}, "model"),
            ({"model": "vgg13", "dataset": 7}, "dataset"),
            ({"model": "vgg13", "dataset": None}, "dataset"),
            ({"model_index": 0, "dataset": ["tiny"]}, "dataset"),
        ],
        ids=[
            "model-null",
            "model-list",
            "model-int",
            "dataset-int",
            "dataset-null",
            "dataset-list-with-index",
        ],
    )
    def test_model_and_dataset_must_be_json_strings(self, server, fields, named):
        """Model and dataset names are taken as sent, never ``str()``-ed:
        ``null`` must not resolve to a model named ``"None"``, nor
        ``["vgg13"]`` or ``7`` be looked up as names (a 404)."""
        plans = encode_plans([ExecutionPlan.uniform(AccurateProduct())])
        submitted = server.manager.stats()["jobs"]["submitted"]
        with pytest.raises(urllib.error.HTTPError) as error:
            _post_job(server.url, {"plans": plans, **fields})
        with error.value:
            assert error.value.code == 400
            message = json.loads(error.value.read().decode())["error"]
        assert f"job {named} must be a JSON string" in message
        assert server.manager.stats()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize("length", ["-1", "abc", "+5", "1.5", ""])
    def test_bad_content_length_is_400_at_once(self, server, length):
        """A Content-Length that is not a non-negative integer is answered
        without reading the body, and the connection is closed."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
                b'{"model_index": 0'
            )
            response = b""
            while True:  # until the server closes the connection
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:  # closed with the body unread
                    break
                if not chunk:
                    break
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]


#: Arbitrary JSON documents, the junk a fuzzed body field carries.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _job_bodies(model: str, dataset: str, mac_names: list[str]):
    """``POST /jobs`` bodies: a well-formed payload naming a hosted or an
    unknown model, with up to two fields replaced by junk, added or
    dropped, or a body that is no JSON object at all (arbitrary JSON,
    arbitrary bytes, arrays nested 1 to 2000 deep) — so some jobs are
    accepted, some name no hosted model and most are malformed."""
    products = st.sampled_from(
        [
            {"kind": "accurate"},
            {"kind": "perforated", "m": 2},
            {"kind": "perforated", "m": 1, "use_control_variate": False},
        ]
    )
    plan = st.fixed_dictionaries(
        {"default": products},
        optional={"per_layer": st.dictionaries(st.sampled_from(mac_names), products, max_size=2)},
    )
    references = st.sampled_from(
        [
            {"model_index": 0},
            {"model": model},
            {"model": model, "dataset": dataset},
            {"model_index": 1},
            {"model": "resnet44"},
            {"model": model, "dataset": f"{dataset}-b"},
        ]
    )
    well_formed = st.builds(
        lambda reference, rest: {**rest, **reference},
        references,
        st.fixed_dictionaries(
            {"plans": st.lists(plan, min_size=1, max_size=3)},
            optional={
                "session": st.sampled_from(["default", "fuzz-1"]),
                "label": st.text(max_size=8),
            },
        ),
    )
    junk = st.dictionaries(
        st.sampled_from(
            ["model", "model_index", "dataset", "plans", "session", "label", "priority"]
        ),
        JSON_VALUES | st.lists(plan.map(lambda p: {**p, "per_layer": {"no_layer": p["default"]}})),
        max_size=2,
    )
    dropped = st.sets(st.sampled_from(["plans", "model", "model_index"]), max_size=1)
    payloads = st.builds(
        lambda payload, extra, drop: {
            key: value for key, value in {**payload, **extra}.items() if key not in drop
        },
        well_formed,
        st.just({}) | junk,
        st.just(set()) | dropped,
    )
    return st.one_of(
        payloads.map(lambda payload: json.dumps(payload).encode()),
        JSON_VALUES.map(lambda value: json.dumps(value).encode()),
        st.binary(max_size=32),
        st.sampled_from([1, 100, 1000, 2000]).map(lambda depth: b"[" * depth + b"]" * depth),
    )


class TestFuzzedJobBodies:
    def test_fuzzed_bodies_get_202_400_or_404(self, trained, tiny_dataset):
        """Whatever the body, ``POST /jobs`` answers 202 (accepted), 400
        (malformed) or 404 (unknown model) — never a 500 — and the daemon
        still answers ``/healthz`` afterwards.  Accepted jobs stay queued:
        the dispatcher never starts, so nothing is evaluated."""
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=100_000,
            auto_start=False,
        )
        srv = JobServer(manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        statuses: list[int] = []
        mac_names = [node.name for node in trained.model.conv_dense_nodes()]

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(body=_job_bodies(trained.name, tiny_dataset.name, mac_names))
        def post(body):
            statuses.append(_post_status(srv.url, body))
            assert statuses[-1] in (202, 400, 404), body[:200]

        try:
            post()
            assert {202, 400, 404} <= set(statuses)
            with urllib.request.urlopen(f"{srv.url}/healthz") as response:
                assert response.status == 200
            assert manager.stats()["jobs"]["submitted"] == statuses.count(202)
        finally:
            srv.shutdown_and_close()
            thread.join(timeout=10)


@pytest.mark.runtime
class TestServedParity:
    def test_http_job_matches_in_process_engine(
        self, server, client, trained
    ):
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(1)),
            ExecutionPlan.uniform(PerforatedProduct(2, use_control_variate=False)),
        ]
        direct = server.manager.service.evaluate_plans(0, plans)
        job_id = client.submit_job(0, plans, session="parity")
        view = client.wait(job_id, timeout=240)
        assert view["accuracies"] == direct

    def test_served_sweep_matches_accuracy_sweep(
        self, client, trained, tiny_dataset
    ):
        reference = accuracy_sweep(
            [trained], {tiny_dataset.name: tiny_dataset}, perforations=(1, 2)
        )
        sweep, _totals = sweep_over_jobs(client, perforations=(1, 2))
        assert sweep.baselines == reference.baselines
        assert sweep.records == reference.records

    def test_duplicate_http_submission_hits_the_cache(self, client):
        plans = [ExecutionPlan.uniform(PerforatedProduct(3))]
        first = client.wait(client.submit_job(0, plans, session="dup"), timeout=240)
        second = client.wait(client.submit_job(0, plans, session="dup"), timeout=240)
        assert second["accuracies"] == first["accuracies"]
        assert second["cache_hits"] == 1
        assert second["cache_misses"] == 0

    def test_remote_campaign_front_equals_local(
        self, client, trained, tiny_dataset
    ):
        kwargs = dict(
            strategy="greedy",
            max_loss=5.0,
            budget_evals=4,
            array_size=64,
            perforations=(1, 2),
        )
        local = run_campaign(trained, tiny_dataset, **kwargs)
        evaluator = RemotePlanEvaluator(client, trained.name)
        remote = run_campaign(trained, tiny_dataset, evaluator=evaluator, **kwargs)
        assert remote.baseline_accuracy == local.baseline_accuracy
        local_points = [
            (p.label, p.energy_nj, p.accuracy) for p in local.front.points()
        ]
        remote_points = [
            (p.label, p.energy_nj, p.accuracy) for p in remote.front.points()
        ]
        assert remote_points == local_points
        # The remote campaign's ledger keys live under the server-reported
        # context digest — identical to the local measurement setup.
        assert remote.stats["context_key"] == local.stats["context_key"]


class TestBlockingWait:
    """No polling: a fully cached job is answered by its ``POST``, and
    ``GET /jobs/<id>?wait=S`` holds its reply until the job ends."""

    def test_fully_cached_post_reply_is_done(self, server, client, monkeypatch):
        plans = [ExecutionPlan.uniform(PerforatedProduct(3, use_control_variate=False))]
        first = client.wait(client.submit_job(0, plans), timeout=240)
        reply = _post_job(server.url, {"model_index": 0, "plans": encode_plans(plans)})
        assert reply["state"] == "done"
        assert reply["accuracies"] == first["accuracies"]
        assert (reply["cache_hits"], reply["cache_misses"]) == (1, 0)

        def no_get(*args, **kwargs):
            raise AssertionError("wait sent a GET for a job its POST reply ended")

        monkeypatch.setattr(client, "job", no_get)
        view = client.wait(client.submit_job(0, plans), timeout=240)
        assert view["accuracies"] == first["accuracies"]

    def test_wait_returns_when_the_job_ends(self, idle_server):
        client = HttpJobClient(idle_server.url)
        job_id = client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())])
        held: dict = {}

        def hold() -> None:
            start = time.monotonic()
            held["view"] = client.job(job_id, wait=20)
            held["elapsed"] = time.monotonic() - start

        thread = threading.Thread(target=hold)
        thread.start()
        time.sleep(0.3)
        assert "view" not in held  # still held: the job is queued
        idle_server.manager.start()
        thread.join(timeout=60)
        assert held["view"]["state"] == "done"
        assert 0.3 <= held["elapsed"] < 10  # at the finish, well before the wait

    def test_wait_is_capped(self, idle_server, monkeypatch):
        import repro.runtime.server as server_module

        monkeypatch.setattr(server_module, "JOB_WAIT_CAP_S", 0.2)
        client = HttpJobClient(idle_server.url)
        job_id = client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())])
        start = time.monotonic()
        view = client.job(job_id, wait=25)
        assert view["state"] == "queued"
        assert 0.2 <= time.monotonic() - start < 10

    def test_client_wait_keeps_its_timeout(self, idle_server):
        client = HttpJobClient(idle_server.url)
        job_id = client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())])
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="still queued"):
            client.wait(job_id, timeout=0.3)
        assert 0.3 <= time.monotonic() - start < 10

    def test_close_ends_a_held_wait(self, idle_server):
        client = HttpJobClient(idle_server.url)
        job_id = client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())])
        errors: list = []

        def wait() -> None:
            try:
                client.wait(job_id)
            except JobFailedError as error:
                errors.append(error)

        thread = threading.Thread(target=wait)
        thread.start()
        time.sleep(0.2)
        idle_server.manager.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [error.view["state"] for error in errors] == ["cancelled"]

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "inf", "", "1&wait=2"])
    def test_bad_wait_is_400(self, idle_server, wait):
        client = HttpJobClient(idle_server.url)
        job_id = client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())])
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{idle_server.url}/jobs/{job_id}?wait={wait}")
        with error.value:
            assert error.value.code == 400
            assert "wait must be" in json.loads(error.value.read().decode())["error"]

    def test_unknown_job_with_wait_is_404(self, server):
        start = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{server.url}/jobs/job-999999?wait=20")
        with error.value:
            assert error.value.code == 404
        assert time.monotonic() - start < 10


class TestAdmissionOverTheWire:
    def test_429_maps_back_to_admission_error(self, trained, tiny_dataset):
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=2,
            auto_start=False,
        )
        srv = JobServer(manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpJobClient(srv.url)
            plans = [ExecutionPlan.uniform(AccurateProduct())]
            client.submit_job(0, plans, session="alice")
            client.submit_job(0, plans, session="alice")
            with pytest.raises(AdmissionError) as full:
                client.submit_job(0, plans, session="bob")
            assert full.value.reason == "queue_full"
        finally:
            srv.shutdown_and_close()
            thread.join(timeout=10)

    def test_cancelled_job_reported_over_http(self, trained, tiny_dataset):
        manager = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, auto_start=False
        )
        srv = JobServer(manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpJobClient(srv.url)
            job_id = client.submit_job(
                0, [ExecutionPlan.uniform(AccurateProduct())], session="alice"
            )
            manager.close()
            view = client.job(job_id)
            assert view["state"] == "cancelled"
        finally:
            srv.shutdown_and_close()
            thread.join(timeout=10)


# ----------------------------------------------------------------------
class _FlakyServer:
    """A stub that kills the first N connections, then answers 200 JSON."""

    def __init__(self, flaky_connections: int):
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.socket.bind(("127.0.0.1", 0))
        self.socket.listen(16)
        self.flaky = int(flaky_connections)
        self.connections = 0
        self._closed = False
        threading.Thread(target=self._loop, daemon=True).start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.socket.getsockname()[1]}"

    def _loop(self) -> None:
        while not self._closed:
            try:
                connection, _address = self.socket.accept()
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.flaky:
                # Accept then slam the door: the client sees a reset /
                # "remote end closed connection without response".
                connection.close()
                continue
            try:
                connection.recv(65536)
                body = b'{"ok": true}'
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )
            except OSError:
                pass
            finally:
                connection.close()

    def close(self) -> None:
        self._closed = True
        try:
            self.socket.close()
        except OSError:
            pass


class TestHttpClientRetries:
    def test_get_survives_transient_connection_failures(self):
        stub = _FlakyServer(flaky_connections=GET_RETRIES - 1)
        try:
            client = HttpJobClient(stub.url)
            assert client.healthz() == {"ok": True}
            assert stub.connections == GET_RETRIES  # the flakes + one success
        finally:
            stub.close()

    def test_get_gives_up_past_the_retry_budget(self):
        stub = _FlakyServer(flaky_connections=GET_RETRIES + 5)
        try:
            client = HttpJobClient(stub.url)
            with pytest.raises(JobClientError) as error:
                client.healthz()
            assert error.value.status is None
            assert stub.connections == 1 + GET_RETRIES  # initial try + retries
        finally:
            stub.close()

    def test_post_is_never_retried(self):
        stub = _FlakyServer(flaky_connections=1)
        try:
            client = HttpJobClient(stub.url)
            with pytest.raises(JobClientError) as error:
                client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())])
            assert error.value.status is None
            # One connection, no second submission attempt: a POST that
            # died may already hold server-side state.
            assert stub.connections == 1
        finally:
            stub.close()
