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
* **malformed wire input** — a bad ``Content-Length`` is answered at once
  without reading the body, and unknown payload keys and malformed plan
  numbers (``"m": 1e400``, a string control-variate flag) are a 400;
* **client resilience** — :class:`~repro.runtime.jobs.client.HttpJobClient`
  retries idempotent GETs through transient connection failures (flaky
  stub server) but never retries a POST.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.dse import run_campaign
from repro.runtime.jobs import (
    AdmissionError,
    HttpJobClient,
    JobClientError,
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
    return HttpJobClient(server.url, poll_interval=0.01)


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
        assert stats["schema"] == "repro-runtime-stats/v1.4"
        assert {"engine", "jobs", "cache", "sessions"} <= set(stats)

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
        sweep, _totals = sweep_over_jobs(
            client, perforations=(1, 2), session="sweep-http"
        )
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
        evaluator = RemotePlanEvaluator(client, trained.name, session="dse-http")
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


class TestAdmissionOverTheWire:
    def test_429_maps_back_to_admission_error(self, trained, tiny_dataset):
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=2,
            max_inflight_per_session=1,
            auto_start=False,
        )
        srv = JobServer(manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpJobClient(srv.url)
            plans = [ExecutionPlan.uniform(AccurateProduct())]
            client.submit_job(0, plans, session="alice")
            with pytest.raises(AdmissionError) as busy:
                client.submit_job(0, plans, session="alice")
            assert busy.value.reason == "session_busy"
            client.submit_job(0, plans, session="bob")
            with pytest.raises(AdmissionError) as full:
                client.submit_job(0, plans, session="carol")
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
            client = HttpJobClient(srv.url, poll_interval=0.01)
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
