"""Tests of the fleet layer (:mod:`repro.runtime.fleet`).

The gateway contract lives here:

* **routing** — the table shards models disjointly, renumbers them into
  one global index space, and refuses overlapping topologies;
* **transparency** — every job-API client works unchanged against a
  gateway URL: submissions route to the owning shard, job refs
  (``<shard>/<job-id>``) poll back through it, accuracies are bit-exact
  with asking the shard directly, and a two-shard
  :func:`~repro.runtime.jobs.client.sweep_over_jobs` equals a local
  :func:`~repro.simulation.campaign.parallel_sweep` over the same models;
* **degradation** — a dead shard surfaces as a fast machine-readable 503
  (``reason: "shard_down"``), ``/healthz`` reports ``degraded``, the
  surviving shards keep serving, and an evicted shard only rejoins after
  re-verifying its ``(name, dataset, context_key)`` identity;
* **aggregation** — ``/stats`` fans out and sums shard counters into one
  ``repro-runtime-stats/v1.2`` payload with namespaced sessions;
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

from repro.runtime.fleet import (
    Backend,
    BackendPool,
    FleetConfigError,
    GatewayServer,
    RoutingTable,
)
from repro.runtime.jobs import (
    AdmissionError,
    HttpJobClient,
    JobClientError,
    JobFailedError,
    JobManager,
    sweep_over_jobs,
)
from repro.runtime.server import JobServer
from repro.simulation.campaign import TrainedModel, parallel_sweep
from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

pytestmark = pytest.mark.fleet


# ----------------------------------------------------------------------
# Fixtures: a two-shard fleet over one tiny trained model hosted under
# two distinct names (disjoint routing keys, shared training cost).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_a(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


@pytest.fixture(scope="module")
def trained_b(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg16",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


def _boot_shard(trained, dataset) -> tuple[JobManager, JobServer, threading.Thread]:
    manager = JobManager([trained], {dataset.name: dataset})
    server = JobServer(manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return manager, server, thread


def _boot_gateway(pool) -> tuple[GatewayServer, threading.Thread]:
    gateway = GatewayServer(pool)
    thread = threading.Thread(target=gateway.serve_forever, daemon=True)
    thread.start()
    return gateway, thread


@pytest.fixture(scope="module")
def fleet(trained_a, trained_b, tiny_dataset):
    """(gateway, {shard: manager}) — two live shards behind one gateway."""
    manager_a, server_a, thread_a = _boot_shard(trained_a, tiny_dataset)
    manager_b, server_b, thread_b = _boot_shard(trained_b, tiny_dataset)
    pool = BackendPool(
        [Backend("shard0", server_a.url), Backend("shard1", server_b.url)]
    )
    gateway, gw_thread = _boot_gateway(pool)
    yield gateway, {"shard0": manager_a, "shard1": manager_b}
    gateway.shutdown_and_close()
    gw_thread.join(timeout=10)
    for server, thread in ((server_a, thread_a), (server_b, thread_b)):
        server.shutdown_and_close()
        thread.join(timeout=10)


@pytest.fixture()
def client(fleet):
    gateway, _managers = fleet
    return HttpJobClient(gateway.url, poll_interval=0.01)


# ----------------------------------------------------------------------
class TestRoutingTable:
    INFO_A = {
        "index": 0,
        "name": "vgg13",
        "dataset": "d1",
        "context_key": "a" * 64,
        "mac_layer_names": ["c1"],
        "float_accuracy": 0.5,
    }
    INFO_B = {**INFO_A, "name": "vgg16", "context_key": "b" * 64}

    def test_renumbers_shards_into_one_index_space(self):
        table = RoutingTable({"s0": [self.INFO_A], "s1": [self.INFO_B]})
        models = table.models()
        assert [info["index"] for info in models] == [0, 1]
        assert [info["shard"] for info in models] == ["s0", "s1"]
        assert [info["shard_index"] for info in models] == [0, 0]
        route = table.by_index(1)
        assert route.shard == "s1"
        assert route.local_index == 0

    def test_overlapping_model_sets_are_a_config_error(self):
        with pytest.raises(FleetConfigError, match="disjoint"):
            RoutingTable({"s0": [self.INFO_A], "s1": [dict(self.INFO_A)]})

    def test_empty_fleet_is_a_config_error(self):
        with pytest.raises(FleetConfigError):
            RoutingTable({"s0": []})

    def test_bool_is_not_a_model_index(self):
        table = RoutingTable({"s0": [self.INFO_A, self.INFO_B]})
        with pytest.raises(IndexError):
            table.by_index(True)
        with pytest.raises(IndexError):
            table.by_index(2)

    def test_by_name_resolution(self):
        same_name_other_dataset = {**self.INFO_A, "dataset": "d2"}
        table = RoutingTable(
            {"s0": [self.INFO_A], "s1": [same_name_other_dataset]}
        )
        assert table.by_name("vgg13", "d2").shard == "s1"
        with pytest.raises(KeyError, match="several datasets"):
            table.by_name("vgg13")
        with pytest.raises(KeyError, match="no model"):
            table.by_name("lenet9000")


class TestGatewayEndpoints:
    def test_healthz_reports_every_shard(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["models"] == 2
        assert set(payload["shards"]) == {"shard0", "shard1"}
        assert all(entry["healthy"] for entry in payload["shards"].values())

    def test_models_spans_both_shards(self, client):
        infos = client.models()
        assert [(info["index"], info["name"], info["shard"]) for info in infos] == [
            (0, "vgg13", "shard0"),
            (1, "vgg16", "shard1"),
        ]
        assert all(len(info["context_key"]) == 64 for info in infos)

    def test_submission_routes_to_the_owning_shard(self, client, fleet):
        _gateway, managers = fleet
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(1)),
        ]
        direct = managers["shard1"].service.evaluate_plans(0, plans)
        job_id = client.submit_job(1, plans, session="route")
        assert job_id.startswith("shard1/")
        view = client.wait(job_id, timeout=240)
        assert view["shard"] == "shard1"
        assert view["accuracies"] == direct

    def test_submission_by_name_works(self, client):
        job_id = client.submit_job(
            "vgg13", [ExecutionPlan.uniform(AccurateProduct())], session="byname"
        )
        assert job_id.startswith("shard0/")
        client.wait(job_id, timeout=240)

    def test_unknown_model_is_404(self, client):
        with pytest.raises(JobClientError) as error:
            client.submit_job(
                "lenet9000", [ExecutionPlan.uniform(AccurateProduct())]
            )
        assert error.value.status == 404

    def test_unknown_job_ref_is_404(self, client):
        for ref in ("nonsense", "shard0/job-999999", "ghost/job-000001"):
            with pytest.raises(JobClientError) as error:
                client.job(ref)
            assert error.value.status == 404, ref

    def test_priority_and_deadline_travel_through(self, client):
        job_id = client.submit_job(
            0,
            [ExecutionPlan.uniform(AccurateProduct())],
            session="prio",
            priority=4,
            deadline_s=300.0,
        )
        view = client.wait(job_id, timeout=240)
        assert view["priority"] == 4
        assert view["deadline_s"] == 300.0

    def test_stats_aggregates_both_shards(self, client, fleet):
        _gateway, managers = fleet
        # Make sure both shards have served something.
        for index in (0, 1):
            client.wait(
                client.submit_job(
                    index,
                    [ExecutionPlan.uniform(PerforatedProduct(2))],
                    session="agg",
                ),
                timeout=240,
            )
        stats = client.stats()
        assert stats["schema"] == "repro-runtime-stats/v1.2"
        assert {"engine", "jobs", "cache", "sessions", "gateway", "shards"} <= set(
            stats
        )
        per_shard = [managers[name].stats() for name in ("shard0", "shard1")]
        assert stats["jobs"]["completed"] == sum(
            entry["jobs"]["completed"] for entry in per_shard
        )
        assert stats["cache"]["misses"] == sum(
            entry["cache"]["misses"] for entry in per_shard
        )
        assert stats["gateway"]["shards"] == 2
        assert stats["gateway"]["jobs_forwarded"] >= 2
        # Sessions are namespaced by shard.
        assert any(key.startswith("shard0/") for key in stats["sessions"])
        assert all("/" in key for key in stats["sessions"])


class TestGatewaySweepParity:
    def test_two_shard_sweep_equals_local_parallel_sweep(
        self, client, trained_a, trained_b, tiny_dataset
    ):
        reference = parallel_sweep(
            [trained_a, trained_b],
            {tiny_dataset.name: tiny_dataset},
            perforations=(1, 2),
            max_workers=1,
        )
        sweep, totals = sweep_over_jobs(
            client, perforations=(1, 2), session="sweep-fleet"
        )
        assert sweep.baselines == reference.baselines
        assert sweep.records == reference.records
        assert totals["jobs"] == 2


class TestShardFailure:
    @pytest.fixture()
    def mortal_fleet(self, trained_a, trained_b, tiny_dataset):
        """A function-scoped fleet whose shard1 the test may kill."""
        manager_a, server_a, thread_a = _boot_shard(trained_a, tiny_dataset)
        manager_b, server_b, thread_b = _boot_shard(trained_b, tiny_dataset)
        pool = BackendPool(
            [
                Backend("shard0", server_a.url),
                # Keep retry cost tiny: a dead local socket refuses instantly.
                Backend("shard1", server_b.url, retries=1, backoff=0.01),
            ]
        )
        gateway, gw_thread = _boot_gateway(pool)

        def kill_shard1() -> None:
            server_b.shutdown_and_close()
            thread_b.join(timeout=10)

        yield gateway, kill_shard1
        gateway.shutdown_and_close()
        gw_thread.join(timeout=10)
        server_a.shutdown_and_close()
        thread_a.join(timeout=10)
        if thread_b.is_alive():
            server_b.shutdown_and_close()
            thread_b.join(timeout=10)

    def test_dead_shard_degrades_with_machine_readable_503(self, mortal_fleet):
        gateway, kill_shard1 = mortal_fleet
        client = HttpJobClient(gateway.url, poll_interval=0.01)
        kill_shard1()
        # POST to the dead shard: fast 503 with a machine-readable body.
        payload = {
            "model_index": 1,
            "plans": [{"default": {"kind": "accurate"}, "per_layer": {}}],
        }
        request = urllib.request.Request(
            f"{gateway.url}/jobs",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=30)
        assert error.value.code == 503
        body = json.loads(error.value.read().decode())
        assert body["reason"] == "shard_down"
        assert body["shard"] == "shard1"
        # Polls into the dead shard 503 too (no hang), health degrades,
        # and the healthy shard keeps serving.
        with pytest.raises(JobClientError) as poll_error:
            client.job("shard1/job-000001")
        assert poll_error.value.status == 503
        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["shards"]["shard1"]["healthy"] is False
        assert health["shards"]["shard0"]["healthy"] is True
        view = client.wait(
            client.submit_job(0, [ExecutionPlan.uniform(AccurateProduct())]),
            timeout=240,
        )
        assert view["state"] == "done"

    def test_admission_rejections_relay_through_the_gateway(
        self, trained_a, tiny_dataset
    ):
        manager = JobManager(
            [trained_a],
            {tiny_dataset.name: tiny_dataset},
            max_inflight_per_session=1,
            auto_start=False,
        )
        server = JobServer(manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        gateway, gw_thread = _boot_gateway(
            BackendPool([Backend("solo", server.url)])
        )
        try:
            client = HttpJobClient(gateway.url, poll_interval=0.01)
            plans = [ExecutionPlan.uniform(AccurateProduct())]
            client.submit_job(0, plans, session="alice")
            with pytest.raises(AdmissionError) as busy:
                client.submit_job(0, plans, session="alice")
            assert busy.value.reason == "session_busy"
        finally:
            gateway.shutdown_and_close()
            gw_thread.join(timeout=10)
            server.shutdown_and_close()
            thread.join(timeout=10)

    def test_recovery_requires_matching_model_identity(
        self, trained_a, tiny_dataset
    ):
        manager, server, thread = _boot_shard(trained_a, tiny_dataset)
        try:
            backend = Backend("s0", server.url)
            real_triples = {
                (info["name"], info["dataset"], info["context_key"])
                for info in manager.models()
            }
            # Evict, then demand an identity the live shard does not have:
            # the probe must refuse to readmit it.
            backend.note_failure("simulated outage")
            assert not backend.healthy
            backend.expected_triples = {("other", "ds", "0" * 64)}
            backend.probe()
            assert not backend.healthy
            assert "different model set" in (backend.last_error or "")
            # With the recorded identity the shard rejoins.
            backend.expected_triples = real_triples
            backend.probe()
            assert backend.healthy
        finally:
            server.shutdown_and_close()
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
        stub = _FlakyServer(flaky_connections=2)
        try:
            client = HttpJobClient(stub.url, retries=3, backoff=0.01)
            assert client.request("GET", "/healthz") == {"ok": True}
            assert stub.connections == 3  # two flakes + one success
        finally:
            stub.close()

    def test_get_gives_up_past_the_retry_budget(self):
        stub = _FlakyServer(flaky_connections=10)
        try:
            client = HttpJobClient(stub.url, retries=2, backoff=0.01)
            with pytest.raises(JobClientError) as error:
                client.request("GET", "/healthz")
            assert error.value.status is None
            assert stub.connections == 3  # initial try + two retries
        finally:
            stub.close()

    def test_post_is_never_retried(self):
        stub = _FlakyServer(flaky_connections=1)
        try:
            client = HttpJobClient(stub.url, retries=5, backoff=0.01)
            with pytest.raises(JobClientError) as error:
                client.request("POST", "/jobs", {"model_index": 0})
            assert error.value.status is None
            # One connection, no second submission attempt: a POST that
            # died may already hold server-side state.
            assert stub.connections == 1
        finally:
            stub.close()

    def test_retries_off_means_one_attempt(self):
        stub = _FlakyServer(flaky_connections=1)
        try:
            client = HttpJobClient(stub.url, retries=0)
            with pytest.raises(JobClientError):
                client.request("GET", "/healthz")
            assert stub.connections == 1
        finally:
            stub.close()
