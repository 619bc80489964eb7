"""Tests of the jobs layer (:mod:`repro.runtime.jobs`).

The acceptance criteria of the job-oriented re-architecture live here:

* **job-vs-direct parity** — plan sets submitted as jobs (and the Table III
  sweep rebuilt on the job API) are bit-exact with the engine's direct
  ``evaluate_plans`` and with :func:`~repro.simulation.campaign.
  accuracy_sweep`;
* **service-level result cache** — duplicate cells across jobs from *any*
  client are cache hits: two concurrent clients submitting overlapping
  plan sets get bit-identical results, the overlap served from cache, with
  hit/miss/eviction counters in ``stats()``;
* **admission control** — a bounded queue rejects with reason
  ``queue_full``, the per-session in-flight cap with ``session_busy``, and
  rejections never corrupt counters;
* **sessions** — one session per id, and per-session ledgers land in
  disjoint namespaces;
* **graceful close** — ``close()`` with jobs still queued cancels them
  (state ``cancelled``), drains the dispatcher, and unlinks every
  shared-memory block: no leaked ``/dev/shm`` segments;
* **wire codec** — plans round-trip through JSON with identical
  fingerprints (perforation, control-variate flag, LUT bytes), so
  content-addressed cell keys survive transport, and a perforated payload
  whose ``m`` is not a JSON integer or whose control-variate flag is not a
  JSON boolean is a codec error, never coerced.
"""

from __future__ import annotations

import json
import os
import threading
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

from repro.dse.ledger import CampaignLedger
from repro.multipliers.library import MultiplierLibrary
from repro.runtime.jobs import (
    AdmissionError,
    JobManager,
    JobQueue,
    JobState,
    LocalJobClient,
    PlanCodecError,
    ResultCache,
    SessionError,
    decode_plan,
    decode_plans,
    encode_plan,
    encode_plans,
    sweep_over_jobs,
)
from repro.runtime.jobs.sessions import SessionRegistry
from repro.simulation.campaign import TrainedModel, accuracy_sweep
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.runtime


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


@pytest.fixture()
def manager(trained, tiny_dataset):
    mgr = JobManager([trained], {tiny_dataset.name: tiny_dataset})
    yield mgr
    mgr.close()


def _plans(trained, count: int, seed: int) -> list[ExecutionPlan]:
    rng = np.random.default_rng(seed)
    mac_names = [node.name for node in trained.model.conv_dense_nodes()]
    menu = [None, PerforatedProduct(1), PerforatedProduct(2), PerforatedProduct(3)]
    plans = [ExecutionPlan.uniform(AccurateProduct())]
    while len(plans) < count:
        plan = ExecutionPlan.uniform(AccurateProduct())
        for name in mac_names:
            choice = menu[int(rng.integers(0, len(menu)))]
            if choice is not None:
                plan = plan.with_layer(name, choice)
        plans.append(plan)
    return plans


class TestCodec:
    def test_plan_round_trip_preserves_fingerprints(self, trained):
        mac_names = tuple(
            node.name for node in trained.model.conv_dense_nodes()
        )
        lut = next(iter(MultiplierLibrary.synthetic_evoapprox())).multiplier
        plan = (
            ExecutionPlan.uniform(PerforatedProduct(2))
            .with_layer(mac_names[0], AccurateProduct())
            .with_layer(mac_names[1], PerforatedProduct(1, use_control_variate=False))
            .with_layer(mac_names[2], LUTProduct(lut))
        )
        decoded = decode_plan(encode_plan(plan))
        assert decoded.fingerprints(mac_names) == plan.fingerprints(mac_names)

    def test_perforated_m0_is_not_mistaken_for_accurate(self):
        plan = ExecutionPlan.uniform(PerforatedProduct(0))
        decoded = decode_plan(encode_plan(plan))
        assert decoded.fingerprints(("x",)) == plan.fingerprints(("x",))

    def test_plans_round_trip(self, trained):
        plans = _plans(trained, 4, seed=3)
        names = tuple(node.name for node in trained.model.conv_dense_nodes())
        for original, decoded in zip(plans, decode_plans(encode_plans(plans))):
            assert decoded.fingerprints(names) == original.fingerprints(names)

    def test_bad_payloads_raise_codec_errors(self):
        with pytest.raises(PlanCodecError):
            decode_plan({"default": {"kind": "warp-drive"}, "per_layer": {}})
        with pytest.raises(PlanCodecError):
            decode_plan([1, 2, 3])
        with pytest.raises(PlanCodecError):
            decode_plans({"not": "a list"})

    @pytest.mark.parametrize(
        "fields",
        [
            {"m": 1e400},  # json.loads reads it as inf: int() overflows
            {"m": float("nan")},
            {"m": 2.7},
            {"m": 2.0},
            {"m": "3"},
            {"m": True},
            {"m": None},
            {},  # no "m" at all
            {"m": 8},  # out of range
            {"m": -1},
            {"m": 2, "use_control_variate": "false"},
            {"m": 2, "use_control_variate": 0},
            {"m": 2, "use_control_variate": None},
        ],
    )
    def test_malformed_perforated_numbers_are_codec_errors(self, fields):
        """``m`` must be a JSON integer and ``use_control_variate`` a JSON
        boolean: nothing is coerced, and nothing escapes as another error."""
        payload = [{"default": {"kind": "perforated", **fields}}]
        with pytest.raises(PlanCodecError):
            decode_plans(json.loads(json.dumps(payload)))

    def test_well_formed_perforated_payloads_decode(self):
        plans = decode_plans(
            [
                {"default": {"kind": "perforated", "m": 2}},
                {"default": {"kind": "perforated", "m": 3, "use_control_variate": False}},
            ]
        )
        assert [(p.default.m, p.default.use_control_variate) for p in plans] == [
            (2, True),
            (3, False),
        ]


class TestResultCache:
    def test_hit_miss_and_eviction_counters(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 0.5)
        cache.put("b", 0.6)
        assert cache.get("a") == 0.5
        cache.put("c", 0.7)  # evicts "b" (LRU; "a" was refreshed)
        assert cache.get("b") is None
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 2


class TestSessions:
    def test_ledger_namespaces_are_disjoint(self, tmp_path):
        registry = SessionRegistry(ledger_dir=str(tmp_path))
        alice = registry.get_or_create("alice")
        bob = registry.get_or_create("bob")
        assert alice is registry.get_or_create("alice")
        alice.ledger.put("k", {"kind": "job-cell", "accuracy": 1.0})
        bob.ledger.put("k", {"kind": "job-cell", "accuracy": 0.0})
        fresh = CampaignLedger(path=str(tmp_path / "alice"))
        assert fresh.get("k")["accuracy"] == 1.0
        fresh = CampaignLedger(path=str(tmp_path / "bob"))
        assert fresh.get("k")["accuracy"] == 0.0

    def test_bad_session_ids_are_rejected(self):
        registry = SessionRegistry()
        with pytest.raises(SessionError):
            registry.get_or_create("../escape")
        with pytest.raises(SessionError):
            registry.get_or_create("")


class TestJobParity:
    def test_job_results_match_direct_evaluation(self, manager, trained):
        plans = _plans(trained, 5, seed=21)
        direct = manager.service.evaluate_plans(0, plans)
        with LocalJobClient(manager, own_manager=False) as client:
            job_id = client.submit_job(0, plans)
            view = client.wait(job_id, timeout=120)
        assert view["state"] == "done"
        assert view["accuracies"] == direct

    def test_sweep_over_jobs_matches_accuracy_sweep(self, trained, tiny_dataset):
        perforations = (1, 2)
        reference = accuracy_sweep(
            [trained], {tiny_dataset.name: tiny_dataset}, perforations=perforations
        )
        manager = JobManager([trained], {tiny_dataset.name: tiny_dataset})
        with LocalJobClient(manager) as client:
            sweep, totals = sweep_over_jobs(client, perforations=perforations)
        assert sweep.baselines == reference.baselines
        for record, expected in zip(sweep.records, reference.records):
            assert record == expected
        assert totals["cells"] == 1 + 2 * len(perforations)
        assert totals["cache_misses"] == totals["cells"]
        assert totals["cache_hits"] == 0

    def test_within_job_duplicates_are_deduplicated(self, manager, trained):
        plan = ExecutionPlan.uniform(PerforatedProduct(2))
        accuracies = LocalJobClient(manager, own_manager=False)
        job_id = accuracies.submit_job(0, [plan, plan, plan])
        view = accuracies.wait(job_id, timeout=120)
        assert view["cache_misses"] == 1
        assert view["cache_hits"] == 2
        assert len(set(view["accuracies"])) == 1


class TestResultCacheAcrossClients:
    def test_concurrent_overlapping_clients_share_the_cache(
        self, trained, tiny_dataset
    ):
        """Two threads, overlapping plan sets: bit-identical accuracies and
        the overlap of whichever lands second served from cache."""
        manager = JobManager([trained], {tiny_dataset.name: tiny_dataset})
        shared = _plans(trained, 4, seed=5)
        views: dict[str, dict] = {}

        def submit(session: str) -> None:
            client = LocalJobClient(manager, own_manager=False)
            job_id = client.submit_job(0, shared, session=session)
            views[session] = client.wait(job_id, timeout=240)

        try:
            threads = [
                threading.Thread(target=submit, args=(name,))
                for name in ("alice", "bob")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert views["alice"]["accuracies"] == views["bob"]["accuracies"]
            stats = manager.stats()
            # The dispatcher serializes the two jobs, so exactly one of them
            # evaluated the 4 unique cells; the other took 4 cache hits.
            assert stats["cache"]["misses"] == len(shared)
            assert stats["cache"]["hits"] == len(shared)
            assert stats["jobs"]["completed"] == 2
            assert stats["sessions"]["alice"]["jobs_completed"] == 1
            assert stats["sessions"]["bob"]["jobs_completed"] == 1
        finally:
            manager.close()

    def test_duplicate_sweep_is_all_cache_hits(self, trained, tiny_dataset):
        manager = JobManager([trained], {tiny_dataset.name: tiny_dataset})
        with LocalJobClient(manager) as client:
            first, totals_first = sweep_over_jobs(client, perforations=(1, 2))
            second, totals_second = sweep_over_jobs(client, perforations=(1, 2))
        assert totals_first["cache_hits"] == 0
        assert totals_second["cache_hits"] == totals_second["cells"]
        assert second.baselines == first.baselines
        assert second.records == first.records


class TestAdmissionControl:
    def test_queue_full_and_session_busy_rejections(self, trained, tiny_dataset):
        # auto_start=False: no dispatcher, so queued jobs stay queued and
        # the admission bounds are exercised deterministically.
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=2,
            max_inflight_per_session=1,
            auto_start=False,
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        try:
            manager.submit(0, plan, session="alice")
            with pytest.raises(AdmissionError) as busy:
                manager.submit(0, plan, session="alice")
            assert busy.value.reason == "session_busy"
            manager.submit(0, plan, session="bob")
            with pytest.raises(AdmissionError) as full:
                manager.submit(0, plan, session="carol")
            assert full.value.reason == "queue_full"
            stats = manager.stats()
            assert stats["jobs"]["rejected"] == 2
            assert stats["jobs"]["submitted"] == 2
        finally:
            manager.close()

    def test_rejected_submission_never_reuses_a_live_job_id(
        self, trained, tiny_dataset
    ):
        # A rejected submit must burn its minted ID: rolling the sequence
        # back would let the next accepted job overwrite a live one under
        # concurrent submits.
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_inflight_per_session=1,
            auto_start=False,
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        try:
            first = manager.submit(0, plan, session="alice")
            with pytest.raises(AdmissionError):
                manager.submit(0, plan, session="alice")
            second = manager.submit(0, plan, session="bob")
            assert second.id != first.id
            assert second.id == "job-000003"  # ID 2 burned by the rejection
            assert manager.job(first.id) is first
            # `submitted` counts accepted jobs only, not minted IDs.
            assert manager.stats()["jobs"]["submitted"] == 2
        finally:
            manager.close()

    def test_queue_release_returns_the_inflight_slot(self):
        queue = JobQueue(max_depth=4, max_inflight_per_session=1)
        session = SessionRegistry().get_or_create()
        queue.push(object(), session)
        assert session.inflight == 1
        with pytest.raises(AdmissionError):
            queue.push(object(), session)
        queue.release(session)
        assert session.inflight == 0
        queue.push(object(), session)  # slot is usable again
        queue.release(session)
        queue.release(session)  # over-release clamps at zero
        assert session.inflight == 0

    def test_queue_rejects_after_close(self):
        queue = JobQueue(max_depth=4)
        queue.close()
        session = SessionRegistry().get_or_create()
        with pytest.raises(AdmissionError) as rejected:
            queue.push(object(), session)
        assert rejected.value.reason == "closed"


class TestFifoQueue:
    """Queue ordering: strict FIFO pops and arrival-order drains."""

    @staticmethod
    def _session():
        return SessionRegistry().get_or_create()

    def test_pops_in_submission_order(self):
        queue = JobQueue(max_depth=8)
        session = self._session()
        jobs = [SimpleNamespace(tag=i) for i in range(5)]
        for job in jobs:
            queue.push(job, session)
        assert [queue.pop(0.1).tag for _ in jobs] == [0, 1, 2, 3, 4]

    def test_drain_returns_arrival_order(self):
        queue = JobQueue(max_depth=8)
        session = self._session()
        for tag in ("a", "b", "c"):
            queue.push(SimpleNamespace(tag=tag), session)
        assert queue.pop(0.1).tag == "a"
        queue.push(SimpleNamespace(tag="d"), session)
        assert [job.tag for job in queue.drain()] == ["b", "c", "d"]
        assert queue.depth == 0


class TestPlanValidation:
    def test_unknown_layer_is_rejected_and_never_cached(self, manager, trained):
        """A plan overriding a layer the model lacks is refused at submit:
        it is neither evaluated as the default plan nor cached as a hit."""
        first = trained.model.conv_dense_nodes()[0].name
        accurate = ExecutionPlan.uniform(AccurateProduct())
        bogus = accurate.with_layer("conv_does_not_exist", PerforatedProduct(3))
        valid = accurate.with_layer(first, PerforatedProduct(3))
        with pytest.raises(ValueError, match="conv_does_not_exist"):
            manager.submit(0, [accurate, bogus, valid])
        stats = manager.stats()
        assert stats["jobs"]["submitted"] == 0
        assert stats["cache"]["entries"] == 0
        assert stats["cache"]["hits"] == stats["cache"]["misses"] == 0


class TestCachePersistence:
    def test_write_through_and_warm_load(self, tmp_path):
        cache = ResultCache(persist_dir=str(tmp_path))
        cache.put("k1", 0.25)
        cache.put("k2", 0.75)
        records = sorted(tmp_path.glob("*.json"))
        assert [record.stem for record in records] == ["k1", "k2"]
        assert json.loads(records[0].read_text()) == {
            "kind": "result-cache",
            "accuracy": 0.25,
        }
        warm = ResultCache(persist_dir=str(tmp_path))
        assert len(warm) == 2
        assert warm.loaded == 2
        assert warm.get("k1") == 0.25
        stats = warm.stats()
        assert stats["persist_path"] == str(tmp_path)
        assert stats["loaded"] == 2

    def test_eviction_trims_memory_but_keeps_the_disk_record(self, tmp_path):
        bounded = ResultCache(max_entries=1, persist_dir=str(tmp_path))
        bounded.put("a", 0.1)
        bounded.put("b", 0.2)  # evicts "a" from memory
        assert bounded.get("a") is None
        unbounded = ResultCache(persist_dir=str(tmp_path))
        assert unbounded.get("a") == 0.1
        assert unbounded.get("b") == 0.2

    def test_restarted_manager_serves_the_same_sweep_fully_cached(
        self, trained, tiny_dataset, tmp_path
    ):
        persist = str(tmp_path / "cache")
        cold = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, cache_persist_dir=persist
        )
        with LocalJobClient(cold) as client:
            first, totals_cold = sweep_over_jobs(client, perforations=(1, 2))
        assert totals_cold["cache_misses"] == totals_cold["cells"]
        # "Restart the daemon": a fresh manager over the same persist dir.
        warm = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, cache_persist_dir=persist
        )
        with LocalJobClient(warm) as client:
            stats = client.stats()
            assert stats["cache"]["loaded"] == totals_cold["cells"]
            second, totals_warm = sweep_over_jobs(client, perforations=(1, 2))
            stats = client.stats()
        assert totals_warm["cache_hits"] == totals_warm["cells"]
        assert totals_warm["cache_misses"] == 0
        assert stats["cache"]["hit_ratio"] == 1.0
        assert second.baselines == first.baselines
        assert second.records == first.records


class TestGracefulClose:
    def test_close_cancels_queued_jobs_and_unlinks_stores(
        self, trained, tiny_dataset
    ):
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            auto_start=False,
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        # One direct evaluation starts the pool, which publishes (the store
        # handles exist only once the engine has published), then jobs
        # pile up unserved because the dispatcher never started.
        manager.service.evaluate_plans(0, plan)
        queued = [manager.submit(0, plan, session=f"s{i}") for i in range(3)]
        handles = manager.service.shared_store_handles()
        assert handles, "service published no shared blocks"
        manager.close()
        for job in queued:
            assert job.state is JobState.CANCELLED
            assert manager.job(job.id).view()["state"] == "cancelled"
        for kind, name in handles:
            if kind == "shm":
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            else:
                assert not os.path.exists(name)
        stats = manager.stats()
        assert stats["jobs"]["cancelled"] == 3

    def test_close_is_idempotent_and_submit_after_close_rejects(self, manager):
        manager.close()
        manager.close()
        with pytest.raises(AdmissionError) as rejected:
            manager.submit(0, [ExecutionPlan.uniform(AccurateProduct())])
        assert rejected.value.reason == "closed"


class TestStatsSchema:
    def test_manager_stats_schema(self, manager):
        stats = manager.stats()
        assert stats["schema"] == "repro-runtime-stats/v1.4"
        assert {"requested_workers", "workers"} <= set(stats["engine"])
        assert {"submitted", "completed", "rejected", "depth"} <= set(stats["jobs"])
        assert {"hits", "misses", "evictions", "hit_ratio"} <= set(stats["cache"])
        assert isinstance(stats["sessions"], dict)

    def test_session_ledger_records_job_cells(self, trained, tiny_dataset, tmp_path):
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            ledger_dir=str(tmp_path),
        )
        try:
            with LocalJobClient(manager, own_manager=False) as client:
                job_id = client.submit_job(
                    0, [ExecutionPlan.uniform(PerforatedProduct(1))], session="alice"
                )
                client.wait(job_id, timeout=120)
        finally:
            manager.close()
        # One <plan_key>.json record in the session's own namespace.
        records = list((tmp_path / "alice").glob("*.json"))
        assert len(records) == 1
        payload = json.loads(records[0].read_text())
        assert payload["kind"] == "job-cell"
        assert isinstance(payload["accuracy"], float)
