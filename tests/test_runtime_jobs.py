"""Tests of the jobs layer (:mod:`repro.runtime.jobs`).

The acceptance criteria of the job-oriented re-architecture live here:

* **job-vs-direct parity** — plan sets submitted as jobs (and the Table III
  sweep rebuilt on the job API) are bit-exact with the engine's direct
  ``evaluate_plans`` and with :func:`~repro.simulation.campaign.
  accuracy_sweep`;
* **service-level result cache** — duplicate cells across jobs from *any*
  client are cache hits: two concurrent clients submitting overlapping
  plan sets get bit-identical results, the overlap served from cache, with
  hit/miss counters in ``stats()``; a job whose every cell is cached is
  ``done`` when ``submit`` returns (never queued, still refused once the
  service is closed), and each cell lookup is counted once; a full disk
  under the persistent write-through fails that job, not the dispatcher;
* **admission control** — a bounded queue rejects with reason
  ``queue_full`` (the bound counts waiting jobs, not the running one),
  rejections never corrupt counters, and one session may have any number
  of jobs in flight (the Table III sweep submits twelve before its first
  wait);
* **session tags** — a job carries the session its client chose; a tag
  that is not a string or breaks the id pattern is refused at submit;
* **graceful close** — ``close()`` with jobs still queued cancels them
  (state ``cancelled``) and drains the dispatcher, a 2-worker engine
  leaves ``/dev/shm`` as it found it, and submissions racing ``close()``
  (cache hits or misses) end ``done`` or ``cancelled`` with consistent
  counters;
* **one stats schema** — the :mod:`repro.runtime.stats` docstring names
  exactly the keys each section reports, and :data:`STATS_KEYS` pins that
  key set to the schema version;
* **wire codec** — plans round-trip through JSON with identical
  fingerprints (perforation, control-variate flag, LUT bytes), so
  content-addressed cell keys survive transport, and a perforated payload
  whose ``m`` is not a JSON integer or whose control-variate flag is not a
  JSON boolean is a codec error, never coerced; on arbitrary JSON the
  decoder returns plans that round-trip or raises a codec error, nothing
  else (hypothesis).
"""

from __future__ import annotations

import base64
import dataclasses
import errno
import itertools
import json
import os
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.common import sweep_jobs_local
from repro.multipliers.library import MultiplierLibrary
from repro.runtime.jobs import (
    AdmissionError,
    Job,
    JobManager,
    JobQueue,
    JobState,
    LocalJobClient,
    PlanCodecError,
    ResultCache,
    decode_plan,
    decode_plans,
    encode_plan,
    encode_plans,
    sweep_over_jobs,
)
from repro.runtime.stats import STATS_SCHEMA
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


def _nth_plan(mac_names, index: int) -> ExecutionPlan:
    """The ``index``-th of a sequence of distinct plans: the base-4 digits
    of ``index`` perforate each layer by ``m = digit`` (0 keeps it
    accurate)."""
    plan = ExecutionPlan.uniform(AccurateProduct())
    for name in mac_names:
        index, digit = divmod(index, 4)
        if digit:
            plan = plan.with_layer(name, PerforatedProduct(digit))
    return plan


#: Arbitrary JSON documents (NaN and the infinities included, which
#: ``json.loads`` accepts too).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

#: The exact 8-bit product grid on the wire: a valid LUT table payload.
EXACT_TABLE = base64.b64encode(
    np.outer(np.arange(256), np.arange(256)).astype(np.int64).tobytes()
).decode("ascii")

#: Product payloads near the wire format: every field either plausible or
#: arbitrary JSON, so some decode and most do not.
PRODUCT_PAYLOADS = (
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["accurate", "perforated", "lut", "warp-drive"]) | JSON_VALUES},
        optional={
            "m": st.integers(-1, 8) | JSON_VALUES,
            "use_control_variate": st.booleans() | JSON_VALUES,
            "table": st.sampled_from([EXACT_TABLE, "", "AAAA", "not base64!"]) | JSON_VALUES,
            "name": st.text(max_size=8) | JSON_VALUES,
        },
    )
    | JSON_VALUES
)

PLANS_PAYLOADS = (
    st.lists(
        st.fixed_dictionaries(
            {"default": PRODUCT_PAYLOADS},
            optional={
                "per_layer": st.dictionaries(st.text(max_size=6), PRODUCT_PAYLOADS, max_size=3)
                | JSON_VALUES
            },
        )
        | JSON_VALUES,
        max_size=3,
    )
    | JSON_VALUES
)


class TestCodec:
    def test_arbitrary_json_round_trips_or_is_a_codec_error(self):
        """``decode_plans`` on any JSON document either returns plans whose
        wire encoding decodes to the same fingerprints, or raises
        :class:`PlanCodecError` — never another exception."""
        outcomes: set[str] = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(payload=PLANS_PAYLOADS)
        def decode(payload):
            payload = json.loads(json.dumps(payload))
            try:
                plans = decode_plans(payload)
            except PlanCodecError:
                outcomes.add("refused")
                return
            outcomes.add("decoded")
            again = decode_plans(json.loads(json.dumps(encode_plans(plans))))
            assert len(again) == len(plans)
            for plan, copy in zip(plans, again):
                names = (*sorted(plan.per_layer), "<default>")
                assert copy.fingerprints(names) == plan.fingerprints(names)

        decode()
        assert outcomes == {"decoded", "refused"}

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
    def test_hit_and_miss_counters(self):
        cache = ResultCache()
        assert cache.get("a") is None
        cache.put("a", 0.5)
        cache.put("b", 0.0)
        assert cache.get("a") == 0.5
        assert cache.get("b") == 0.0  # a zero accuracy is a hit, not a miss
        assert cache.get("c") is None
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert stats["hit_ratio"] == 0.5


class TestSessionTags:
    def test_the_job_and_its_view_carry_the_session(self, manager):
        job = manager.submit(0, [ExecutionPlan.uniform(AccurateProduct())], session="alice")
        assert job.wait(timeout=120)
        assert job.session_id == "alice"
        assert job.view()["session"] == "alice"

    @pytest.mark.parametrize(
        "session, error",
        [
            ("../escape", ValueError),
            ("", ValueError),
            ("x" * 65, ValueError),
            (None, TypeError),
            (7, TypeError),
        ],
        ids=["path", "empty", "too-long", "none", "int"],
    )
    def test_bad_session_ids_are_rejected(self, manager, session, error):
        with pytest.raises(error, match="session"):
            manager.submit(0, [ExecutionPlan.uniform(AccurateProduct())], session=session)
        assert manager.stats()["jobs"]["submitted"] == 0


class TestJobParity:
    def test_job_results_match_direct_evaluation(self, manager, trained):
        plans = _plans(trained, 5, seed=21)
        direct = manager.service.evaluate_plans(0, plans)
        client = LocalJobClient(manager)
        view = client.wait(client.submit_job(0, plans), timeout=120)
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
        client = LocalJobClient(manager)
        view = client.wait(client.submit_job(0, [plan, plan, plan]), timeout=120)
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
            client = LocalJobClient(manager)
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


class TestCachedJobsFinishAtSubmit:
    """A job whose every cell is cached ends ``done`` inside ``submit``;
    any other job queues, and each cell lookup is counted once."""

    @staticmethod
    def _record_transitions(monkeypatch) -> list[tuple[str, str]]:
        events: list[tuple[str, str]] = []
        for name in ("mark_running", "finish"):
            original = getattr(Job, name)

            def record(job, *args, _name=name, _original=original, **kwargs):
                events.append((_name, job.id))
                return _original(job, *args, **kwargs)

            monkeypatch.setattr(Job, name, record)
        return events

    def test_fully_cached_job_is_done_when_submit_returns(
        self, manager, trained, monkeypatch
    ):
        plans = _plans(trained, 3, seed=9)
        first = manager.submit(0, plans)
        assert first.wait(timeout=120)
        expected = first.view()["accuracies"]
        events = self._record_transitions(monkeypatch)

        def no_evaluation(model_index, plans):
            raise AssertionError("a fully cached job reached the engine")

        monkeypatch.setattr(manager.service, "evaluate_plans", no_evaluation)
        job = manager.submit(0, plans + plans[:1])  # one cell twice
        assert job.state is JobState.DONE and job.finished
        view = job.view()
        assert view["accuracies"] == expected + expected[:1]
        assert (view["cache_hits"], view["cache_misses"]) == (4, 0)
        assert events == [("mark_running", job.id), ("finish", job.id)]
        stats = manager.stats()
        jobs = stats["jobs"]
        assert jobs["submitted"] == 2
        assert jobs["submitted"] == jobs["completed"] + jobs["failed"] + jobs["cancelled"]
        # The first job's three misses, then one counted hit per distinct cell.
        assert (stats["cache"]["misses"], stats["cache"]["hits"]) == (3, 3)

    @staticmethod
    def _cache(manager, plan: ExecutionPlan, accuracy: float) -> None:
        """Store ``accuracy`` under ``plan``'s cell key (no counted lookup)."""
        from repro.dse.ledger import plan_key

        key = plan_key(manager.context_key(0), plan, manager.service.mac_names(0))
        manager.cache.put(key, accuracy)

    def test_partly_cached_job_queues_and_counts_each_lookup_once(
        self, trained, tiny_dataset, monkeypatch
    ):
        manager = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, auto_start=False
        )
        plans = _plans(trained, 3, seed=11)
        try:
            for plan in plans[:2]:
                self._cache(manager, plan, 0.5)
            events = self._record_transitions(monkeypatch)
            job = manager.submit(0, plans)
            assert job.state is JobState.QUEUED and events == []
            manager.start()
            assert job.wait(timeout=120)
            assert events == [("mark_running", job.id), ("finish", job.id)]
            assert job.view()["accuracies"][:2] == [0.5, 0.5]
            assert (job.cache_hits, job.cache_misses) == (2, 1)
            cache = manager.stats()["cache"]
            assert (cache["misses"], cache["hits"]) == (1, 2)
        finally:
            manager.close()

    def test_a_full_queue_admits_a_fully_cached_job(self, trained, tiny_dataset):
        """Only queued jobs count against the depth: a fully cached job
        never queues, so a full queue still admits it."""
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=1,
            auto_start=False,
        )
        accurate = ExecutionPlan.uniform(AccurateProduct())
        perforated = ExecutionPlan.uniform(PerforatedProduct(2))
        try:
            self._cache(manager, accurate, 0.5)
            queued = manager.submit(0, [perforated])
            cached = manager.submit(0, [accurate])
            assert queued.state is JobState.QUEUED
            assert cached.view()["accuracies"] == [0.5]
            with pytest.raises(AdmissionError) as full:
                manager.submit(0, [perforated])
            assert full.value.reason == "queue_full"
        finally:
            manager.close()

    def test_a_closed_service_refuses_a_fully_cached_job(self, manager):
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        assert manager.submit(0, plan).wait(timeout=120)
        manager.close()
        with pytest.raises(AdmissionError) as rejected:
            manager.submit(0, plan)
        assert rejected.value.reason == "closed"
        stats = manager.stats()
        assert stats["jobs"]["rejected"] == 1
        assert stats["jobs"]["submitted"] == stats["jobs"]["completed"] == 1
        assert stats["cache"]["hits"] == 0  # the refused job counted no lookup


class TestAdmissionControl:
    def test_queue_full_rejections(self, trained, tiny_dataset):
        # auto_start=False: no dispatcher, so queued jobs stay queued and
        # the admission bound is exercised deterministically.
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=2,
            auto_start=False,
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        try:
            manager.submit(0, plan, session="alice")
            manager.submit(0, plan, session="alice")
            with pytest.raises(AdmissionError) as full:
                manager.submit(0, plan, session="bob")
            assert full.value.reason == "queue_full"
            stats = manager.stats()
            assert stats["jobs"]["rejected"] == 1
            assert stats["jobs"]["submitted"] == 2
        finally:
            manager.close()

    def test_one_session_submits_twelve_jobs_before_waiting(
        self, trained, tiny_dataset
    ):
        """The Table III sweep submits one job per hosted model (twelve
        for six networks on two datasets) from one session before its
        first wait: every one is admitted and finishes ``done``."""
        manager = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, auto_start=False
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        try:
            jobs = [manager.submit(0, plan) for _ in range(12)]
            manager.start()
            for job in jobs:
                assert job.wait(timeout=120)
            assert [job.state for job in jobs] == [JobState.DONE] * 12
            assert manager.stats()["jobs"]["completed"] == 12
        finally:
            manager.close()

    def test_twelve_hosted_models_sweep_locally(self, trained, tiny_dataset):
        """``repro table3``'s local path hosts twelve models and sweeps
        them as twelve jobs of one session."""
        datasets = {
            f"{tiny_dataset.name}-{index}": dataclasses.replace(
                tiny_dataset, name=f"{tiny_dataset.name}-{index}"
            )
            for index in range(12)
        }
        models = [
            dataclasses.replace(trained, dataset_name=name) for name in datasets
        ]
        sweep, totals, stats = sweep_jobs_local(
            models, datasets, (1,), 1, max_eval_images=8
        )
        assert totals["jobs"] == 12
        assert stats["jobs"]["completed"] == 12
        assert stats["jobs"]["rejected"] == 0
        assert len(sweep.baselines) == 12

    def test_rejected_submission_never_reuses_a_live_job_id(
        self, trained, tiny_dataset
    ):
        # A rejected submit must burn its minted ID: rolling the sequence
        # back would let the next accepted job overwrite a live one under
        # concurrent submits.
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=1,
            auto_start=False,
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        try:
            first = manager.submit(0, plan)
            with pytest.raises(AdmissionError):
                manager.submit(0, plan)
            assert manager.queue.pop(0.1) is first  # frees the queue slot
            second = manager.submit(0, plan)
            assert second.id != first.id
            assert second.id == "job-000003"  # ID 2 burned by the rejection
            assert manager.job(first.id) is first
            # `submitted` counts accepted jobs only, not minted IDs.
            assert manager.stats()["jobs"]["submitted"] == 2
        finally:
            manager.close()

    def test_a_running_job_does_not_count_against_the_depth(self):
        """``max_depth`` (``repro serve --queue-depth``) bounds the jobs that
        wait in the queue: a popped, running job has left it, so its slot
        admits the next job."""
        queue = JobQueue(max_depth=1)
        queue.push("first")
        with pytest.raises(AdmissionError) as full:
            queue.push("second")
        assert full.value.reason == "queue_full"
        assert queue.pop(0.1) == "first"  # the dispatcher runs it
        queue.push("second")
        assert queue.depth == 1

    def test_queue_rejects_after_close(self):
        queue = JobQueue(max_depth=4)
        queue.close()
        with pytest.raises(AdmissionError) as rejected:
            queue.push(object())
        assert rejected.value.reason == "closed"


class TestFifoQueue:
    """Queue ordering: strict FIFO pops and arrival-order drains."""

    def test_pops_in_submission_order(self):
        queue = JobQueue(max_depth=8)
        jobs = [SimpleNamespace(tag=i) for i in range(5)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop(0.1).tag for _ in jobs] == [0, 1, 2, 3, 4]

    def test_drain_returns_arrival_order(self):
        queue = JobQueue(max_depth=8)
        for tag in ("a", "b", "c"):
            queue.push(SimpleNamespace(tag=tag))
        assert queue.pop(0.1).tag == "a"
        queue.push(SimpleNamespace(tag="d"))
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

    def test_enospc_write_through_fails_the_job_not_the_dispatcher(
        self, trained, tiny_dataset, tmp_path, monkeypatch
    ):
        """A full disk under the cache's write-through fails that job with
        a one-line ``OSError``; the dispatcher lives on and runs the next
        job to ``done``, and no temp file is left behind.  The failed
        accuracy was never cached: resubmitted, the plan is evaluated
        again (one miss) and its record reaches the disk, where a
        restarted manager finds it."""
        persist = tmp_path / "cache"
        replace = os.replace
        refused: list[str] = []

        def no_space_once(src, dst):
            if not refused:
                refused.append(dst)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
            return replace(src, dst)

        mac_names = [node.name for node in trained.model.conv_dense_nodes()]
        manager = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, cache_persist_dir=str(persist)
        )
        monkeypatch.setattr(os, "replace", no_space_once)
        try:
            failed = manager.submit(0, [_nth_plan(mac_names, 1)])
            assert failed.wait(timeout=120)
            assert failed.state is JobState.FAILED
            assert failed.error.splitlines()[0].startswith("OSError: [Errno 28] ")
            done = manager.submit(0, [_nth_plan(mac_names, 2)])
            assert done.wait(timeout=120)
            assert done.state is JobState.DONE
            again = manager.submit(0, [_nth_plan(mac_names, 1)])
            assert again.wait(timeout=120)
            assert again.state is JobState.DONE
            assert (again.cache_hits, again.cache_misses) == (0, 1)
        finally:
            manager.close()
        assert len(refused) == 1
        assert sorted(path.name for path in persist.iterdir()) == sorted(
            f"{job.keys[0]}.json" for job in (done, again)
        )
        assert ResultCache(persist_dir=str(persist)).loaded == 2


class TestGracefulClose:
    def test_close_cancels_queued_jobs_and_leaves_no_shm(
        self, trained, tiny_dataset, shm_entries
    ):
        before = shm_entries()
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            auto_start=False,
        )
        plan = [ExecutionPlan.uniform(AccurateProduct())]
        # One direct evaluation starts the pool's workers, then jobs pile
        # up unserved because the dispatcher never started.
        manager.service.evaluate_plans(0, plan)
        queued = [manager.submit(0, plan, session=f"s{i}") for i in range(3)]
        manager.close()
        for job in queued:
            assert job.state is JobState.CANCELLED
            assert manager.job(job.id).view()["state"] == "cancelled"
        assert shm_entries() == before
        stats = manager.stats()
        assert stats["jobs"]["cancelled"] == 3

    @pytest.mark.parametrize("cached", [True, False], ids=["cache-hits", "cache-misses"])
    def test_submit_racing_close_loses_no_job(self, trained, tiny_dataset, cached):
        """Eight threads submit while ``close()`` runs: every accepted job
        ends ``done`` or ``cancelled`` (none stays queued), the counters
        add up, and no job id is handed out twice.  Cache hits finish
        inside ``submit``, so none is cancelled; misses queue behind the
        dispatcher, and ``close()`` cancels those still waiting."""
        manager = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, max_queue_depth=100_000
        )
        accurate = [ExecutionPlan.uniform(AccurateProduct())]
        # One finished job first: with `cached`, every racing job repeats it.
        warm = manager.submit(0, accurate)
        assert warm.wait(timeout=120)
        mac_names = manager.service.mac_names(0)
        fresh = itertools.count(1)  # a never-submitted plan per racing miss
        accepted: list[list] = [[] for _ in range(8)]
        reasons: list[str] = []
        streaming = threading.Event()

        def submitter(index: int) -> None:
            # Submit until refused; close() refuses each thread once.  The
            # bound turns a close() that refuses nothing into a failure
            # below instead of an endless loop.
            for _ in range(5_000):
                plans = accurate if cached else [_nth_plan(mac_names, next(fresh))]
                try:
                    job = manager.submit(0, plans, session=f"s{index}")
                except AdmissionError as error:
                    reasons.append(error.reason)
                    return
                accepted[index].append(job)
                if sum(map(len, accepted)) >= 200:
                    streaming.set()

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
        try:
            for thread in threads:
                thread.start()
            assert streaming.wait(timeout=120)
            manager.close()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        jobs = [warm] + [job for batch in accepted for job in batch]
        assert reasons == ["closed"] * 8
        states = {job.state for job in jobs}
        if cached:
            assert states == {JobState.DONE}
        else:
            assert states == {JobState.DONE, JobState.CANCELLED}
        assert len({job.id for job in jobs}) == len(jobs)
        stats = manager.stats()["jobs"]
        assert stats["submitted"] == len(jobs)
        assert stats["submitted"] == (
            stats["completed"] + stats["failed"] + stats["cancelled"]
        )
        assert stats["failed"] == 0
        assert "queued" not in stats["by_state"]
        assert stats["rejected"] == len(reasons)

    def test_close_is_idempotent_and_submit_after_close_rejects(self, manager):
        manager.close()
        manager.close()
        with pytest.raises(AdmissionError) as rejected:
            manager.submit(0, [ExecutionPlan.uniform(AccurateProduct())])
        assert rejected.value.reason == "closed"


#: The keys each section of a stats payload carries, per schema version
#: (the engine section as the in-process path reports it).  Dropping or
#: renaming a key without a new ``STATS_SCHEMA`` fails the table test: a
#: key gets a new name when its meaning changes, and a new version a new
#: row.
STATS_KEYS = {
    "repro-runtime-stats/v1.7": {
        "engine": {
            "workers",
            "models",
            "datasets",
            "batches_submitted",
            "cells_submitted",
            "fused_launches",
            "fused_plans_total",
            "plans_per_launch_avg",
            "executor_builds",
            "cells_evaluated",
        },
        "jobs": {
            "submitted",
            "completed",
            "failed",
            "cancelled",
            "rejected",
            "by_state",
            "depth",
            "max_depth",
        },
        "cache": {"entries", "hits", "misses", "hit_ratio", "loaded", "persist_path"},
    },
}


class TestStatsSchema:
    def test_manager_stats_schema(self, manager):
        stats = manager.stats()
        assert stats["schema"] == "repro-runtime-stats/v1.7"
        assert set(stats) == {"schema", "engine", "jobs", "cache"}

    def test_emitted_keys_match_the_schema_table(self, manager, trained):
        client = LocalJobClient(manager)
        client.wait(client.submit_job(0, _plans(trained, count=2, seed=5)), timeout=120)
        stats = manager.stats()
        expected = STATS_KEYS[STATS_SCHEMA]
        assert set(stats) - {"schema"} == set(expected)
        for section, keys in expected.items():
            assert set(stats[section]) == keys, section

    @pytest.mark.parametrize("section", ["engine", "jobs", "cache"])
    def test_stats_docstring_names_every_emitted_key(self, manager, trained, section):
        """The :mod:`repro.runtime.stats` docstring lists exactly the keys
        each section reports (the in-process engine's included)."""
        import repro.runtime.stats

        documented = {}
        for bullet in repro.runtime.stats.__doc__.split("\n* ")[1:]:
            names = re.findall(r"``(\w+)``", bullet)
            documented[names[0]] = set(names[1:]) - {"None"}
        client = LocalJobClient(manager)
        client.wait(client.submit_job(0, _plans(trained, count=2, seed=5)), timeout=120)
        assert set(manager.stats()[section]) == documented[section]
