"""Tests of the unified evaluation runtime (:mod:`repro.runtime`).

The acceptance criteria of the subsystem live here:

* **service-vs-serial parity** — randomized plan sets scored through an
  :class:`~repro.runtime.service.EvaluationService` are bit-exact with the
  in-process :meth:`~repro.dse.evaluator.PlanEvaluator.evaluate` and with
  :func:`~repro.simulation.campaign.plan_sweep`;
* **graceful shutdown** — a forced worker failure, a SIGKILLed worker
  (and a ``KeyboardInterrupt`` on the serial path) still drains the
  workers and unlinks every shared-memory block: no leaked ``/dev/shm``
  segments;
* **image shares** — every pool worker takes the whole batch on its own
  contiguous range of the images, bit-exact with serial also when the
  images do not divide among the workers or are fewer than them;
* **one BLAS thread per pool worker** — workers pin numpy's OpenBLAS to
  one thread in their initializer;
* **parallel DSE campaigns** — ``run_campaign(workers=N)`` produces a
  Pareto front identical (same points, bit-exact accuracies) to the
  serial campaign, and shares ledger records with it (resume performs
  zero duplicate evaluations);
* **multi-model sessions** — one service hosting several models serves
  cells of all of them, bit-exactly.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.shared_store import SharedArrayStore
from repro.dse import (
    CampaignLedger,
    PlanEvaluator,
    ServicePlanEvaluator,
    get_strategy,
    run_campaign,
)
from repro.runtime import (
    EvaluationService,
    contiguous_chunks,
    resolve_worker_count,
    schedule_cells,
    sizing,
)
from repro.simulation.campaign import TrainedModel, plan_sweep
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    PerforatedProduct,
    ProductModel,
)

pytestmark = pytest.mark.runtime


class ExplodingProduct(ProductModel):
    """Product model whose evaluation always fails — forces a worker failure.

    Module-level so it pickles into pool workers; the failure happens at
    product-sum time, i.e. inside a worker process on the pool path.
    """

    def product_sums(self, act_codes, weight_codes, control_variate):
        raise RuntimeError("forced worker failure")

    def fingerprint(self) -> tuple:
        return ("exploding",)


class StallingProduct(ProductModel):
    """Product model that parks its worker mid-chunk until it is killed.

    Publishes the evaluating process's pid at ``pid_path`` (atomically, so
    a reader never sees a partial write), then sleeps far longer than any
    test waits: the failure-injection test SIGKILLs that pid mid-chunk.
    """

    def __init__(self, pid_path: str):
        self.pid_path = pid_path

    def product_sums(self, act_codes, weight_codes, control_variate):
        partial = self.pid_path + ".partial"
        with open(partial, "w") as handle:
            handle.write(str(os.getpid()))
        os.replace(partial, self.pid_path)
        time.sleep(60.0)
        raise RuntimeError("stalled worker was never killed")

    def fingerprint(self) -> tuple:
        return ("stalling",)


class InterruptingProduct(ProductModel):
    """Product model raising KeyboardInterrupt mid-batch (serial path only)."""

    def product_sums(self, act_codes, weight_codes, control_variate):
        raise KeyboardInterrupt

    def fingerprint(self) -> tuple:
        return ("interrupting",)


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


def _random_plans(trained, count: int, seed: int) -> list[ExecutionPlan]:
    """Randomized per-layer plan set (the shapes a DSE batch produces)."""
    rng = np.random.default_rng(seed)
    mac_names = [node.name for node in trained.model.conv_dense_nodes()]
    menu = [
        None,  # accurate
        PerforatedProduct(1),
        PerforatedProduct(2),
        PerforatedProduct(2, use_control_variate=False),
        PerforatedProduct(3),
    ]
    plans = [ExecutionPlan.uniform(AccurateProduct())]
    while len(plans) < count:
        plan = ExecutionPlan.uniform(AccurateProduct())
        for name in mac_names:
            choice = menu[int(rng.integers(0, len(menu)))]
            if choice is not None:
                plan = plan.with_layer(name, choice)
        plans.append(plan)
    return plans


def _assert_no_leaked_stores(handles: list[tuple[str, str]]) -> None:
    """Every published block must be gone after close()."""
    assert handles, "service published no shared blocks"
    for kind, name in handles:
        if kind == "shm":
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        else:
            assert not os.path.exists(name)


class TestServiceParity:
    def test_service_bit_exact_with_evaluator_and_plan_sweep(
        self, trained, tiny_dataset
    ):
        """Randomized plan sets: service == in-process evaluator == plan_sweep."""
        plans = _random_plans(trained, count=6, seed=11)
        datasets = {tiny_dataset.name: tiny_dataset}
        kwargs = dict(max_eval_images=24, calibration_images=32)
        with EvaluationService(
            [trained], datasets, max_workers=2, **kwargs
        ) as service:
            via_service = service.evaluate_plans(0, plans)
        serial = PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)
        swept = plan_sweep(
            [trained],
            datasets,
            [(f"p{i}", plan) for i, plan in enumerate(plans)],
            max_workers=1,
            **kwargs,
        )
        assert via_service == serial  # bit-exact, no tolerance
        assert via_service == [record.accuracy for record in swept]

    def test_service_evaluator_drop_in_matches_plan_evaluator(
        self, trained, tiny_dataset
    ):
        """ServicePlanEvaluator mirrors PlanEvaluator: accuracies, context
        key (ledger compatibility) and MAC layer names."""
        plans = _random_plans(trained, count=4, seed=3)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        serial = PlanEvaluator(trained, tiny_dataset, **kwargs)
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **kwargs
        ) as service:
            backed = ServicePlanEvaluator(service, 0)
            assert backed.context_key() == serial.context_key()
            assert backed.mac_layer_names() == serial.mac_layer_names()
            assert backed.evaluate(plans) == serial.evaluate(plans)
            assert backed.evaluations == serial.evaluations == len(plans)

    def test_multi_model_session(self, trained, tiny_dataset):
        """One service hosting several models serves cells of all of them."""
        second = TrainedModel(
            name="vgg13-bis",
            dataset_name=tiny_dataset.name,
            model=trained.model,
            float_accuracy=0.0,
        )
        plans = _random_plans(trained, count=3, seed=7)
        cells = [(index, plan) for index in (0, 1) for plan in plans]
        kwargs = dict(max_eval_images=24, calibration_images=32)
        with EvaluationService(
            [trained, second],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            **kwargs,
        ) as service:
            assert service.model_index("vgg13-bis") == 1
            accuracies = service.evaluate_cells(cells)
        expected = PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)
        assert accuracies == expected + expected  # both hosted models agree

    def test_worker_calibrates_each_model_once_with_one_live_working_set(
        self, trained, tiny_dataset
    ):
        """Segments of models A, B, A, B build two executors, not four; the
        executor switched away from holds no activation buffers or compiled
        kernels, and every correct count over the 24 images gives a fresh
        executor's accuracy."""
        from repro.runtime import worker

        second = TrainedModel(
            name="vgg13-bis",
            dataset_name=tiny_dataset.name,
            model=trained.model,
            float_accuracy=0.0,
        )
        plans = _random_plans(trained, count=3, seed=11)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        state: dict = {}
        worker.init_worker_state(
            state,
            [trained, second],
            {tiny_dataset.name: tiny_dataset},
            kwargs["max_eval_images"],
            kwargs["calibration_images"],
        )
        accuracies = []
        for step, model_index in enumerate((0, 1, 0, 1)):
            cells = [(model_index, plan) for plan in plans]
            counts = worker.eval_cell_chunk(state, cells)
            accuracies.append([count / 24 for count in counts])
            active = state["executors"][model_index]
            assert active._act_buffers and active._kernels
            if step:
                idle = state["executors"][1 - model_index]
                assert not idle._act_buffers and not idle._kernels
                assert len(idle._blocks) == 0
        assert state["executor_builds"] == 2
        expected = PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)
        assert accuracies == [expected] * 4

    def _pooled_tasks(self, service, cells):
        """Accuracies of ``cells`` plus the ``(cells, worker, workers)`` of
        every task the pool received."""
        tasks: list[tuple[int, int, int]] = []
        submit = service._pool.submit

        def recording_submit(task, schedule, worker, workers):
            tasks.append((len(schedule), worker, workers))
            return submit(task, schedule, worker, workers)

        service._pool.submit = recording_submit
        return service.evaluate_cells(cells), tasks

    def test_pool_splits_each_batch_by_image_ranges_bit_exact(
        self, trained, tiny_dataset
    ):
        """A pool batch goes to every worker whole, each on its own
        contiguous image range (25 images: 12 and 13), which changes only
        *where* images run: accuracies are bit-exact with the in-process
        evaluator and returned in submission order, and each worker fuses
        the whole batch, as the serial path does."""
        plans = _random_plans(trained, count=9, seed=29)
        kwargs = dict(max_eval_images=25, calibration_images=32)
        datasets = {tiny_dataset.name: tiny_dataset}
        with EvaluationService([trained], datasets, max_workers=2, **kwargs) as service:
            pooled, tasks = self._pooled_tasks(service, [(0, plan) for plan in plans])
            stats = service.stats()
        with EvaluationService([trained], datasets, max_workers=1, **kwargs) as service:
            assert service.evaluate_plans(0, plans) == pooled
            serial_stats = service.stats()
        serial = PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)
        assert pooled == serial  # bit-exact AND input-ordered
        assert tasks == [(len(plans), 0, 2), (len(plans), 1, 2)]
        assert (
            stats["engine"]["plans_per_launch_avg"]
            == serial_stats["engine"]["plans_per_launch_avg"]
        )
        assert stats["schema"] == "repro-runtime-stats/v1.4"

    def test_fewer_images_than_workers_skips_the_empty_shares(
        self, trained, tiny_dataset
    ):
        """2 images on 3 workers: worker 0's range is empty and it gets no
        task; the two others score one image each, bit-exact with serial."""
        second = TrainedModel(
            name="vgg13-bis",
            dataset_name=tiny_dataset.name,
            model=trained.model,
            float_accuracy=0.0,
        )
        plans = _random_plans(trained, count=3, seed=5)
        cells = [(index, plan) for plan in plans for index in (1, 0)]
        kwargs = dict(max_eval_images=2, calibration_images=16)
        with EvaluationService(
            [trained, second],
            {tiny_dataset.name: tiny_dataset},
            max_workers=3,
            **kwargs,
        ) as service:
            pooled, tasks = self._pooled_tasks(service, cells)
        expected = PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)
        assert pooled == [accuracy for accuracy in expected for _ in range(2)]
        assert tasks == [(len(cells), 1, 3), (len(cells), 2, 3)]

    def test_empty_and_single_cell_batches(self, trained, tiny_dataset):
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=1,
            max_eval_images=8,
            calibration_images=16,
        ) as service:
            assert service.evaluate_cells([]) == []
            only = service.evaluate_plans(
                0, [ExecutionPlan.uniform(PerforatedProduct(2))]
            )
            assert len(only) == 1 and 0.0 <= only[0] <= 1.0


class TestServiceLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self, trained, tiny_dataset):
        service = EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=8,
            calibration_images=16,
        )
        service.start()
        handles = service.shared_store_handles()
        assert service.nbytes_shared() > 0
        service.close()
        service.close()  # idempotent
        _assert_no_leaked_stores(handles)
        with pytest.raises(RuntimeError):
            service.submit([(0, ExecutionPlan.uniform(AccurateProduct()))])
        with pytest.raises(RuntimeError):
            service.start()

    def test_validation_errors(self, trained, tiny_dataset):
        datasets = {tiny_dataset.name: tiny_dataset}
        with pytest.raises(ValueError, match="positive integer"):
            EvaluationService([trained], datasets, max_workers=0)
        with pytest.raises(ValueError, match="at least one trained model"):
            EvaluationService([], datasets)
        with pytest.raises(ValueError, match="no dataset published"):
            EvaluationService([trained], {})
        with EvaluationService(
            [trained], datasets, max_workers=1, max_eval_images=8
        ) as service:
            with pytest.raises(IndexError):
                service.evaluate_plans(5, [ExecutionPlan.uniform(AccurateProduct())])
            with pytest.raises(KeyError):
                service.model_index("resnet44")

    def test_plan_naming_an_unknown_layer_is_rejected(self, trained, tiny_dataset):
        """An override of a layer the model lacks must not be evaluated as
        the plan's default."""
        first = trained.model.conv_dense_nodes()[0].name
        bogus = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            "conv_does_not_exist", PerforatedProduct(3)
        )
        valid = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            first, PerforatedProduct(3)
        )
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=1, max_eval_images=8
        ) as service:
            with pytest.raises(ValueError, match="conv_does_not_exist"):
                service.evaluate_plans(0, [valid, bogus])
            assert service.cells_submitted == 0
            assert len(service.evaluate_plans(0, [valid])) == 1

    def test_forced_worker_failure_propagates_and_unlinks(
        self, trained, tiny_dataset
    ):
        """A worker dying mid-batch surfaces the error; close() still drains
        the pool and unlinks every shared block (no /dev/shm leak)."""
        poison = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            trained.model.conv_dense_nodes()[0].name, ExplodingProduct()
        )
        healthy = ExecutionPlan.uniform(PerforatedProduct(2))
        service = EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=8,
            calibration_images=16,
        )
        try:
            service.start()
            handles = service.shared_store_handles()
            with pytest.raises(RuntimeError, match="forced worker failure"):
                service.evaluate_plans(0, [healthy, poison])
        finally:
            service.close()
        _assert_no_leaked_stores(handles)
        # The pool survives a clean close after the failure: a fresh service
        # can publish into shared memory again (names never collided).
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=1,
            max_eval_images=8,
            calibration_images=16,
        ) as fresh:
            assert fresh.evaluate_plans(0, [healthy])

    def test_failed_batch_reraises_original_error_not_cancellation(
        self, trained, tiny_dataset
    ):
        """Collecting a failed batch twice re-raises the *original* failure.

        The first ``results()`` cancels the batch's remaining futures; a
        second call used to surface their ``CancelledError`` and mask the
        root cause.  The batch now caches the first failure and re-raises
        that exact exception on every later collection.
        """
        poison = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            trained.model.conv_dense_nodes()[0].name, ExplodingProduct()
        )
        healthy = ExecutionPlan.uniform(PerforatedProduct(2))
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=8,
            calibration_images=16,
        ) as service:
            batch = service.submit([(0, plan) for plan in (healthy, poison)])
            with pytest.raises(RuntimeError, match="forced worker failure") as first:
                batch.results()
            with pytest.raises(RuntimeError, match="forced worker failure") as again:
                batch.results()
            assert again.value is first.value  # cached, not a CancelledError

    def test_sigkilled_worker_breaks_the_batch_and_close_unlinks(
        self, trained, tiny_dataset, tmp_path
    ):
        """Failure injection: SIGKILL one pool worker mid-chunk.

        ``results()`` raises ``BrokenProcessPool`` promptly (long before the
        stalled chunk would have finished), a second ``results()`` re-raises
        the same exception object, and ``close()`` returns and unlinks every
        shared block.
        """
        pid_path = str(tmp_path / "stalled-worker.pid")
        stall = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            trained.model.conv_dense_nodes()[0].name, StallingProduct(pid_path)
        )
        healthy = ExecutionPlan.uniform(PerforatedProduct(2))
        service = EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=8,
            calibration_images=16,
        )
        try:
            service.start()
            handles = service.shared_store_handles()
            batch = service.submit([(0, healthy), (0, stall)])
            deadline = time.monotonic() + 30.0
            while not os.path.exists(pid_path):
                assert time.monotonic() < deadline, "no worker reached the stall"
                time.sleep(0.01)
            with open(pid_path) as handle:
                os.kill(int(handle.read()), signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(BrokenProcessPool) as first:
                batch.results()
            assert time.monotonic() - started < 5.0
            with pytest.raises(BrokenProcessPool) as again:
                batch.results()
            assert again.value is first.value
        finally:
            started = time.monotonic()
            service.close()
            close_s = time.monotonic() - started
        assert close_s < 5.0
        _assert_no_leaked_stores(handles)

    def test_keyboard_interrupt_in_sweep_unlinks_stores(
        self, trained, tiny_dataset, monkeypatch
    ):
        """KeyboardInterrupt mid-sweep (raised in a pool worker, re-raised
        by the host) still tears the service down: every published block
        is unlinked on the way out."""
        unlinked: list[SharedArrayStore] = []
        original = SharedArrayStore.unlink

        def tracking_unlink(self):
            unlinked.append(self)
            return original(self)

        monkeypatch.setattr(SharedArrayStore, "unlink", tracking_unlink)
        poison = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            trained.model.conv_dense_nodes()[0].name, InterruptingProduct()
        )
        healthy = ExecutionPlan.uniform(PerforatedProduct(2))
        # plan_sweep clamps to the schedulable CPUs: run a pool on any host.
        monkeypatch.setattr(sizing, "effective_cpu_count", lambda: 2)
        with pytest.raises(KeyboardInterrupt):
            plan_sweep(
                [trained],
                {tiny_dataset.name: tiny_dataset},
                [("healthy", healthy), ("poison", poison)],
                max_workers=2,
                max_eval_images=8,
                calibration_images=16,
            )
        # Both blocks (models + datasets) released despite the interrupt.
        assert len(unlinked) >= 2
        for store in unlinked:
            if store.kind == "shm":
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=store.name)
            else:
                assert not os.path.exists(store.name)


class TestPoolWorkerBlasThreads:
    def test_pool_workers_pin_blas_to_one_thread(self, trained, tiny_dataset):
        """Each worker reads back one OpenBLAS thread through the library's
        getter; starting a pool leaves the host's count alone (the host
        pins only before its own first sharded walk)."""
        host_threads = sizing.blas_thread_count()
        if host_threads is None:
            pytest.skip("numpy's BLAS exposes no thread-count getter")
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=8,
            calibration_images=16,
        ) as service:
            futures = [
                service._pool.submit(sizing.blas_thread_count) for _ in range(8)
            ]
            worker_threads = {future.result() for future in futures}
        assert worker_threads == {1}
        assert sizing.blas_thread_count() == host_threads

    def test_pool_without_a_blas_setter_starts_and_stays_bit_exact(
        self, trained, tiny_dataset, monkeypatch
    ):
        """When the setter lookup finds nothing the pin is a no-op: the pool
        still starts and its accuracies stay bit-exact with the evaluator."""
        monkeypatch.setattr(sizing, "_openblas_thread_calls", lambda: None)
        plans = _random_plans(trained, count=4, seed=13)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **kwargs
        ) as service:
            pooled = service.evaluate_plans(0, plans)
            # The forked workers inherited the failing lookup.
            assert service._pool.submit(sizing.blas_thread_count).result() is None
        assert pooled == PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)


class TestParallelCampaign:
    def test_workers_produce_identical_front_and_share_ledger(
        self, trained, tiny_dataset, tmp_path
    ):
        """run_campaign(workers=2) == workers=1: same Pareto points with
        bit-exact accuracies, and the parallel path writes ledger records
        the serial path replays verbatim (context keys match)."""
        kwargs = dict(
            strategy="greedy",
            max_loss=0.5,
            budget_evals=10,
            max_eval_images=24,
            calibration_images=32,
            array_size=64,
        )
        serial = run_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(tmp_path / "serial")),
            workers=1,
            **kwargs,
        )
        parallel = run_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(tmp_path / "parallel")),
            workers=2,
            **kwargs,
        )
        assert parallel.front.points() == serial.front.points()
        assert parallel.baseline_accuracy == serial.baseline_accuracy
        assert parallel.stats["evaluations"] == serial.stats["evaluations"]
        # The request is visible verbatim; the effective pool size is the
        # request clamped to the schedulable CPUs (degrade-to-serial: on a
        # 1-CPU host the "parallel" campaign runs the serial path).
        assert parallel.stats["requested_workers"] == 2
        assert parallel.stats["workers"] == resolve_worker_count(2)
        # Ledger compatibility: a serial resume over the parallel run's
        # ledger replays every parallel record — the context keys of both
        # evaluators are identical.
        resumed = run_campaign(
            trained,
            tiny_dataset,
            ledger=CampaignLedger(str(tmp_path / "parallel")),
            workers=1,
            resume=True,
            **kwargs,
        )
        assert resumed.stats["ledger_replays"] == parallel.stats["evaluations"]

    def test_external_multi_model_service_backs_campaigns(
        self, trained, tiny_dataset
    ):
        """Sequential campaigns share one externally managed service pool."""
        second = TrainedModel(
            name="vgg13-bis",
            dataset_name=tiny_dataset.name,
            model=trained.model,
            float_accuracy=0.0,
        )
        kwargs = dict(
            strategy="greedy",
            max_loss=0.5,
            budget_evals=6,
            max_eval_images=24,
            calibration_images=32,
            array_size=64,
        )
        with EvaluationService(
            [trained, second],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=24,
            calibration_images=32,
        ) as service:
            first = run_campaign(trained, tiny_dataset, service=service, **kwargs)
            bis = run_campaign(second, tiny_dataset, service=service, **kwargs)
            assert service.batches_submitted >= 2
        assert service.closed
        # Identical model + dataset: the campaigns must agree bit-exactly.
        assert first.front.points() == bis.front.points()

    def test_nsga2_pipelined_breeding_front_identical_to_serial(
        self, trained, tiny_dataset
    ):
        """NSGA-II with pipelined breeding (sub-batches scored while the
        next ones breed) lands on the identical front at any worker count:
        the candidate stream and every accuracy are bit-exact vs serial."""
        kwargs = dict(
            max_loss=0.5,
            budget_evals=24,
            max_eval_images=24,
            calibration_images=32,
            array_size=64,
        )
        serial = run_campaign(
            trained,
            tiny_dataset,
            strategy=get_strategy("nsga2", population=6, generations=2),
            rng=np.random.default_rng(5),
            workers=1,
            **kwargs,
        )
        # An explicit external service exercises the true pool path even on
        # a 1-CPU host (the degrade-to-serial clamp applies to workers=N
        # requests, not to a caller-managed service).
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=24,
            calibration_images=32,
        ) as service:
            pooled = run_campaign(
                trained,
                tiny_dataset,
                strategy=get_strategy("nsga2", population=6, generations=2),
                rng=np.random.default_rng(5),
                service=service,
                **kwargs,
            )
        assert pooled.front.points() == serial.front.points()
        assert pooled.stats["evaluations"] == serial.stats["evaluations"]
        assert pooled.baseline_accuracy == serial.baseline_accuracy

    def test_invalid_workers_rejected(self, trained, tiny_dataset):
        with pytest.raises(ValueError, match="positive integer"):
            run_campaign(trained, tiny_dataset, workers=0, array_size=64)

    def test_external_service_rejects_conflicting_knobs(self, trained, tiny_dataset):
        """Knobs that would silently diverge from the external service's
        measurement setup are rejected loudly instead of ignored."""
        kwargs = dict(strategy="greedy", max_loss=0.5, budget_evals=2, array_size=64)
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=1,
            max_eval_images=24,
            calibration_images=32,
        ) as service:
            with pytest.raises(ValueError, match="conflict"):
                run_campaign(
                    trained,
                    tiny_dataset,
                    service=service,
                    max_eval_images=8,  # != the service's 24
                    calibration_images=32,
                    **kwargs,
                )
            with pytest.raises(ValueError, match="eval_images"):
                run_campaign(
                    trained,
                    tiny_dataset,
                    service=service,
                    max_eval_images=24,
                    calibration_images=32,
                    eval_images=tiny_dataset.test_images[:8],
                    eval_labels=tiny_dataset.test_labels[:8],
                    **kwargs,
                )


class TestScheduling:
    def test_schedule_cells_groups_models_and_is_stable(self, trained):
        plans = _random_plans(trained, count=5, seed=2)
        mac_names = {
            0: tuple(n.name for n in trained.model.conv_dense_nodes()),
            1: tuple(n.name for n in trained.model.conv_dense_nodes()),
        }
        cells = [(index, plan) for plan in plans for index in (1, 0)]
        order = schedule_cells(cells, mac_names)
        assert sorted(order) == list(range(len(cells)))
        models_in_order = [cells[i][0] for i in order]
        assert models_in_order == sorted(models_in_order)
        # Identical plans keep submission order within a model (stable sort).
        duplicates = [(0, plans[0]), (0, plans[0])]
        dup_order = schedule_cells(duplicates, mac_names)
        assert dup_order == [0, 1]

    def test_contiguous_chunks_cover_schedule_in_order(self):
        schedule = list(range(17))
        for max_chunks in (1, 2, 3, 5, 17, 40):
            chunks = contiguous_chunks(schedule, max_chunks)
            assert sum(chunks, []) == schedule
            assert len(chunks) <= max_chunks
        assert contiguous_chunks([], 4) == []
        with pytest.raises(ValueError):
            contiguous_chunks(schedule, 0)
