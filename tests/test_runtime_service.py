"""Tests of the unified evaluation runtime (:mod:`repro.runtime`).

The acceptance criteria of the subsystem live here:

* **service-vs-serial parity** — randomized plan sets scored through an
  :class:`~repro.runtime.service.EvaluationService` are bit-exact with
  every plan scored on its own fresh executor (the ``fresh_accuracies``
  oracle), with the in-process
  :meth:`~repro.dse.evaluator.PlanEvaluator.evaluate` and with
  :func:`~repro.simulation.campaign.plan_sweep`;
* **one context key** — the job layer, the in-process evaluator and an
  evaluator on a pool report the key of the arrays the workers score;
* **graceful shutdown** — a forced worker failure, a SIGKILLed worker
  and a ``KeyboardInterrupt`` mid-sweep still drain the workers; a pool
  creates no ``/dev/shm`` segment from ``start()`` through ``close()``
  (its forked workers inherit the models and datasets);
* **hosted objects reach the workers** — forked workers score bit-exact
  with the models and datasets made unpicklable, and a host without fork
  pickles them to spawned workers with the same results;
* **image shares** — every pool worker takes the whole batch on its own
  contiguous range of the images, bit-exact with serial also when the
  images do not divide among the workers or are fewer than them;
* **one BLAS thread per pool worker** — workers pin numpy's OpenBLAS to
  one thread in their initializer;
* **parallel DSE campaigns** — ``run_campaign(service=...)`` on a worker
  pool produces a Pareto front identical (same points, bit-exact
  accuracies) to the serial campaign, and shares ledger records with it
  (resume performs zero duplicate evaluations);
* **multi-model sessions** — one service hosting several models serves
  cells of all of them, bit-exactly.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

from repro.datasets.synthetic import Dataset
from repro.dse import (
    CampaignLedger,
    PlanEvaluator,
    build_campaign_service,
    evaluation_context_key,
    get_strategy,
    run_campaign,
)
from repro.runtime import (
    EvaluationService,
    contiguous_chunks,
    resolve_worker_count,
    sizing,
)
from repro.runtime.jobs import JobManager
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


class TestServiceParity:
    def test_service_bit_exact_with_evaluator_and_plan_sweep(
        self, trained, tiny_dataset, fresh_accuracies
    ):
        """Randomized plan sets: a pool service, the in-process evaluator and
        plan_sweep all equal every plan scored on its own fresh executor."""
        plans = _random_plans(trained, count=6, seed=11)
        datasets = {tiny_dataset.name: tiny_dataset}
        kwargs = dict(max_eval_images=24, calibration_images=32)
        with EvaluationService(
            [trained], datasets, max_workers=2, **kwargs
        ) as service:
            via_service = service.evaluate_plans(0, plans)
        expected = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
        serial = PlanEvaluator(trained, tiny_dataset, **kwargs).evaluate(plans)
        swept = plan_sweep(
            [trained],
            datasets,
            [(f"p{i}", plan) for i, plan in enumerate(plans)],
            max_workers=1,
            **kwargs,
        )
        assert via_service == expected  # bit-exact, no tolerance
        assert serial == expected
        assert [record.accuracy for record in swept] == expected

    def test_plan_evaluator_on_a_pool_matches_in_process_and_oracle(
        self, trained, tiny_dataset, fresh_accuracies
    ):
        """PlanEvaluator on a 2-worker service agrees with the in-process
        PlanEvaluator and with the independent oracles on accuracies,
        context key (ledger compatibility), MAC layer names and the
        evaluation count."""
        plans = _random_plans(trained, count=4, seed=3)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        in_process = PlanEvaluator(trained, tiny_dataset, **kwargs)
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **kwargs
        ) as service:
            pooled = PlanEvaluator(trained, tiny_dataset, service=service)
            key = evaluation_context_key(
                trained.model,
                tiny_dataset.test_images[:24],
                tiny_dataset.test_labels[:24],
                tiny_dataset.train_images[:32],
                tag=tiny_dataset.name,
            )
            assert pooled.context_key() == in_process.context_key() == key
            mac_names = [node.name for node in trained.model.conv_dense_nodes()]
            assert pooled.mac_layer_names() == in_process.mac_layer_names() == mac_names
            expected = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
            assert pooled.evaluate(plans) == in_process.evaluate(plans) == expected
            assert pooled.evaluations == in_process.evaluations == len(plans)
            # In process, the executor is the one that scored the plans, so
            # reading it costs no second calibration; a pool scores in its
            # workers and the evaluator builds an idle one of its own.
            assert in_process.executor.fused_stats()["fused_launches"] > 0
            assert in_process.service.stats()["engine"]["executor_builds"] == 1
            assert pooled.executor.fused_stats()["fused_launches"] == 0
            assert pooled.executor is pooled.executor

    @pytest.mark.parametrize("setup", ["cap", "subsample"])
    def test_context_keys_agree_across_scoring_paths(
        self, trained, tiny_dataset, setup
    ):
        """One recipe: the job layer, the in-process PlanEvaluator and a
        PlanEvaluator on a 2-worker service all report the key of the arrays
        the workers score, on a max_eval_images cap and on an explicit
        evaluation subset (hosted as the service dataset's test split)."""
        if setup == "cap":
            knobs = dict(max_eval_images=24)
            images, labels = tiny_dataset.test_images[:24], tiny_dataset.test_labels[:24]
            hosted = tiny_dataset
        else:
            picks = np.array([1, 4, 9, 16, 25, 36])
            images, labels = tiny_dataset.test_images[picks], tiny_dataset.test_labels[picks]
            knobs = dict(eval_images=images, eval_labels=labels)
            hosted = dataclasses.replace(tiny_dataset, test_images=images, test_labels=labels)
        key = evaluation_context_key(
            trained.model, images, labels, tiny_dataset.train_images[:32], tag=hosted.name
        )
        setup_knobs = dict(
            max_eval_images=knobs.get("max_eval_images"), calibration_images=32
        )
        in_process = PlanEvaluator(trained, tiny_dataset, calibration_images=32, **knobs)
        pool = EvaluationService(
            [trained], {hosted.name: hosted}, max_workers=2, **setup_knobs
        )
        pooled = PlanEvaluator(trained, tiny_dataset, service=pool)
        manager = JobManager(
            [trained], {hosted.name: hosted}, auto_start=False, **setup_knobs
        )
        try:
            assert manager.context_key(0) == key
        finally:
            manager.close()
        assert in_process.context_key() == pooled.context_key() == key
        assert not pool.started  # the key needs no worker

    def test_multi_model_session(self, trained, tiny_dataset, fresh_accuracies):
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
        expected = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
        assert accuracies == expected + expected  # both hosted models agree

    def test_worker_calibrates_each_model_once_with_one_live_working_set(
        self, trained, tiny_dataset, fresh_accuracies
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
        expected = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
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
        self, trained, tiny_dataset, fresh_accuracies
    ):
        """A pool batch goes to every worker whole, each on its own
        contiguous image range (25 images: 12 and 13), which changes only
        *where* images run: accuracies are bit-exact with the in-process
        oracle and returned in submission order, and each worker fuses
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
        serial = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
        assert pooled == serial  # bit-exact AND input-ordered
        assert tasks == [(len(plans), 0, 2), (len(plans), 1, 2)]
        assert (
            stats["engine"]["plans_per_launch_avg"]
            == serial_stats["engine"]["plans_per_launch_avg"]
        )
        assert stats["schema"] == "repro-runtime-stats/v1.7"

    def test_fewer_images_than_workers_skips_the_empty_shares(
        self, trained, tiny_dataset, fresh_accuracies
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
        expected = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
        assert pooled == [accuracy for accuracy in expected for _ in range(2)]
        assert tasks == [(len(cells), 1, 3), (len(cells), 2, 3)]

    def test_empty_and_single_cell_batches(self, trained, tiny_dataset):
        knobs = dict(max_eval_images=8, calibration_images=16)
        pool = EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **knobs
        )
        try:
            evaluator = PlanEvaluator(trained, tiny_dataset, service=pool)
            assert evaluator.evaluate([]) == []
            # An empty batch publishes nothing and spawns no worker.
            assert not pool.started
        finally:
            pool.close()
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
    def test_close_is_idempotent_and_rejects_new_work(
        self, trained, tiny_dataset, shm_entries
    ):
        """A 2-worker service creates no /dev/shm segment while its workers
        run, leaves none behind, and a closed service rejects new work."""
        before = shm_entries()
        service = EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=2,
            max_eval_images=8,
            calibration_images=16,
        )
        service.start()
        assert service.evaluate_plans(0, [ExecutionPlan.uniform(AccurateProduct())])
        assert shm_entries() == before
        service.close()
        service.close()  # idempotent
        assert shm_entries() == before
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
        with pytest.raises(ValueError, match="no dataset hosted"):
            EvaluationService([trained], {})
        with EvaluationService(
            [trained], datasets, max_workers=1, max_eval_images=8
        ) as service:
            with pytest.raises(IndexError):
                service.evaluate_plans(5, [ExecutionPlan.uniform(AccurateProduct())])
            with pytest.raises(KeyError):
                service.model_index("resnet44")

    def test_default_worker_count_is_serial(self, trained, tiny_dataset):
        """A service built without a count runs in process: nothing sizes a
        pool from the host or its load."""
        service = EvaluationService([trained], {tiny_dataset.name: tiny_dataset})
        assert service.max_workers == 1 and service.serial
        assert service.session_context()["workers"] == 1
        assert service.stats()["engine"]["workers"] == 1

    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_eval_images": -5},
            {"max_eval_images": 0},
            {"calibration_images": 0},
            {"calibration_images": -3},
        ],
        ids=lambda knobs: "{}={}".format(*next(iter(knobs.items()))),
    )
    def test_measurement_counts_below_one_are_rejected(
        self, trained, tiny_dataset, knobs
    ):
        """A count below 1 would slice the wrong images (``[:-5]`` drops
        the last five, ``[:0]`` keeps none and divides by zero later): the
        service refuses it at construction, and so every path built on it."""
        (name,) = knobs
        datasets = {tiny_dataset.name: tiny_dataset}
        for build in (
            lambda: EvaluationService([trained], datasets, **knobs),
            lambda: JobManager([trained], datasets, auto_start=False, **knobs),
            lambda: PlanEvaluator(trained, tiny_dataset, **knobs),
        ):
            with pytest.raises(ValueError, match=f"{name} must be at least 1"):
                build()

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

    def test_forced_worker_failure_propagates_and_leaves_no_shm(
        self, trained, tiny_dataset, shm_entries
    ):
        """A worker dying mid-batch surfaces the error; close() still drains
        the pool, and /dev/shm is left as it was."""
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
        before = shm_entries()
        try:
            service.start()
            with pytest.raises(RuntimeError, match="forced worker failure"):
                service.evaluate_plans(0, [healthy, poison])
        finally:
            service.close()
        assert shm_entries() == before
        # The failure leaves nothing behind: a fresh service evaluates.
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

    def test_sigkilled_worker_breaks_the_batch_and_close_returns(
        self, trained, tiny_dataset, tmp_path, shm_entries
    ):
        """Failure injection: SIGKILL one pool worker mid-chunk.

        ``results()`` raises ``BrokenProcessPool`` promptly (long before the
        stalled chunk would have finished), a second ``results()`` re-raises
        the same exception object, and ``close()`` returns promptly and
        leaves /dev/shm as it was.
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
        before = shm_entries()
        try:
            service.start()
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
        assert shm_entries() == before

    def test_keyboard_interrupt_in_sweep_closes_the_pool(
        self, trained, tiny_dataset, monkeypatch
    ):
        """KeyboardInterrupt mid-sweep (raised in a pool worker, re-raised
        by the host) still tears the service down: the sweep's service is
        closed on the way out and none of its workers outlives it."""
        closed: list[EvaluationService] = []
        workers: list = []
        original = EvaluationService.close

        def tracking_close(self):
            closed.append(self)
            if self._pool is not None:  # close() joins and forgets them
                workers.extend(self._pool._processes.values())
            return original(self)

        monkeypatch.setattr(EvaluationService, "close", tracking_close)
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
        # The pool service was closed despite the interrupt, and every one
        # of its workers has exited.
        assert closed and all(service.closed for service in closed)
        assert workers, "the sweep ran no pool"
        assert not any(worker.is_alive() for worker in workers)


def _refuse_pickling(self, protocol):
    raise pickle.PicklingError(f"{type(self).__name__} was pickled")


class TestHostedObjectsReachWorkers:
    """Pool workers receive the service's own models and datasets through
    the pool initializer: forked workers inherit them, and a host without
    fork pickles them to each worker."""

    def test_forked_workers_inherit_models_and_datasets_unpickled(
        self, trained, tiny_dataset, monkeypatch, fresh_accuracies
    ):
        """With the model, its graph and the dataset made unpicklable, a
        2-worker pool still scores bit-exact: none of them crosses a pipe."""
        plans = _random_plans(trained, count=4, seed=17)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        expected = fresh_accuracies(trained, tiny_dataset, plans, **kwargs)
        for cls in (TrainedModel, type(trained.model), Dataset):
            monkeypatch.setattr(cls, "__reduce_ex__", _refuse_pickling)
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(tiny_dataset)
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **kwargs
        ) as service:
            pooled = service.evaluate_plans(0, plans)
            assert service._pool._mp_context.get_start_method() == "fork"
        assert pooled == expected

    def test_a_host_without_fork_pickles_them_with_the_same_results(
        self, trained, tiny_dataset, monkeypatch, fresh_accuracies
    ):
        """Where fork is missing the pool starts with the platform default
        (``spawn`` here): the initializer's models and datasets are pickled
        to each worker, and the accuracies stay bit-exact."""
        import multiprocessing

        service_module = sys.modules[EvaluationService.__module__]
        monkeypatch.setattr(
            service_module,
            "multiprocessing",
            SimpleNamespace(
                get_all_start_methods=lambda: ["spawn"],
                get_context=lambda method=None: multiprocessing.get_context(
                    method or "spawn"
                ),
            ),
        )
        plans = _random_plans(trained, count=4, seed=19)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **kwargs
        ) as service:
            pooled = service.evaluate_plans(0, plans)
            assert service._pool._mp_context.get_start_method() == "spawn"
        assert pooled == fresh_accuracies(trained, tiny_dataset, plans, **kwargs)


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
        self, trained, tiny_dataset, monkeypatch, fresh_accuracies
    ):
        """When the setter lookup finds nothing the pin is a no-op: the pool
        still starts and its accuracies stay bit-exact with the oracle."""
        monkeypatch.setattr(sizing, "_openblas_thread_calls", lambda: None)
        plans = _random_plans(trained, count=4, seed=13)
        kwargs = dict(max_eval_images=24, calibration_images=32)
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **kwargs
        ) as service:
            pooled = service.evaluate_plans(0, plans)
            # The forked workers inherited the failing lookup.
            assert service._pool.submit(sizing.blas_thread_count).result() is None
        assert pooled == fresh_accuracies(trained, tiny_dataset, plans, **kwargs)


class TestParallelCampaign:
    def test_workers_produce_identical_front_and_share_ledger(
        self, trained, tiny_dataset, tmp_path
    ):
        """A campaign on a 2-worker service == one on the in-process
        evaluator: same Pareto points with bit-exact accuracies, and the
        pool writes ledger records the serial path replays verbatim
        (context keys match)."""
        knobs = dict(max_eval_images=24, calibration_images=32)
        kwargs = dict(strategy="greedy", max_loss=0.5, budget_evals=10, array_size=64)
        serial = run_campaign(
            trained,
            tiny_dataset,
            evaluator=PlanEvaluator(trained, tiny_dataset, **knobs),
            ledger=CampaignLedger(str(tmp_path / "serial")),
            **kwargs,
        )
        service = build_campaign_service([trained], tiny_dataset, 2, **knobs)
        try:
            parallel = run_campaign(
                trained,
                tiny_dataset,
                service=service,
                ledger=CampaignLedger(str(tmp_path / "parallel")),
                **kwargs,
            )
        finally:
            service.close()
        assert parallel.front.points() == serial.front.points()
        assert parallel.baseline_accuracy == serial.baseline_accuracy
        assert parallel.stats["evaluations"] == serial.stats["evaluations"]
        # The pool size is the request clamped to the schedulable CPUs
        # (degrade-to-serial: on a 1-CPU host the "parallel" campaign runs
        # the serial path).
        assert serial.stats["workers"] == 1
        assert parallel.stats["workers"] == resolve_worker_count(2)
        # Ledger compatibility: a serial resume over the parallel run's
        # ledger replays every parallel record — the context keys of both
        # evaluators are identical.
        resumed = run_campaign(
            trained,
            tiny_dataset,
            evaluator=PlanEvaluator(trained, tiny_dataset, **knobs),
            ledger=CampaignLedger(str(tmp_path / "parallel")),
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
        kwargs = dict(strategy="greedy", max_loss=0.5, budget_evals=6, array_size=64)
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

    def test_nsga2_pool_front_identical_to_serial(self, trained, tiny_dataset):
        """NSGA-II, each generation scored as one batch, lands on the
        identical front on a worker pool: the candidate stream and every
        accuracy are bit-exact vs serial."""
        knobs = dict(max_eval_images=24, calibration_images=32)
        kwargs = dict(max_loss=0.5, budget_evals=24, array_size=64)
        serial = run_campaign(
            trained,
            tiny_dataset,
            strategy=get_strategy("nsga2", population=6, generations=2),
            rng=np.random.default_rng(5),
            evaluator=PlanEvaluator(trained, tiny_dataset, **knobs),
            **kwargs,
        )
        # An explicit service exercises the true pool path even on a 1-CPU
        # host (the degrade-to-serial clamp applies where a count is
        # requested, not to a caller-built service).
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_workers=2, **knobs
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
        """A worker count is a positive integer where a campaign service is
        built; ``None`` is not a count."""
        with pytest.raises(ValueError, match="positive integer"):
            build_campaign_service([trained], tiny_dataset, 0)
        with pytest.raises(TypeError):
            build_campaign_service([trained], tiny_dataset, None)

    def test_external_service_rejects_conflicting_knobs(self, trained, tiny_dataset):
        """On a given service the service's measurement setup is the one
        used: any knob passed alongside it is rejected by name, even one
        that matches the service, instead of being ignored or mirrored."""
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=1,
            max_eval_images=24,
            calibration_images=32,
        ) as service:
            with pytest.raises(ValueError, match="^max_eval_images cannot be combined"):
                PlanEvaluator(trained, tiny_dataset, service=service, max_eval_images=8)
            with pytest.raises(ValueError, match="^calibration_images cannot"):
                PlanEvaluator(trained, tiny_dataset, service=service, calibration_images=32)
            with pytest.raises(ValueError, match="^eval_images, eval_labels cannot"):
                PlanEvaluator(
                    trained,
                    tiny_dataset,
                    service=service,
                    eval_images=tiny_dataset.test_images[:8],
                    eval_labels=tiny_dataset.test_labels[:8],
                )
            assert service.batches_submitted == 0

    def test_campaign_scores_on_the_evaluator_or_the_service(self, trained, tiny_dataset):
        """run_campaign takes the evaluator or the service it scores on,
        never both, and refuses before scoring anything."""
        with EvaluationService(
            [trained], {tiny_dataset.name: tiny_dataset}, max_eval_images=8
        ) as service:
            evaluator = PlanEvaluator(trained, tiny_dataset, service=service)
            with pytest.raises(ValueError, match="evaluator or service, not both"):
                run_campaign(
                    trained,
                    tiny_dataset,
                    evaluator=evaluator,
                    service=service,
                    array_size=64,
                )
            assert service.batches_submitted == 0


class TestScheduling:
    def test_contiguous_chunks_cover_schedule_in_order(self):
        schedule = list(range(17))
        for max_chunks in (1, 2, 3, 5, 17, 40):
            chunks = contiguous_chunks(schedule, max_chunks)
            assert sum(chunks, []) == schedule
            assert len(chunks) <= max_chunks
        assert contiguous_chunks([], 4) == []
        with pytest.raises(ValueError):
            contiguous_chunks(schedule, 0)
