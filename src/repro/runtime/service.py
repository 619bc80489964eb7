"""`EvaluationService`: the persistent, prefix-aware evaluation runtime.

Every sweep and DSE campaign in this repo reduces to the same operation —
score many per-layer approximation plans against trained models.  The
service is the one execution path behind all of them:

* **inherited, not copied** — pool workers are forked wherever ``fork``
  exists, so they inherit the hosted models and datasets copy-on-write
  and N workers read one copy of the bytes (a host without ``fork``
  pickles them to each worker once, with the same results);
* **persistent workers** — one process pool outlives every submitted
  batch: executors stay calibrated, kernels stay compiled, and successive
  DSE generations or sweep batches pay zero per-batch setup;
* **prefix-aware scheduling** — submitted cells are ordered with the
  fingerprint schedule of :mod:`repro.runtime.scheduling`, so plans
  sharing a layer prefix are adjacent and each model segment rides one
  multi-plan walk that runs that prefix once;
* **image shares, not plan chunks** — on the pool path every worker
  takes the whole schedule on its own contiguous range of each model's
  evaluation images (:func:`~repro.runtime.worker.image_range`) and
  returns per-cell correct counts, which :meth:`EvaluationBatch.results`
  sums and divides by the image count.  Every worker fuses the whole plan
  batch, the work splits evenly whatever the plans cost, and no cost
  model is needed.  Inside every process the executor splits its images
  again into one shard thread per core the process owns, each on one
  BLAS thread (:mod:`repro.runtime.sizing`), so the host runs one busy
  thread per core on the serial path and in the pool alike;
* **bit-exact** — every accuracy the service returns is identical to
  evaluating the same plan on a fresh in-process executor (pinned by the
  parity suite): every operation from the input to the logits is
  per-image, and ``count / n`` is the correctly rounded accuracy.

Lifecycle::

    with EvaluationService(models, datasets, max_workers=4) as service:
        accuracies = service.evaluate_plans(0, plans)        # blocking
        batch = service.submit([(0, plan_a), (1, plan_b)])   # async
        accuracies = batch.results()                          # input order

``close()`` (or leaving the ``with`` block, normally *or* via an exception
such as :class:`KeyboardInterrupt`) drains the workers and cancels queued
tasks, even when a worker failed mid-batch.

``max_workers=1`` degenerates to a fully in-process serial path with no
multiprocessing overhead (the same worker code runs against a service-
private state dict), which keeps the service usable as the *only* execution
path: callers never branch on worker count.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.datasets.synthetic import Dataset
# contiguous_chunks, cost_balanced_chunks, plan_group_slices and
# shared_prefix_depths are unused here but stay importable: perfbench's
# span hooks resolve them by this module's path.
from repro.runtime.scheduling import (  # noqa: F401
    contiguous_chunks,
    cost_balanced_chunks,
    model_mac_names,
    plan_group_slices,
    schedule_cells,
    shared_prefix_depths,
)
from repro.runtime.worker import (
    STAT_COUNTERS,
    _eval_cell_chunk_task,
    _init_pool_worker,
    eval_arrays,
    eval_cell_chunk,
    executor_for,
    image_range,
    init_worker_state,
)
from repro.simulation.inference import EVAL_BATCH_SIZE, ApproximateExecutor, ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.simulation.campaign import TrainedModel


class EvaluationBatch:
    """Handle of one submitted cell batch; resolves to input-order accuracies.

    Returned by :meth:`EvaluationService.submit`.  ``order`` maps schedule
    positions to submission indices and ``images[i]`` is the evaluation
    image count of the cell at schedule position ``i``.  Each worker's
    result is a list of per-cell correct counts in schedule order, on its
    own share of the images; :meth:`results` sums them and divides by the
    image count.  On the pool path the workers run asynchronously —
    :meth:`results` blocks until every one is done, cancelling the rest of
    the batch on the first failure (including :class:`KeyboardInterrupt`)
    so the service drains instead of churning through doomed work.  The
    first failure is cached: every later :meth:`results` call re-raises
    *it*, not the ``CancelledError`` of the tasks the cleanup cancelled.
    Pool tasks return ``(counts, counters)`` pairs; each counter delta is
    folded into the service's aggregated worker counters as the task
    completes.
    """

    def __init__(
        self,
        order: list[int],
        images: list[int],
        counts: list[list[int]] | None,
        futures: "list[Future] | None",
        counters_sink: "Callable[[dict[str, int]], None] | None" = None,
    ):
        self._order = order
        self._images = images
        self._counts = counts
        self._futures = futures
        self._counters_sink = counters_sink
        self._failure: BaseException | None = None

    def __len__(self) -> int:
        return len(self._order)

    def results(self) -> list[float]:
        """Accuracies in the *submission* order of the batch's cells."""
        if self._failure is not None:
            raise self._failure
        if self._counts is None:
            collected: list[list[int]] = []
            try:
                for future in self._futures:
                    counts, counters = future.result()
                    collected.append(counts)
                    if self._counters_sink is not None:
                        self._counters_sink(counters)
            except BaseException as exc:
                # First failure (worker exception, KeyboardInterrupt, ...):
                # stop feeding the pool — queued tasks are dead weight —
                # and remember the cause so repeated results() calls see it
                # instead of the CancelledError of the tasks we cancel.
                for future in self._futures:
                    future.cancel()
                self._failure = exc
                self._futures = None
                raise
            self._counts = collected
            self._futures = None
        ordered: list[float] = [0.0] * len(self._order)
        for schedule_pos, cell_index in enumerate(self._order):
            correct = sum(counts[schedule_pos] for counts in self._counts)
            ordered[cell_index] = correct / self._images[schedule_pos]
        return ordered


class EvaluationService:
    """Persistent prefix-aware worker service scoring ``(model, plan)`` cells.

    Parameters
    ----------
    trained_models:
        The models the session hosts; cells reference them by index (see
        :meth:`model_index`).  A multi-model session (e.g. all six
        reference networks x both datasets) serves every sweep and
        campaign from the same pool.
    datasets:
        ``{name: Dataset}`` covering every ``TrainedModel.dataset_name``
        (calibration reads the train split's head, evaluation the test
        split).
    max_workers:
        Worker process count, honored verbatim; ``1`` (the default) runs
        fully in-process.  The degrade-to-serial clamp of
        :func:`~repro.runtime.sizing.resolve_worker_count` applies where a
        request enters the system (the CLI, ``build_campaign_service``,
        ``plan_sweep``), not here.
    max_eval_images / calibration_images:
        As in :func:`repro.simulation.campaign.plan_sweep` — they select
        the measurement setup every worker reproduces.  Each must be at
        least 1 (``max_eval_images=None`` evaluates the whole test split);
        anything else is a :class:`ValueError` here, before a slice such
        as ``[:-5]`` or ``[:0]`` could pick the wrong images.

    The serial path hands the models and datasets to its worker state
    directly; pool workers receive the same objects through the pool
    initializer (:meth:`start`).
    """

    def __init__(
        self,
        trained_models: "Iterable[TrainedModel]",
        datasets: dict[str, Dataset],
        *,
        max_workers: int = 1,
        max_eval_images: int | None = None,
        calibration_images: int = 128,
    ):
        self.models = list(trained_models)
        if not self.models:
            raise ValueError("EvaluationService needs at least one trained model")
        self.datasets = dict(datasets)
        missing = sorted(
            {t.dataset_name for t in self.models} - set(self.datasets)
        )
        if missing:
            raise ValueError(f"no dataset hosted for: {missing}")
        if int(max_workers) < 1:
            raise ValueError(
                f"max_workers must be a positive integer, got {max_workers}"
            )
        self.max_workers = int(max_workers)
        if max_eval_images is not None and max_eval_images < 1:
            raise ValueError(f"max_eval_images must be at least 1, got {max_eval_images}")
        if calibration_images < 1:
            raise ValueError(
                f"calibration_images must be at least 1, got {calibration_images}"
            )
        self.max_eval_images = max_eval_images
        self.calibration_images = int(calibration_images)

        self._worker_counters = {counter: 0 for counter in STAT_COUNTERS}
        self._counters_lock = threading.Lock()
        self._mac_names = {
            index: model_mac_names(trained)
            for index, trained in enumerate(self.models)
        }
        # Evaluation images per hosted model: what the pool's image split divides.
        self._image_counts = [
            len(self.evaluation_arrays(index)[1]) for index in range(len(self.models))
        ]
        self._context_keys: dict[int, str] = {}
        self._context_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._serial_state: dict | None = None
        self._started = False
        self._closed = False
        self.cells_submitted = 0
        self.batches_submitted = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def serial(self) -> bool:
        """Whether the service runs fully in-process (``max_workers == 1``)."""
        return self.max_workers == 1

    @property
    def started(self) -> bool:
        return self._started

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "EvaluationService":
        """Build the in-process worker state or the worker pool (idempotent)."""
        if self._closed:
            raise RuntimeError("EvaluationService is closed")
        if self._started:
            return self
        setup = (self.max_eval_images, self.calibration_images)
        if self.serial:
            self._serial_state = {}
            init_worker_state(self._serial_state, self.models, self.datasets, *setup)
        else:
            # Forked workers inherit the models and datasets copy-on-write,
            # never pickled; without fork they are pickled to each worker.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context("fork" if "fork" in methods else None)
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_init_pool_worker,
                initargs=(self.max_workers, self.models, self.datasets, *setup),
            )
        self._started = True
        return self

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Drain workers, cancel queued tasks, drop the in-process state.

        Idempotent, and safe to call at any point of the lifecycle —
        including from an exception path such as :class:`KeyboardInterrupt`
        or after a worker failure: running tasks are waited out and queued
        tasks are cancelled.
        """
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if self._serial_state is not None:
            # Drop the in-process executors and their buffers.
            self._serial_state.clear()
            self._serial_state = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def model_index(self, name: str, dataset_name: str | None = None) -> int:
        """Index of one hosted model by name (and dataset, when ambiguous)."""
        matches = [
            index
            for index, trained in enumerate(self.models)
            if trained.name == name
            and (dataset_name is None or trained.dataset_name == dataset_name)
        ]
        if not matches:
            raise KeyError(f"service hosts no model {name!r} (dataset={dataset_name!r})")
        if len(matches) > 1:
            raise KeyError(
                f"model {name!r} is hosted for several datasets; pass dataset_name"
            )
        return matches[0]

    def mac_names(self, model_index: int) -> tuple[str, ...]:
        """MAC layer names of one hosted model, in execution order."""
        return self._mac_names[model_index]

    def evaluation_arrays(self, model_index: int):
        """``(images, labels)`` every worker scores one hosted model on."""
        trained = self.models[model_index]
        return eval_arrays(self.datasets[trained.dataset_name], self.max_eval_images)

    def context_key(self, model_index: int) -> str:
        """Ledger context digest of one hosted model's measurement setup.

        The one place the evaluation-context recipe
        (:func:`repro.dse.ledger.evaluation_context_key`) is applied: it
        hashes the trained parameters, the arrays the workers evaluate
        (:meth:`evaluation_arrays`) and the calibration slice, so DSE
        ledgers, the job layer's cache keys and ``/models`` agree.  Cached
        per model; safe to call from several threads.
        """
        # Imported here: repro.dse imports repro.runtime.
        from repro.dse.ledger import evaluation_context_key

        model_index = int(model_index)
        with self._context_lock:
            key = self._context_keys.get(model_index)
            if key is None:
                trained = self.models[model_index]
                dataset = self.datasets[trained.dataset_name]
                images, labels = self.evaluation_arrays(model_index)
                key = evaluation_context_key(
                    trained.model,
                    images,
                    labels,
                    dataset.train_images[: self.calibration_images],
                    tag=dataset.name,
                )
                self._context_keys[model_index] = key
        return key

    def serial_executor(self, model_index: int) -> ApproximateExecutor:
        """The in-process executor that scores one hosted model's cells.

        Serial path only (a pool scores in its workers): the calibrated
        executor of the service's own worker state, built on first use.
        """
        if not self.serial:
            raise RuntimeError("a pool service has no in-process executor")
        self.start()
        return executor_for(self._serial_state, int(model_index))

    def session_context(self) -> dict:
        """The measurement setup of this session, for run manifests.

        Everything that selects *what* the service measures (hosted models
        and datasets, eval caps, calibration size, batch size — the knobs
        hashed into DSE ledger context keys) plus how it executes (the
        worker count).  JSON-able by construction.
        """
        return {
            "workers": self.max_workers,
            "serial": self.serial,
            "models": [
                {"name": trained.name, "dataset": trained.dataset_name}
                for trained in self.models
            ],
            "datasets": sorted(self.datasets),
            "max_eval_images": self.max_eval_images,
            "calibration_images": self.calibration_images,
            "batch_size": EVAL_BATCH_SIZE,
        }

    def _absorb_worker_counters(self, counters: dict[str, int]) -> None:
        """Fold one task's executor-counter delta into the session totals."""
        with self._counters_lock:
            for key, value in counters.items():
                if key in self._worker_counters:
                    self._worker_counters[key] += int(value)

    def stats(self) -> dict:
        """Counters of the session so far, tagged with ``STATS_SCHEMA``.

        The payload (schema :data:`~repro.runtime.stats.STATS_SCHEMA`, keys
        listed in :mod:`repro.runtime.stats`) nests everything engine-level
        under ``"engine"``, starting with the pool size ``workers`` — the
        schema the jobs layer extends with its ``jobs``/``cache`` sections —
        plus the fused multi-plan launch counters ``fused_launches``,
        ``fused_plans_total`` and ``plans_per_launch_avg`` (``None`` until
        the first fused launch), aggregated across every worker.
        """
        from repro.runtime.stats import runtime_stats

        engine = {
            "workers": self.max_workers,
            "models": len(self.models),
            "datasets": len(self.datasets),
            "batches_submitted": self.batches_submitted,
            "cells_submitted": self.cells_submitted,
        }
        with self._counters_lock:
            counters = dict(self._worker_counters)
        if self._serial_state is not None:
            for counter in STAT_COUNTERS:
                counters[counter] += int(self._serial_state.get(counter, 0))
        engine.update(counters)
        launches = counters["fused_launches"]
        engine["plans_per_launch_avg"] = (
            counters["fused_plans_total"] / launches if launches else None
        )
        if self._serial_state is not None:
            engine["executor_builds"] = self._serial_state.get("executor_builds", 0)
            engine["cells_evaluated"] = self._serial_state.get("cells_evaluated", 0)
        return runtime_stats(engine)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _validate_cells(
        self, cells: Sequence[tuple[int, ExecutionPlan]]
    ) -> list[tuple[int, ExecutionPlan]]:
        validated: list[tuple[int, ExecutionPlan]] = []
        for model_index, plan in cells:
            model_index = int(model_index)
            if not 0 <= model_index < len(self.models):
                raise IndexError(
                    f"model index {model_index} out of range "
                    f"(service hosts {len(self.models)} models)"
                )
            if not isinstance(plan, ExecutionPlan):
                raise TypeError(f"cell plan must be an ExecutionPlan, got {plan!r}")
            plan.check_layers(self._mac_names[model_index])
            validated.append((model_index, plan))
        return validated

    def submit(self, cells: Sequence[tuple[int, ExecutionPlan]]) -> EvaluationBatch:
        """Schedule a batch of ``(model_index, plan)`` cells; returns a handle.

        Cells are ordered with the prefix-aware fingerprint schedule.  The
        serial path evaluates the schedule in-process on every image; on
        the pool path worker ``w`` of ``W`` evaluates the whole schedule
        on images ``[(w*n)//W, ((w+1)*n)//W)`` of each model's ``n``,
        dispatched asynchronously (a worker whose ranges are all empty,
        when ``n < W``, gets no task).  The split never changes what is
        evaluated: every cell runs the same measurement regardless of
        worker count (the bit-exactness contract).  ``batch.results()``
        resolves to accuracies in the cells' *submission* order.  Plans
        overriding a layer their model does not have raise
        :class:`ValueError`.  The service auto-starts on the first
        non-empty submission.
        """
        if self._closed:
            raise RuntimeError("EvaluationService is closed")
        cells = self._validate_cells(cells)
        self.batches_submitted += 1
        self.cells_submitted += len(cells)
        if not cells:
            return EvaluationBatch([], [], [], None)
        if not self._started:
            self.start()
        order = schedule_cells(cells, self._mac_names)
        schedule = [cells[index] for index in order]
        images = [self._image_counts[model_index] for model_index, _ in schedule]
        if self.serial:
            counts = eval_cell_chunk(self._serial_state, schedule)
            return EvaluationBatch(order, images, [counts], None)
        workers = self.max_workers
        futures = [
            self._pool.submit(_eval_cell_chunk_task, schedule, worker, workers)
            for worker in range(workers)
            if any(
                start < stop
                for start, stop in (image_range(n, worker, workers) for n in set(images))
            )
        ]
        return EvaluationBatch(
            order, images, None, futures, counters_sink=self._absorb_worker_counters
        )

    def evaluate_cells(self, cells: Sequence[tuple[int, ExecutionPlan]]) -> list[float]:
        """Blocking convenience: ``submit(cells).results()``."""
        return self.submit(cells).results()

    def evaluate_plans(
        self, model_index: int, plans: Sequence[ExecutionPlan]
    ) -> list[float]:
        """Accuracies of ``plans`` on one hosted model, in input order."""
        return self.evaluate_cells([(model_index, plan) for plan in plans])


__all__ = ["EvaluationService", "EvaluationBatch"]
