"""`EvaluationService`: the persistent, prefix-aware evaluation runtime.

Every sweep and DSE campaign in this repo reduces to the same operation —
score many per-layer approximation plans against trained models.  The
service is the one execution path behind all of them:

* **publish once** — trained-model parameters and datasets are written
  once into shared blocks (:mod:`repro.runtime.publishing`); workers
  attach read-only views, so N workers hold one copy of the bytes;
* **persistent workers** — one process pool outlives every submitted
  batch: executors stay calibrated, kernels stay compiled, and successive
  DSE generations or sweep batches pay zero per-batch setup;
* **prefix-aware scheduling** — submitted cells are ordered with the
  fingerprint schedule of :mod:`repro.runtime.scheduling` and distributed
  as contiguous chunks, so plans sharing a layer prefix land adjacently on
  one worker, whose multi-plan walk runs that prefix once;
* **one cost-balanced chunk per worker** — on the pool path the schedule
  is cut into plan groups
  (:func:`~repro.runtime.scheduling.plan_group_slices`) and the groups
  into one chunk per worker, balanced by the predicted group cost of a
  :class:`~repro.runtime.cost_model.CellCostModel` (a LUT-mapped layer
  prices about 40x a perforated one) with cuts biased toward
  prefix-divergence boundaries.  Each worker runs its BLAS on one thread
  (:func:`~repro.runtime.sizing.pin_pool_worker_blas_threads`), so the
  pool runs one busy thread per core;
* **bit-exact** — every accuracy the service returns is identical to
  evaluating the same plan on a fresh in-process executor (pinned by the
  parity suite).

Lifecycle::

    with EvaluationService(models, datasets, max_workers=4) as service:
        accuracies = service.evaluate_plans(0, plans)        # blocking
        batch = service.submit([(0, plan_a), (1, plan_b)])   # async
        accuracies = batch.results()                          # input order

``close()`` (or leaving the ``with`` block, normally *or* via an exception
such as :class:`KeyboardInterrupt`) drains the workers, cancels queued
chunks, and unlinks every shared block — no leaked ``/dev/shm`` segments,
even when a worker failed mid-batch.

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
from repro.runtime.publishing import (
    SharedDatasets,
    SharedTrainedModels,
    publish_datasets,
    publish_trained_models,
)
from repro.runtime.scheduling import (
    contiguous_chunks,
    cost_balanced_chunks,
    model_mac_names,
    plan_group_slices,
    schedule_cells,
    shared_prefix_depths,
)
from repro.runtime.sizing import auto_worker_count
from repro.runtime.worker import (
    STAT_COUNTERS,
    _eval_cell_chunk_task,
    _init_pool_worker,
    eval_cell_chunk,
    init_worker_state,
)
from repro.simulation.inference import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.runtime.cost_model import CellCostModel
    from repro.simulation.campaign import TrainedModel


class EvaluationBatch:
    """Handle of one submitted cell batch; resolves to input-order accuracies.

    Returned by :meth:`EvaluationService.submit`.  On the pool path the
    chunks run asynchronously — :meth:`results` blocks until every chunk is
    done, cancelling the rest of the batch on the first failure (including
    :class:`KeyboardInterrupt`) so the service drains instead of churning
    through doomed work.  The first failure is cached: every later
    :meth:`results` call re-raises *it*, not the ``CancelledError`` of the
    chunks the cleanup cancelled.  Pool chunks return ``(accuracies,
    counters)`` pairs; each counter delta is folded into the service's
    aggregated worker counters as the chunk completes.
    """

    def __init__(
        self,
        order: list[int],
        chunk_results: list[list[float]] | None,
        futures: "list[Future] | None",
        num_cells: int,
        counters_sink: "Callable[[dict[str, int]], None] | None" = None,
    ):
        self._order = order
        self._chunk_results = chunk_results
        self._futures = futures
        self._num_cells = num_cells
        self._counters_sink = counters_sink
        self._failure: BaseException | None = None

    def __len__(self) -> int:
        return self._num_cells

    def results(self) -> list[float]:
        """Accuracies in the *submission* order of the batch's cells."""
        if self._failure is not None:
            raise self._failure
        if self._chunk_results is None:
            collected: list[list[float]] = []
            try:
                for future in self._futures:
                    accuracies, counters = future.result()
                    collected.append(accuracies)
                    if self._counters_sink is not None:
                        self._counters_sink(counters)
            except BaseException as exc:
                # First failure (worker exception, KeyboardInterrupt, ...):
                # stop feeding the pool — queued chunks are dead weight —
                # and remember the cause so repeated results() calls see it
                # instead of the CancelledError of the chunks we cancel.
                for future in self._futures:
                    future.cancel()
                self._failure = exc
                self._futures = None
                raise
            self._chunk_results = collected
            self._futures = None
        flat = [value for chunk in self._chunk_results for value in chunk]
        ordered: list[float] = [0.0] * self._num_cells
        for schedule_pos, cell_index in enumerate(self._order):
            ordered[cell_index] = flat[schedule_pos]
        return ordered


class EvaluationService:
    """Persistent prefix-aware worker service scoring ``(model, plan)`` cells.

    Parameters
    ----------
    trained_models:
        The models the session hosts; cells reference them by index (see
        :meth:`model_index`).  A multi-model session (e.g. all six
        reference networks x both datasets) publishes everything once and
        serves every sweep and campaign from the same pool.
    datasets:
        ``{name: Dataset}`` covering every ``TrainedModel.dataset_name``
        (calibration reads the train split's head, evaluation the test
        split).
    max_workers:
        Worker process count; ``None`` auto-sizes from the schedulable-CPU
        count (CPU affinity / cgroup cpusets, not the machine's core
        count) discounted by host load
        (:func:`repro.runtime.sizing.auto_worker_count`); ``1`` runs fully
        in-process.  An explicit count is honored verbatim — the
        degrade-to-serial clamp of
        :func:`~repro.runtime.sizing.resolve_worker_count` applies at the
        campaign/sweep/CLI entry points, not here.
    requested_workers:
        What the caller originally asked for, *before* any clamping at the
        entry point (``None`` for auto-sizing), reported next to the
        effective ``workers`` in :meth:`stats` so a degraded-to-serial run
        is visible as ``requested_workers=4, workers=1``.  Defaults to
        ``max_workers``.
    max_eval_images / calibration_images / engine_backend:
        As in :func:`repro.simulation.campaign.plan_sweep` — they select
        the (bit-exact) measurement setup every worker reproduces.
    use_shared_memory:
        ``None`` (default) publishes models and datasets exactly when
        worker processes are used; ``True`` forces the publish/attach
        round trip even in-process (useful for testing), ``False`` ships
        them directly to the pool initializer.
    batch_size:
        Forward batch size of every evaluation (part of the measurement
        setup: it is hashed into DSE ledger context keys).
    """

    def __init__(
        self,
        trained_models: "Iterable[TrainedModel]",
        datasets: dict[str, Dataset],
        *,
        max_workers: int | None = None,
        requested_workers: int | None = None,
        max_eval_images: int | None = None,
        calibration_images: int = 128,
        engine_backend: str | None = None,
        use_shared_memory: bool | None = None,
        batch_size: int = 256,
    ):
        self.models = list(trained_models)
        if not self.models:
            raise ValueError("EvaluationService needs at least one trained model")
        self.datasets = dict(datasets)
        missing = sorted(
            {t.dataset_name for t in self.models} - set(self.datasets)
        )
        if missing:
            raise ValueError(f"no dataset published for: {missing}")
        if max_workers is None:
            # Affinity/load-aware, not os.cpu_count(): a cgroup-limited
            # container reports the machine's cores, not the schedulable ones.
            max_workers = auto_worker_count()
        if int(max_workers) < 1:
            raise ValueError(
                f"max_workers must be a positive integer, got {max_workers}"
            )
        if int(batch_size) < 1:
            raise ValueError(f"batch_size must be a positive integer, got {batch_size}")
        self.max_workers = int(max_workers)
        self.requested_workers = (
            self.max_workers if requested_workers is None else int(requested_workers)
        )
        self.max_eval_images = max_eval_images
        self.calibration_images = int(calibration_images)
        self.engine_backend = engine_backend
        self.use_shared_memory = use_shared_memory
        self.batch_size = int(batch_size)

        self._worker_counters = {counter: 0 for counter in STAT_COUNTERS}
        self._counters_lock = threading.Lock()
        self._mac_names = {
            index: model_mac_names(trained)
            for index, trained in enumerate(self.models)
        }
        self._pool: ProcessPoolExecutor | None = None
        self._cost_model: CellCostModel | None = None
        self._serial_state: dict | None = None
        self._model_store: SharedTrainedModels | None = None
        self._dataset_store: SharedDatasets | None = None
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
        """Publish models/datasets and spawn the worker pool (idempotent)."""
        if self._closed:
            raise RuntimeError("EvaluationService is closed")
        if self._started:
            return self
        share = (
            (not self.serial)
            if self.use_shared_memory is None
            else bool(self.use_shared_memory)
        )
        try:
            # Publish inside the try: if the second publish (or the pool
            # spawn) fails, close() still unlinks the first block.
            if share:
                self._model_store = publish_trained_models(self.models)
                self._dataset_store = publish_datasets(self.datasets)
            initargs = (
                self._model_store if self._model_store is not None else self.models,
                self._dataset_store
                if self._dataset_store is not None
                else self.datasets,
                self.max_eval_images,
                self.calibration_images,
                self.engine_backend,
                self.batch_size,
            )
            if self.serial:
                self._serial_state = {}
                init_worker_state(self._serial_state, *initargs)
            else:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=context,
                    initializer=_init_pool_worker,
                    initargs=initargs,
                )
        except BaseException:
            self._started = True  # let close() tear down the partial state
            self.close()
            raise
        self._started = True
        return self

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Drain workers, cancel queued chunks, unlink shared blocks.

        Idempotent, and safe to call at any point of the lifecycle —
        including from an exception path such as :class:`KeyboardInterrupt`
        or after a worker failure: running chunks are waited out, queued
        chunks are cancelled, and every published block is released.
        """
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if self._serial_state is not None:
            # Drop the in-process executors/views before unlinking below.
            self._serial_state.clear()
            self._serial_state = None
        stores = (self._model_store, self._dataset_store)
        self._model_store = self._dataset_store = None
        for store in stores:
            if store is not None:
                store.unlink()

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

    def shared_store_handles(self) -> list[tuple[str, str]]:
        """``(kind, name)`` of every published block (for leak diagnostics)."""
        return [
            (store.store.kind, store.store.name)
            for store in (self._model_store, self._dataset_store)
            if store is not None
        ]

    def nbytes_shared(self) -> int:
        """Total bytes placed in shared blocks (0 when shipping by pickle)."""
        return sum(
            store.nbytes_shared()
            for store in (self._model_store, self._dataset_store)
            if store is not None
        )

    def cost_model(self) -> CellCostModel:
        """The session's cell cost model (built lazily, one per service).

        Layer work is extracted once per hosted model (a one-image dummy
        forward) and priced with the bench-calibrated per-technique
        throughput factors.
        """
        # Imported lazily: cost_model imports the simulation package, whose
        # campaign module imports this module back — a top-level import here
        # breaks a cold `import repro.runtime`.
        from repro.runtime.cost_model import CellCostModel

        if self._cost_model is None:
            shapes = [
                tuple(self.datasets[trained.dataset_name].test_images.shape[1:])
                for trained in self.models
            ]
            self._cost_model = CellCostModel.from_models(self.models, shapes)
        return self._cost_model

    def session_context(self) -> dict:
        """The measurement setup of this session, for run manifests.

        Everything that selects *what* the service measures (hosted models
        and datasets, eval caps, calibration size, backend, batch size —
        the knobs hashed into DSE ledger context keys) plus how it executes
        (workers, shared memory).  JSON-able by construction.
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
            "engine_backend": self.engine_backend,
            "use_shared_memory": self.use_shared_memory,
            "batch_size": self.batch_size,
            "nbytes_shared": self.nbytes_shared(),
        }

    def _absorb_worker_counters(self, counters: dict[str, int]) -> None:
        """Fold one chunk's executor-counter delta into the session totals."""
        with self._counters_lock:
            for key, value in counters.items():
                if key in self._worker_counters:
                    self._worker_counters[key] += int(value)

    def stats(self) -> dict:
        """Counters of the session so far (``repro-runtime-stats/v1.4`` schema).

        The payload nests everything engine-level under ``"engine"``, with
        ``requested_workers`` (what the caller asked for) next to the
        effective ``workers`` — the schema the jobs layer extends with its
        ``jobs``/``cache``/``sessions`` sections — plus the fused
        multi-plan launch counters ``fused_launches``,
        ``fused_plans_total`` and ``plans_per_launch_avg`` (``None`` until
        the first fused launch), aggregated across every worker.
        """
        from repro.runtime.stats import runtime_stats

        engine = {
            "requested_workers": self.requested_workers,
            "workers": self.max_workers,
            "models": len(self.models),
            "datasets": len(self.datasets),
            "batches_submitted": self.batches_submitted,
            "cells_submitted": self.cells_submitted,
            "nbytes_shared": self.nbytes_shared(),
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
        serial path evaluates them in-process as one contiguous block; the
        pool path cuts the schedule into plan groups (up to
        :data:`~repro.runtime.scheduling.DEFAULT_PLAN_GROUP_SIZE` consecutive
        same-model cells, cut at divergence-family boundaries), prices each
        group as one multi-plan walk (:meth:`CellCostModel.group_cost`), and
        balances the groups into one contiguous chunk per worker (cuts
        biased toward prefix-divergence boundaries), dispatched
        asynchronously.  Chunking never changes what is evaluated: every
        cell runs the same measurement regardless of worker count (the
        bit-exactness contract).  ``batch.results()`` resolves to
        accuracies in the cells' *submission* order.  Plans overriding a
        layer their model does not have raise :class:`ValueError`.  The
        service auto-starts on first submission.
        """
        if self._closed:
            raise RuntimeError("EvaluationService is closed")
        if not self._started:
            self.start()
        cells = self._validate_cells(cells)
        self.batches_submitted += 1
        self.cells_submitted += len(cells)
        if not cells:
            return EvaluationBatch([], [], None, 0)
        order = schedule_cells(cells, self._mac_names)
        schedule = [cells[index] for index in order]
        if self.serial:
            chunks = contiguous_chunks(schedule, self.max_workers)
            chunk_results = [
                eval_cell_chunk(self._serial_state, chunk) for chunk in chunks
            ]
            return EvaluationBatch(order, chunk_results, None, len(cells))
        cost_model = self.cost_model()
        depths = shared_prefix_depths(schedule, self._mac_names)
        # Chunk at plan-group granularity: each group shares its prefix
        # walk on one worker, so a cut through a group would re-walk it.
        slices = plan_group_slices(schedule, split_depths=depths)
        groups = [schedule[start:stop] for start, stop in slices]
        group_costs = [
            cost_model.group_cost(
                group[0][0],
                [plan for _, plan in group],
                self._mac_names[group[0][0]],
            )
            for group in groups
        ]
        # Depth between the last cell of one group and the first of the
        # next — the prefix a cut between those groups would re-run.
        group_depths = [depths[stop - 1] for _, stop in slices[:-1]]
        group_chunks = cost_balanced_chunks(
            groups, group_costs, self.max_workers, split_depths=group_depths
        )
        futures = [
            self._pool.submit(
                _eval_cell_chunk_task, [cell for group in chunk for cell in group]
            )
            for chunk in group_chunks
        ]
        return EvaluationBatch(
            order,
            None,
            futures,
            len(cells),
            counters_sink=self._absorb_worker_counters,
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
