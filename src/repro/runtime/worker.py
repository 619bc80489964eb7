"""Per-process worker state and cell evaluation of the evaluation runtime.

One worker process hosts:

* the attached trained models and datasets (read-only views into the
  service's shared blocks when publication is on — see
  :mod:`repro.runtime.publishing`);
* a **single-slot executor cache**: the calibrated
  :class:`~repro.simulation.inference.ApproximateExecutor` of the most
  recently evaluated model.  Schedules group cells by model
  (:mod:`repro.runtime.scheduling`), so this preserves reuse across a
  model's cells while bounding peak memory to one executor (kernel caches,
  activation buffers and quantized weights included).

Every chunk a worker receives is evaluated one model segment at a time:
the segment's plans go to one
:meth:`~repro.simulation.inference.ApproximateExecutor.predict_many` call,
which walks their shared layer prefixes once.

The same functions back both execution modes of the
:class:`~repro.runtime.service.EvaluationService`: worker processes operate
on the module-global :data:`_WORKER_STATE` (populated by the pool
initializer), while the serial in-process path passes the service's own
private state dict, so two live services in one process never collide.
"""

from __future__ import annotations

import itertools
import time
from typing import Sequence

import numpy as np

from repro.runtime.publishing import SharedDatasets, SharedTrainedModels
from repro.simulation.inference import ApproximateExecutor, ExecutionPlan
from repro.simulation.metrics import accuracy

#: Pool-worker process state (set by :func:`_init_pool_worker`).  The serial
#: path never touches it — each in-process service owns a private dict.
_WORKER_STATE: dict = {}

#: Executor counters mirrored into the worker state (and reported per chunk
#: to the service).  Accumulated as *deltas* around each model segment, so
#: the single-slot executor cache dropping an executor never loses counts.
STAT_COUNTERS = ("fused_launches", "fused_plans_total")


def init_worker_state(
    state: dict,
    trained_models,
    datasets,
    max_eval_images: int | None,
    calibration_images: int,
    engine_backend: str | None = None,
    batch_size: int = 256,
) -> None:
    """(Re)initialize one worker's state dict, attaching shared blocks."""
    if isinstance(trained_models, SharedTrainedModels):
        # Attach to the published parameter block: the models rebuilt here
        # hold read-only views into shared memory, not private copies.
        trained_models = trained_models.attach()
    if isinstance(datasets, SharedDatasets):
        # Same for the evaluation data — images dwarf the weights for small
        # models, so this is where most of the per-worker RSS would go.
        datasets = datasets.attach()
    state.clear()
    state.update(
        models=list(trained_models),
        datasets=dict(datasets),
        max_eval_images=max_eval_images,
        calibration_images=calibration_images,
        engine_backend=engine_backend,
        batch_size=int(batch_size),
        executors={},
        executor_builds=0,
        cells_evaluated=0,
    )
    state.update({counter: 0 for counter in STAT_COUNTERS})


def _init_pool_worker(*initargs) -> None:
    """Pool initializer: populate the process-global worker state."""
    init_worker_state(_WORKER_STATE, *initargs)


def executor_for(state: dict, model_index: int) -> ApproximateExecutor:
    """Calibrated executor of one model, cached per worker (single slot).

    Only the most recent model's executor is kept: schedules group cells by
    model, so this preserves reuse across a model's cells while bounding
    peak memory to one executor — matching the serial sweep's profile.
    """
    executor = state["executors"].get(model_index)
    if executor is None:
        trained = state["models"][model_index]
        dataset = state["datasets"][trained.dataset_name]
        calib = dataset.train_images[: state["calibration_images"]]
        executor = ApproximateExecutor(
            trained.model, calib, engine_backend=state["engine_backend"]
        )
        state["executors"].clear()
        state["executors"][model_index] = executor
        state["executor_builds"] += 1
    return executor


def eval_arrays(state: dict, trained) -> tuple[np.ndarray, np.ndarray]:
    """The (possibly capped) evaluation images and labels of one model."""
    dataset = state["datasets"][trained.dataset_name]
    test_images = dataset.test_images
    test_labels = dataset.test_labels
    max_eval = state["max_eval_images"]
    if max_eval is not None:
        test_images = test_images[:max_eval]
        test_labels = test_labels[:max_eval]
    return test_images, test_labels


def eval_plan_cell(state: dict, model_index: int, plan: ExecutionPlan) -> float:
    """Accuracy of one model under one plan, using the cached executor."""
    return eval_cell_chunk(state, [(model_index, plan)])[0]


def eval_cell_chunk(
    state: dict, chunk: Sequence[tuple[int, ExecutionPlan]]
) -> list[float]:
    """Accuracies of one contiguous schedule chunk, in chunk order.

    Consecutive cells of the same model form one segment, evaluated by a
    single :meth:`~repro.simulation.inference.ApproximateExecutor
    .predict_many` call: the executor deduplicates the segment's plans and
    walks each shared layer prefix once, so the prefix adjacency the
    scheduler arranged turns into shared work.
    """
    results: list[float] = []
    for model_index, segment in itertools.groupby(chunk, key=lambda cell: cell[0]):
        plans = [plan for _, plan in segment]
        trained = state["models"][model_index]
        executor = executor_for(state, model_index)
        test_images, test_labels = eval_arrays(state, trained)
        before = executor.fused_stats()
        predictions_per_plan = executor.predict_many(
            test_images, plans, batch_size=state["batch_size"]
        )
        results.extend(
            accuracy(predictions, test_labels) for predictions in predictions_per_plan
        )
        state["cells_evaluated"] += len(plans)
        after = executor.fused_stats()
        for counter in STAT_COUNTERS:
            state[counter] = state.get(counter, 0) + after[counter] - before[counter]
    return results


def _eval_cell_chunk_task(chunk: Sequence[tuple[int, ExecutionPlan]]) -> list[float]:
    """Pool task: evaluate one chunk against the process-global state."""
    return eval_cell_chunk(_WORKER_STATE, chunk)


def _timed_eval_cell_chunk_task(
    chunk: Sequence[tuple[int, ExecutionPlan]],
) -> tuple[list[float], float, dict[str, int]]:
    """Pool task returning ``(accuracies, wall_clock_seconds, counters)``.

    The wall-clock is measured inside the worker — compute time only, no
    queueing or pickling — which is what the service feeds back into its
    :class:`~repro.runtime.cost_model.CellCostModel` for online refinement
    of the per-technique throughput factors.  ``counters`` is this chunk's
    *delta* of the :data:`STAT_COUNTERS` (fused launches), which the
    service aggregates for :meth:`EvaluationService.stats`.
    """
    before = {
        counter: _WORKER_STATE.get(counter, 0) for counter in STAT_COUNTERS
    }
    start = time.perf_counter()
    results = eval_cell_chunk(_WORKER_STATE, chunk)
    elapsed = time.perf_counter() - start
    delta = {
        counter: _WORKER_STATE.get(counter, 0) - before[counter]
        for counter in STAT_COUNTERS
    }
    return results, elapsed, delta


__all__ = [
    "STAT_COUNTERS",
    "init_worker_state",
    "executor_for",
    "eval_arrays",
    "eval_plan_cell",
    "eval_cell_chunk",
]
