"""Per-process worker state and cell evaluation of the evaluation runtime.

One worker process hosts:

* the attached trained models and datasets (read-only views into the
  service's shared blocks in a pool worker — see
  :mod:`repro.runtime.publishing`);
* one calibrated
  :class:`~repro.simulation.inference.ApproximateExecutor` per hosted
  model, built on the model's first segment and kept for the worker's
  life, so each model is calibrated once however often the schedule
  switches between models.  Only the active model keeps its working set:
  a switch drops the idle executor's activation buffers and compiled
  kernels (rebuilt on its next segment), so peak memory stays one
  model's working set plus every model's small quantized weights.

Every schedule a worker receives is evaluated one model segment at a
time: the segment's plans go to one
:meth:`~repro.simulation.inference.ApproximateExecutor.predict_many` call,
which walks their shared layer prefixes once and splits the images into
one shard thread per core the process owns.  A worker reports per-cell
correct-prediction counts on its own contiguous share of each model's
evaluation images (:func:`image_range`); the service sums the workers'
counts.

The same functions back both execution modes of the
:class:`~repro.runtime.service.EvaluationService`: worker processes operate
on the module-global :data:`_WORKER_STATE` (populated by the pool
initializer, which first records the pool size and pins the worker's BLAS
to one thread), while the serial in-process path passes the service's own
private state dict, so two live services in one process never collide.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.runtime.publishing import SharedDatasets, SharedTrainedModels
from repro.runtime.sizing import join_pool
from repro.simulation.inference import ApproximateExecutor, ExecutionPlan

#: Pool-worker process state (set by :func:`_init_pool_worker`).  The serial
#: path never touches it — each in-process service owns a private dict.
_WORKER_STATE: dict = {}

#: Executor counters mirrored into the worker state (and reported per task
#: to the service).  Accumulated as *deltas* around each model segment.
STAT_COUNTERS = ("fused_launches", "fused_plans_total")


def init_worker_state(
    state: dict,
    trained_models,
    datasets,
    max_eval_images: int | None,
    calibration_images: int,
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
        executors={},
        active_model=None,
        executor_builds=0,
        cells_evaluated=0,
    )
    state.update({counter: 0 for counter in STAT_COUNTERS})


def _init_pool_worker(pool_size: int, *initargs) -> None:
    """Pool initializer: record the pool size and pin BLAS to one thread,
    then populate the state.

    The worker's executors run ``max(1, cpus // pool_size)`` image shards
    (:func:`~repro.runtime.sizing.eval_thread_count`) on one BLAS thread
    each (:func:`~repro.runtime.sizing.join_pool`).
    """
    join_pool(pool_size)
    init_worker_state(_WORKER_STATE, *initargs)


def executor_for(state: dict, model_index: int) -> ApproximateExecutor:
    """Calibrated executor of one model, built once per worker.

    Switching models drops the previously active executor's working set
    (:meth:`~repro.simulation.inference.ApproximateExecutor
    .drop_working_set`), so one model's buffers and kernels are live at a
    time while no model is calibrated twice.
    """
    executor = state["executors"].get(model_index)
    if executor is None:
        trained = state["models"][model_index]
        dataset = state["datasets"][trained.dataset_name]
        calib = dataset.train_images[: state["calibration_images"]]
        executor = ApproximateExecutor(trained.model, calib)
        state["executors"][model_index] = executor
        state["executor_builds"] += 1
    active = state["active_model"]
    if active is not None and active != model_index:
        state["executors"][active].drop_working_set()
    state["active_model"] = model_index
    return executor


def eval_arrays(dataset, max_eval_images: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation images and labels of ``dataset``: the head of its test
    split, ``max_eval_images`` long (all of it for ``None``)."""
    return dataset.test_images[:max_eval_images], dataset.test_labels[:max_eval_images]


def image_range(images: int, worker: int, workers: int) -> tuple[int, int]:
    """``(start, stop)`` of worker ``worker``'s contiguous share of
    ``images`` evaluation images among ``workers``; empty only when
    ``images < workers``."""
    return (worker * images) // workers, ((worker + 1) * images) // workers


def eval_cell_chunk(
    state: dict,
    chunk: Sequence[tuple[int, ExecutionPlan]],
    worker: int = 0,
    workers: int = 1,
) -> list[int]:
    """Correct predictions of every cell of a schedule, in schedule order.

    Each cell is scored on worker ``worker``'s share of its model's
    evaluation images (:func:`image_range`; all of them by default).
    Consecutive cells of the same model form one segment, evaluated by a
    single :meth:`~repro.simulation.inference.ApproximateExecutor
    .predict_many` call: the executor deduplicates the segment's plans and
    walks each shared layer prefix once, so the prefix adjacency the
    scheduler arranged turns into shared work.  A segment whose share is
    empty counts 0 without touching the executor.
    """
    results: list[int] = []
    for model_index, segment in itertools.groupby(chunk, key=lambda cell: cell[0]):
        plans = [plan for _, plan in segment]
        trained = state["models"][model_index]
        test_images, test_labels = eval_arrays(
            state["datasets"][trained.dataset_name], state["max_eval_images"]
        )
        start, stop = image_range(len(test_labels), worker, workers)
        if start == stop:
            results.extend([0] * len(plans))
            continue
        executor = executor_for(state, model_index)
        before = executor.fused_stats()
        predictions_per_plan = executor.predict_many(test_images[start:stop], plans)
        labels = test_labels[start:stop]
        results.extend(
            int(np.count_nonzero(predictions == labels))
            for predictions in predictions_per_plan
        )
        state["cells_evaluated"] += len(plans)
        after = executor.fused_stats()
        for counter in STAT_COUNTERS:
            state[counter] = state.get(counter, 0) + after[counter] - before[counter]
    return results


def _eval_cell_chunk_task(
    chunk: Sequence[tuple[int, ExecutionPlan]], worker: int, workers: int
) -> tuple[list[int], dict[str, int]]:
    """Pool task returning ``(correct counts, counters)`` of one worker's
    image share of a schedule.

    ``counters`` is this task's *delta* of the :data:`STAT_COUNTERS`
    (fused launches), which the service aggregates for
    :meth:`EvaluationService.stats`.
    """
    before = {
        counter: _WORKER_STATE.get(counter, 0) for counter in STAT_COUNTERS
    }
    results = eval_cell_chunk(_WORKER_STATE, chunk, worker, workers)
    delta = {
        counter: _WORKER_STATE.get(counter, 0) - before[counter]
        for counter in STAT_COUNTERS
    }
    return results, delta


__all__ = [
    "STAT_COUNTERS",
    "init_worker_state",
    "executor_for",
    "eval_arrays",
    "image_range",
    "eval_cell_chunk",
]
