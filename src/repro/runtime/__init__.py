"""Unified evaluation runtime: one persistent service behind every campaign.

Scoring per-layer approximation plans against trained models is the
operation behind all of the repo's headline artifacts (the Table III
accuracy sweeps, the Fig. 5 DSE comparison).  This package is the single
execution path that serves them:

* :mod:`~repro.runtime.publishing` — publish-once shared-memory channel
  for trained models and datasets (workers attach read-only views);
* :mod:`~repro.runtime.scheduling` — prefix-aware ordering plus count- and
  cost-balanced contiguous chunking of ``(model, plan)`` cells;
* :mod:`~repro.runtime.cost_model` — :class:`CellCostModel`: prices cells
  from per-layer technique throughput (LUT ~40x perforated);
* :mod:`~repro.runtime.sizing` — pool auto-sizing policy (affinity-aware
  CPU count, load discount, degrade-to-serial clamp of requested counts)
  and the one-BLAS-thread pin of every pool worker;
* :mod:`~repro.runtime.worker` — per-process executor cache and cell
  evaluation (shared by the pool and the in-process serial path);
* :mod:`~repro.runtime.service` — :class:`EvaluationService`: persistent
  worker pool, one cost-balanced chunk per worker, graceful shutdown.

:func:`repro.simulation.campaign.parallel_sweep` /
:func:`~repro.simulation.campaign.plan_sweep` and the DSE engine's
``run_campaign(workers=N)`` are all thin clients of this package.  See
``README.md`` next to this file for the service lifecycle and scheduling
guarantees.
"""

from repro.runtime.publishing import (
    SharedDatasets,
    SharedTrainedModels,
    publish_datasets,
    publish_trained_models,
)
from repro.runtime.cost_model import (
    DEFAULT_TECHNIQUE_COST,
    CellCostModel,
    fingerprint_kind,
    model_layer_work,
)
from repro.runtime.scheduling import (
    contiguous_chunks,
    cost_balanced_chunks,
    model_mac_names,
    order_plan_cells,
    schedule_cells,
    shared_prefix_depths,
)
from repro.runtime.service import EvaluationBatch, EvaluationService
from repro.runtime.sizing import (
    auto_worker_count,
    effective_cpu_count,
    resolve_worker_count,
)

__all__ = [
    "EvaluationBatch",
    "EvaluationService",
    "SharedDatasets",
    "SharedTrainedModels",
    "publish_datasets",
    "publish_trained_models",
    "CellCostModel",
    "DEFAULT_TECHNIQUE_COST",
    "fingerprint_kind",
    "model_layer_work",
    "contiguous_chunks",
    "cost_balanced_chunks",
    "model_mac_names",
    "order_plan_cells",
    "schedule_cells",
    "shared_prefix_depths",
    "auto_worker_count",
    "effective_cpu_count",
    "resolve_worker_count",
]
