"""Unified evaluation runtime: one persistent service behind every campaign.

Scoring per-layer approximation plans against trained models is the
operation behind all of the repo's headline artifacts (the Table III
accuracy sweeps, the Fig. 5 DSE comparison).  This package is the single
execution path that serves them:

* :mod:`~repro.runtime.scheduling` — prefix-aware ordering of
  ``(model, plan)`` cells (plus the chunking helpers no path uses any
  more, kept for their tests and perfbench's hooks);
* :mod:`~repro.runtime.sizing` — worker sizing policy (affinity-aware
  CPU count, degrade-to-serial clamp of requested counts), each
  process's core share of image-shard threads, and the one-BLAS-thread
  pin of every process that evaluates plans;
* :mod:`~repro.runtime.worker` — per-process executor cache and cell
  evaluation on a contiguous share of the images (shared by the pool and
  the in-process serial path);
* :mod:`~repro.runtime.service` — :class:`EvaluationService`: persistent
  worker pool (forked workers inherit the hosted models and datasets),
  the whole schedule to every worker on its own image range, graceful
  shutdown.

:func:`repro.simulation.campaign.plan_sweep` (and the Table III
:func:`~repro.simulation.campaign.accuracy_sweep` built on it), the DSE
:class:`~repro.dse.evaluator.PlanEvaluator` behind every ``run_campaign``,
and the job layer are all thin clients of this package; the
service also owns the one evaluation-context key recipe their ledgers and
caches share.  See
``README.md`` next to this file for the service lifecycle and scheduling
guarantees.
"""

from repro.runtime.scheduling import (
    contiguous_chunks,
    cost_balanced_chunks,
    model_mac_names,
    schedule_cells,
    shared_prefix_depths,
)
from repro.runtime.service import EvaluationBatch, EvaluationService
from repro.runtime.sizing import effective_cpu_count, resolve_worker_count

__all__ = [
    "EvaluationBatch",
    "EvaluationService",
    "contiguous_chunks",
    "cost_balanced_chunks",
    "model_mac_names",
    "schedule_cells",
    "shared_prefix_depths",
    "effective_cpu_count",
    "resolve_worker_count",
]
