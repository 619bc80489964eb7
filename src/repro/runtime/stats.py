"""One stats schema for the whole runtime stack.

:func:`runtime_stats` pins the one shape every emitter reports —
``EvaluationService.stats()``, ``JobManager.stats()`` (and so the
daemon's ``GET /stats``) and the sweep helpers:

.. code-block:: json

    {
      "schema": "repro-runtime-stats/v1.7",
      "engine": { "workers": ..., "models": ..., ... },
      "jobs":   { "submitted": ..., "depth": ..., "rejected": ..., ... },
      "cache":  { "entries": ..., "hits": ..., "misses": ..., ... }
    }

``engine`` is always present; the jobs-layer sections appear exactly when
the emitting object has that layer (a bare
:class:`~repro.runtime.service.EvaluationService` reports only
``engine``).

* ``engine`` — ``workers`` (the pool size; 1 runs in process),
  ``models``, ``datasets``, ``batches_submitted``, ``cells_submitted``;
  the fused multi-plan launch counters summed over every worker,
  ``fused_launches``,
  ``fused_plans_total`` and ``plans_per_launch_avg`` (``None`` until the
  first launch); on the in-process path also ``executor_builds`` and
  ``cells_evaluated``.
* ``jobs`` — ``submitted``, ``completed``, ``failed``, ``cancelled``,
  ``rejected``, ``by_state`` (job count per state), and the queue's
  ``depth`` and ``max_depth``.
* ``cache`` — ``entries``, ``hits``, ``misses``, ``hit_ratio``,
  ``loaded`` (entries read from the persisted cache at start) and
  ``persist_path``.

The version moves whenever a key is dropped or changes meaning.
"""

from __future__ import annotations

#: Version tag embedded in every stats payload.
STATS_SCHEMA = "repro-runtime-stats/v1.7"


def runtime_stats(
    engine: dict,
    jobs: dict | None = None,
    cache: dict | None = None,
) -> dict:
    """Assemble one schema-tagged stats payload from per-layer sections."""
    stats: dict = {"schema": STATS_SCHEMA, "engine": dict(engine)}
    if jobs is not None:
        stats["jobs"] = dict(jobs)
    if cache is not None:
        stats["cache"] = dict(cache)
    return stats


__all__ = ["STATS_SCHEMA", "runtime_stats"]
