"""One stats schema for the whole runtime stack.

Before the jobs layer, every call site shaped its counters ad hoc —
``EvaluationService.stats()`` returned one flat dict, DSE campaign stats
another, and ``repro info`` a third.  This module pins the shared shape:

.. code-block:: json

    {
      "schema": "repro-runtime-stats/v1.4",
      "engine":   { "requested_workers": ..., "workers": ..., ... },
      "jobs":     { "submitted": ..., "depth": ..., "rejected": ..., ... },
      "cache":    { "entries": ..., "hits": ..., "misses": ..., "evictions": ..., ... },
      "sessions": { "<session id>": { ... }, ... }
    }

``engine`` is always present; the jobs-layer sections appear exactly when
the emitting object has that layer (a bare
:class:`~repro.runtime.service.EvaluationService` reports only
``engine``).  ``requested_workers`` vs ``workers`` is the one contract
every emitter follows: the former is what the caller asked for (``None``
for auto-sizing), the latter the effective pool size actually running.

v1.1 extended ``engine`` with the fused multi-plan launch counters
(``fused_launches``, ``fused_plans_total``, ``plans_per_launch_avg``).
v1.2 drops from ``engine`` the two multi-plan fusion settings and the
executor's cross-call cache hit/miss counters; every remaining key keeps
its meaning, so a v1.1 consumer only loses those fields.
v1.3 drops from ``jobs`` the per-band queue depths, the band-bypass
bound and counter, and the two job-expiry counters (the queue is one
FIFO and jobs carry no expiry); again every remaining key keeps its
meaning.
v1.4 drops from ``engine`` the ``chunks_per_worker`` setting and the two
``cost_model_*`` counters (pool batches run one chunk per worker and the
cost model is no longer refined online); every remaining key keeps its
meaning.
"""

from __future__ import annotations

#: Version tag embedded in every stats payload.
STATS_SCHEMA = "repro-runtime-stats/v1.4"


def runtime_stats(
    engine: dict,
    jobs: dict | None = None,
    cache: dict | None = None,
    sessions: dict | None = None,
) -> dict:
    """Assemble one schema-tagged stats payload from per-layer sections."""
    stats: dict = {"schema": STATS_SCHEMA, "engine": dict(engine)}
    if jobs is not None:
        stats["jobs"] = dict(jobs)
    if cache is not None:
        stats["cache"] = dict(cache)
    if sessions is not None:
        stats["sessions"] = dict(sessions)
    return stats


__all__ = ["STATS_SCHEMA", "runtime_stats"]
