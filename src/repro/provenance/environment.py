"""The self-describing provenance environment block.

One dictionary answers "what machine, what software, what defaults produced
this number?" — it is embedded verbatim in every :class:`RunManifest` and
printed by ``repro info --json``.  Two properties matter:

* **failure reasons are recorded, not discarded** — a probed package that
  fails to import contributes its import-error message, so a results file
  claiming ``"scipy": {"available": false}`` explains *why* (stale
  hardware claims must be self-describing);
* **determinism** — given one interpreter on one host the block is stable,
  so manifests of repeated runs differ only where the measurement differs.
"""

from __future__ import annotations

import importlib
import os
import platform

from repro import __version__


#: Optional/load-bearing packages probed for the environment block.  numpy
#: is required, scipy accelerates the LUT decomposition (the engine degrades
#: without it).
PROBED_PACKAGES = ("numpy", "scipy")


def probe_package(name: str) -> dict:
    """``{available, version, reason}`` of one importable package.

    ``reason`` carries the import failure (exception type + message) when
    the package is unavailable, ``None`` otherwise.
    """
    try:
        module = importlib.import_module(name)
    except Exception as error:  # noqa: BLE001 - any import failure is a reason
        return {
            "available": False,
            "version": None,
            "reason": f"{type(error).__name__}: {error}",
        }
    return {
        "available": True,
        "version": getattr(module, "__version__", None),
        "reason": None,
    }


def _engine_backend_rows() -> list[dict]:
    """Availability of every registered engine backend (with reasons)."""
    from repro.core.backends import DEFAULT_BACKEND, backend_names, get_backend

    rows = []
    for name in backend_names():
        backend = get_backend(name)
        available, reason = backend.availability()
        rows.append(
            {
                "name": name,
                "available": available,
                "default": name == DEFAULT_BACKEND,
                "reason": None if available else reason,
            }
        )
    return rows


def _seed_defaults() -> dict:
    """The root seeds every stochastic path defaults to without ``--seed``."""
    from repro.simulation.campaign import TrainingSettings

    return {
        # The CLI's --seed default: None means the built-in stream seeds below.
        "cli_seed": None,
        "training_seed": TrainingSettings().seed,
        # run_campaign's default NSGA-II / strategy generator.
        "campaign_rng_seed": 0,
        # experiment_dataset's built-in synthetic generator seeds.
        "dataset_seed_10_classes": 10,
        "dataset_seed_100_classes": 100,
    }


def _runtime_defaults() -> dict:
    """The runtime layer's stats schema, BLAS threading and admission defaults.

    ``repro info`` surfaces the same schema identifier every live
    ``stats()`` payload carries (:data:`repro.runtime.stats.STATS_SCHEMA`),
    plus the worker sizing this host would resolve an auto request to, the
    BLAS threads of this process and of each pool worker, and the job
    layer's admission-control defaults — so a manifest records how the
    runtime *would* be configured even for runs that never start a service.
    """
    from repro.runtime.jobs.queue import JobQueue
    from repro.runtime.sizing import (
        POOL_WORKER_BLAS_THREADS,
        blas_thread_count,
        resolve_worker_count,
    )
    from repro.runtime.stats import STATS_SCHEMA

    return {
        "stats_schema": STATS_SCHEMA,
        # A `workers=None` auto request resolved on this host (affinity/
        # load-aware) — the effective pool an unconstrained run would get.
        "auto_workers": resolve_worker_count(None),
        # OpenBLAS threads of this (host) process, which the serial path
        # uses; None when numpy's BLAS exposes no thread-count getter.
        "blas_threads": blas_thread_count(),
        # What every pool worker pins its OpenBLAS to before its first chunk.
        "pool_worker_blas_threads": POOL_WORKER_BLAS_THREADS,
        "default_queue_depth": JobQueue().max_depth,
        "default_session_inflight": JobQueue().max_inflight_per_session,
    }


def provenance_environment() -> dict:
    """The environment block embedded in every manifest.

    Keys: ``package`` (this distribution), ``python`` / ``platform`` /
    ``machine`` / ``cpu_count`` (host facts), ``packages`` (probe results
    incl. import-failure reasons), ``engine_backends`` (registry
    availability with reasons), ``seed_defaults``, ``runtime`` (stats
    schema, worker and BLAS-thread sizing, admission defaults).
    """
    return {
        "package": {"name": "repro-dac21", "version": __version__},
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "packages": {name: probe_package(name) for name in PROBED_PACKAGES},
        "engine_backends": _engine_backend_rows(),
        "seed_defaults": _seed_defaults(),
        "runtime": _runtime_defaults(),
    }


__all__ = ["provenance_environment", "probe_package", "PROBED_PACKAGES"]
