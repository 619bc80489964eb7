"""Sizing: how many workers and threads can actually win on this host.

A worker count is always an explicit integer, chosen where a service is
built (the CLI's ``--workers``, ``build_campaign_service``, ``plan_sweep``,
``JobManager``); nothing sizes a pool from the host on its own.  Counts
above the schedulable cores can never win: the workers contend for the
cores the serial path would have used exclusively, and ``os.cpu_count()``
reports the *machine's* cores, not the ones this process may run on (a
cgroup/affinity-limited CI container reports 4 while only 1 is
schedulable).  This module is the one place that policy lives:

* :func:`effective_cpu_count` — the schedulable-CPU count
  (``len(os.sched_getaffinity(0))``, honoring cgroup cpusets and
  ``taskset``), falling back to ``os.cpu_count()`` where affinity is not
  exposed (macOS);
* :func:`resolve_worker_count` — the clamp applied to a *requested*
  worker count by the campaign service builder, the sweeps and the CLI:
  ``min(requested, effective_cpu_count())``, so ``repro dse --workers 4``
  on a 1-CPU box degrades to the serial in-process path (1.0x serial)
  instead of running 4 contending processes (0.54x);
* :func:`eval_thread_count` — how many image shards (one thread each) a
  process splits every evaluated batch into: all its schedulable CPUs
  outside a pool, and ``max(1, cpus // pool size)`` inside a pool worker,
  whose pool size :func:`join_pool` records;
* :func:`pin_blas_threads` — numpy's OpenBLAS runs one thread per core,
  so a process running one shard thread per core would run cores x cores
  BLAS threads.  Every process that evaluates plans pins its OpenBLAS to
  :data:`EVAL_BLAS_THREADS` before it calibrates an executor and before
  every sharded walk; pool workers do it in their initializer.  Pinning
  before calibration also makes the activation parameters independent of
  call order and of the host's core count: float64 products on a
  multi-threaded OpenBLAS round differently, so an executor calibrated
  before the first pin got other parameters than one calibrated after;
* :func:`blas_config` — the OpenBLAS configuration string, whose core
  name picks the dgemm kernels (and so the rounding) in a
  ``DYNAMIC_ARCH`` build: the trained-model cache keys its stored
  activation parameters on it, and ``repro info`` reports it.

:class:`~repro.runtime.service.EvaluationService` itself honors an
explicit ``max_workers`` verbatim (tests rely on exercising the pool path
regardless of host size); the clamp applies where user intent enters the
system.
"""

from __future__ import annotations

import ctypes
import functools
import os

#: BLAS threads of every process that evaluates plans: its image shards
#: already run one thread per core it owns, so more only oversubscribe.
EVAL_BLAS_THREADS = 1

#: Processes sharing this process's CPUs: 1 outside a pool, the pool size
#: inside a pool worker (set by :func:`join_pool`).
_pool_size = 1

#: ``(prefix, suffix)`` of the exported symbol names of the OpenBLAS builds
#: numpy ships or links: the scipy-openblas wheels (64- and 32-bit integer
#: interfaces) and a distribution's own OpenBLAS.  ``openblas_get_config``
#: of the 64-bit wheel is ``scipy_openblas_get_config64_``.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


def effective_cpu_count() -> int:
    """Number of CPUs this process may actually be scheduled on.

    Honors cgroup cpusets and CPU affinity (``os.sched_getaffinity``),
    which ``os.cpu_count()`` ignores; falls back to ``os.cpu_count()`` on
    platforms without affinity support.  Always at least 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_worker_count(requested: int, num_cells: int | None = None) -> int:
    """Effective worker count for a *requested* one (the degradation policy).

    The request is honored up to :func:`effective_cpu_count` — more
    workers than schedulable CPUs can only lose to serial, so the excess
    is dropped rather than oversubscribed.  ``num_cells`` optionally caps
    the count at the available work (never more workers than cells).
    The result is always at least 1; 1 means "run the serial in-process
    path" to every caller.  A request below 1 is a :class:`ValueError`.
    """
    requested = int(requested)
    if requested < 1:
        raise ValueError(f"worker count must be a positive integer, got {requested}")
    workers = min(requested, effective_cpu_count())
    if num_cells is not None:
        workers = min(workers, max(1, int(num_cells)))
    return workers


def join_pool(pool_size: int) -> None:
    """Record that this process is one of ``pool_size`` pool workers and
    pin its BLAS (the first step of every pool worker)."""
    global _pool_size
    _pool_size = max(1, int(pool_size))
    pin_blas_threads()


def eval_thread_count(pool_size: int | None = None) -> int:
    """Image shards, one thread each, that a process splits a batch into.

    Its share of the schedulable CPUs: all of them outside a pool,
    ``max(1, cpus // pool_size)`` in a worker of a ``pool_size``-process
    pool.  ``None`` reads this process's own pool size.
    """
    processes = _pool_size if pool_size is None else max(1, int(pool_size))
    return max(1, effective_cpu_count() // processes)


@functools.lru_cache(maxsize=None)
def _openblas():
    """``(library, prefix, suffix)`` of the OpenBLAS numpy loaded, or ``None``.

    The library exports ``openblas_<call>`` as ``<prefix><call><suffix>``
    (:data:`_OPENBLAS_SYMBOLS`).  It is looked up among the shared objects
    already mapped into this process (``/proc/self/maps``) and opened with
    ``RTLD_NOLOAD``, so the calls reach the very library numpy's matmuls
    run on and never load another.
    ``None`` without ``/proc`` or without an OpenBLAS exporting a known
    thread-count pair.  Looked up once per process: a fork inherits the
    mapping.
    """
    import numpy  # noqa: F401 - importing numpy maps its BLAS

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower()}
            )
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            if all(
                hasattr(library, f"{prefix}{call}{suffix}")
                for call in ("set_num_threads", "get_num_threads")
            ):
                return library, prefix, suffix
    return None


@functools.lru_cache(maxsize=None)
def _openblas_thread_calls():
    """``(setter, getter)`` of the OpenBLAS numpy loaded, or ``None``."""
    found = _openblas()
    if found is None:
        return None
    library, prefix, suffix = found
    # void set(int count); int get(void)
    set_threads = getattr(library, f"{prefix}set_num_threads{suffix}")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads = getattr(library, f"{prefix}get_num_threads{suffix}")
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


def pin_blas_threads() -> None:
    """Pin this process's OpenBLAS to :data:`EVAL_BLAS_THREADS`.

    Called by each pool worker before it does any work and by the executor
    before it calibrates and before every sharded walk (a no-op for the
    library once pinned).  The
    library read ``OPENBLAS_NUM_THREADS`` when numpy was imported, so
    setting it now comes too late; the library's own setter does not.
    Does nothing when no setter is found.
    """
    calls = _openblas_thread_calls()
    if calls is not None:
        calls[0](EVAL_BLAS_THREADS)


def blas_thread_count() -> int | None:
    """This process's OpenBLAS thread count, or ``None`` without a getter."""
    calls = _openblas_thread_calls()
    return None if calls is None else int(calls[1]())


def blas_config() -> str | None:
    """The configuration string of numpy's OpenBLAS, or ``None`` without one.

    It names the library version, its build options and, in a
    ``DYNAMIC_ARCH`` build, the CPU core whose kernels it picked (e.g.
    ``SkylakeX``): those kernels decide how float64 products round, and
    with them the calibrated activation parameters, so the trained-model
    cache keys its stored parameters on this string.
    """
    found = _openblas()
    if found is None:
        return None
    library, prefix, suffix = found
    name = f"{prefix}get_config{suffix}"
    if not hasattr(library, name):
        return None
    get_config = getattr(library, name)  # char *get_config(void)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    config = get_config()
    return None if config is None else config.decode("utf-8", "replace").strip()


__all__ = [
    "EVAL_BLAS_THREADS",
    "effective_cpu_count",
    "resolve_worker_count",
    "join_pool",
    "eval_thread_count",
    "pin_blas_threads",
    "blas_thread_count",
    "blas_config",
]
