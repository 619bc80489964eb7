"""Sizing: how many workers and threads can actually win on this host.

The evaluation runtime historically sized its pool from ``os.cpu_count()``
and trusted the caller's ``--workers`` flag verbatim.  Both are wrong on
shared or containerized hosts:

* ``os.cpu_count()`` reports the *machine's* cores, not the cores this
  process may run on — a cgroup/affinity-limited CI container reports 4
  while only 1 is schedulable, so a 4-worker pool time-slices one CPU and
  loses to the serial path (``results/BENCH_engine.json`` recorded the
  parallel DSE campaign at 0.54x serial exactly this way);
* a worker count above the schedulable cores can never win: the workers
  contend for the same cores the serial path would have used exclusively,
  and pay pickling + process-switch overhead on top.

This module is the one place that policy lives:

* :func:`effective_cpu_count` — the schedulable-CPU count
  (``len(os.sched_getaffinity(0))``, honoring cgroup cpusets and
  ``taskset``), falling back to ``os.cpu_count()`` where affinity is not
  exposed (macOS);
* :func:`auto_worker_count` — the default pool size when the caller does
  not pass one: the affinity-aware count, discounted by a cheap measured
  check of how busy the host already is (1-minute load average);
* :func:`resolve_worker_count` — the clamp applied to *requested* worker
  counts by ``run_campaign(workers=N)``, the sweeps and the CLI:
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
  before the first pin got other parameters than one calibrated after.

:class:`~repro.runtime.service.EvaluationService` itself honors an
*explicit* ``max_workers`` verbatim (tests rely on exercising the pool
path regardless of host size); the degradation policy applies where user
intent enters the system — the campaign/sweep entry points.
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

#: ``(setter, getter)`` thread-count symbols of the OpenBLAS builds numpy
#: ships or links: the scipy-openblas wheels (64- and 32-bit integer
#: interfaces) and a distribution's own OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
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


def _load_average() -> float:
    """1-minute load average, or 0.0 where the host does not expose one."""
    try:
        return float(os.getloadavg()[0])
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX fallback
        return 0.0


def auto_worker_count() -> int:
    """Default pool size: schedulable CPUs minus what the host is busy with.

    The affinity-aware CPU count, discounted by the measured 1-minute load
    average beyond the ~1 core this process itself accounts for — a cheap
    effective-parallelism probe: a pool sized to CPUs that other processes
    already saturate would contend rather than scale.  Always at least 1.
    """
    cpus = effective_cpu_count()
    busy_elsewhere = max(0.0, _load_average() - 1.0)
    return max(1, min(cpus, int(cpus - busy_elsewhere)))


def resolve_worker_count(
    requested: int | None, num_cells: int | None = None
) -> int:
    """Effective worker count for a *requested* one (the degradation policy).

    ``None`` means "size it for me" (:func:`auto_worker_count`); an
    explicit request is honored up to :func:`effective_cpu_count` — more
    workers than schedulable CPUs can only lose to serial, so the excess
    is dropped rather than oversubscribed.  ``num_cells`` optionally caps
    the count at the available work (never more workers than cells).
    The result is always at least 1; 1 means "run the serial in-process
    path" to every caller.
    """
    if requested is None:
        workers = auto_worker_count()
    else:
        requested = int(requested)
        if requested < 1:
            raise ValueError(
                f"worker count must be a positive integer, got {requested}"
            )
        workers = min(requested, effective_cpu_count())
    if num_cells is not None:
        workers = min(workers, max(1, int(num_cells)))
    return max(1, workers)


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
def _openblas_thread_calls():
    """``(setter, getter)`` of the OpenBLAS numpy loaded, or ``None``.

    Looked up among the shared objects already mapped into this process
    (``/proc/self/maps``) and opened with ``RTLD_NOLOAD``, so the calls
    reach the very library numpy's matmuls run on and never load another.
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
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                # void set(int count); int get(void)
                set_threads = getattr(library, setter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads = getattr(library, getter)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


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


__all__ = [
    "EVAL_BLAS_THREADS",
    "effective_cpu_count",
    "auto_worker_count",
    "resolve_worker_count",
    "join_pool",
    "eval_thread_count",
    "pin_blas_threads",
    "blas_thread_count",
]
