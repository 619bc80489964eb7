"""Pool auto-sizing: how many workers can actually win on this host.

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
* :func:`pin_pool_worker_blas_threads` — the first step of every pool
  worker: numpy's OpenBLAS runs one thread per core, so N forked workers
  would run N x cores BLAS threads on the cores the pool was sized to.
  Each worker is pinned to :data:`POOL_WORKER_BLAS_THREADS`; the host
  process and the serial path keep their BLAS threads.

:class:`~repro.runtime.service.EvaluationService` itself honors an
*explicit* ``max_workers`` verbatim (tests rely on exercising the pool
path regardless of host size); the degradation policy applies where user
intent enters the system — the campaign/sweep entry points.
"""

from __future__ import annotations

import ctypes
import os

#: BLAS threads each pool worker runs with: the pool already has one worker
#: per schedulable core, so more threads per worker only oversubscribe.
POOL_WORKER_BLAS_THREADS = 1

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


def _openblas_thread_calls():
    """``(setter, getter)`` of the OpenBLAS numpy loaded, or ``None``.

    Looked up among the shared objects already mapped into this process
    (``/proc/self/maps``) and opened with ``RTLD_NOLOAD``, so the calls
    reach the very library numpy's matmuls run on and never load another.
    ``None`` without ``/proc`` or without an OpenBLAS exporting a known
    thread-count pair.
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


def pin_pool_worker_blas_threads() -> None:
    """Pin this process's OpenBLAS to :data:`POOL_WORKER_BLAS_THREADS`.

    Called by each pool worker before it does any work.  Workers fork from
    a host whose OpenBLAS has already read its environment, so an
    ``OPENBLAS_NUM_THREADS`` set inside a worker comes too late; the
    library's own setter does not.  Does nothing when no setter is found.
    """
    calls = _openblas_thread_calls()
    if calls is not None:
        calls[0](POOL_WORKER_BLAS_THREADS)


def blas_thread_count() -> int | None:
    """This process's OpenBLAS thread count, or ``None`` without a getter."""
    calls = _openblas_thread_calls()
    return None if calls is None else int(calls[1]())


__all__ = [
    "POOL_WORKER_BLAS_THREADS",
    "effective_cpu_count",
    "auto_worker_count",
    "resolve_worker_count",
    "pin_pool_worker_blas_threads",
    "blas_thread_count",
]
