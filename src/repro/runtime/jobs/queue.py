"""FIFO job queue with admission control.

Submission is *admission-controlled*: a job enters the queue only while
the queue holds fewer than ``max_depth`` jobs (bounded backlog — a slow
consumer surfaces as fast ``429``-style rejections instead of unbounded
memory growth).

Rejections raise :class:`AdmissionError` with a machine-readable
``reason`` code (``"closed"`` / ``"queue_full"``) plus a human message —
the transport layer maps them to HTTP 429 bodies verbatim.  A job whose
cells are all cached never enters the queue, but still passes
:meth:`JobQueue.admit`, so a closed service refuses it too.

Ordering is strict FIFO: the dispatcher pops jobs in submission order,
which is what keeps duplicate-cell behavior deterministic (the *first*
submission of a cell evaluates it; every later one is a cache hit).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.runtime.jobs.model import Job


class AdmissionError(RuntimeError):
    """A job the service refused to enqueue, and why."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


class JobQueue:
    """Bounded FIFO queue of :class:`~repro.runtime.jobs.model.Job` objects.

    ``max_depth`` bounds the queued (not yet running) jobs: a popped,
    running job has left the queue and frees its slot.
    """

    def __init__(self, max_depth: int = 64):
        if int(max_depth) < 1:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = int(max_depth)
        self._jobs: "deque[Job]" = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._jobs)

    @property
    def closed(self) -> bool:
        return self._closed

    def _refuse_if_closed(self) -> None:
        """Raise (and count) the ``closed`` rejection; the caller holds the lock."""
        if self._closed:
            self.rejected += 1
            raise AdmissionError("closed", "job service is shut down")

    def admit(self) -> None:
        """Admit a job that never queues (every cell cached) or raise the
        ``closed`` :class:`AdmissionError`; the depth bound does not apply."""
        with self._lock:
            self._refuse_if_closed()

    def push(self, job: Job) -> None:
        """Admit ``job`` or raise :class:`AdmissionError`."""
        with self._not_empty:
            self._refuse_if_closed()
            if len(self._jobs) >= self.max_depth:
                self.rejected += 1
                raise AdmissionError(
                    "queue_full",
                    f"job queue is full ({self.max_depth} jobs queued); retry later",
                )
            self._jobs.append(job)
            self._not_empty.notify()

    # ------------------------------------------------------------------
    def pop(self, timeout: float | None = None) -> Job | None:
        """Oldest queued job; ``None`` on timeout or when closed+empty."""
        with self._not_empty:
            while not self._jobs:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            return self._jobs.popleft()

    def drain(self) -> list[Job]:
        """Remove and return every queued job in arrival order
        (close-time cancellation)."""
        with self._lock:
            jobs = list(self._jobs)
            self._jobs.clear()
            return jobs

    def close(self) -> None:
        """Stop admitting; wake blocked poppers (idempotent)."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._jobs),
                "max_depth": self.max_depth,
                "rejected": self.rejected,
            }


__all__ = ["JobQueue", "AdmissionError"]
