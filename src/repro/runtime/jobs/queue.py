"""FIFO job queue with admission control.

Submission is *admission-controlled*: a job enters the queue only when

* the queue holds fewer than ``max_depth`` jobs (bounded backlog — a slow
  consumer surfaces as fast ``429``-style rejections instead of unbounded
  memory growth), and
* its session has fewer than ``max_inflight_per_session`` jobs queued or
  running (one greedy client cannot monopolize the backlog).

Rejections raise :class:`AdmissionError` with a machine-readable
``reason`` code (``"closed"`` / ``"queue_full"`` / ``"session_busy"``)
plus a human message — the transport layer maps them to HTTP 429 bodies
verbatim.

Ordering is strict FIFO: the dispatcher pops jobs in submission order,
which is what keeps duplicate-cell behavior deterministic (the *first*
submission of a cell evaluates it; every later one is a cache hit).
"""

from __future__ import annotations

import threading
from collections import deque

from repro.runtime.jobs.model import Job
from repro.runtime.jobs.sessions import Session


class AdmissionError(RuntimeError):
    """A job the service refused to enqueue, and why."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


class JobQueue:
    """Bounded FIFO queue of :class:`~repro.runtime.jobs.model.Job` objects.

    Parameters
    ----------
    max_depth:
        Admission bound on queued (not yet running) jobs.
    max_inflight_per_session:
        Admission bound on one session's queued-or-running jobs.  The
        session's ``inflight`` counter is incremented under the queue lock
        at admission (:meth:`push`) and must be decremented via
        :meth:`release` when the job reaches a terminal state — both
        mutations go through the queue lock, so a concurrent push can
        never lose a finalizer's decrement.
    """

    def __init__(self, max_depth: int = 64, max_inflight_per_session: int = 8):
        if int(max_depth) < 1:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        if int(max_inflight_per_session) < 1:
            raise ValueError(
                "max_inflight_per_session must be positive, "
                f"got {max_inflight_per_session}"
            )
        self.max_depth = int(max_depth)
        self.max_inflight_per_session = int(max_inflight_per_session)
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

    def push(self, job: Job, session: Session) -> None:
        """Admit ``job`` for ``session`` or raise :class:`AdmissionError`."""
        with self._not_empty:
            if self._closed:
                self.rejected += 1
                raise AdmissionError("closed", "job service is shut down")
            if len(self._jobs) >= self.max_depth:
                self.rejected += 1
                raise AdmissionError(
                    "queue_full",
                    f"job queue is full ({self.max_depth} jobs queued); retry later",
                )
            if session.inflight >= self.max_inflight_per_session:
                self.rejected += 1
                raise AdmissionError(
                    "session_busy",
                    f"session {session.id!r} already has {session.inflight} jobs "
                    f"in flight (cap {self.max_inflight_per_session}); "
                    "poll them to completion first",
                )
            session.inflight += 1
            self._jobs.append(job)
            self._not_empty.notify()

    def release(self, session: Session) -> None:
        """Drop one of ``session``'s in-flight slots (job reached a terminal
        state).  Uses the same lock as :meth:`push`, which is what keeps the
        read-modify-write on ``session.inflight`` race-free."""
        with self._lock:
            session.inflight = max(0, session.inflight - 1)

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
                "max_inflight_per_session": self.max_inflight_per_session,
                "rejected": self.rejected,
            }


__all__ = ["JobQueue", "AdmissionError"]
