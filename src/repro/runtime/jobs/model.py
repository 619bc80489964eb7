"""The :class:`Job` model: one submitted unit of evaluation work.

A job is *model-ref + plan-set + eval context*: the index of a hosted
model and the list of :class:`~repro.simulation.inference.ExecutionPlan`
cells to score against it (the evaluation context itself —
eval/calibration arrays, batch size — is a property of the hosting
service and is folded into every cell's content-addressed key; the
manager computes the keys once, at submit, and the job carries them as
:attr:`Job.keys`).  The ``session`` and ``label`` a client chooses are
tags the job and its view carry; nothing is keyed by them.  Jobs move
through a strict lifecycle::

    QUEUED -> RUNNING -> DONE | FAILED
    QUEUED ------------> CANCELLED        (service closed)

A job whose every cell is already cached runs through ``RUNNING`` to
``DONE`` inside the submit call, so it is never queued.

Cancellations carry a machine-readable :attr:`Job.reason` code alongside
the human message: ``"service_closed"`` when the daemon shut down with
the job still queued.

State transitions happen on the dispatcher thread, or on the submitting
thread for a job whose every cell is already cached; readers (HTTP
handler threads, waiting clients) synchronize through :meth:`Job.wait` /
:meth:`Job.view`, which snapshot under the job's lock.
"""

from __future__ import annotations

import enum
import threading
from typing import Sequence

from repro.simulation.inference import ExecutionPlan


class JobState(str, enum.Enum):
    """Lifecycle states of a job (string-valued: JSON-able as-is)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """One submitted plan-set evaluation against one hosted model."""

    def __init__(
        self,
        job_id: str,
        session_id: str,
        model_index: int,
        plans: Sequence[ExecutionPlan],
        keys: Sequence[str],
        label: str = "",
    ):
        self.id = job_id
        self.session_id = session_id
        self.model_index = int(model_index)
        self.plans = list(plans)
        #: The result-cache key of each plan, in plan order.
        self.keys = list(keys)
        self.label = str(label)
        #: Machine-readable cancellation code (``service_closed``);
        #: ``None`` unless CANCELLED.
        self.reason: str | None = None
        self.state = JobState.QUEUED
        #: Accuracies in plan submission order (set when DONE).
        self.accuracies: list[float] | None = None
        #: Human-readable failure reason (set when FAILED/CANCELLED).
        self.error: str | None = None
        #: Cells served from the service-level result cache / freshly evaluated.
        self.cache_hits = 0
        self.cache_misses = 0
        self._lock = threading.Lock()
        self._finished = threading.Event()

    def __len__(self) -> int:
        return len(self.plans)

    # ------------------------------------------------------------------
    # Dispatcher-side transitions
    # ------------------------------------------------------------------
    def mark_running(self) -> None:
        with self._lock:
            self.state = JobState.RUNNING

    def finish(self, accuracies: list[float], hits: int, misses: int) -> None:
        with self._lock:
            self.accuracies = list(accuracies)
            self.cache_hits = int(hits)
            self.cache_misses = int(misses)
            self.state = JobState.DONE
        self._finished.set()

    def fail(self, error: str) -> None:
        with self._lock:
            self.error = str(error)
            self.state = JobState.FAILED
        self._finished.set()

    def cancel(self) -> None:
        with self._lock:
            self.error = "service closed while job was queued"
            self.reason = "service_closed"
            self.state = JobState.CANCELLED
        self._finished.set()

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (or ``timeout``)."""
        return self._finished.wait(timeout)

    def view(self) -> dict:
        """JSON-able snapshot of the job (the GET ``/jobs/<id>`` payload)."""
        with self._lock:
            return {
                "id": self.id,
                "session": self.session_id,
                "model_index": self.model_index,
                "label": self.label,
                "state": self.state.value,
                "reason": self.reason,
                "cells": len(self.plans),
                "accuracies": None
                if self.accuracies is None
                else list(self.accuracies),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "error": self.error,
            }


__all__ = ["Job", "JobState"]
