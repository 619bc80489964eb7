"""`JobManager`: the jobs layer between clients and the evaluation engine.

One manager fronts one :class:`~repro.runtime.service.EvaluationService`
(layer 1) and owns everything multi-client about it:

* a FIFO :class:`~repro.runtime.jobs.queue.JobQueue` with admission
  control (bounded depth, per-session in-flight caps), drained by one
  dispatcher thread — the engine keeps its existing single-submitter
  contract, jobs from any number of clients serialize deterministically;
* per-client :class:`~repro.runtime.jobs.sessions.Session`\\ s (ledger
  namespaces, counters);
* the service-level :class:`~repro.runtime.jobs.cache.ResultCache` — every
  completed cell is stored under its content-addressed key (the exact
  :func:`~repro.dse.ledger.plan_key` recipe campaign ledgers use), so a
  duplicate cell from *any* client is a recorded cache hit;
* optional :class:`~repro.provenance.RunManifest` emission per served job.

Both transports sit on top of it: :class:`~repro.runtime.jobs.client.
LocalJobClient` calls it in-process, the HTTP daemon
(:mod:`repro.runtime.server`) exposes the same operations over the wire —
one code path, two bindings.

``close()`` cancels queued jobs (they report ``cancelled``), waits the
dispatcher out, and closes an *owned* engine — unlinking every shared
block, so a daemon shutdown leaks nothing in ``/dev/shm``.
"""

from __future__ import annotations

import threading
import traceback
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.datasets.synthetic import Dataset
from repro.runtime.jobs.cache import ResultCache
from repro.runtime.jobs.model import Job, JobState
from repro.runtime.jobs.queue import AdmissionError, JobQueue
from repro.runtime.jobs.sessions import SessionRegistry
from repro.runtime.service import EvaluationService
from repro.runtime.stats import runtime_stats
from repro.simulation.inference import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.campaign import TrainedModel


class JobManager:
    """Queue, sessions, result cache and dispatcher over one evaluation engine.

    Parameters
    ----------
    trained_models / datasets:
        The hosted models and their datasets; forwarded to an owned
        :class:`~repro.runtime.service.EvaluationService` unless
        ``service`` is given.
    service:
        An already-constructed engine to front (not owned: ``close()``
        leaves it running).  Mutually exclusive with the engine knobs.
    max_workers / requested_workers / max_eval_images / calibration_images:
        Engine knobs, as in :class:`~repro.runtime.service.EvaluationService`.
    max_queue_depth / max_inflight_per_session:
        Admission bounds (see :class:`~repro.runtime.jobs.queue.JobQueue`).
    cache_entries:
        Result-cache capacity (``None`` = unbounded).
    cache_persist_dir:
        Spill the result cache through an on-disk
        :class:`~repro.dse.ledger.CampaignLedger` rooted here: every
        completed cell is written through, and a restarted manager loads
        the directory back so it starts warm (a repeated sweep is a 100%
        cache-hit run).  ``None`` keeps the cache memory-only.
    ledger_dir:
        Root of per-session ledger namespaces; ``None`` keeps session
        ledgers in memory.
    record_manifests:
        Emit one digest-stamped :class:`~repro.provenance.RunManifest` per
        completed job (kind ``"job"``), as the CLI verbs do for their runs.
    auto_start:
        Start the dispatcher thread immediately.  ``False`` leaves jobs
        queued until :meth:`start` — deterministic admission-control tests
        fill the queue without racing the dispatcher.
    """

    def __init__(
        self,
        trained_models: "Iterable[TrainedModel] | None" = None,
        datasets: dict[str, Dataset] | None = None,
        *,
        service: EvaluationService | None = None,
        max_workers: int | None = 1,
        requested_workers: int | None = None,
        max_eval_images: int | None = None,
        calibration_images: int = 128,
        max_queue_depth: int = 64,
        max_inflight_per_session: int = 8,
        cache_entries: int | None = None,
        cache_persist_dir: str | None = None,
        ledger_dir: str | None = None,
        record_manifests: bool = False,
        auto_start: bool = True,
    ):
        if service is not None:
            if trained_models is not None or datasets is not None:
                raise ValueError(
                    "pass either a prebuilt service or models+datasets, not both"
                )
            self.service = service
            self._owns_service = False
        else:
            if trained_models is None or datasets is None:
                raise ValueError(
                    "JobManager needs trained_models and datasets (or a service)"
                )
            self.service = EvaluationService(
                trained_models,
                datasets,
                max_workers=max_workers,
                requested_workers=requested_workers,
                max_eval_images=max_eval_images,
                calibration_images=calibration_images,
            )
            self._owns_service = True
        self.queue = JobQueue(
            max_depth=max_queue_depth,
            max_inflight_per_session=max_inflight_per_session,
        )
        self.cache = ResultCache(cache_entries, persist_dir=cache_persist_dir)
        self.sessions = SessionRegistry(ledger_dir=ledger_dir)
        self.record_manifests = bool(record_manifests)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        #: Monotonic ID mint.  Never decremented — a rejected submission
        #: burns its ID, so a concurrent accepted job can never be
        #: overwritten by an ID reuse.  ``_submitted`` counts accepted jobs.
        self._seq = 0
        self._submitted = 0
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobManager":
        """Start the dispatcher thread (idempotent)."""
        if self._closed:
            raise RuntimeError("JobManager is closed")
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-job-dispatcher", daemon=True
            )
            self._dispatcher.start()
        return self

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Cancel queued jobs, stop the dispatcher, close an owned engine.

        Queued (never started) jobs transition to ``cancelled``; the job
        currently running is waited out.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self.queue.close()
        for job in self.queue.drain():
            job.cancel()
            self._finalize(job)
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        # Cancel anything pushed between drain() and the dispatcher's exit.
        for job in self.queue.drain():
            job.cancel()
            self._finalize(job)
        if self._owns_service:
            self.service.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def models(self) -> list[dict]:
        """JSON-able descriptors of the hosted models (the ``/models`` payload)."""
        return [
            {
                "index": index,
                "name": trained.name,
                "dataset": trained.dataset_name,
                "float_accuracy": trained.float_accuracy,
                "mac_layer_names": list(self.service.mac_names(index)),
                "context_key": self.context_key(index),
            }
            for index, trained in enumerate(self.service.models)
        ]

    def resolve_model(self, name: str, dataset_name: str | None = None) -> int:
        """Index of one hosted model by name (see ``EvaluationService.model_index``)."""
        return self.service.model_index(name, dataset_name)

    def context_key(self, model_index: int) -> str:
        """Evaluation-context digest of one hosted model's measurement setup.

        The service's own key (:meth:`~repro.runtime.service.
        EvaluationService.context_key`), which a
        :class:`~repro.dse.evaluator.PlanEvaluator` with the same setup
        reports too, so job-layer cache keys and campaign-ledger keys agree.
        """
        return self.service.context_key(model_index)

    def job(self, job_id: str) -> Job:
        """The job registered under ``job_id`` (:class:`KeyError` if unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def stats(self) -> dict:
        """One consistent schema over engine, jobs, cache and sessions."""
        with self._lock:
            jobs_submitted = self._submitted
            states: dict[str, int] = {}
            for job in self._jobs.values():
                state = job.state.value
                states[state] = states.get(state, 0) + 1
        return runtime_stats(
            engine=self.service.stats()["engine"],
            jobs={
                "submitted": jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "cancelled": self.jobs_cancelled,
                "rejected": self.queue.rejected,
                "by_state": states,
                **self.queue.stats(),
            },
            cache=self.cache.stats(),
            sessions=self.sessions.stats(),
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        model_index: int,
        plans: Sequence[ExecutionPlan],
        session: str = "default",
        label: str = "",
    ) -> Job:
        """Admit one job; returns it immediately (poll or :meth:`Job.wait`).

        Raises :class:`~repro.runtime.jobs.queue.AdmissionError` when the
        queue is full or the session is over its in-flight cap, and plain
        ``IndexError`` / ``TypeError`` / ``ValueError`` on malformed input —
        including a plan that overrides a layer the model does not have
        (the transport maps the two families to 429 and 400).
        """
        if self._closed:
            raise AdmissionError("closed", "job service is shut down")
        model_index = int(model_index)
        if not 0 <= model_index < len(self.service.models):
            raise IndexError(
                f"model index {model_index} out of range "
                f"(service hosts {len(self.service.models)} models)"
            )
        plans = list(plans)
        if not plans:
            raise ValueError("a job needs at least one plan")
        mac_names = self.service.mac_names(model_index)
        for plan in plans:
            if not isinstance(plan, ExecutionPlan):
                raise TypeError(f"job plans must be ExecutionPlans, got {plan!r}")
            plan.check_layers(mac_names)
        sess = self.sessions.get_or_create(session)
        with self._lock:
            self._seq += 1
            job = Job(f"job-{self._seq:06d}", sess.id, model_index, plans, label=label)
            self._jobs[job.id] = job
        try:
            self.queue.push(job, sess)
        except AdmissionError:
            # Forget the job but keep `_seq` where it is: rolling the mint
            # back would race a concurrent submit into reusing a live ID.
            with self._lock:
                del self._jobs[job.id]
            raise
        with self._lock:
            self._submitted += 1
            sess.jobs_submitted += 1
            sess.cells_submitted += len(plans)
        return job

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            try:
                self._run_job(job)
            except BaseException as exc:  # dispatcher must survive any job
                job.fail(f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            finally:
                self._finalize(job)

    def _run_job(self, job: Job) -> None:
        job.mark_running()
        mac_names = self.service.mac_names(job.model_index)
        context = self.context_key(job.model_index)
        from repro.dse.ledger import plan_key

        keys = [plan_key(context, plan, mac_names) for plan in job.plans]
        job.cell_keys = keys
        # Dedup within the job, then against the service-level cache.
        first_plan: dict[str, ExecutionPlan] = {}
        unique_keys: list[str] = []
        for key, plan in zip(keys, job.plans):
            if key not in first_plan:
                first_plan[key] = plan
                unique_keys.append(key)
        values: dict[str, float] = {}
        miss_keys: list[str] = []
        for key in unique_keys:
            cached = self.cache.get(key)
            if cached is not None:
                values[key] = cached
            else:
                miss_keys.append(key)
        if miss_keys:
            accuracies = self.service.evaluate_plans(
                job.model_index, [first_plan[key] for key in miss_keys]
            )
            session = self.sessions.get_or_create(job.session_id)
            for key, acc in zip(miss_keys, accuracies):
                values[key] = acc
                self.cache.put(key, acc)
                session.ledger.put(
                    key,
                    {
                        "kind": "job-cell",
                        "accuracy": acc,
                        "context": context,
                        "job": job.id,
                        "label": job.label,
                    },
                )
        hits = len(keys) - len(miss_keys)
        results = [values[key] for key in keys]
        if self.record_manifests:
            self._write_manifest(job, context, results, hits, len(miss_keys))
        job.finish(results, hits, len(miss_keys))

    def _write_manifest(
        self, job: Job, context: str, results: list[float], hits: int, misses: int
    ) -> None:
        from repro.provenance import record_run

        with record_run(
            "job",
            label=job.id,
            inputs={
                "job": {
                    "id": job.id,
                    "session": job.session_id,
                    "label": job.label,
                    "model": self.service.models[job.model_index].name,
                    "dataset": self.service.models[job.model_index].dataset_name,
                    "cells": len(job.plans),
                    "context_key": context,
                    "cell_keys": list(job.cell_keys or []),
                },
                "service": self.service.session_context(),
            },
        ) as manifest:
            manifest.outputs = {
                "accuracies": results,
                "cache_hits": hits,
                "cache_misses": misses,
            }

    def _finalize(self, job: Job) -> None:
        session = self.sessions.get_or_create(job.session_id)
        # The in-flight slot is owned by the queue lock (same lock push()
        # increments under); everything else here is manager-lock state.
        self.queue.release(session)
        with self._lock:
            if job.state is JobState.DONE:
                self.jobs_completed += 1
                session.jobs_completed += 1
                session.cache_hits += job.cache_hits
            elif job.state is JobState.FAILED:
                self.jobs_failed += 1
            elif job.state is JobState.CANCELLED:
                self.jobs_cancelled += 1


__all__ = ["JobManager"]
