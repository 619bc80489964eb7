"""`JobManager`: the jobs layer between clients and the evaluation engine.

One manager owns one :class:`~repro.runtime.service.EvaluationService`
(layer 1) and puts two things in front of it:

* a FIFO :class:`~repro.runtime.jobs.queue.JobQueue` with a bounded
  depth, drained by one dispatcher thread — the engine keeps its
  single-submitter contract, and jobs from any number of clients
  serialize deterministically;
* the service-level :class:`~repro.runtime.jobs.cache.ResultCache` — every
  completed cell is stored under its content-addressed key (the exact
  :func:`~repro.dse.ledger.plan_key` recipe campaign ledgers use), so a
  duplicate cell from *any* client is a recorded cache hit.  A job whose
  every cell is cached finishes inside :meth:`JobManager.submit` and never
  waits behind the queue.

A job's ``session`` is a tag the client chooses (checked against
:data:`SESSION_ID_PATTERN`); nothing is keyed or capped by it.

Both transports sit on top of it: :class:`~repro.runtime.jobs.client.
LocalJobClient` calls it in-process, the HTTP daemon
(:mod:`repro.runtime.server`) exposes the same operations over the wire —
one code path, two bindings.

``close()`` cancels queued jobs (they report ``cancelled``), waits the
dispatcher out, and closes the engine, draining its workers.
"""

from __future__ import annotations

import re
import threading
import traceback
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.datasets.synthetic import Dataset
from repro.runtime.jobs.cache import ResultCache
from repro.runtime.jobs.model import Job, JobState
from repro.runtime.jobs.queue import AdmissionError, JobQueue
from repro.runtime.service import EvaluationService
from repro.runtime.stats import runtime_stats
from repro.simulation.inference import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.campaign import TrainedModel

#: Session tags: 1-64 characters from ``[A-Za-z0-9._-]``, starting with an
#: alphanumeric.
SESSION_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class JobManager:
    """Queue, result cache and dispatcher over one evaluation engine.

    Parameters
    ----------
    trained_models / datasets:
        The hosted models and their datasets, served by an owned
        :class:`~repro.runtime.service.EvaluationService`.
    max_workers / max_eval_images / calibration_images:
        Engine knobs, as in :class:`~repro.runtime.service.EvaluationService`
        (the worker count is honored verbatim).
    max_queue_depth:
        Admission bound (see :class:`~repro.runtime.jobs.queue.JobQueue`).
    cache_persist_dir:
        Spill the result cache through an on-disk
        :class:`~repro.dse.ledger.CampaignLedger` rooted here: every
        completed cell is written through, and a restarted manager loads
        the directory back so it starts warm (a repeated sweep is a 100%
        cache-hit run).  ``None`` keeps the cache memory-only.
    auto_start:
        Start the dispatcher thread immediately.  ``False`` leaves jobs
        queued until :meth:`start` — deterministic admission-control tests
        fill the queue without racing the dispatcher.
    """

    def __init__(
        self,
        trained_models: "Iterable[TrainedModel]",
        datasets: dict[str, Dataset],
        *,
        max_workers: int = 1,
        max_eval_images: int | None = None,
        calibration_images: int = 128,
        max_queue_depth: int = 64,
        cache_persist_dir: str | None = None,
        auto_start: bool = True,
    ):
        self.service = EvaluationService(
            trained_models,
            datasets,
            max_workers=max_workers,
            max_eval_images=max_eval_images,
            calibration_images=calibration_images,
        )
        self.queue = JobQueue(max_depth=max_queue_depth)
        self.cache = ResultCache(persist_dir=cache_persist_dir)
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
        """Cancel queued jobs, stop the dispatcher, close the engine.

        Queued (never started) jobs transition to ``cancelled``; the job
        currently running is waited out.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        # The closed queue admits nothing more, so one drain cancels every
        # job the dispatcher has not popped.
        self.queue.close()
        for job in self.queue.drain():
            job.cancel()
            self._finalize(job)
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
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
        """One consistent schema over engine, jobs and cache."""
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
        """Admit one job and return it (see :meth:`Job.wait`).

        The job's cell keys are computed here, once.  When the result
        cache already holds every cell, the job runs to ``done`` on the
        calling thread before this returns; otherwise it queues for the
        dispatcher, which evaluates the missing cells.

        Raises :class:`~repro.runtime.jobs.queue.AdmissionError` when the
        service is closed or the queue is full, and plain ``IndexError`` /
        ``TypeError`` / ``ValueError`` on malformed input — a ``session``
        or ``label`` that is not a string, a session tag outside
        :data:`SESSION_ID_PATTERN`, or a plan that overrides a layer the
        model does not have (the transport maps the two families to 429
        and 400).  Every refusal comes from the queue, which counts it.
        """
        for name, value in (("session", session), ("label", label)):
            if not isinstance(value, str):
                raise TypeError(f"job {name} must be a string, got {value!r}")
        if not SESSION_ID_PATTERN.match(session):
            raise ValueError(
                f"invalid session id {session!r}: use 1-64 characters from "
                "[A-Za-z0-9._-], starting with an alphanumeric"
            )
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
        from repro.dse.ledger import plan_key

        context = self.context_key(model_index)
        keys = [plan_key(context, plan, mac_names) for plan in plans]
        # Uncounted: the lookup that counts is _run_job's, once per cell.
        all_cached = self.cache.contains_all(keys)
        with self._lock:
            self._seq += 1
            job = Job(
                f"job-{self._seq:06d}", session, model_index, plans, keys, label=label
            )
            self._jobs[job.id] = job
        try:
            if all_cached:
                self.queue.admit()
            else:
                self.queue.push(job)
        except AdmissionError:
            # Forget the job but keep `_seq` where it is: rolling the mint
            # back would race a concurrent submit into reusing a live ID.
            with self._lock:
                del self._jobs[job.id]
            raise
        with self._lock:
            self._submitted += 1
        if all_cached:
            # Every lookup hits (the cache never drops an entry), so this
            # thread never calls the engine: only the dispatcher does.
            self._execute(job)
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
            self._execute(job)

    def _execute(self, job: Job) -> None:
        try:
            self._run_job(job)
        except BaseException as exc:  # the calling thread must survive any job
            job.fail(f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        finally:
            self._finalize(job)

    def _run_job(self, job: Job) -> None:
        job.mark_running()
        # Dedup within the job, then against the service-level cache.
        values: dict[str, float] = {}
        missing: dict[str, ExecutionPlan] = {}
        for key, plan in zip(job.keys, job.plans):
            if key in values or key in missing:
                continue
            cached = self.cache.get(key)
            if cached is None:
                missing[key] = plan
            else:
                values[key] = cached
        if missing:
            accuracies = self.service.evaluate_plans(
                job.model_index, list(missing.values())
            )
            for key, acc in zip(missing, accuracies):
                values[key] = acc
                self.cache.put(key, acc)
        hits = len(job.keys) - len(missing)
        job.finish([values[key] for key in job.keys], hits, len(missing))

    def _finalize(self, job: Job) -> None:
        with self._lock:
            if job.state is JobState.DONE:
                self.jobs_completed += 1
            elif job.state is JobState.FAILED:
                self.jobs_failed += 1
            elif job.state is JobState.CANCELLED:
                self.jobs_cancelled += 1


__all__ = ["JobManager", "SESSION_ID_PATTERN"]
