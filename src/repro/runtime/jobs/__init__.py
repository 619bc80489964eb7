"""The jobs layer of the evaluation runtime (layer 2 of 3).

The runtime stack is three explicit layers::

    layer 3  transport   repro serve (HTTP daemon)  /  in-process clients
    layer 2  jobs        JobManager: bounded FIFO queue, service-level
                         result cache
    layer 1  engine      EvaluationService: prefix-aware scheduling,
                         worker pool

This package is layer 2: a FIFO job queue with a bounded depth, drained
in submission order by one dispatcher, and the content-addressed
service-level result cache that makes duplicate cells free across any
client (a job whose every cell is cached finishes at submit, without
queueing) — without the engine below knowing clients exist or the
transport above knowing how cells execute.  A job's ``session`` is a tag
its client chooses; nothing is keyed or capped by it.

Entry points: :class:`JobManager` (host a service), :class:`LocalJobClient`
/ :class:`HttpJobClient` (talk to one), :class:`RemotePlanEvaluator` (run
a DSE campaign against one), :func:`sweep_over_jobs` (the Table III sweep
as jobs).
"""

from repro.runtime.jobs.cache import ResultCache
from repro.runtime.jobs.client import (
    HttpJobClient,
    JobClientError,
    JobFailedError,
    LocalJobClient,
    RemoteBatch,
    RemotePlanEvaluator,
    sweep_over_jobs,
)
from repro.runtime.jobs.codec import (
    PlanCodecError,
    decode_plan,
    decode_plans,
    encode_plan,
    encode_plans,
)
from repro.runtime.jobs.manager import JobManager
from repro.runtime.jobs.model import Job, JobState
from repro.runtime.jobs.queue import AdmissionError, JobQueue

__all__ = [
    "AdmissionError",
    "HttpJobClient",
    "Job",
    "JobClientError",
    "JobFailedError",
    "JobManager",
    "JobQueue",
    "JobState",
    "LocalJobClient",
    "PlanCodecError",
    "RemoteBatch",
    "RemotePlanEvaluator",
    "ResultCache",
    "decode_plan",
    "decode_plans",
    "encode_plan",
    "encode_plans",
    "sweep_over_jobs",
]
