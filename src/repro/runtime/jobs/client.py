"""Job clients: one interface, an in-process and an HTTP binding.

Everything above the jobs layer talks to a *client* exposing the same five
operations — ``models()``, ``submit_job()``, ``job()``, ``wait()``,
``stats()`` — so the CLI verbs, the sweep helpers and the DSE campaign do
not know (or care) whether the evaluation engine lives in this process or
behind ``repro serve``:

* :class:`LocalJobClient` binds the interface straight onto a
  :class:`~repro.runtime.jobs.manager.JobManager`;
* :class:`HttpJobClient` speaks the daemon's JSON API over stdlib
  ``urllib`` (POST ``/jobs``, poll GET ``/jobs/<id>``), translating
  admission rejections (HTTP 429) back into
  :class:`~repro.runtime.jobs.queue.AdmissionError`;
* :class:`RemotePlanEvaluator` adapts either client to the DSE campaign's
  evaluator surface (``evaluate`` / ``submit`` / ``context_key`` /
  ``mac_layer_names``), so ``repro dse --remote URL`` runs the exact same
  search loop against a daemon — with the server-reported context key
  keeping ledger records interchangeable with local campaigns;
* :func:`sweep_over_jobs` rebuilds the Table III sweep on the job API (one
  job per model), bit-exact with
  :func:`~repro.simulation.campaign.accuracy_sweep`.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Sequence

from repro.runtime.jobs.codec import decode_plans, encode_plans
from repro.runtime.jobs.manager import JobManager
from repro.runtime.jobs.model import JobState
from repro.runtime.jobs.queue import AdmissionError
from repro.simulation.inference import ExecutionPlan

#: Transport-failure retries of one idempotent GET (POSTs never retry).
GET_RETRIES = 3
#: First retry delay; doubled per attempt up to :data:`RETRY_MAX_BACKOFF_S`.
RETRY_BACKOFF_S = 0.05
RETRY_MAX_BACKOFF_S = 2.0


class JobFailedError(RuntimeError):
    """A polled job reached ``failed`` (or ``cancelled``) instead of ``done``."""

    def __init__(self, view: dict):
        super().__init__(
            f"job {view.get('id')} {view.get('state')}: {view.get('error')}"
        )
        self.view = view


class JobClientError(RuntimeError):
    """A transport-level error from the HTTP binding (non-2xx, bad payload,
    unreachable or unresponsive daemon).  ``status`` is ``None`` when no
    HTTP response was received at all (connection refused, timeout)."""

    def __init__(self, status: "int | None", message: str):
        prefix = f"HTTP {status}" if status is not None else "transport error"
        super().__init__(f"{prefix}: {message}")
        self.status = status


class LocalJobClient:
    """The in-process binding: a thin veneer over one :class:`JobManager`.

    ``own_manager=True`` (default) closes the manager with the client —
    the single-owner shape the CLI verbs use.
    """

    def __init__(self, manager: JobManager, own_manager: bool = True):
        self.manager = manager
        self._own_manager = bool(own_manager)

    # ------------------------------------------------------------------
    def models(self) -> list[dict]:
        return self.manager.models()

    def submit_job(
        self,
        model: "int | str",
        plans: Sequence[ExecutionPlan],
        session: str = "default",
        label: str = "",
        dataset: str | None = None,
    ) -> str:
        if isinstance(model, str):
            model = self.manager.resolve_model(model, dataset)
        return self.manager.submit(model, plans, session=session, label=label).id

    def job(self, job_id: str) -> dict:
        return self.manager.job(job_id).view()

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job is terminal; returns its final view.

        Raises :class:`JobFailedError` on ``failed``/``cancelled`` and
        :class:`TimeoutError` when ``timeout`` elapses first.
        """
        job = self.manager.job(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.state.value} after {timeout}s")
        view = job.view()
        if view["state"] != JobState.DONE.value:
            raise JobFailedError(view)
        return view

    def stats(self) -> dict:
        return self.manager.stats()

    def close(self) -> None:
        if self._own_manager:
            self.manager.close()

    def __enter__(self) -> "LocalJobClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class HttpJobClient:
    """The wire binding: the same interface against a ``repro serve`` daemon.

    Plans are shipped through the fingerprint-preserving codec
    (:mod:`repro.runtime.jobs.codec`), so content-addressed cell keys —
    and therefore cache hits and ledger records — are identical to
    submitting the same plans in-process.

    ``request_timeout`` bounds every single HTTP round trip, so a hung
    daemon surfaces as :class:`JobClientError` instead of blocking forever
    — in particular :meth:`wait`'s deadline keeps ticking because no one
    poll can stall past the request timeout.

    Transport-level failures (connection refused/reset, timeout — i.e. no
    HTTP response at all) are **retried for GETs only**, up to
    :data:`GET_RETRIES` times with exponential backoff from
    :data:`RETRY_BACKOFF_S` capped at :data:`RETRY_MAX_BACKOFF_S`: status
    polls and stats reads are idempotent, so one blip mid-campaign should
    not fail hours of work.  ``POST /jobs`` is *never* retried — a
    submission that died after reaching the daemon may already hold an
    in-flight slot, and a blind resend would double-submit.  HTTP error
    responses (4xx/5xx) are never retried either: the daemon answered;
    retrying cannot change it.
    """

    def __init__(
        self,
        base_url: str,
        poll_interval: float = 0.05,
        request_timeout: float = 60.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.poll_interval = float(poll_interval)
        self.request_timeout = float(request_timeout)
        self._model_cache: list[dict] | None = None

    # ------------------------------------------------------------------
    def _request_once(self, method: str, path: str, payload: dict | None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.request_timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", errors="replace")
            try:
                parsed = json.loads(body)
            except json.JSONDecodeError:
                parsed = {"error": body}
            message = parsed.get("error", body)
            if error.code == 429:
                raise AdmissionError(
                    parsed.get("reason", "rejected"), message
                ) from None
            raise JobClientError(error.code, message) from None
        except (
            urllib.error.URLError,
            TimeoutError,
            ConnectionError,
            http.client.HTTPException,
        ) as error:
            # Connection refused/reset, DNS failure, socket timeout, or a
            # connection that died mid-response (RemoteDisconnected,
            # IncompleteRead): no usable HTTP response, so no status.
            reason = getattr(error, "reason", error)
            raise JobClientError(
                None, f"cannot reach {self.base_url}{path}: {reason}"
            ) from None

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        # Only idempotent GETs retry; see the class docstring.
        attempts = 1 + (GET_RETRIES if method == "GET" else 0)
        delay = RETRY_BACKOFF_S
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, payload)
            except JobClientError as error:
                if error.status is not None or attempt + 1 == attempts:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, RETRY_MAX_BACKOFF_S)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def models(self) -> list[dict]:
        if self._model_cache is None:
            self._model_cache = self._request("GET", "/models")["models"]
        return self._model_cache

    def submit_job(
        self,
        model: "int | str",
        plans: Sequence[ExecutionPlan],
        session: str = "default",
        label: str = "",
        dataset: str | None = None,
    ) -> str:
        payload: dict = {
            "plans": encode_plans(list(plans)),
            "session": session,
            "label": label,
        }
        if isinstance(model, int):
            payload["model_index"] = model
        else:
            payload["model"] = model
            if dataset is not None:
                payload["dataset"] = dataset
        return self._request("POST", "/jobs", payload)["job"]["id"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")["job"]

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            state = view["state"]
            if state == JobState.DONE.value:
                return view
            if state in (JobState.FAILED.value, JobState.CANCELLED.value):
                raise JobFailedError(view)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {state} after {timeout}s")
            time.sleep(self.poll_interval)

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def close(self) -> None:
        """Nothing to release client-side (the daemon outlives its clients)."""

    def __enter__(self) -> "HttpJobClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteBatch:
    """Async handle of one submitted job (``results()`` polls to completion)."""

    def __init__(self, client, job_id: str, num_plans: int):
        self._client = client
        self.job_id = job_id
        self._num_plans = num_plans

    def __len__(self) -> int:
        return self._num_plans

    def results(self) -> list[float]:
        view = self._client.wait(self.job_id)
        return [float(value) for value in view["accuracies"]]


class RemotePlanEvaluator:
    """DSE evaluator surface over a job client (the ``--remote`` campaign path).

    Scoring submits one job per candidate batch; the context key and MAC
    layer names come from the server's ``/models`` descriptors, so ledger
    records a remote campaign writes are interchangeable with local runs
    of the same measurement setup.  The one-call baseline adapters need a
    local executor (:attr:`executor`) — not available remotely by design.
    """

    def __init__(
        self,
        client: "LocalJobClient | HttpJobClient",
        model: "int | str",
        dataset: str | None = None,
        session: str = "default",
    ):
        self.client = client
        self.session = session
        infos = client.models()
        if isinstance(model, int):
            matches = [info for info in infos if info["index"] == model]
        else:
            matches = [
                info
                for info in infos
                if info["name"] == model
                and (dataset is None or info["dataset"] == dataset)
            ]
        if not matches:
            raise KeyError(f"service hosts no model {model!r} (dataset={dataset!r})")
        if len(matches) > 1:
            raise KeyError(
                f"model {model!r} is hosted for several datasets; pass dataset"
            )
        self.info = matches[0]
        self.model_index = int(self.info["index"])
        self.evaluations = 0
        self._batch_seq = 0

    # ------------------------------------------------------------------
    @property
    def executor(self):
        raise RuntimeError(
            "baseline strategies drive a local executor directly and cannot "
            "run against a remote evaluation service; run them without --remote"
        )

    def context_key(self) -> str:
        return self.info["context_key"]

    def mac_layer_names(self) -> list[str]:
        return list(self.info["mac_layer_names"])

    def submit(self, plans: Sequence[ExecutionPlan]) -> RemoteBatch:
        plans = list(plans)
        if not plans:
            from repro.runtime.service import EvaluationBatch

            return EvaluationBatch([], [], [], None)
        self._batch_seq += 1
        job_id = self.client.submit_job(
            self.model_index,
            plans,
            session=self.session,
            label=f"dse-batch-{self._batch_seq}",
        )
        self.evaluations += len(plans)
        return RemoteBatch(self.client, job_id, len(plans))

    def evaluate(self, plans: Sequence[ExecutionPlan]) -> list[float]:
        return self.submit(plans).results()


def sweep_over_jobs(
    client: "LocalJobClient | HttpJobClient",
    perforations: Sequence[int] = (1, 2, 3),
    session: str = "default",
    models: "Sequence[int] | None" = None,
):
    """The Table III sweep as jobs: one job per hosted model.

    Submits every model's cells (accurate baseline + every ``(m, cv)``
    combination) as one job, waits them out in submission order, and
    assembles the standard :class:`~repro.simulation.campaign.SweepResult`
    — bit-exact with :func:`~repro.simulation.campaign.accuracy_sweep`
    over the same hosted models, because the engine underneath is the
    same.  Returns ``(result, job_stats)`` where ``job_stats`` carries the
    per-sweep cache totals (``{"jobs", "cells", "cache_hits",
    "cache_misses"}``).

    ``models`` restricts the sweep to those hosted-model indices.
    """
    from repro.simulation.campaign import (
        _assemble_sweep_result,
        _spec_plan,
        _sweep_cell_specs,
    )

    infos = client.models()
    if models is not None:
        wanted = set(int(index) for index in models)
        infos = [info for info in infos if info["index"] in wanted]
    if not infos:
        raise ValueError("no hosted models to sweep")

    class _ModelRef:
        def __init__(self, name: str, dataset_name: str):
            self.name = name
            self.dataset_name = dataset_name

    refs = [_ModelRef(info["name"], info["dataset"]) for info in infos]
    specs = _sweep_cell_specs(refs, perforations)
    per_model: dict[int, list[tuple[int, int | None, bool]]] = {}
    for ref_index, m, with_cv in specs:
        per_model.setdefault(ref_index, []).append((ref_index, m, with_cv))
    job_ids: list[tuple[int, str]] = []
    for ref_index, model_specs in per_model.items():
        plans = [_spec_plan(m, with_cv) for _, m, with_cv in model_specs]
        job_ids.append(
            (
                ref_index,
                client.submit_job(
                    infos[ref_index]["index"],
                    plans,
                    session=session,
                    label=f"sweep-{refs[ref_index].name}",
                ),
            )
        )
    cell_results: list[tuple[int, int | None, bool, float]] = []
    totals = {"jobs": len(job_ids), "cells": 0, "cache_hits": 0, "cache_misses": 0}
    for ref_index, job_id in job_ids:
        view = client.wait(job_id)
        totals["cells"] += view["cells"]
        totals["cache_hits"] += view["cache_hits"]
        totals["cache_misses"] += view["cache_misses"]
        for (spec_index, m, with_cv), acc in zip(per_model[ref_index], view["accuracies"]):
            cell_results.append((spec_index, m, with_cv, float(acc)))
    return _assemble_sweep_result(refs, perforations, cell_results), totals


__all__ = [
    "LocalJobClient",
    "HttpJobClient",
    "RemoteBatch",
    "RemotePlanEvaluator",
    "JobFailedError",
    "JobClientError",
    "sweep_over_jobs",
    "decode_plans",
    "encode_plans",
]
