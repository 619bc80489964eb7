"""Job clients: one interface, an in-process and an HTTP binding.

Everything above the jobs layer talks to a *client* exposing the same five
operations — ``models()``, ``submit_job()``, ``job()``, ``wait()``,
``stats()`` — so the CLI verbs, the sweep helpers and the DSE campaign do
not know (or care) whether the evaluation engine lives in this process or
behind ``repro serve``:

* :class:`LocalJobClient` binds the interface straight onto a
  :class:`~repro.runtime.jobs.manager.JobManager`;
* :class:`HttpJobClient` speaks the daemon's JSON API over stdlib
  ``urllib`` (POST ``/jobs``, then a blocking GET ``/jobs/<id>?wait=S``
  unless the POST reply already ended the job), translating admission
  rejections (HTTP 429: ``queue_full`` or ``closed``) back into
  :class:`~repro.runtime.jobs.queue.AdmissionError`;
* :class:`RemotePlanEvaluator` adapts either client to the DSE campaign's
  evaluator surface (the blocking ``evaluate``, ``context_key``,
  ``mac_layer_names`` and the ``evaluations`` count, as
  :class:`~repro.dse.evaluator.PlanEvaluator`), so ``repro dse --remote
  URL`` runs the exact same search loop against a daemon — with the
  server-reported context key keeping ledger records interchangeable with
  local campaigns;
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
    """A waited-on job reached ``failed`` (or ``cancelled``) instead of ``done``.

    The message is one line: the first line of the job's error (the
    exception type and message).  ``view["error"]`` keeps the daemon's
    full traceback.
    """

    def __init__(self, view: dict):
        summary = (str(view.get("error")).splitlines() or [""])[0]
        super().__init__(f"job {view.get('id')} {view.get('state')}: {summary}")
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
    """The in-process binding: a thin veneer over one :class:`JobManager`,
    which it owns — closing the client closes the manager."""

    def __init__(self, manager: JobManager):
        self.manager = manager

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

    :meth:`wait` sends no request for a job the ``POST /jobs`` reply
    already showed ended (every cell cached); otherwise it holds one
    ``GET /jobs/<id>?wait=S`` open at a time, which the daemon answers as
    soon as the job ends.  ``request_timeout`` bounds every single HTTP
    round trip, so a hung daemon surfaces as :class:`JobClientError`
    instead of blocking forever; a held GET asks for at most half of it,
    so the daemon always answers first.

    Transport-level failures (connection refused/reset, timeout — i.e. no
    HTTP response at all) are **retried for GETs only**, up to
    :data:`GET_RETRIES` times with exponential backoff from
    :data:`RETRY_BACKOFF_S` capped at :data:`RETRY_MAX_BACKOFF_S`: job
    views and stats reads are idempotent, so one blip mid-campaign should
    not fail hours of work.  ``POST /jobs`` is *never* retried — a
    submission that died after reaching the daemon may already be queued,
    and a blind resend would double-submit.  HTTP error responses
    (4xx/5xx) are never retried either: the daemon answered; retrying
    cannot change it.
    """

    def __init__(self, base_url: str, request_timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.request_timeout = float(request_timeout)
        self._model_cache: list[dict] | None = None
        #: Views of jobs whose POST reply already showed them ended, until
        #: :meth:`wait` takes them.
        self._ended: dict[str, dict] = {}

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
        view = self._request("POST", "/jobs", payload)["job"]
        if JobState(view["state"]).terminal:
            self._ended[view["id"]] = view
        return view["id"]

    def job(self, job_id: str, wait: float = 0.0) -> dict:
        """The job's view; with ``wait`` seconds, the daemon holds the
        reply until the job ends or the wait (at most its cap) runs out."""
        query = f"?wait={wait:.3f}" if wait > 0 else ""
        return self._request("GET", f"/jobs/{job_id}{query}")["job"]

    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        deadline = None if timeout is None else time.monotonic() + timeout
        view = self._ended.pop(job_id, None)
        while view is None or not JobState(view["state"]).terminal:
            hold = self.request_timeout / 2
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if view is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {view['state']} after {timeout}s"
                    )
                hold = max(0.0, min(hold, remaining))
            view = self.job(job_id, wait=hold)
        if view["state"] != JobState.DONE.value:
            raise JobFailedError(view)
        return view

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def close(self) -> None:
        """Nothing to release client-side (the daemon outlives its clients)."""

    def __enter__(self) -> "HttpJobClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemotePlanEvaluator:
    """DSE evaluator surface over a job client (the ``--remote`` campaign path).

    :meth:`evaluate` submits one job per candidate batch and waits it out;
    the context key and MAC layer names come from the server's ``/models``
    descriptors, so ledger records a remote campaign writes are
    interchangeable with local runs of the same measurement setup.  The
    Fig. 5 techniques score through this same surface, except that the
    weight-oriented one reads weight codes from a local executor
    (:attr:`executor`), which a remote evaluator does not have.
    """

    def __init__(
        self,
        client: "LocalJobClient | HttpJobClient",
        model: "int | str",
        dataset: str | None = None,
    ):
        self.client = client
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
            "the weight-oriented strategy reads the model's weight codes from "
            "a local executor, which a remote evaluation service does not "
            "expose; run it without --remote"
        )

    def context_key(self) -> str:
        return self.info["context_key"]

    def mac_layer_names(self) -> list[str]:
        return list(self.info["mac_layer_names"])

    def evaluate(self, plans: Sequence[ExecutionPlan]) -> list[float]:
        """Accuracies of ``plans``, in input order: one job, waited out."""
        plans = list(plans)
        if not plans:
            return []
        self._batch_seq += 1
        job_id = self.client.submit_job(
            self.model_index, plans, label=f"dse-batch-{self._batch_seq}"
        )
        self.evaluations += len(plans)
        view = self.client.wait(job_id)
        return [float(value) for value in view["accuracies"]]


def sweep_over_jobs(
    client: "LocalJobClient | HttpJobClient",
    perforations: Sequence[int] = (1, 2, 3),
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
    "RemotePlanEvaluator",
    "JobFailedError",
    "JobClientError",
    "sweep_over_jobs",
    "decode_plans",
    "encode_plans",
]
