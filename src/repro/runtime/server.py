"""`repro serve`: the evaluation runtime behind an HTTP boundary (layer 3).

A long-lived daemon fronting one :class:`~repro.runtime.jobs.manager.
JobManager`: clients POST (model-ref, plan-set) jobs and poll results,
many concurrent campaigns multiplex one warm worker pool with hosted
models already published, and the service-level result cache makes
duplicate cells free across *all* of them.  Stdlib only
(:class:`http.server.ThreadingHTTPServer` + ``json``): no new
dependencies.

API (all JSON)::

    GET  /healthz        {"status": "ok", "models": N, "uptime_s": ...}
    GET  /stats          the repro-runtime-stats/v1.4 payload
    GET  /models         {"models": [{index, name, dataset,
                                      mac_layer_names, context_key}, ...]}
    POST /jobs           {"model": name [, "dataset": name] | "model_index": i,
                          "plans": [...], "session": ..., "label": ...}
                         -> 202 {"job": {...}}   (409-free: poll the job)
                         -> 400 bad Content-Length, unknown payload keys,
                                bad model/plan payloads
                         -> 404 unknown model
                         -> 429 {"reason": "closed" | "queue_full" |
                                           "session_busy"}
    GET  /jobs/<id>      {"job": {id, state, accuracies, cache_hits, ...}}

Plans travel through the fingerprint-preserving codec
(:mod:`repro.runtime.jobs.codec`), so a served job's content-addressed
cell keys — and therefore its cache hits and ledger records — are
identical to running the same job in-process.  Handler threads only
enqueue and snapshot; all evaluation happens on the manager's dispatcher
thread, keeping the engine single-submitter.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.runtime.jobs.codec import PlanCodecError, decode_plans
from repro.runtime.jobs.manager import JobManager
from repro.runtime.jobs.queue import AdmissionError
from repro.runtime.jobs.sessions import SessionError

#: Every key a ``POST /jobs`` payload may carry; anything else is a 400, so
#: a misspelled ``session`` cannot silently run in the default session.
JOB_PAYLOAD_KEYS = frozenset(
    {"model", "model_index", "dataset", "plans", "session", "label"}
)


class JobServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one :class:`JobManager`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`server_port` — the smoke test's handshake).  The server does
    not own the manager's lifecycle by default; :meth:`shutdown_and_close`
    is the one-call graceful teardown the CLI's signal handlers use.
    """

    daemon_threads = True

    def __init__(self, manager: JobManager, host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        self.started_at = time.monotonic()
        super().__init__((host, port), _JobRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_and_close(self) -> None:
        """Stop serving, cancel queued jobs, close the engine (idempotent)."""
        self.shutdown()
        self.server_close()
        self.manager.close()


class _JobRequestHandler(BaseHTTPRequestHandler):
    """Routes the five endpoints; every response body is JSON."""

    server: JobServer
    protocol_version = "HTTP/1.1"

    # Quiet by default: a polling client would flood stderr with one log
    # line per request.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:  # also ends this keep-alive connection after the reply
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, **extra) -> None:
        self._send_json(status, {"error": message, **extra})

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        manager = self.server.manager
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "models": len(manager.service.models),
                        "uptime_s": time.monotonic() - self.server.started_at,
                    },
                )
            elif path == "/stats":
                self._send_json(200, manager.stats())
            elif path == "/models":
                self._send_json(200, {"models": manager.models()})
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                try:
                    job = manager.job(job_id)
                except KeyError:
                    self._send_error_json(404, f"unknown job {job_id!r}")
                    return
                self._send_json(200, {"job": job.view()})
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._send_error_json(404, f"no such endpoint: {path}")
            return
        try:
            self._submit_job()
        except BrokenPipeError:
            pass
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(error).__name__}: {error}")

    def _submit_job(self) -> None:
        manager = self.server.manager
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            # The body's extent is unknown: reading it could block forever
            # (``-1`` reads to EOF) or misparse it as the next request, so
            # answer unread and drop the connection.
            message = f"Content-Length must be a non-negative integer, got {length!r}"
            self._send_json(400, {"error": message}, close=True)
            return
        try:
            payload = json.loads(self.rfile.read(int(length)).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send_error_json(400, f"request body is not valid JSON: {error}")
            return
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return
        unknown = sorted(set(payload) - JOB_PAYLOAD_KEYS)
        if unknown:
            self._send_error_json(
                400,
                f"unknown job payload keys: {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(JOB_PAYLOAD_KEYS))})",
            )
            return
        # Resolve the model reference: explicit index or name (+ dataset).
        if "model_index" in payload:
            model_index = payload["model_index"]
            # bool subclasses int: `true` must not sneak in as index 1.
            if (
                not isinstance(model_index, int)
                or isinstance(model_index, bool)
                or not 0 <= model_index < len(manager.service.models)
            ):
                self._send_error_json(404, f"unknown model index {model_index!r}")
                return
        elif "model" in payload:
            try:
                model_index = manager.resolve_model(
                    str(payload["model"]), payload.get("dataset")
                )
            except KeyError as error:
                self._send_error_json(404, str(error))
                return
        else:
            self._send_error_json(400, "payload needs 'model' or 'model_index'")
            return
        try:
            plans = decode_plans(payload.get("plans"))
        except PlanCodecError as error:
            self._send_error_json(400, str(error))
            return
        if not plans:
            self._send_error_json(400, "a job needs at least one plan")
            return
        try:
            job = manager.submit(
                model_index,
                plans,
                session=str(payload.get("session", "default")),
                label=str(payload.get("label", "")),
            )
        except AdmissionError as error:
            self._send_error_json(429, error.message, reason=error.reason)
            return
        except SessionError as error:
            self._send_error_json(400, str(error))
            return
        except (ValueError, TypeError, IndexError) as error:
            self._send_error_json(400, str(error))
            return
        self._send_json(202, {"job": job.view()})


def serve(
    manager: JobManager, host: str = "127.0.0.1", port: int = 0
) -> JobServer:
    """Bind a :class:`JobServer`; the caller drives ``serve_forever()``."""
    return JobServer(manager, host=host, port=port)


__all__ = ["JobServer", "serve"]
