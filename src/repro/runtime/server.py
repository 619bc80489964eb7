"""`repro serve`: the evaluation runtime behind an HTTP boundary (layer 3).

A long-lived daemon fronting one :class:`~repro.runtime.jobs.manager.
JobManager`: clients POST (model-ref, plan-set) jobs and wait for their
results, every job runs on one warm engine with the hosted models already
loaded, and the service-level result cache makes duplicate cells free
across all of them.  Stdlib only (:class:`http.server.ThreadingHTTPServer`
+ ``json``): no new dependencies.

API (all JSON)::

    GET  /healthz        {"status": "ok", "models": N, "uptime_s": ...}
    GET  /stats          the STATS_SCHEMA payload (repro.runtime.stats)
    GET  /models         {"models": [{index, name, dataset,
                                      mac_layer_names, context_key}, ...]}
    POST /jobs           {"model": name [, "dataset": name] | "model_index": i,
                          "plans": [...], "session": tag, "label": text}
                         -> 202 {"job": {...}}   ("state": "done", with the
                                accuracies, when every cell was cached;
                                otherwise "queued": wait on the job)
                         -> 400 bad Content-Length, unknown payload keys,
                                a model or dataset that is not a JSON
                                string, bad plan payloads, a session or
                                label that is not a JSON string, a bad
                                session tag
                         -> 404 unknown model
                         -> 429 {"reason": "closed" | "queue_full"}
    GET  /jobs/<id>      {"job": {id, state, accuracies, cache_hits, ...}}
         [?wait=S]       holds the reply until the job ends or S seconds
                         pass (at most JOB_WAIT_CAP_S)
                         -> 400 S is not a finite number >= 0
                         -> 404 unknown job

Plans travel through the fingerprint-preserving codec
(:mod:`repro.runtime.jobs.codec`), so a served job's content-addressed
cell keys — and therefore its cache hits — are identical to running the
same job in-process.  Handler threads only enqueue, read the result
cache and snapshot; all evaluation happens on the manager's dispatcher
thread, keeping the engine single-submitter.
"""

from __future__ import annotations

import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.runtime.jobs.codec import PlanCodecError, decode_plans
from repro.runtime.jobs.manager import JobManager
from repro.runtime.jobs.queue import AdmissionError

#: Every key a ``POST /jobs`` payload may carry; anything else is a 400, so
#: a misspelled ``session`` cannot silently run in the default session.
JOB_PAYLOAD_KEYS = frozenset(
    {"model", "model_index", "dataset", "plans", "session", "label"}
)

#: Longest ``GET /jobs/<id>?wait=S`` holds its reply, in seconds; it stays
#: under :class:`~repro.runtime.jobs.client.HttpJobClient`'s default 60 s
#: request timeout.
JOB_WAIT_CAP_S = 30.0


def _wait_seconds(query: str) -> float:
    """The ``wait`` of a job query string (0 without one); ``ValueError``
    unless it is one finite number of seconds, at least 0."""
    values = parse_qs(query, keep_blank_values=True).get("wait", ["0"])
    try:
        (seconds,) = map(float, values)
    except ValueError:  # not a number, or not exactly one
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(
            f"wait must be one finite number of seconds >= 0, got {values}"
        )
    return seconds


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

    # Quiet by default: busy clients would flood stderr with one log line
    # per request.
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
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
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
                    wait_s = _wait_seconds(query)
                except ValueError as error:
                    self._send_error_json(400, str(error))
                    return
                try:
                    job = manager.job(job_id)
                except KeyError:
                    self._send_error_json(404, f"unknown job {job_id!r}")
                    return
                job.wait(min(wait_s, JOB_WAIT_CAP_S))
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
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as error:
            # RecursionError: arrays or objects nested deeper than the
            # decoder's recursion limit (a 2 KB body suffices).
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
        # Names are taken as sent, never str()-ed: `null` is no model "None".
        for key in ("model", "dataset"):
            if key in payload and not isinstance(payload[key], str):
                self._send_error_json(
                    400,
                    f"job {key} must be a JSON string, got {json.dumps(payload[key])}",
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
                    payload["model"], payload.get("dataset")
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
            # Passed as sent: the manager refuses a non-string session or
            # label (TypeError, a 400) rather than coercing it.
            job = manager.submit(
                model_index,
                plans,
                session=payload.get("session", "default"),
                label=payload.get("label", ""),
            )
        except AdmissionError as error:
            self._send_error_json(429, error.message, reason=error.reason)
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


__all__ = ["JobServer", "JOB_WAIT_CAP_S", "serve"]
