"""Per-client sessions: ledger namespaces and counters.

A session is the multi-tenant unit of the jobs layer: each client gets

* **its own ledger namespace** — an optional
  :class:`~repro.dse.ledger.CampaignLedger` rooted at
  ``<ledger_dir>/<session id>/``, so one client's campaign records never
  mix with another's (the *service-level* result cache still dedups
  across sessions — dedup is global, provenance is per-tenant);
* **its own counters** — submitted/completed jobs and the in-flight count
  the admission controller caps.

Sessions are created on first use (``get_or_create``): the transport layer
simply passes whatever ``session`` string the client supplied (default
``"default"``).
"""

from __future__ import annotations

import os
import re
import threading

from repro.dse.ledger import CampaignLedger

#: Session ids become directory names (ledger namespaces), so keep them flat.
_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class SessionError(ValueError):
    """An invalid session id (HTTP 400 material)."""


class Session:
    """One client's state within a job service."""

    def __init__(self, session_id: str, ledger_dir: str | None = None):
        self.id = session_id
        self.ledger_dir = ledger_dir
        self._ledger: CampaignLedger | None = None
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.cells_submitted = 0
        self.cache_hits = 0
        #: Jobs currently queued or running (the admission-control quantity).
        self.inflight = 0

    @property
    def ledger(self) -> CampaignLedger:
        """This session's campaign ledger (created lazily; in-memory when
        the service has no ledger directory)."""
        if self._ledger is None:
            self._ledger = CampaignLedger(self.ledger_dir)
        return self._ledger

    def stats(self) -> dict:
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "cells_submitted": self.cells_submitted,
            "cache_hits": self.cache_hits,
            "inflight": self.inflight,
            "ledger_dir": self.ledger_dir,
        }


class SessionRegistry:
    """Thread-safe ``session id -> Session`` map with create-on-first-use.

    ``ledger_dir`` is the root of the per-session ledger namespaces
    (``<dir>/<id>/``); ``None`` keeps every session ledger in memory.
    """

    def __init__(self, ledger_dir: str | None = None):
        self._ledger_dir = ledger_dir
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    def validate_id(self, session_id: str) -> str:
        session_id = str(session_id)
        if not _SESSION_ID_RE.match(session_id):
            raise SessionError(
                f"invalid session id {session_id!r}: use 1-64 characters from "
                "[A-Za-z0-9._-], starting with an alphanumeric"
            )
        return session_id

    def get_or_create(self, session_id: str = "default") -> Session:
        session_id = self.validate_id(session_id)
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                ledger_dir = (
                    None
                    if self._ledger_dir is None
                    else os.path.join(self._ledger_dir, session_id)
                )
                session = Session(session_id, ledger_dir=ledger_dir)
                self._sessions[session_id] = session
            return session

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict:
        with self._lock:
            return {
                session_id: session.stats()
                for session_id, session in sorted(self._sessions.items())
            }


__all__ = ["Session", "SessionRegistry", "SessionError"]
