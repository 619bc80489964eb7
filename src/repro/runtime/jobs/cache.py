"""Service-level result cache: content-addressed accuracies, shared by all clients.

The :class:`~repro.dse.ledger.CampaignLedger` dedups evaluations *within*
one campaign; this cache promotes the same content-addressed recipe to the
whole service: every completed cell is stored under its
:func:`~repro.dse.ledger.plan_key` (sha256 of the evaluation-context
digest — model bytes, eval/calibration bytes, batch size — plus the plan's
per-layer fingerprint sequence), so a duplicate cell submitted by *any*
client, in any job, is a cache hit that costs zero evaluations.

With ``persist_dir`` the cache additionally **survives restarts**: every
``put`` is written through to an on-disk :class:`~repro.dse.ledger.
CampaignLedger` (one atomic ``<key>.json`` per cell, kind
``"result-cache"``), and construction loads the directory back — a
restarted daemon starts warm, so resubmitting yesterday's sweep is a 100%
cache-hit run.  Keys are content-addressed, so a stale or foreign record
can never alias a different measurement setup.

Unbounded (one accuracy is a float, so even large campaigns stay tiny):
no entry is ever dropped, so a key :meth:`ResultCache.contains_all` found
is still there when the counted :meth:`ResultCache.get` reads it.
Hit/miss counters are surfaced through ``stats()``; thread-safe — the
dispatcher thread populates it while HTTP handler threads look keys up
and read stats concurrently.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.dse.ledger import CampaignLedger

#: Record kind the persistent spill writes.  Loading accepts any record
#: with a numeric "accuracy" field (a campaign ledger's records included).
PERSIST_KIND = "result-cache"


class ResultCache:
    """Thread-safe map of ``cell key -> accuracy``.

    ``persist_dir`` is the directory of the write-through spill (see the
    module docstring); ``None`` keeps the cache memory-only.
    """

    def __init__(self, persist_dir: str | None = None):
        self.persist_dir = persist_dir
        self._ledger = None if persist_dir is None else CampaignLedger(persist_dir)
        self._entries: dict[str, float] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.loaded = 0
        if self._ledger is not None:
            self._load()

    def _load(self) -> None:
        """Warm-start from the spill directory (no counters)."""
        assert self._ledger is not None
        for key, record in self._ledger.iter_disk_records():
            accuracy = record.get("accuracy")
            if not isinstance(accuracy, (int, float)) or isinstance(accuracy, bool):
                continue
            self._entries[key] = float(accuracy)
            self.loaded += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains_all(self, keys: "Iterable[str]") -> bool:
        """Whether every key is cached; counts nothing (see ``get``)."""
        with self._lock:
            return all(key in self._entries for key in keys)

    def get(self, key: str) -> float | None:
        """The cached accuracy under ``key``, or ``None`` (counted as a miss)."""
        with self._lock:
            accuracy = self._entries.get(key)
            if accuracy is None:
                self.misses += 1
            else:
                self.hits += 1
            return accuracy

    def put(self, key: str, accuracy: float) -> None:
        """Store ``accuracy`` under ``key``; with persistence enabled it is
        first written through to disk (atomic temp-file + rename), and a
        failed write (a full disk, say) raises and caches nothing, so a
        resubmission is evaluated again instead of answered from memory."""
        with self._lock:
            if self._ledger is not None:
                self._ledger.put(
                    key, {"kind": PERSIST_KIND, "accuracy": float(accuracy)}
                )
            self._entries[key] = float(accuracy)

    def stats(self) -> dict:
        """Counters of the cache so far (one consistent snapshot)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": (self.hits / total) if total else 0.0,
                "loaded": self.loaded,
                "persist_path": self.persist_dir,
            }


__all__ = ["ResultCache", "PERSIST_KIND"]
