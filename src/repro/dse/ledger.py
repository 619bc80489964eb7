"""Persistent, resumable campaign ledger of evaluated design points.

Accuracy evaluation dominates the cost of a DSE campaign, so the explorer
never evaluates the same design twice: every scored plan is recorded in a
:class:`CampaignLedger` under a **content-addressed key** — the SHA-256 of

* the *evaluation context*: the trained model's parameter bytes, the
  dataset's arrays, and every knob that changes the measured accuracy
  (eval-image cap, calibration size, batch size) — see
  :func:`evaluation_context_key`; and
* the plan's per-layer :meth:`~repro.simulation.inference.ProductModel.
  fingerprint` sequence, which identifies the plan by *numerical behavior*
  (a LUT candidate is keyed by its table digest, perforation by ``(m, V)``)
  rather than by object identity or name.

Records are single JSON files named by their key, written atomically
(temp-file + rename) as soon as the evaluation finishes, so a killed
campaign resumes from its last completed evaluation: re-running with the
same ledger directory replays every recorded point as a cache hit and only
evaluates genuinely new plans.  One directory can host many contexts — keys
from different models/datasets/settings never collide.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Sequence

import numpy as np

from repro.nn.graph import Graph
from repro.simulation.inference import EVAL_BATCH_SIZE, ExecutionPlan


def _hash_arrays(digest: "hashlib._Hash", arrays: dict[str, np.ndarray]) -> None:
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(array.tobytes())


def evaluation_context_key(
    model: Graph,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    calibration_images: np.ndarray,
    batch_size: int = EVAL_BATCH_SIZE,
    tag: str = "",
) -> str:
    """Digest of everything besides the plan that determines an accuracy.

    Two campaigns share ledger records exactly when this key matches: same
    trained parameters, same evaluation and calibration bytes, same batch
    size.  The *actual* evaluation arrays are hashed — a capped or seeded
    subsample of a dataset therefore gets its own records, never aliasing a
    full-split campaign.  ``tag`` folds in a human-meaningful label (the
    dataset name) so unrelated datasets with coincidentally equal bytes
    stay distinct.
    """
    digest = hashlib.sha256()
    _hash_arrays(digest, dict(model.state_dict()))
    _hash_arrays(
        digest,
        {
            "eval_images": eval_images,
            "eval_labels": eval_labels,
            "calib_images": calibration_images,
        },
    )
    digest.update(
        json.dumps({"tag": tag, "batch_size": int(batch_size)}, sort_keys=True).encode(
            "utf-8"
        )
    )
    return digest.hexdigest()


def plan_key(context_key: str, plan: ExecutionPlan, layer_names: "tuple[str, ...] | list[str]") -> str:
    """Content-addressed record key of one plan within one context.

    The plan contributes its per-layer fingerprint sequence — structural
    for the accurate/perforated/LUT families, so equal-behavior plans from
    different campaign runs (or different strategies) map to the same
    record.
    """
    digest = hashlib.sha256()
    digest.update(context_key.encode("utf-8"))
    digest.update(repr(plan.fingerprints(tuple(layer_names))).encode("utf-8"))
    return digest.hexdigest()


def _read_record(path: str) -> dict | None:
    """The JSON object stored at ``path``, or ``None`` when the file is
    missing, unreadable, not UTF-8, not JSON, or not a JSON object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


class CampaignLedger:
    """Content-addressed store of evaluated design points.

    Parameters
    ----------
    path:
        Directory receiving one ``<key>.json`` file per record; created on
        demand.  ``None`` keeps the ledger in memory only (no persistence,
        but in-run dedup still works).

    The ledger counts its traffic: :attr:`hits` (a :meth:`get` that found a
    record) and :attr:`misses`, which the campaign surfaces so tests can
    assert "zero duplicate evaluations" after a resume.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._memory: dict[str, dict] = {}

    def _record_path(self, key: str) -> str:
        assert self.path is not None
        return os.path.join(self.path, f"{key}.json")

    def __len__(self) -> int:
        """Records this ledger instance has stored or replayed.

        Deliberately *not* a directory count: one directory hosts records
        of many contexts (models, datasets, eval settings), so a campaign's
        record figure must only cover the records it actually touched.
        """
        return len(self._memory)

    def get(self, key: str, required: Sequence[str] = ()) -> dict | None:
        """The record stored under ``key``, or ``None`` (counted as a miss).

        A corrupt record file (see :func:`_read_record`) is a miss, and so
        is a record lacking any of the ``required`` fields (e.g. a job-layer
        record under a campaign's key), so a resumed campaign re-evaluates
        the point and overwrites it.
        """
        record = self._memory.get(key)
        if record is None and self.path is not None:
            record = _read_record(self._record_path(key))
        if record is None or any(name not in record for name in required):
            self.misses += 1
            return None
        self._memory[key] = record
        self.hits += 1
        return record

    def contains(self, key: str) -> bool:
        """Whether a record exists, without touching the hit/miss counters."""
        if key in self._memory:
            return True
        return self.path is not None and os.path.exists(self._record_path(key))

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (atomic write-then-rename on disk)."""
        self._memory[key] = record
        if self.path is None:
            return
        os.makedirs(self.path, exist_ok=True)
        payload = json.dumps(record, indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            os.replace(tmp, self._record_path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def iter_disk_records(self):
        """Yield every ``(key, record)`` pair stored in the ledger directory.

        Scans the directory (not :attr:`_memory`), skipping temp files and
        the corrupt records :meth:`get` misses on, and leaves the hit/miss
        counters untouched — this is the bulk-load path a warm-starting
        :class:`~repro.runtime.jobs.cache.ResultCache` uses, not a lookup.
        Keys are yielded in sorted filename order so a capped consumer
        loads deterministically.
        """
        if self.path is None or not os.path.isdir(self.path):
            return
        for filename in sorted(os.listdir(self.path)):
            if not filename.endswith(".json"):
                continue
            record = _read_record(os.path.join(self.path, filename))
            if record is not None:
                yield filename[: -len(".json")], record

    def stats(self) -> dict[str, int]:
        """Hit/miss counters plus the records this instance touched."""
        return {"hits": self.hits, "misses": self.misses, "records": len(self)}
