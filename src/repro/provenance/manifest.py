"""Run manifests: content-addressed input identity + outputs, written atomically.

A :class:`RunManifest` states what a run measured and what it measured it
*on*: sha256 digests of the trained parameters and dataset bytes (the same
array-hashing recipe :mod:`repro.dse.ledger` keys its records with, so a
manifest's hashes reproduce the ledger's ``context_key`` and the
:class:`~repro.simulation.campaign.TrainedModelCache` stem), the seed,
worker count, package version, and the full provenance
environment block.  :func:`record_run` is the one context manager every
result-producing entry point wraps itself in — ``repro table3`` / ``dse``
and the benchmarks via ``benchmarks/conftest.py``.

All disk writes in this module are **atomic** (temp file in the target
directory + ``os.replace``), the same pattern
:meth:`repro.dse.ledger.CampaignLedger.put` uses: an interrupt mid-write
can never truncate a shared results file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

# The one array-hashing recipe in the repo: name + shape + dtype + bytes,
# sorted by name.  Reusing it (rather than re-implementing it) is what makes
# a manifest's model/dataset digests line up with the CampaignLedger's
# evaluation-context hashing.
from repro.simulation.campaign import hash_arrays

#: Environment variable overriding where :func:`record_run` writes manifests.
MANIFEST_DIR_ENV = "REPRO_MANIFEST_DIR"

#: Default manifest directory (relative to the working directory).
DEFAULT_MANIFEST_DIR = os.path.join("results", "manifests")

#: Key under which the payload digest is stored; excluded from the digest.
DIGEST_KEY = "manifest_digest"


# ---------------------------------------------------------------------------
# JSON plumbing: sanitization, canonical form, digests, atomic writes.
# ---------------------------------------------------------------------------


def jsonable(value: Any) -> Any:
    """``value`` rebuilt from JSON-serializable types only.

    numpy scalars become Python scalars, arrays become nested lists, tuples
    and sets become lists, dataclasses become dicts.  Mapping keys are
    coerced to strings (JSON has no other kind).
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonable(item) for item in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_json(payload: Any) -> str:
    """The canonical serialization digests and goldens are computed over.

    Sorted keys, compact separators, numpy types sanitized — two payloads
    with equal content always produce equal text, independent of insertion
    order or scalar container type.
    """
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))


def payload_digest(payload: dict) -> str:
    """sha256 of ``payload``'s canonical JSON, excluding :data:`DIGEST_KEY`.

    Because the digest key itself is excluded, loading a manifest and
    re-serializing it reproduces the stored digest — the round-trip
    hash-stability contract ``tests/test_provenance.py`` pins.
    """
    body = {key: value for key, value in payload.items() if key != DIGEST_KEY}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def model_digest(model: Any) -> str:
    """sha256 of a model's parameter arrays (ledger array-hashing recipe).

    ``model`` is anything with a ``state_dict()`` mapping names to arrays —
    the same bytes :func:`repro.dse.ledger.evaluation_context_key` folds
    into the campaign ledger's context key.
    """
    digest = hashlib.sha256()
    hash_arrays(digest, dict(model.state_dict()))
    return digest.hexdigest()


def dataset_digest(dataset: Any) -> str:
    """sha256 of a dataset's split arrays plus its identity metadata."""
    digest = hashlib.sha256()
    hash_arrays(
        digest,
        {
            "train_images": dataset.train_images,
            "train_labels": dataset.train_labels,
            "test_images": dataset.test_images,
            "test_labels": dataset.test_labels,
        },
    )
    digest.update(
        json.dumps(
            {"name": dataset.name, "num_classes": int(dataset.num_classes)},
            sort_keys=True,
        ).encode("utf-8")
    )
    return digest.hexdigest()


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via temp-file-in-directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates 0600 files and os.replace preserves that; restore
        # umask-default permissions so results stay group/world readable.
        umask = os.umask(0)
        os.umask(umask)
        with contextlib.suppress(OSError, AttributeError):
            os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, payload: Any, indent: int = 2) -> None:
    """Atomically write ``payload`` as sorted-key JSON (trailing newline)."""
    text = json.dumps(jsonable(payload), indent=indent, sort_keys=True)
    write_text_atomic(path, text + "\n")


def load_json(path: str) -> Any:
    """Parse one JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def update_json_atomic(path: str, section: str, payload: Any, indent: int = 2) -> dict:
    """Merge ``payload`` under ``section`` of the JSON dict at ``path``.

    The read-modify-write the benchmarks historically open-coded (and could
    truncate when interrupted mid-write): here the merged document lands via
    :func:`write_json_atomic`, so readers only ever observe the old or the
    new complete file.  A missing or corrupt file starts a fresh document.
    Returns the merged document.
    """
    try:
        document = load_json(path)
        if not isinstance(document, dict):
            document = {}
    except (OSError, json.JSONDecodeError):
        document = {}
    document[section] = jsonable(payload)
    write_json_atomic(path, document, indent=indent)
    return document


# ---------------------------------------------------------------------------
# The manifest itself.
# ---------------------------------------------------------------------------


def _slug(text: str) -> str:
    """Filesystem-safe fragment of a manifest label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "run"


def resolve_manifest_dir(directory: str | None = None) -> str:
    """Manifest directory: explicit arg → ``$REPRO_MANIFEST_DIR`` → default."""
    if directory is not None:
        return directory
    return os.environ.get(MANIFEST_DIR_ENV) or DEFAULT_MANIFEST_DIR


@dataclass
class RunManifest:
    """Input identity and outputs of one result-producing run.

    ``inputs`` carries content-addressed identity (model/dataset sha256
    digests, plan fingerprints, ledger context keys, trained-cache stems,
    seed, workers); ``outputs`` carries what was measured
    (accuracy records, Pareto fronts, wall clocks, eval counts).  The
    environment block from
    :func:`repro.provenance.environment.provenance_environment` is embedded
    verbatim, and :meth:`to_payload` stamps a digest over the whole
    document (excluding the digest itself) so any tampering or drift is one
    hash comparison away.
    """

    kind: str
    label: str | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None
    wall_clock_s: float | None = None
    #: Path of the last :meth:`write` (not serialized into the payload).
    path: str | None = None

    def filename(self) -> str:
        if self.label:
            return f"{_slug(self.kind)}-{_slug(self.label)}.json"
        return f"{_slug(self.kind)}.json"

    def to_payload(self) -> dict:
        """The manifest as a JSON-able dict, digest included."""
        payload = {
            "schema": "repro-run-manifest/v1",
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "error": self.error,
            "wall_clock_s": self.wall_clock_s,
            "inputs": jsonable(self.inputs),
            "outputs": jsonable(self.outputs),
            "environment": jsonable(self.environment),
        }
        payload[DIGEST_KEY] = payload_digest(payload)
        return payload

    def write(self, directory: str | None = None) -> str:
        """Atomically write the manifest; returns the path written."""
        directory = resolve_manifest_dir(directory)
        path = os.path.join(directory, self.filename())
        write_json_atomic(path, self.to_payload())
        self.path = path
        return path

    @classmethod
    def from_payload(cls, payload: dict) -> "RunManifest":
        stored = payload.get(DIGEST_KEY)
        if stored is not None and stored != payload_digest(payload):
            raise ValueError(f"manifest digest mismatch: {payload.get('kind')!r}")
        return cls(
            kind=payload["kind"],
            label=payload.get("label"),
            inputs=payload.get("inputs", {}),
            outputs=payload.get("outputs", {}),
            environment=payload.get("environment", {}),
            status=payload.get("status", "ok"),
            error=payload.get("error"),
            wall_clock_s=payload.get("wall_clock_s"),
        )

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """Load and digest-verify a manifest written by :meth:`write`."""
        return cls.from_payload(load_json(path))


@contextlib.contextmanager
def record_run(
    kind: str,
    label: str | None = None,
    directory: str | None = None,
    inputs: dict | None = None,
) -> Iterator[RunManifest]:
    """Record one result-producing run as a :class:`RunManifest` on disk.

    Yields the mutable manifest; the caller fills ``inputs`` / ``outputs``
    as identity and results become known.  On exit — including exceptional
    exit, where ``status`` flips to ``"error"`` and the exception is
    re-raised — the wall clock and environment block are stamped and the
    manifest is written atomically to ``directory`` (resolved through
    :func:`resolve_manifest_dir`).  A manifest-write failure degrades to a
    stderr warning: provenance never crashes the run it describes.
    """
    from repro.provenance.environment import provenance_environment

    manifest = RunManifest(kind=kind, label=label, inputs=dict(inputs or {}))
    start = time.perf_counter()
    try:
        yield manifest
    except BaseException as error:
        manifest.status = "error"
        manifest.error = f"{type(error).__name__}: {error}"
        raise
    finally:
        manifest.wall_clock_s = time.perf_counter() - start
        if not manifest.environment:
            manifest.environment = provenance_environment()
        try:
            manifest.write(directory)
        except OSError as error:
            # An unwritable manifest directory must not crash a successful
            # run at exit, nor replace an in-flight exception on the error
            # path — the manifest is provenance, not the result itself.
            print(
                f"warning: could not write run manifest for {manifest.kind!r}: {error}",
                file=sys.stderr,
            )


__all__ = [
    "RunManifest",
    "record_run",
    "resolve_manifest_dir",
    "canonical_json",
    "payload_digest",
    "model_digest",
    "dataset_digest",
    "jsonable",
    "write_json_atomic",
    "write_text_atomic",
    "update_json_atomic",
    "load_json",
    "MANIFEST_DIR_ENV",
    "DEFAULT_MANIFEST_DIR",
    "DIGEST_KEY",
]
