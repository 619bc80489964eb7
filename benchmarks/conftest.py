"""Shared infrastructure of the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The heavy
artifacts (trained reference models) are cached on disk by
:class:`repro.simulation.campaign.TrainedModelCache`, so the first run of the
accuracy benches trains the networks with the numpy engine and later runs
reuse them.  Each bench writes its regenerated table to ``results/`` next to
this directory and prints it to the terminal section of the pytest output.

Provenance: every write goes through the atomic writers of
:mod:`repro.provenance` (temp file + rename — an interrupted bench can
never truncate the shared ``BENCH_engine.json`` ledger), and every bench
records a :class:`~repro.provenance.manifest.RunManifest` via
:func:`record_bench`, embedding the full runtime environment (package
versions *with import-failure reasons*, host facts)
next to its metrics under ``results/manifests/``.

Environment knobs:

* ``REPRO_BENCH_EPOCHS`` — training epochs of the reference models (default 6);
* ``REPRO_BENCH_FULL`` — set to ``1`` to run the Fig. 5 comparison on all six
  networks and both datasets (default: three networks on 10 classes, about
  20 s with the models cached, against about 90 s at full scale);
* ``REPRO_CACHE_DIR`` — where trained models are cached;
* ``REPRO_MANIFEST_DIR`` — where run manifests land (default:
  ``results/manifests``).
"""

from __future__ import annotations

import os

import pytest

from repro.provenance import record_run, update_json_atomic, write_text_atomic

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: Machine-readable benchmark ledger: every perf-tracking bench merges its
#: metrics into one JSON file under its own section, so the perf trajectory
#: of the engine is diffable across PRs (and regression-gated against
#: ``results/golden/`` by ``repro verify-results``).
BENCH_JSON = "BENCH_engine.json"


def bench_epochs() -> int:
    """Training epochs used by the accuracy benches."""
    return int(os.environ.get("REPRO_BENCH_EPOCHS", "6"))


def full_scale() -> bool:
    """Whether to run the expensive benches at the paper's full scale."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


@pytest.fixture(scope="session")
def results_dir() -> str:
    """Directory receiving the regenerated tables (created on demand)."""
    path = os.path.abspath(RESULTS_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def write_result(results_dir: str, name: str, content: str) -> str:
    """Atomically write one regenerated table to ``results/<name>``."""
    path = os.path.join(results_dir, name)
    write_text_atomic(path, content + "\n")
    return path


def update_json_result(results_dir: str, section: str, payload: dict) -> str:
    """Merge ``payload`` under ``section`` of ``results/BENCH_engine.json``.

    Each bench owns one section and overwrites only it, so running benches
    in any order (or individually) keeps the other sections intact.  The
    merge is atomic (temp file + rename): an interrupt mid-write leaves
    the previous complete ledger in place instead of a truncated file.
    Returns the file path.
    """
    path = os.path.join(results_dir, BENCH_JSON)
    update_json_atomic(path, section, payload)
    return path


def record_bench(
    name: str, inputs: dict | None = None, outputs: dict | None = None
) -> str:
    """Write the :class:`RunManifest` of one benchmark.

    ``inputs`` is whatever identifies the measured configuration (workload
    shape, epochs, model/dataset digests where available); ``outputs`` the
    measured metrics — typically the same payload merged into the
    ``BENCH_JSON`` ledger section.  The provenance environment block
    (including e.g. *why* an optional package is unavailable) is stamped automatically.
    Returns the manifest path.
    """
    with record_run("bench", label=name, inputs=inputs) as manifest:
        manifest.outputs.update(outputs or {})
    return manifest.path
