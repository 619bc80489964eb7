"""Provenance-first results layer: run manifests, golden baselines, regression.

Every headline artifact of this reproduction — Table III accuracy sweeps,
DSE Pareto fronts, the engine throughput ledger — is a *measurement*, and a
measurement without provenance cannot be regression-gated.  This package is
the one place the repo states what it measured:

* :mod:`repro.provenance.environment` — the self-describing runtime block
  (package versions *with import-failure reasons*, host facts, seed and
  runtime defaults) reused verbatim inside every manifest and
  printed by ``repro info --json``;
* :mod:`repro.provenance.manifest` — :class:`RunManifest` (input identity
  hashes + outputs), atomic temp-file-rename JSON writers, and the
  :func:`record_run` context manager adopted by ``repro table3`` /
  ``dse`` and every benchmark via ``benchmarks/conftest.py``;
* :mod:`repro.provenance.regression` — the golden-baseline comparator
  behind ``repro verify-results``: exact match for accuracy tables and
  Pareto fronts (bit-exact by construction), configurable tolerance bands
  for throughput/speedup sections;
* :mod:`repro.provenance.workload` — the small deterministic golden
  workload (sweep table + greedy DSE front) ``verify-results`` re-runs and
  compares bit-exactly against ``results/golden/``.

``make check`` runs the gate; ``make bench-refresh`` is the deliberate
re-baselining escape hatch.  See ``results/README.md`` for the schema and
workflow.
"""

from repro.provenance.environment import provenance_environment
from repro.provenance.manifest import (
    RunManifest,
    canonical_json,
    dataset_digest,
    load_json,
    model_digest,
    payload_digest,
    record_run,
    update_json_atomic,
    write_json_atomic,
    write_text_atomic,
)
from repro.provenance.regression import (
    Finding,
    RegressionReport,
    compare_bench_ledgers,
    compare_golden_payloads,
)

__all__ = [
    "provenance_environment",
    "RunManifest",
    "record_run",
    "canonical_json",
    "payload_digest",
    "model_digest",
    "dataset_digest",
    "write_json_atomic",
    "write_text_atomic",
    "update_json_atomic",
    "load_json",
    "Finding",
    "RegressionReport",
    "compare_bench_ledgers",
    "compare_golden_payloads",
]
