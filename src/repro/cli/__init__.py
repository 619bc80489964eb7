"""Command-line interface for the most common reproduction workflows.

The CLI wraps the library's experiment machinery so a downstream user can
regenerate the paper's headline artifacts without writing Python:

* ``python -m repro hardware`` — the hardware design-space table
  (Fig. 4 + Table II + Table I in one sweep);
* ``python -m repro table3`` — the Table III accuracy sweep: train (or
  load from cache) every requested network on every requested dataset
  (default: every model x both datasets) and sweep them through one
  multi-model evaluation session; ``--models vgg13 --classes 10`` is one
  network's rows;
* ``python -m repro dse --strategy greedy --max-loss 0.5`` — the automated
  per-layer design-space exploration: search the per-layer approximation
  mapping minimizing energy within an accuracy-loss budget and print the
  resulting Pareto front (see :mod:`repro.dse`); ``--workers N`` fans
  candidate batches across N persistent worker processes and ``--models
  all`` runs one campaign per reference network on one shared service;
* ``python -m repro serve --port 8752`` — the evaluation runtime as a
  long-lived HTTP job daemon (POST ``/jobs``, wait on
  ``/jobs/<id>?wait=S``); and
  ``repro table3|dse --remote http://...`` run the exact same
  workloads as thin clients of such a daemon;
* ``python -m repro error-model --m 2`` — the closed-form vs Monte-Carlo
  convolution error statistics of Section III.

``--workers`` has identical semantics across ``table3``, ``dse`` and
``serve`` — the worker-process count of the evaluation runtime
(:mod:`repro.runtime`), 1 meaning in-process serial.  It and every other
count flag (``--queue-depth``, ``--max-eval-images``,
``--calibration-images``, ``--array-size(s)``, ``--taps``, ``--trials``)
exit with status 2 and a clear message on a value below 1, and a
perforation (``--perforations``, ``--m``) outside [0, 7] likewise, before
any model loads or any work starts, like unknown strategy names.
``--remote URL`` likewise has identical semantics across ``table3`` and
``dse``: submit evaluation jobs to the daemon at URL instead of evaluating
in-process (bit-exact either way).

Each sub-command prints an aligned text table to stdout (``repro info
--json`` and ``repro dse --json`` emit machine-readable JSON instead).

Unknown search-strategy names exit with status 2 and a one-line error
naming the registered alternatives — never a traceback.

Reproducibility: ``repro table3``, ``dse`` and ``serve`` accept a single
``--seed`` that drives *every* stochastic path (synthetic dataset
generation, evaluation subsampling, NSGA-II) through named
:class:`repro.core.seeding.SeedBank` streams, and load their datasets and
trained models through one helper
(:func:`repro.cli.common.load_models`).

Package layout
--------------
One module per verb (:mod:`repro.cli.table3`, :mod:`repro.cli.dse`, ...),
each exposing ``register(subparsers)``; shared argument helpers live in
:mod:`repro.cli.common`.  :func:`build_parser` assembles them in a fixed
order, so ``--help`` output is stable.
"""

from __future__ import annotations

import argparse

from repro.cli import (
    dse,
    error_model,
    hardware,
    info,
    serve,
    table3,
    verify_results,
)

# Registration order == the order verbs appear in `repro --help`.
_VERBS = (
    hardware,
    table3,
    dse,
    info,
    verify_results,
    error_model,
    serve,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Control Variate Approximation for DNN Accelerators' (DAC 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in _VERBS:
        verb.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


__all__ = ["build_parser", "main"]
