"""Command-line interface for the most common reproduction workflows.

The CLI wraps the library's experiment machinery so a downstream user can
regenerate the paper's headline artifacts without writing Python:

* ``python -m repro hardware`` — the hardware design-space table
  (Fig. 4 + Table II + Table I in one sweep);
* ``python -m repro accuracy --model vgg13 --classes 10`` — train (or load
  from cache) one reference network and report its Table III row;
* ``python -m repro sweep --models vgg13 resnet44`` — the multi-model
  Table III sweep (optionally multi-process via ``--workers``);
* ``python -m repro table3 --workers 4`` — the full Table III benchmark
  (every model x both datasets) served by one multi-model evaluation
  session;
* ``python -m repro dse --strategy greedy --max-loss 0.5`` — the automated
  per-layer design-space exploration: search the per-layer approximation
  mapping minimizing energy within an accuracy-loss budget and print the
  resulting Pareto front (see :mod:`repro.dse`); ``--workers N`` fans
  candidate batches across N persistent worker processes and ``--models
  all`` runs one campaign per reference network on one shared service;
* ``python -m repro serve --port 8752`` — the evaluation runtime as a
  long-lived HTTP job daemon (POST ``/jobs``, wait on
  ``/jobs/<id>?wait=S``); and
  ``repro sweep|table3|dse --remote http://...`` run the exact same
  workloads as thin clients of such a daemon;
* ``python -m repro error-model --m 2`` — the closed-form vs Monte-Carlo
  convolution error statistics of Section III.

``--workers`` has identical semantics across ``sweep``, ``table3``,
``dse`` and ``serve`` — the worker-process count of the evaluation runtime
(:mod:`repro.runtime`), 1 meaning in-process serial.  It and every other
count flag (``--queue-depth``, ``--max-eval-images``,
``--calibration-images``) exit with status 2 and a clear message on a
value below 1, before any model loads, like unknown strategy names.
``--remote URL`` likewise has identical semantics across ``sweep``,
``table3`` and ``dse``: submit evaluation jobs to the daemon at URL
instead of evaluating in-process (bit-exact either way).

Each sub-command prints an aligned text table to stdout (``repro info
--json`` and ``repro dse --json`` emit machine-readable JSON instead).

Unknown search-strategy names exit with status 2 and a one-line error
naming the registered alternatives — never a traceback.

Reproducibility: ``repro dse`` and ``repro sweep`` accept a single
``--seed`` that drives *every* stochastic path (synthetic dataset
generation, evaluation subsampling, NSGA-II) through named
:class:`repro.core.seeding.SeedBank` streams.

Package layout
--------------
One module per verb (:mod:`repro.cli.sweep`, :mod:`repro.cli.dse`, ...),
each exposing ``register(subparsers)``; shared argument helpers live in
:mod:`repro.cli.common`.  :func:`build_parser` assembles them in a fixed
order, so ``--help`` output is stable.
"""

from __future__ import annotations

import argparse

from repro.cli import (
    accuracy,
    dse,
    error_model,
    hardware,
    info,
    serve,
    sweep,
    table3,
    verify_results,
)

# Registration order == the order verbs appear in `repro --help`.
_VERBS = (
    hardware,
    accuracy,
    sweep,
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
