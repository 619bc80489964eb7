"""``repro error-model`` — closed-form vs Monte-Carlo convolution error stats."""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.reporting import Table
from repro.core.error_model import convolution_error_stats, simulate_convolution_error

from repro.cli.common import check_counts, cli_error


def cmd_error_model(args: argparse.Namespace) -> int:
    error = check_counts(args)
    if error is not None:
        return cli_error(error)
    rng = np.random.default_rng(args.seed)
    weights = np.clip(np.round(rng.normal(128, 20, size=args.taps)), 0, 255)
    table = Table(
        title=f"Convolution error, {args.taps} taps, perforation m={args.m}",
        columns=["method", "model mean", "model std", "simulated mean", "simulated std"],
    )
    for use_cv, label in ((False, "w/o V"), (True, "ours (+V)")):
        stats = convolution_error_stats(weights, args.m, use_control_variate=use_cv)
        simulated = simulate_convolution_error(
            weights, args.m, n_trials=args.trials, use_control_variate=use_cv, rng=rng
        )
        table.add_row(label, stats.mean, stats.std, float(simulated.mean()), float(simulated.std()))
    print(table.render(float_format="{:.1f}"))
    return 0


def register(sub) -> None:
    error_model = sub.add_parser("error-model", help="closed-form vs Monte-Carlo error statistics")
    error_model.add_argument("--m", type=int, default=2)
    error_model.add_argument("--taps", type=int, default=576)
    error_model.add_argument("--trials", type=int, default=10000)
    error_model.add_argument("--seed", type=int, default=0)
    error_model.set_defaults(func=cmd_error_model)
