"""``repro hardware`` — the hardware design-space table (Fig. 4 / Tables I-II)."""

from __future__ import annotations

import argparse

from repro.analysis.reporting import Table
from repro.core.accelerator_model import AcceleratorConfig
from repro.hardware.area_power import (
    macplus_area_share,
    macplus_power_share,
    normalized_array_area,
    normalized_array_power,
)
from repro.hardware.full_adders import total_fa_decrease

from repro.cli.common import check_counts, cli_error


def cmd_hardware(args: argparse.Namespace) -> int:
    error = check_counts(args, min_perforation=1)
    if error is not None:
        return cli_error(error)
    table = Table(
        title="Approximate MAC-array design space",
        columns=["N", "m", "norm. power", "norm. area", "MAC+ power %", "MAC+ area %", "FA decrease"],
    )
    for n in args.array_sizes:
        for m in args.perforations:
            config = AcceleratorConfig.make(n, m, use_control_variate=True)
            table.add_row(
                n,
                m,
                normalized_array_power(config),
                normalized_array_area(config),
                100 * macplus_power_share(config),
                100 * macplus_area_share(config),
                int(total_fa_decrease(n, m)),
            )
    print(table.render(float_format="{:.3f}"))
    return 0


def register(sub) -> None:
    hardware = sub.add_parser("hardware", help="hardware design-space sweep (Fig. 4 / Tables I-II)")
    hardware.add_argument("--array-sizes", type=int, nargs="+", default=[16, 32, 48, 64])
    hardware.add_argument("--perforations", type=int, nargs="+", default=[1, 2, 3])
    hardware.set_defaults(func=cmd_hardware)
