"""``repro info`` — the provenance environment block, human- or JSON-form."""

from __future__ import annotations

import argparse
import json

from repro.analysis.reporting import Table


def cmd_info(args: argparse.Namespace) -> int:
    """Print the provenance environment block (the one inside every manifest)."""
    from repro.provenance import provenance_environment

    env = provenance_environment()
    if args.json:
        print(json.dumps(env, indent=2, sort_keys=True))
        return 0
    print(
        f"{env['package']['name']} {env['package']['version']} — "
        f"python {env['python']} ({env['implementation']}) on {env['platform']}, "
        f"{env['cpu_count']} cpu(s)"
    )
    table = Table(title="Probed packages", columns=["package", "available", "version / reason"])
    for name, probe in env["packages"].items():
        table.add_row(
            name,
            "yes" if probe["available"] else "no",
            probe["version"] if probe["available"] else probe["reason"],
        )
    print()
    print(table.render())
    print()
    print(
        "seed defaults: "
        + ", ".join(f"{key}={value}" for key, value in env["seed_defaults"].items())
    )
    runtime = env["runtime"]
    print(
        f"runtime: stats schema {runtime['stats_schema']}, "
        f"{runtime['eval_threads']} image-shard threads here, "
        f"BLAS threads {runtime['blas_threads']} here and "
        f"{runtime['pool_worker_blas_threads']} per pool worker, "
        f"job queue depth {runtime['default_queue_depth']}"
    )
    print(f"BLAS configuration: {runtime['blas_config']}")
    return 0


def register(sub) -> None:
    info = sub.add_parser(
        "info",
        help="print the provenance environment block (package versions "
        "with import-failure reasons, seed defaults, runtime stats schema) "
        "— the block embedded verbatim in every run manifest",
    )
    info.add_argument(
        "--json", action="store_true", help="emit the block as machine-readable JSON"
    )
    info.set_defaults(func=cmd_info)
