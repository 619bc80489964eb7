"""``repro backends`` — list registered engine backends and availability."""

from __future__ import annotations

import argparse
import json

from repro.analysis.reporting import Table
from repro.core.backends import DEFAULT_BACKEND, backend_names, get_backend


def cmd_backends(args: argparse.Namespace) -> int:
    if args.json:
        payload = []
        for name in backend_names():
            backend = get_backend(name)
            available, reason = backend.availability()
            payload.append(
                {
                    "name": name,
                    "available": available,
                    "default": name == DEFAULT_BACKEND,
                    "description": backend.describe(),
                    "unavailable_reason": None if available else reason,
                }
            )
        print(json.dumps(payload, indent=2))
        return 0
    table = Table(
        title="Registered engine backends",
        columns=["name", "available", "default", "notes"],
    )
    for name in backend_names():
        backend = get_backend(name)
        available, reason = backend.availability()
        table.add_row(
            name,
            "yes" if available else "no",
            "*" if name == DEFAULT_BACKEND else "",
            reason if not available else backend.describe(),
        )
    print(table.render())
    return 0


def register(sub) -> None:
    backends = sub.add_parser(
        "backends", help="list registered engine backends and their availability"
    )
    backends.add_argument(
        "--json", action="store_true", help="emit the listing as machine-readable JSON"
    )
    backends.set_defaults(func=cmd_backends)
