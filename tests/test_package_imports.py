"""Every public package imports as the first statement of a fresh interpreter.

An import cycle only shows when the cycle's entry module is imported
first: in one pytest process the modules are already loaded by whatever
test ran before.  So each package gets its own ``python -c``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

STATEMENTS = [
    f"import {package}"
    for package in (
        "repro.core",
        "repro.simulation",
        "repro.runtime",
        "repro.runtime.jobs",
        "repro.runtime.server",
        "repro.dse",
        "repro.provenance",
        "repro.cli",
    )
] + [
    # The first line of code in src/repro/runtime/README.md.
    "from repro.runtime import EvaluationService",
]


@pytest.mark.parametrize("statement", STATEMENTS)
def test_package_imports_first(statement):
    result = subprocess.run(
        [sys.executable, "-c", statement],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
