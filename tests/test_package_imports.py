"""Every public package imports as the first statement of a fresh interpreter.

An import cycle only shows when the cycle's entry module is imported
first: in one pytest process the modules are already loaded by whatever
test ran before.  So each package gets its own ``python -c``.  A star
import of every package also resolves each name of its ``__all__``, so a
name deleted from the package but left in that list fails here.  The
retired shared-memory publishing and job-session modules stay gone, and
no package exports a name of theirs.  Importing the packages a run starts
with leaves scipy unloaded: only a LUT kernel needs it.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

STAR_PACKAGES = (
    "repro",
    "repro.accelerator",
    "repro.analysis",
    "repro.baselines",
    "repro.cli",
    "repro.core",
    "repro.datasets",
    "repro.dse",
    "repro.hardware",
    "repro.models",
    "repro.multipliers",
    "repro.nn",
    "repro.provenance",
    "repro.quantization",
    "repro.runtime",
    "repro.runtime.jobs",
    "repro.simulation",
)

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
] + [f"from {package} import *" for package in STAR_PACKAGES]

#: Shared-memory publishing, retired: pool workers inherit the hosted
#: models and datasets, so no module or exported name of it remains.
RETIRED_MODULES = ("repro.core.shared_store", "repro.runtime.publishing")
RETIRED_NAMES = {
    "SharedArrayStore",
    "SharedDatasets",
    "SharedTrainedModels",
    "publish_datasets",
    "publish_trained_models",
}


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


def test_startup_imports_leave_scipy_unloaded():
    """scipy (which pulls in ``numpy.f2py``) is imported on the first LUT
    kernel compile or call, not by the packages every run imports."""
    statement = (
        "import sys\n"
        "import repro.simulation, repro.runtime, repro.cli, repro.dse\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", statement],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _assert_retired(modules, names) -> None:
    for module in modules:
        assert importlib.util.find_spec(module) is None, module
    for package in STAR_PACKAGES + ("repro.simulation.campaign",):
        imported = importlib.import_module(package)
        exported = set(vars(imported)) | set(getattr(imported, "__all__", ()))
        assert not exported & names, package


def test_shared_memory_publishing_is_gone():
    _assert_retired(RETIRED_MODULES, RETIRED_NAMES)


def test_job_sessions_are_gone():
    """A job's session is a plain tag: no session registry, per-session
    state or session error type remains."""
    _assert_retired(
        ("repro.runtime.jobs.sessions",), {"Session", "SessionRegistry", "SessionError"}
    )
