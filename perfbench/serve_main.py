"""``repro serve`` with span tracing: the daemon entry of a traced pass.

Installs the wrappers of ``tracing.py`` before the CLI is imported (so the
names ``repro.cli.serve`` imports are the wrapped ones), runs
``repro.cli.main`` with this script's arguments, and writes the daemon's
spans to ``$PERFBENCH_TRACE_DIR`` once the daemon has shut down::

    PERFBENCH_TRACE_DIR=/tmp/spans python3 perfbench/serve_main.py serve --models vgg13
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-up layers the daemon runs inside the CLI rather than in benchmark code.
SETUP_HOOKS = (
    ("repro.simulation.campaign", "experiment_dataset", "campaign.dataset"),
    ("repro.simulation.campaign", "TrainedModelCache.load_or_train", "campaign.load"),
)


def main() -> int:
    sys.path.insert(0, SRC)
    import_start = time.perf_counter_ns()
    import repro.simulation  # noqa: F401  (before repro.runtime: circular import)
    import repro.runtime  # noqa: F401

    import_end = time.perf_counter_ns()
    import tracing

    tracer = tracing.install(
        tracing.Tracer(os.environ["PERFBENCH_TRACE_DIR"]), extra_hooks=SETUP_HOOKS
    )
    tracer.add("startup.import", import_start, import_end)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
