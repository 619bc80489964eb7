"""Shared helpers of the CLI package.

One module per verb lives next to this one (``repro.cli.sweep``,
``repro.cli.dse``, ...); everything two or more verbs need — error
formatting, late name validation, the shared ``--workers`` / ``--remote``
flags, manifest blocks, and the job-API sweep runners behind ``sweep`` and
``table3`` — is defined here exactly once, so the per-verb modules stay
pure "parse flags, call the library, print a table".
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.seeding import SeedBank
from repro.simulation.campaign import TrainingSettings, trained_cache_stem


def model_manifest_entries(trained_models, settings: TrainingSettings) -> list[dict]:
    """Per-model input identity for a run manifest.

    ``model_digest`` hashes the trained parameter bytes with the ledger's
    array recipe; ``trained_cache_stem`` is byte-identical to the
    :class:`TrainedModelCache` entry the parameters came from — so the
    manifest's identity block reproduces both key schemes already used by
    the caching layers.
    """
    from repro.provenance import model_digest

    return [
        {
            "name": trained.name,
            "dataset": trained.dataset_name,
            "float_accuracy": trained.float_accuracy,
            "model_digest": model_digest(trained.model),
            "trained_cache_stem": trained_cache_stem(
                trained.name, trained.dataset_name, settings
            ),
        }
        for trained in trained_models
    ]


def sweep_manifest_outputs(sweep) -> dict:
    """A :class:`SweepResult` as the outputs block of a run manifest."""
    return {
        "baselines": {
            f"{model}@{dataset}": accuracy
            for (model, dataset), accuracy in sweep.baselines.items()
        },
        "records": [
            {
                "model": record.model,
                "dataset": record.dataset,
                "m": record.m,
                "with_control_variate": record.with_control_variate,
                "baseline_accuracy": record.baseline_accuracy,
                "approximate_accuracy": record.approximate_accuracy,
                "accuracy_loss": record.accuracy_loss,
            }
            for record in sweep.records
        ],
    }


def cli_error(message: str) -> int:
    """Print a one-line error to stderr and return the CLI failure status.

    Used for late-validated names (search strategies) and flag values, so
    a typo produces a clear message and a non-zero exit instead of a
    traceback.
    """
    print(f"error: {message}", file=sys.stderr)
    return 2


def check_workers(workers: int | None) -> str | None:
    """Error message for an invalid ``--workers`` value, or ``None``.

    One contract across every command that evaluates plans (``sweep``,
    ``table3``, ``dse``, ``serve``): the flag is the worker-process count
    of the evaluation service — ``1`` (the default) runs in-process,
    ``N > 1`` fans cells across ``N`` persistent worker processes, and
    anything below ``1`` is a usage error.
    """
    if workers is not None and int(workers) < 1:
        return f"--workers must be a positive integer, got {workers}"
    return None


def add_workers_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--workers`` flag (identical semantics everywhere)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker process count of the evaluation service (1 = in-process, "
        "one image shard per schedulable CPU; N > 1 gives each of N "
        "persistent worker processes the whole batch on its own range of "
        "the images, with models and datasets published once through "
        "shared memory; results are bit-exact either way). Requests beyond the "
        "schedulable CPUs (cgroup/affinity-aware, not the machine's core "
        "count) are clamped — on a 1-CPU host any N degrades to the serial "
        "path at 1.0x serial instead of N contending processes",
    )


def add_remote_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--remote URL`` flag (identical semantics everywhere).

    Points the verb at a running ``repro serve`` daemon: evaluation jobs
    are POSTed over its HTTP job API instead of running in-process, so the
    daemon's warm worker pool (and its service-level result cache) does the
    work.  Results are bit-exact with the local path because the daemon
    runs the same engine.
    """
    parser.add_argument(
        "--remote",
        default=None,
        metavar="URL",
        help="submit evaluation jobs to a running `repro serve` daemon at "
        "URL (e.g. http://127.0.0.1:8752) instead of evaluating in-process; "
        "the daemon's hosted models and measurement setup apply, and "
        "duplicate cells across all its clients are served from its result "
        "cache",
    )


def subsampled_eval(dataset, count: int, bank: SeedBank):
    """A seeded random evaluation subset of ``count`` test images.

    Indices are drawn without replacement from the bank's dedicated
    ``eval-subsample`` stream and kept in ascending order, so the subset is
    reproducible under one ``--seed`` regardless of any other stochastic
    consumer.
    """
    n_test = dataset.test_images.shape[0]
    count = min(int(count), n_test)
    rng = bank.generator("eval-subsample")
    indices = np.sort(rng.choice(n_test, size=count, replace=False))
    return dataset.test_images[indices], dataset.test_labels[indices]


def sweep_jobs_local(
    trained_models,
    datasets,
    perforations,
    workers: int | None,
    *,
    max_eval_images: int | None = None,
):
    """The Table III sweep through the in-process job API.

    Hosts the models on an owned :class:`~repro.runtime.jobs.manager.
    JobManager` and submits one job per model via
    :func:`~repro.runtime.jobs.client.sweep_over_jobs` — the exact code
    path ``--remote`` uses, minus HTTP.  Worker sizing mirrors
    :func:`~repro.simulation.campaign.plan_sweep`: the request is clamped
    to the schedulable CPUs and the cell count, so results match
    :func:`~repro.simulation.campaign.accuracy_sweep` byte for byte.

    Returns ``(sweep, totals, stats)`` — the :class:`SweepResult`, the
    per-sweep job/cache totals, and the manager's final
    ``repro-runtime-stats/v1.4`` payload.
    """
    from repro.runtime.jobs import JobManager, LocalJobClient, sweep_over_jobs
    from repro.runtime.sizing import resolve_worker_count
    from repro.simulation.campaign import _sweep_cell_specs

    num_cells = len(_sweep_cell_specs(list(trained_models), tuple(perforations)))
    effective = resolve_worker_count(workers, num_cells=num_cells)
    manager = JobManager(
        trained_models,
        datasets,
        max_workers=effective,
        requested_workers=workers,
        max_eval_images=max_eval_images,
    )
    with LocalJobClient(manager) as client:
        sweep, totals = sweep_over_jobs(client, perforations=tuple(perforations))
        stats = client.stats()
    return sweep, totals, stats


def sweep_jobs_remote(url: str, model_names, perforations):
    """The Table III sweep against a ``repro serve`` daemon.

    Sweeps every hosted model whose name is in ``model_names`` (across all
    datasets the daemon hosts).  Raises :class:`ValueError` with a
    one-line message when a requested model is not hosted — the verb turns
    that into an exit-2 CLI error.

    Returns ``(sweep, totals, infos)`` — the :class:`SweepResult`, the
    per-sweep job/cache totals, and the swept ``/models`` descriptors.
    """
    from repro.runtime.jobs import HttpJobClient, sweep_over_jobs

    client = HttpJobClient(url)
    infos = client.models()
    hosted = {info["name"] for info in infos}
    wanted = list(dict.fromkeys(model_names))
    missing = [name for name in wanted if name not in hosted]
    if missing:
        raise ValueError(
            f"daemon at {url} does not host: {', '.join(missing)} "
            f"(hosted models: {', '.join(sorted(hosted)) or 'none'})"
        )
    kept = [info for info in infos if info["name"] in set(wanted)]
    indices = [info["index"] for info in kept]
    sweep, totals = sweep_over_jobs(
        client, perforations=tuple(perforations), models=indices
    )
    return sweep, totals, kept
