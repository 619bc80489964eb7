"""Shared helpers of the CLI package.

One module per verb lives next to this one (``repro.cli.table3``,
``repro.cli.dse``, ...); everything two or more verbs need — error
formatting, late name validation, the early check of count and perforation
flags, the shared ``--workers`` / ``--remote`` flags, the one loader of
datasets and trained models, manifest blocks, and the job-API sweep runners
behind ``table3`` — is defined here exactly once, so the per-verb modules
stay pure "parse flags, call the library, print a table".
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.seeding import SeedBank
from repro.multipliers.base import OPERAND_BITS
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    experiment_dataset,
    trained_cache_stem,
)


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


#: Count flags (and their argparse destinations) whose every value must be
#: a positive integer on every verb that has them.
COUNT_FLAGS = (
    ("--workers", "workers"),
    ("--queue-depth", "queue_depth"),
    ("--max-eval-images", "max_eval_images"),
    ("--calibration-images", "calibration_images"),
    ("--array-size", "array_size"),
    ("--array-sizes", "array_sizes"),
    ("--taps", "taps"),
    ("--trials", "trials"),
)

#: Perforation flags: an 8-bit operand can drop at most 7 low bits.
PERFORATION_FLAGS = (("--perforations", "perforations"), ("--m", "m"))
MAX_PERFORATION = OPERAND_BITS - 1


def _flag_values(args: argparse.Namespace, dest: str) -> list:
    """A flag's values as a list (``None``, an unset flag, has none)."""
    value = getattr(args, dest, None)
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def check_counts(args: argparse.Namespace, min_perforation: int = 0) -> str | None:
    """Error message for the first out-of-range value of a verb's
    :data:`COUNT_FLAGS` (below 1) or :data:`PERFORATION_FLAGS` (outside
    ``[min_perforation, MAX_PERFORATION]``), or ``None``.

    Verbs call it before loading or training any model or doing any other
    work, so a bad value is a one-line exit-2 error at once, not a
    traceback after the models load.  ``m = 0``, the accurate array, is a
    valid point of an accuracy sweep, a DSE or an error model; ``repro
    hardware`` passes ``min_perforation=1``, since its MAC+ shares exist
    only for an approximate array.
    """
    for flag, dest in COUNT_FLAGS:
        for value in _flag_values(args, dest):
            if value < 1:
                return f"{flag} must be a positive integer, got {value}"
    for flag, dest in PERFORATION_FLAGS:
        for value in _flag_values(args, dest):
            if not min_perforation <= value <= MAX_PERFORATION:
                return (
                    f"{flag} must lie in [{min_perforation}, {MAX_PERFORATION}], "
                    f"got {value}"
                )
    return None


def load_models(args: argparse.Namespace, class_counts, names):
    """The datasets and trained models of a verb: trained, or loaded from
    the ``--cache-dir`` trained-model cache.

    One loop over the class counts, then the names, keeping the first of
    each repeated value.  Every dataset draws its seed from the ``--seed``
    bank's ``dataset`` stream (the class count already tells the generated
    data and the dataset name apart), so one ``--seed`` gives the same
    datasets, and hits the same trained models, on every verb.

    Returns ``(datasets, trained_models, settings)``: the datasets by
    name, the trained models in (class count, name) order and the
    :class:`TrainingSettings` they were trained with.
    """
    bank = SeedBank(args.seed)
    cache = TrainedModelCache(cache_dir=args.cache_dir)
    settings = TrainingSettings(epochs=args.epochs)
    datasets = {}
    trained_models = []
    for classes in dict.fromkeys(class_counts):
        dataset = experiment_dataset(
            num_classes=classes,
            seed=bank.seed_for("dataset") if args.seed is not None else None,
        )
        datasets[dataset.name] = dataset
        for name in dict.fromkeys(names):
            trained_models.append(
                cache.load_or_train(name, dataset, settings, verbose=args.verbose)
            )
    return datasets, trained_models, settings


def add_workers_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--workers`` flag (identical semantics everywhere)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker process count of the evaluation service, a positive "
        "integer (1, the default, = in-process, one image shard per "
        "schedulable CPU; N > 1 gives each of N persistent worker "
        "processes the whole batch on its own range of the images, with "
        "the models and datasets inherited from this process; results are "
        "bit-exact either way). Requests beyond the schedulable CPUs "
        "(cgroup/affinity-aware, not the machine's core count) are clamped "
        "— on a 1-CPU host any N degrades to the serial path at 1.0x "
        "serial instead of N contending processes",
    )


def check_remote_flags(
    args: argparse.Namespace, *local_flags: tuple[str, bool]
) -> str | None:
    """Error message for local-evaluation flags next to ``--remote``, or ``None``.

    The daemon's measurement setup and worker pool win, so ``--workers``,
    ``--max-eval-images`` and a verb's own ``local_flags`` (``(flag,
    given)`` pairs) would silently do nothing; the verb rejects them before
    any request is sent — as ``PlanEvaluator`` rejects measurement knobs
    given alongside a service.
    """
    clashes = [
        flag
        for flag, given in (
            ("--workers", args.workers != 1),
            ("--max-eval-images", args.max_eval_images is not None),
            *local_flags,
        )
        if given
    ]
    if not clashes:
        return None
    return (
        "--remote delegates evaluation to the daemon, whose measurement "
        "setup wins; incompatible flags: " + ", ".join(clashes)
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
    workers: int,
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
    per-sweep job/cache totals, and the manager's final stats payload
    (schema :data:`~repro.runtime.stats.STATS_SCHEMA`).
    """
    from repro.runtime.jobs import JobManager, LocalJobClient, sweep_over_jobs
    from repro.runtime.sizing import resolve_worker_count
    from repro.simulation.campaign import _sweep_cell_specs

    num_cells = len(_sweep_cell_specs(list(trained_models), tuple(perforations)))
    manager = JobManager(
        trained_models,
        datasets,
        max_workers=resolve_worker_count(workers, num_cells=num_cells),
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
    one-line message when a requested model is not hosted, and the job
    client's ``JobClientError``, ``AdmissionError`` or ``JobFailedError``
    when the daemon cannot be reached, rejects a job or fails one — the
    verbs turn each into an exit-2 CLI error.

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
