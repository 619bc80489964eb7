"""``repro sweep`` — the multi-model Table III accuracy sweep.

Since the job-oriented re-architecture this verb is a thin client of the
runtime's job API: locally it hosts the trained models on an in-process
:class:`~repro.runtime.jobs.manager.JobManager` and submits one job per
model; with ``--remote URL`` it POSTs the *same* jobs to a running
``repro serve`` daemon.  Both paths are bit-exact with
:func:`~repro.simulation.campaign.accuracy_sweep` because the engine
underneath is identical.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import Table
from repro.core.seeding import SeedBank
from repro.models.zoo import MODEL_NAMES
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    experiment_dataset,
)

from repro.cli.common import (
    add_remote_flag,
    add_workers_flag,
    check_counts,
    check_remote_flags,
    cli_error,
    model_manifest_entries,
    sweep_jobs_local,
    sweep_jobs_remote,
    sweep_manifest_outputs,
)


def _remote_sweep(args: argparse.Namespace) -> int:
    """The ``--remote`` path: sweep the daemon's hosted models as jobs."""
    from repro.provenance import record_run
    from repro.runtime.jobs import AdmissionError, JobClientError, JobFailedError

    with record_run("sweep", label="remote") as manifest:
        manifest.inputs.update(
            {
                "remote": args.remote,
                "models": list(args.models),
                "perforations": list(args.perforations),
            }
        )
        try:
            sweep, totals, infos = sweep_jobs_remote(
                args.remote, args.models, args.perforations
            )
        except (
            ValueError,
            OSError,
            JobClientError,
            AdmissionError,
            JobFailedError,
        ) as error:
            manifest.status = "error"
            manifest.error = f"{type(error).__name__}: {error}"
            return cli_error(str(error))
        manifest.outputs.update(sweep_manifest_outputs(sweep))
        manifest.outputs["jobs"] = totals
    datasets = list(dict.fromkeys(info["dataset"] for info in infos))
    table = Table(
        title=f"Accuracy sweep via {args.remote} "
        f"({len(infos)} hosted models, m = {', '.join(map(str, args.perforations))}, "
        f"{totals['cache_hits']}/{totals['cells']} cells from cache)",
        columns=["model", "dataset", "baseline acc", "m", "ours loss %", "w/o V loss %"],
    )
    for info in infos:
        for m in args.perforations:
            table.add_row(
                info["name"],
                info["dataset"],
                sweep.baselines[(info["name"], info["dataset"])],
                m,
                sweep.lookup(info["name"], info["dataset"], m, True).accuracy_loss,
                sweep.lookup(info["name"], info["dataset"], m, False).accuracy_loss,
            )
    print(table.render(float_format="{:.3f}"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    error = check_counts(args)
    if error is not None:
        return cli_error(error)
    if args.remote is not None:
        error = check_remote_flags(args)
        if error is not None:
            return cli_error(error)
        return _remote_sweep(args)
    from repro.provenance import dataset_digest, record_run

    with record_run("sweep", label=f"c{args.classes}") as manifest:
        bank = SeedBank(args.seed)
        dataset = experiment_dataset(
            num_classes=args.classes,
            seed=bank.seed_for("dataset") if args.seed is not None else None,
        )
        cache = TrainedModelCache(cache_dir=args.cache_dir)
        settings = TrainingSettings(epochs=args.epochs)
        trained_models = [
            cache.load_or_train(name, dataset, settings, verbose=args.verbose)
            for name in args.models
        ]
        manifest.inputs.update(
            {
                "dataset": dataset.name,
                "dataset_digest": dataset_digest(dataset),
                "models": model_manifest_entries(trained_models, settings),
                "seed": args.seed,
                "perforations": list(args.perforations),
                "max_eval_images": args.max_eval_images,
                "workers": args.workers,
            }
        )
        sweep, totals, stats = sweep_jobs_local(
            trained_models,
            {dataset.name: dataset},
            args.perforations,
            args.workers,
            max_eval_images=args.max_eval_images,
        )
        manifest.outputs.update(sweep_manifest_outputs(sweep))
        manifest.outputs["jobs"] = totals
        manifest.inputs["service"] = {"workers": stats["engine"]["workers"]}
    table = Table(
        title=f"Accuracy sweep on {dataset.name} "
        f"({len(args.models)} models, m = {', '.join(map(str, args.perforations))})",
        columns=["model", "baseline acc", "m", "ours loss %", "w/o V loss %"],
    )
    for trained in trained_models:
        for m in args.perforations:
            table.add_row(
                trained.name,
                sweep.baselines[(trained.name, dataset.name)],
                m,
                sweep.lookup(trained.name, dataset.name, m, True).accuracy_loss,
                sweep.lookup(trained.name, dataset.name, m, False).accuracy_loss,
            )
    print(table.render(float_format="{:.3f}"))
    return 0


def register(sub) -> None:
    sweep = sub.add_parser(
        "sweep", help="multi-model Table III accuracy sweep (optionally parallel)"
    )
    sweep.add_argument("--models", nargs="+", choices=MODEL_NAMES, default=["vgg13"])
    sweep.add_argument("--classes", type=int, choices=(10, 100), default=10)
    sweep.add_argument("--epochs", type=int, default=6)
    sweep.add_argument("--perforations", type=int, nargs="+", default=[1, 2, 3])
    sweep.add_argument("--max-eval-images", type=int, default=None)
    add_workers_flag(sweep)
    sweep.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed of every stochastic path (synthetic dataset "
        "generation); distinct streams are derived per consumer",
    )
    sweep.add_argument("--cache-dir", default=None)
    sweep.add_argument("--verbose", action="store_true")
    add_remote_flag(sweep)
    sweep.set_defaults(func=cmd_sweep)
