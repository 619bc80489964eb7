"""``repro table3`` — the full Table III benchmark over the job API."""

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


def _render_table3(sweep, rows, datasets, perforations, title) -> None:
    """The Table III rendering shared by the local and remote paths.

    ``rows`` is the ordered ``(model, dataset)`` sequence to print;
    average rows per dataset follow, as in the paper's table.
    """
    table = Table(
        title=title,
        columns=["model", "dataset", "baseline acc", "m", "ours loss %", "w/o V loss %"],
    )
    for model_name, dataset_name in rows:
        for m in perforations:
            table.add_row(
                model_name,
                dataset_name,
                sweep.baselines[(model_name, dataset_name)],
                m,
                sweep.lookup(model_name, dataset_name, m, True).accuracy_loss,
                sweep.lookup(model_name, dataset_name, m, False).accuracy_loss,
            )
    for dataset_name in datasets:
        for m in perforations:
            table.add_row(
                "average",
                dataset_name,
                "",
                m,
                sweep.average_loss(dataset_name, m, True),
                sweep.average_loss(dataset_name, m, False),
            )
    print(table.render(float_format="{:.3f}"))


def _averages_block(sweep, datasets, perforations) -> dict:
    return {
        f"{dataset_name}/m={m}/cv={with_cv}": sweep.average_loss(
            dataset_name, m, with_cv
        )
        for dataset_name in datasets
        for m in perforations
        for with_cv in (True, False)
    }


def _remote_table3(args: argparse.Namespace) -> int:
    """The ``--remote`` path: the full benchmark as jobs against a daemon."""
    from repro.provenance import record_run
    from repro.runtime.jobs import AdmissionError, JobClientError, JobFailedError

    with record_run("table3", label="remote") as manifest:
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
        names = list(dict.fromkeys(info["name"] for info in infos))
        datasets = list(dict.fromkeys(info["dataset"] for info in infos))
        manifest.outputs.update(sweep_manifest_outputs(sweep))
        manifest.outputs["jobs"] = totals
        manifest.outputs["averages"] = _averages_block(
            sweep, datasets, args.perforations
        )
    _render_table3(
        sweep,
        [(info["name"], info["dataset"]) for info in infos],
        datasets,
        args.perforations,
        f"Table III accuracy sweep via {args.remote} "
        f"({len(names)} hosted models x {len(datasets)} datasets, "
        f"m = {', '.join(map(str, args.perforations))}, "
        f"{totals['cache_hits']}/{totals['cells']} cells from cache)",
    )
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    """The full Table III benchmark: every model x both datasets, one service.

    All requested (model, dataset) combinations are trained (or loaded from
    cache) and swept through ONE multi-model job manager: every trained
    network and both datasets are hosted once and all cells are served
    from the same worker pool — duplicate cells across jobs from the
    service-level result cache.
    """
    error = check_counts(args)
    if error is not None:
        return cli_error(error)
    if args.remote is not None:
        error = check_remote_flags(args)
        if error is not None:
            return cli_error(error)
        return _remote_table3(args)
    from repro.provenance import dataset_digest, record_run

    with record_run("table3") as manifest:
        bank = SeedBank(args.seed)
        cache = TrainedModelCache(cache_dir=args.cache_dir)
        settings = TrainingSettings(epochs=args.epochs)
        datasets = {}
        trained_models = []
        for classes in args.classes:
            # Same seed stream as `sweep` and `dse` (num_classes already
            # differentiates the generated data and the dataset name), so one
            # --seed yields the same datasets — and therefore cache-hits the
            # same trained models — across all three commands.
            dataset = experiment_dataset(
                num_classes=classes,
                seed=bank.seed_for("dataset") if args.seed is not None else None,
            )
            datasets[dataset.name] = dataset
            for name in args.models:
                trained_models.append(
                    cache.load_or_train(name, dataset, settings, verbose=args.verbose)
                )
        manifest.inputs.update(
            {
                "datasets": {
                    name: dataset_digest(dataset)
                    for name, dataset in datasets.items()
                },
                "models": model_manifest_entries(trained_models, settings),
                "seed": args.seed,
                "perforations": list(args.perforations),
                "max_eval_images": args.max_eval_images,
                "workers": args.workers,
            }
        )
        sweep, totals, stats = sweep_jobs_local(
            trained_models,
            datasets,
            args.perforations,
            args.workers,
            max_eval_images=args.max_eval_images,
        )
        manifest.outputs.update(sweep_manifest_outputs(sweep))
        manifest.outputs["jobs"] = totals
        manifest.inputs["service"] = {"workers": stats["engine"]["workers"]}
        manifest.outputs["averages"] = _averages_block(
            sweep, datasets, args.perforations
        )
    _render_table3(
        sweep,
        [(trained.name, trained.dataset_name) for trained in trained_models],
        datasets,
        args.perforations,
        f"Table III accuracy sweep ({len(args.models)} models x "
        f"{len(datasets)} datasets, m = {', '.join(map(str, args.perforations))}, "
        f"workers={args.workers})",
    )
    return 0


def register(sub) -> None:
    table3 = sub.add_parser(
        "table3",
        help="the full Table III benchmark: every model x both datasets "
        "served by one multi-model evaluation session",
    )
    table3.add_argument(
        "--models", nargs="+", choices=MODEL_NAMES, default=list(MODEL_NAMES)
    )
    table3.add_argument(
        "--classes",
        type=int,
        nargs="+",
        choices=(10, 100),
        default=[10, 100],
        help="dataset variants to sweep (default: both, as in the paper)",
    )
    table3.add_argument("--epochs", type=int, default=6)
    table3.add_argument("--perforations", type=int, nargs="+", default=[1, 2, 3])
    table3.add_argument("--max-eval-images", type=int, default=None)
    add_workers_flag(table3)
    table3.add_argument(
        "--seed",
        type=int,
        default=None,
        help="root seed of every stochastic path (synthetic dataset "
        "generation); distinct streams are derived per consumer",
    )
    table3.add_argument("--cache-dir", default=None)
    table3.add_argument("--verbose", action="store_true")
    add_remote_flag(table3)
    table3.set_defaults(func=cmd_table3)
