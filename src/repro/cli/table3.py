"""``repro table3`` — the Table III accuracy sweep over the job API.

The CLI's one accuracy sweep, from one model on one dataset to the full
benchmark.  Locally it hosts the trained models on an in-process
:class:`~repro.runtime.jobs.manager.JobManager` and submits one job per
model; with ``--remote URL`` it POSTs the same jobs to a running ``repro
serve`` daemon.  Both paths are bit-exact with
:func:`~repro.simulation.campaign.accuracy_sweep`, because the engine
underneath is the same.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import Table
from repro.models.zoo import MODEL_NAMES

from repro.cli.common import (
    add_remote_flag,
    add_workers_flag,
    check_counts,
    check_remote_flags,
    cli_error,
    load_models,
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


def _record_outputs(manifest, sweep, totals, datasets, perforations) -> None:
    """The outputs block of a ``table3`` manifest, local or remote."""
    manifest.outputs.update(sweep_manifest_outputs(sweep))
    manifest.outputs["jobs"] = totals
    manifest.outputs["averages"] = {
        f"{dataset_name}/m={m}/cv={with_cv}": sweep.average_loss(
            dataset_name, m, with_cv
        )
        for dataset_name in datasets
        for m in perforations
        for with_cv in (True, False)
    }


def _remote_table3(args: argparse.Namespace, perforations: list[int]) -> int:
    """The ``--remote`` path: the full benchmark as jobs against a daemon."""
    from repro.provenance import record_run
    from repro.runtime.jobs import AdmissionError, JobClientError, JobFailedError

    with record_run("table3", label="remote") as manifest:
        manifest.inputs.update(
            {
                "remote": args.remote,
                "models": list(args.models),
                "perforations": perforations,
            }
        )
        try:
            sweep, totals, infos = sweep_jobs_remote(
                args.remote, args.models, perforations
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
        _record_outputs(manifest, sweep, totals, datasets, perforations)
    _render_table3(
        sweep,
        [(info["name"], info["dataset"]) for info in infos],
        datasets,
        perforations,
        f"Table III accuracy sweep via {args.remote} "
        f"({len(names)} hosted models x {len(datasets)} datasets, "
        f"m = {', '.join(map(str, perforations))}, "
        f"{totals['cache_hits']}/{totals['cells']} cells from cache)",
    )
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    """The Table III sweep: every requested model x dataset, one service.

    All requested (model, dataset) combinations are trained (or loaded from
    cache) and swept through ONE multi-model job manager: every trained
    network and every dataset is hosted once and all cells are served
    from the same worker pool — duplicate cells across jobs from the
    service-level result cache.  A repeated model, class count or
    perforation is swept once.
    """
    error = check_counts(args)
    if error is None and args.remote is not None:
        error = check_remote_flags(args)
    if error is not None:
        return cli_error(error)
    perforations = list(dict.fromkeys(args.perforations))
    if args.remote is not None:
        return _remote_table3(args, perforations)
    from repro.provenance import dataset_digest, record_run

    with record_run("table3") as manifest:
        datasets, trained_models, settings = load_models(
            args, args.classes, args.models
        )
        manifest.inputs.update(
            {
                "datasets": {
                    name: dataset_digest(dataset)
                    for name, dataset in datasets.items()
                },
                "models": model_manifest_entries(trained_models, settings),
                "seed": args.seed,
                "perforations": perforations,
                "max_eval_images": args.max_eval_images,
                "workers": args.workers,
            }
        )
        sweep, totals, stats = sweep_jobs_local(
            trained_models,
            datasets,
            perforations,
            args.workers,
            max_eval_images=args.max_eval_images,
        )
        _record_outputs(manifest, sweep, totals, datasets, perforations)
        manifest.inputs["service"] = {"workers": stats["engine"]["workers"]}
    _render_table3(
        sweep,
        [(trained.name, trained.dataset_name) for trained in trained_models],
        datasets,
        perforations,
        f"Table III accuracy sweep ({len(set(args.models))} models x "
        f"{len(datasets)} datasets, m = {', '.join(map(str, perforations))}, "
        f"workers={args.workers})",
    )
    return 0


def register(sub) -> None:
    table3 = sub.add_parser(
        "table3",
        help="the Table III accuracy sweep: every requested model x dataset "
        "served by one multi-model evaluation session (default: the full "
        "benchmark, every model x both datasets)",
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
