"""``repro accuracy`` — accuracy sweep of one network (one Table III row)."""

from __future__ import annotations

import argparse

from repro.analysis.reporting import Table
from repro.models.zoo import MODEL_NAMES
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    accuracy_sweep,
    experiment_dataset,
)

from repro.cli.common import check_counts, cli_error


def cmd_accuracy(args: argparse.Namespace) -> int:
    error = check_counts(args)
    if error is not None:
        return cli_error(error)
    dataset = experiment_dataset(num_classes=args.classes)
    cache = TrainedModelCache(cache_dir=args.cache_dir)
    settings = TrainingSettings(epochs=args.epochs)
    trained = cache.load_or_train(args.model, dataset, settings, verbose=args.verbose)
    sweep = accuracy_sweep(
        [trained],
        {dataset.name: dataset},
        perforations=tuple(args.perforations),
        max_eval_images=args.max_eval_images,
    )
    table = Table(
        title=f"{args.model} on {dataset.name} "
        f"(float accuracy {trained.float_accuracy:.3f}, "
        f"quantized baseline {sweep.baselines[(args.model, dataset.name)]:.3f})",
        columns=["m", "ours loss %", "w/o V loss %"],
    )
    for m in args.perforations:
        table.add_row(
            m,
            sweep.lookup(args.model, dataset.name, m, True).accuracy_loss,
            sweep.lookup(args.model, dataset.name, m, False).accuracy_loss,
        )
    print(table.render(float_format="{:.2f}"))
    return 0


def register(sub) -> None:
    accuracy = sub.add_parser("accuracy", help="accuracy sweep of one network (one Table III row)")
    accuracy.add_argument("--model", choices=MODEL_NAMES, default="vgg13")
    accuracy.add_argument("--classes", type=int, choices=(10, 100), default=10)
    accuracy.add_argument("--epochs", type=int, default=6)
    accuracy.add_argument("--perforations", type=int, nargs="+", default=[1, 2, 3])
    accuracy.add_argument("--max-eval-images", type=int, default=None)
    accuracy.add_argument("--cache-dir", default=None)
    accuracy.add_argument("--verbose", action="store_true")
    accuracy.set_defaults(func=cmd_accuracy)
