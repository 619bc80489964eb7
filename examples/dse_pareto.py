"""Automated design-space exploration: per-layer approximation Pareto front.

Trains a small reference network on a synthetic CIFAR-like dataset, then
lets the DSE engine search the per-layer mix of perforated multipliers
(with and without the control-variate MAC+ column) that minimizes the
modeled array energy within an accuracy-loss budget — the paper's decision
procedure, automated.  Two strategies score on one evaluator and run on
the same campaign ledger, so the second one re-uses every plan the first
already evaluated:

* ``greedy`` — the energy-per-accuracy descent the paper's selection implies;
* ``nsga2`` — seeded genetic multi-objective search.

Run with ``python examples/dse_pareto.py`` (takes about a minute on a
laptop; most of it is training the reference model).
"""

import tempfile

import numpy as np

from repro.analysis import pareto_front_table
from repro.core.seeding import SeedBank
from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.dse import CampaignLedger, PlanEvaluator, get_strategy, run_campaign
from repro.models.zoo import build_model
from repro.nn.optimizers import SGD
from repro.nn.training import Trainer
from repro.simulation.campaign import TrainedModel

MAX_LOSS = 0.5  # percentage points, the paper's headline budget


def main() -> None:
    bank = SeedBank(0)
    dataset = make_synthetic_cifar(
        SyntheticCifarConfig(
            num_classes=10,
            image_size=16,
            train_per_class=60,
            test_per_class=20,
            seed=bank.seed_for("dataset"),
        )
    )
    print(f"training a small vgg13 on {dataset.name} ...")
    model = build_model(
        "vgg13", num_classes=10, base_width=8, rng=bank.generator("init")
    )
    trainer = Trainer(model, SGD(learning_rate=0.08), rng=bank.generator("train"))
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=3, batch_size=32)
    trained = TrainedModel(
        name="vgg13", dataset_name=dataset.name, model=model, float_accuracy=0.0
    )

    # The evaluator owns the measurement setup (calibration on 64 training
    # images, every test image) and its calibrated executor serves both
    # campaigns.
    evaluator = PlanEvaluator(trained, dataset, calibration_images=64)
    with tempfile.TemporaryDirectory() as ledger_dir:
        for index, strategy in enumerate(
            ["greedy", get_strategy("nsga2", population=12, generations=3)]
        ):
            result = run_campaign(
                trained,
                dataset,
                strategy=strategy,
                max_loss=MAX_LOSS,
                budget_evals=120,
                evaluator=evaluator,
                ledger=CampaignLedger(ledger_dir),
                resume=index > 0,  # the second strategy replays the first's ledger
                rng=bank.generator("nsga2"),
                array_size=64,
            )
            stats = result.stats
            print()
            print(
                f"strategy={result.strategy}: {stats['evaluations']} fresh "
                f"evaluations, {stats['ledger_replays']} ledger replays, "
                f"{stats['wall_clock_s']:.1f} s"
            )
            table = pareto_front_table(
                result.front.points(),
                baseline_energy_nj=result.accurate_energy_nj,
                title=f"Pareto front after {result.strategy} "
                f"(loss budget {MAX_LOSS}%)",
            )
            print(table.render(float_format="{:.3f}"))
            best = result.best()
            if best is not None:
                print(
                    f"-> minimum-energy feasible point: {best.label} "
                    f"({result.energy_reduction_percent():.1f}% energy below "
                    f"the accurate design at {best.accuracy_loss:+.2f}% loss)"
                )


if __name__ == "__main__":
    main()
