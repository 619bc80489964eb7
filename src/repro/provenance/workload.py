"""The deterministic golden workload behind ``repro verify-results``.

A regression gate needs a workload that is (a) cheap enough to run inside
``make check`` and (b) **bit-exact by construction**, so any drift is a
behavior change rather than noise.  This module provides exactly that: a
tiny seeded synthetic dataset, a quickly but deterministically trained
vgg13, one serial Table-III-style accuracy sweep, one greedy DSE
campaign — the same shape (and the same dataset/model configuration) as
``benchmarks/bench_dse_search.py``, shrunk to a fixed evaluation budget —
and the four Fig. 5 techniques.

Four golden documents come out of one run:

``inputs.json``
    The content-addressed identity of the workload — model parameter
    digest, dataset digest, the campaign ledger context key — plus the
    literal configuration.  Golden-comparing *these* is what pins the
    input-hashing recipe itself: if the digests drift, manifests would
    silently stop reproducing the ledger/cache keys.
``accuracy_table.json``
    The sweep's per-cell accuracies and losses (exact match).
``pareto_front.json``
    The greedy campaign's front, each point carrying its ledger record
    key, plus the deterministic campaign statistics (exact match,
    order-insensitive front).
``fig5.json``
    Ours, weight-oriented, ALWANN and reconfigurable on the same model,
    each scored through one :class:`~repro.dse.evaluator.PlanEvaluator`
    on every test image (the synthetic library, a 0.1 accuracy-drop
    budget): accuracy, baseline accuracy, array power, extra cycles and
    the chosen configuration (exact match).

Wall-clock is deliberately absent from all four: the goldens contain only
reproducible values, so ``verify-results`` needs no tolerance for them.
"""

from __future__ import annotations

import numpy as np

from repro.provenance.manifest import (
    dataset_digest,
    load_json,
    model_digest,
    write_json_atomic,
)
from repro.provenance.regression import (
    DEFAULT_TOLERANCE,
    Finding,
    compare_golden_payloads,
)

#: The golden documents one workload run produces, in comparison order.
GOLDEN_FILES = (
    "inputs.json",
    "accuracy_table.json",
    "pareto_front.json",
    "fig5.json",
)

#: Workload constants (also recorded verbatim in ``inputs.json``).
PERFORATIONS = (1, 2)
MAX_LOSS = 0.5
BUDGET_EVALS = 40
CALIBRATION_IMAGES = 64
ARRAY_SIZE = 64

#: Accuracy-drop budget of the Fig. 5 techniques (recorded in ``fig5.json``):
#: at 0.02 the weight-oriented technique keeps the accurate array here.
FIG5_MAX_ACCURACY_DROP = 0.1


def _train_workload_model():
    """The bench_dse_search setup: tiny seeded dataset, 2-epoch vgg13."""
    from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
    from repro.models.zoo import build_model
    from repro.nn.optimizers import SGD
    from repro.nn.training import Trainer
    from repro.simulation.campaign import TrainedModel

    dataset = make_synthetic_cifar(
        SyntheticCifarConfig(
            num_classes=10,
            image_size=16,
            train_per_class=40,
            test_per_class=16,
            noise_std=0.12,
            confusion=0.25,
            seed=21,
        )
    )
    model = build_model(
        "vgg13", num_classes=10, base_width=8, rng=np.random.default_rng(0)
    )
    trainer = Trainer(model, SGD(learning_rate=0.08), rng=np.random.default_rng(1))
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=2, batch_size=32)
    trained = TrainedModel(
        name="vgg13", dataset_name=dataset.name, model=model, float_accuracy=0.0
    )
    return trained, dataset


def run_golden_workload() -> dict[str, dict]:
    """Run the workload; returns ``{golden filename: payload}``.

    Every value in every payload is deterministic (seeded training, serial
    sweep, greedy search), so two runs on any host with the same code
    produce byte-identical documents.
    """
    from repro.dse import PlanEvaluator, run_campaign
    from repro.dse.engine import front_payload
    from repro.simulation.campaign import accuracy_sweep

    trained, dataset = _train_workload_model()

    sweep = accuracy_sweep(
        [trained],
        {dataset.name: dataset},
        perforations=PERFORATIONS,
        calibration_images=CALIBRATION_IMAGES,
    )
    accuracy_table = {
        "model": trained.name,
        "dataset": dataset.name,
        "baseline_accuracy": sweep.baselines[(trained.name, dataset.name)],
        "rows": [
            {
                "m": record.m,
                "with_control_variate": record.with_control_variate,
                "accuracy": record.approximate_accuracy,
                "accuracy_loss": record.accuracy_loss,
            }
            for record in sweep.records
        ],
    }

    result = run_campaign(
        trained,
        dataset,
        strategy="greedy",
        max_loss=MAX_LOSS,
        budget_evals=BUDGET_EVALS,
        evaluator=PlanEvaluator(
            trained, dataset, calibration_images=CALIBRATION_IMAGES
        ),
        array_size=ARRAY_SIZE,
    )
    pareto_front = {
        "strategy": result.strategy,
        "max_loss": result.max_loss,
        "baseline_accuracy": result.baseline_accuracy,
        "accurate_energy_nj": result.accurate_energy_nj,
        "energy_reduction_percent": result.energy_reduction_percent(),
        "evaluations": result.stats["evaluations"],
        "front_size": result.stats["front_size"],
        "front": front_payload(result),
    }

    inputs = {
        "model": trained.name,
        "dataset": dataset.name,
        "model_digest": model_digest(trained.model),
        "dataset_digest": dataset_digest(dataset),
        "context_key": result.stats["context_key"],
        "config": {
            "perforations": list(PERFORATIONS),
            "max_loss": MAX_LOSS,
            "budget_evals": BUDGET_EVALS,
            "calibration_images": CALIBRATION_IMAGES,
            "array_size": ARRAY_SIZE,
        },
    }
    return {
        "inputs.json": inputs,
        "accuracy_table.json": accuracy_table,
        "pareto_front.json": pareto_front,
        "fig5.json": _fig5_payload(trained, dataset),
    }


def _fig5_payload(trained, dataset) -> dict:
    """The four Fig. 5 techniques on the workload model, every test image."""
    from repro.baselines import (
        AlwannBaseline,
        ControlVariateTechnique,
        ReconfigurableBaseline,
        WeightOrientedBaseline,
    )
    from repro.dse.evaluator import PlanEvaluator
    from repro.multipliers.library import MultiplierLibrary

    evaluator = PlanEvaluator(trained, dataset, calibration_images=CALIBRATION_IMAGES)
    techniques = [
        ControlVariateTechnique(array_size=ARRAY_SIZE),
        WeightOrientedBaseline(
            array_size=ARRAY_SIZE, max_accuracy_drop=FIG5_MAX_ACCURACY_DROP
        ),
        AlwannBaseline(
            MultiplierLibrary.synthetic_evoapprox(),
            array_size=ARRAY_SIZE,
            max_accuracy_drop=FIG5_MAX_ACCURACY_DROP,
        ),
        ReconfigurableBaseline(
            array_size=ARRAY_SIZE, max_accuracy_drop=FIG5_MAX_ACCURACY_DROP
        ),
    ]
    rows = []
    for technique in techniques:
        result = technique.apply(evaluator)
        rows.append(
            {
                "technique": result.technique,
                "accuracy": result.accuracy,
                "baseline_accuracy": result.baseline_accuracy,
                "array_power_mw": result.array_power_mw,
                "extra_cycles_per_layer": result.extra_cycles_per_layer,
                "details": result.details,
            }
        )
    return {
        "model": trained.name,
        "dataset": dataset.name,
        "max_accuracy_drop": FIG5_MAX_ACCURACY_DROP,
        "techniques": rows,
    }


def write_goldens(payloads: dict[str, dict], directory: str) -> list[str]:
    """Atomically (re)write the golden documents; returns paths written."""
    import os

    paths = []
    for filename, payload in payloads.items():
        path = os.path.join(directory, filename)
        write_json_atomic(path, payload)
        paths.append(path)
    return paths


def verify_goldens(
    payloads: dict[str, dict],
    directory: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Finding]:
    """Compare fresh workload payloads against the committed goldens."""
    import os

    findings: list[Finding] = []
    for filename in GOLDEN_FILES:
        fresh = payloads.get(filename)
        if fresh is None:
            continue
        path = os.path.join(directory, filename)
        name = os.path.splitext(filename)[0]
        if not os.path.exists(path):
            findings.append(
                Finding(
                    name,
                    "",
                    "missing",
                    "fail",
                    f"golden file {path} does not exist (run `make bench-refresh`)",
                    None,
                    fresh,
                )
            )
            continue
        findings.extend(
            compare_golden_payloads(name, load_json(path), fresh, tolerance)
        )
    return findings


__all__ = [
    "GOLDEN_FILES",
    "run_golden_workload",
    "write_goldens",
    "verify_goldens",
]
