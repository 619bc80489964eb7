"""Fig. 5 — energy reduction and accuracy loss versus the state of the art.

Regenerates the Fig. 5 comparison on a 64x64 MAC array: our control-variate
approximation at m = 2 against the three retraining-free baselines —
weight-oriented approximation [6], ALWANN (uniform variant) [7] and
layer-wise runtime-reconfigurable multipliers [8] — all built on the shared
synthetic multiplier library.  For every technique the bench reports the
average energy reduction (energy = cycles x power x delay, cycles from the
weight-stationary scheduling model) and the average accuracy loss versus the
accurate design.

Expected shape (per the paper): every technique keeps a comparable, small
accuracy loss, but ours achieves by far the largest energy reduction, with
the weight-oriented approach [6] ahead of ALWANN [7], ahead of the
reconfigurable approach [8].

Every technique scores its candidates through one
:class:`~repro.dse.evaluator.PlanEvaluator` per (network, dataset) pair,
calibrated on 128 training images and evaluated on 160 test images.

By default the comparison runs on a representative subset of the network
suite: vgg13, shufflenet and resnet44 on 10 classes.  Set
``REPRO_BENCH_FULL=1`` to sweep all six networks on both datasets, as the
paper does.  Measured on a 2-vCPU host with the models trained and cached,
against the same bench when each technique scored through
``ApproximateExecutor.predict`` and ALWANN tuned weights by overriding the
executor's codes:

* default: 18.1, 19.4 and 20.2 s, against 22.8, 22.5 and 24.1 s
  (three alternating pairs);
* full scale: 90.2 s, against 106.9 s (one pair).  Training the twelve
  models first took another 9.5 minutes.
"""

from __future__ import annotations

from conftest import bench_epochs, full_scale, record_bench, write_result

from repro.accelerator.energy import network_energy
from repro.accelerator.scheduling import layer_shapes_of_model
from repro.analysis.reporting import Table
from repro.baselines.alwann import AlwannBaseline
from repro.baselines.ours import ControlVariateTechnique
from repro.baselines.reconfigurable import ReconfigurableBaseline
from repro.baselines.weight_oriented import WeightOrientedBaseline
from repro.core.accelerator_model import AcceleratorConfig
from repro.dse.evaluator import PlanEvaluator
from repro.hardware.area_power import array_cost
from repro.models.zoo import MODEL_NAMES
from repro.multipliers.library import MultiplierLibrary
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    experiment_dataset,
)

ARRAY_SIZE = 64
OURS_M = 2
ACCURACY_BUDGET = 0.02


def _workloads():
    """(network, dataset) pairs evaluated by the comparison."""
    if full_scale():
        return [(name, classes) for classes in (10, 100) for name in MODEL_NAMES]
    return [("vgg13", 10), ("shufflenet", 10), ("resnet44", 10)]


def _techniques(library):
    return [
        ControlVariateTechnique(m=OURS_M, array_size=ARRAY_SIZE),
        WeightOrientedBaseline(array_size=ARRAY_SIZE, max_accuracy_drop=ACCURACY_BUDGET),
        AlwannBaseline(library, array_size=ARRAY_SIZE, max_accuracy_drop=ACCURACY_BUDGET),
        ReconfigurableBaseline(array_size=ARRAY_SIZE, max_accuracy_drop=ACCURACY_BUDGET),
    ]


def _run_comparison():
    library = MultiplierLibrary.synthetic_evoapprox()
    cache = TrainedModelCache()
    settings = TrainingSettings(epochs=bench_epochs())
    accurate_config = AcceleratorConfig.accurate(ARRAY_SIZE)
    accurate_power = array_cost(accurate_config).power_mw

    per_technique: dict[str, dict[str, list[float]]] = {}
    for model_name, num_classes in _workloads():
        dataset = experiment_dataset(num_classes=num_classes)
        trained = cache.load_or_train(model_name, dataset, settings)
        # The techniques' accuracy budgets are enforced on the same evaluation
        # set they are reported on, mirroring how the paper reports each
        # method at its chosen operating point.
        evaluator = PlanEvaluator(
            trained, dataset, max_eval_images=160, calibration_images=128
        )
        shapes = layer_shapes_of_model(trained.model, dataset.image_shape)
        accurate_energy = network_energy(shapes, accurate_config, accurate_power)

        for technique in _techniques(library):
            result = technique.apply(evaluator)
            config = (
                AcceleratorConfig.make(ARRAY_SIZE, OURS_M, use_control_variate=True)
                if result.extra_cycles_per_layer
                else accurate_config
            )
            energy = network_energy(shapes, config, result.array_power_mw)
            reduction = 100.0 * (
                1.0 - energy.total_energy_nj / accurate_energy.total_energy_nj
            )
            store = per_technique.setdefault(
                technique.name, {"energy_reduction": [], "accuracy_loss": []}
            )
            store["energy_reduction"].append(reduction)
            store["accuracy_loss"].append(result.accuracy_loss_percent)
    return per_technique


def _build_table(per_technique) -> Table:
    table = Table(
        title="Fig. 5: average energy reduction and accuracy loss vs the state of the art "
        f"(64x64 array, ours at m={OURS_M})",
        columns=["technique", "avg energy reduction %", "avg accuracy loss %", "networks"],
    )
    for name, data in per_technique.items():
        n = len(data["energy_reduction"])
        table.add_row(
            name,
            sum(data["energy_reduction"]) / n,
            sum(data["accuracy_loss"]) / n,
            n,
        )
    return table


def test_fig5_sota_comparison(benchmark, results_dir):
    """Regenerate the Fig. 5 comparison (ours vs [6], [7], [8])."""
    per_technique = benchmark.pedantic(_run_comparison, rounds=1, iterations=1)
    table = _build_table(per_technique)
    rendered = table.render(float_format="{:.2f}")
    path = write_result(results_dir, "fig5_sota_comparison.txt", rendered)
    manifest_path = record_bench(
        "fig5_sota_comparison",
        inputs={
            "workloads": [list(pair) for pair in _workloads()],
            "array_size": ARRAY_SIZE,
            "ours_m": OURS_M,
            "accuracy_budget": ACCURACY_BUDGET,
            "epochs": bench_epochs(),
            "full_scale": full_scale(),
        },
        outputs={"per_technique": per_technique},
    )
    print("\n" + rendered)
    print(f"\n[written to {path}; manifest {manifest_path}]")

    reductions = {
        name: sum(d["energy_reduction"]) / len(d["energy_reduction"])
        for name, d in per_technique.items()
    }
    losses = {
        name: sum(d["accuracy_loss"]) / len(d["accuracy_loss"])
        for name, d in per_technique.items()
    }
    # The paper's headline ordering: ours saves the most energy by a wide margin.
    assert reductions["ours"] > reductions["weight_oriented"]
    assert reductions["ours"] > reductions["alwann"]
    assert reductions["ours"] > reductions["reconfigurable"]
    assert reductions["ours"] >= 2.0 * max(
        reductions["weight_oriented"], reductions["alwann"], reductions["reconfigurable"]
    )
    # All techniques keep comparable (small) accuracy losses.
    assert all(loss < 10.0 for loss in losses.values())
