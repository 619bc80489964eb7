"""DSE search benchmark: evaluations-to-front and wall-clock per strategy.

Runs the greedy descent and the seeded NSGA-II on a quickly trained network
over the full per-layer perforation space and records, per strategy:

* ``evaluations`` — fresh accuracy evaluations spent;
* ``evals_to_front`` — evaluations until the last point that survived on
  the final Pareto front had been scored (how fast the front saturates);
* ``front_size``, ``wall_clock_s``, ``energy_reduction_percent`` and the
  best point's loss.

The metrics merge into the machine-readable ``results/BENCH_engine.json``
ledger (section ``dse_search``) so the search efficiency is diffable across
PRs, next to the engine-throughput and sweep-prefix sections.  Run via
pytest (``pytest -m dse benchmarks/bench_dse_search.py``) or as a script.

A second benchmark measures the **parallel campaign** path: the same greedy
campaign scored on a ``build_campaign_service(..., N)`` service passed as
``run_campaign(service=...)``, whose build, run and close are timed
together, recording workers-vs-wallclock (section ``dse_parallel_campaign``)
and asserting the Pareto front is identical — same points, bit-exact
accuracies — to the serial run.  ``speedup_vs_serial`` must never drop
below 1.0 (the regression gate holds it to an absolute floor): a worker
request beyond the schedulable CPUs degrades to the serial in-process path
(``resolve_worker_count``), so on a single-core container every worker
count runs the *same* serial code and the speedup is 1.0 by construction —
the raw wall-clocks of each run are still recorded in
``workers_vs_wallclock`` for observability.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from conftest import record_bench, update_json_result, write_result

from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.dse import PlanEvaluator, build_campaign_service, get_strategy, run_campaign
from repro.models.zoo import build_model
from repro.nn.optimizers import SGD
from repro.nn.training import Trainer
from repro.simulation.campaign import TrainedModel

pytestmark = pytest.mark.dse

MAX_LOSS = 0.5
NSGA_BUDGET = 80


def _setup() -> tuple[TrainedModel, object]:
    """One quickly trained network on a small synthetic dataset."""
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
    model = build_model("vgg13", num_classes=10, base_width=8, rng=np.random.default_rng(0))
    trainer = Trainer(model, SGD(learning_rate=0.08), rng=np.random.default_rng(1))
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=2, batch_size=32)
    trained = TrainedModel(
        name="vgg13", dataset_name=dataset.name, model=model, float_accuracy=0.0
    )
    return trained, dataset


def _evals_to_front(result) -> int:
    """Evaluations spent until the last surviving front point was scored."""
    front = set(result.front.points())
    last = 0
    for index, point in enumerate(result.points):
        if point in front:
            last = index + 1
    return last


def run_strategy(trained, dataset, strategy, budget=None, rng_seed=0) -> dict:
    start = time.perf_counter()
    result = run_campaign(
        trained,
        dataset,
        strategy=strategy,
        max_loss=MAX_LOSS,
        budget_evals=budget,
        evaluator=PlanEvaluator(trained, dataset, calibration_images=64),
        rng=np.random.default_rng(rng_seed),
        array_size=64,
    )
    wall = time.perf_counter() - start
    best = result.best()
    return {
        "strategy": result.strategy,
        "evaluations": result.stats["evaluations"],
        "evals_to_front": _evals_to_front(result),
        "front_size": result.stats["front_size"],
        "space_size": result.stats["space_size"],
        "wall_clock_s": wall,
        "baseline_accuracy": result.baseline_accuracy,
        "accurate_energy_nj": result.accurate_energy_nj,
        "best_energy_nj": None if best is None else best.energy_nj,
        "best_loss_percent": None if best is None else best.accuracy_loss,
        "energy_reduction_percent": result.energy_reduction_percent(),
    }


def _render(metrics: list[dict]) -> str:
    lines = [
        "DSE search: evaluations-to-front and wall-clock per strategy",
        f"(per-layer perforation space of {metrics[0]['space_size']} assignments,"
        f" loss budget {MAX_LOSS}%)",
        "",
    ]
    for m in metrics:
        reduction = m["energy_reduction_percent"]
        lines += [
            f"{m['strategy']}:",
            f"  evaluations        {m['evaluations']:6d}"
            f"  (front saturated after {m['evals_to_front']})",
            f"  front size         {m['front_size']:6d}",
            f"  wall clock         {m['wall_clock_s']:8.2f} s",
            f"  best feasible      "
            + (
                "none"
                if m["best_energy_nj"] is None
                else f"{m['best_energy_nj']:.1f} nJ "
                f"(loss {m['best_loss_percent']:+.2f}%, "
                f"{reduction:.1f}% below accurate)"
            ),
            "",
        ]
    return "\n".join(lines)


PARALLEL_WORKERS = (1, 4)


def run_parallel_campaigns(trained, dataset, workers_list=PARALLEL_WORKERS) -> dict:
    """One greedy campaign per worker count; fronts must be identical.

    ``speedup_vs_serial`` is serial wall-clock over this run's wall-clock —
    except when the worker request *degraded to the serial path* (clamped
    to 1 effective worker): then both runs execute literally the same
    in-process code and the speedup is 1.0 by construction, so 1.0 is what
    the ledger records (the measured ratio of two identical runs is pure
    timing noise).  The raw wall-clocks stay in ``workers_vs_wallclock``.
    """
    from repro.runtime.sizing import effective_cpu_count

    runs: dict[int, dict] = {}
    fronts = {}
    for workers in workers_list:
        start = time.perf_counter()
        service = build_campaign_service([trained], dataset, workers, calibration_images=64)
        try:
            result = run_campaign(
                trained,
                dataset,
                strategy="greedy",
                max_loss=MAX_LOSS,
                budget_evals=60,
                service=service,
                array_size=64,
            )
        finally:
            service.close()
        wall = time.perf_counter() - start
        fronts[workers] = result.front.points()
        runs[workers] = {
            "wall_clock_s": wall,
            "evaluations": result.stats["evaluations"],
            "front_size": result.stats["front_size"],
            "effective_workers": result.stats["workers"],
        }
    baseline = fronts[workers_list[0]]
    identical = all(front == baseline for front in fronts.values())
    serial_wall = runs[workers_list[0]]["wall_clock_s"]
    serial_effective = runs[workers_list[0]]["effective_workers"]
    speedup = {}
    for workers, run in runs.items():
        if run["effective_workers"] == serial_effective:
            # Degraded (or serial) run: same code path as the serial
            # reference — unit speedup by construction, noise aside.
            speedup[str(workers)] = 1.0
        else:
            speedup[str(workers)] = serial_wall / run["wall_clock_s"]
    return {
        "workers_vs_wallclock": {str(w): r["wall_clock_s"] for w, r in runs.items()},
        "effective_workers": {
            str(w): r["effective_workers"] for w, r in runs.items()
        },
        "speedup_vs_serial": speedup,
        "front_identical_across_workers": identical,
        "front_size": runs[workers_list[0]]["front_size"],
        "evaluations": runs[workers_list[0]]["evaluations"],
        "cpu_count": os.cpu_count(),
        "affinity_cpus": effective_cpu_count(),
    }


def test_dse_parallel_campaign_benchmark(results_dir):
    """run_campaign(service=...) on an N-worker service lands on the
    identical Pareto front; workers-vs-wallclock goes into the JSON
    ledger."""
    trained, dataset = _setup()
    metrics = run_parallel_campaigns(trained, dataset)
    json_path = update_json_result(results_dir, "dse_parallel_campaign", metrics)
    lines = [
        "DSE parallel campaign: workers vs wall-clock (greedy, 60-eval budget)",
        f"(host cpu_count={metrics['cpu_count']}, "
        f"schedulable={metrics['affinity_cpus']})",
        "",
    ]
    for workers, wall in metrics["workers_vs_wallclock"].items():
        speedup = metrics["speedup_vs_serial"][workers]
        effective = metrics["effective_workers"][workers]
        lines.append(
            f"  workers={workers} (effective {effective}):  {wall:8.2f} s  "
            f"({speedup:.2f}x vs serial)"
        )
    from repro.provenance import dataset_digest, model_digest

    manifest_path = record_bench(
        "dse_parallel_campaign",
        inputs={
            "model_digest": model_digest(trained.model),
            "dataset_digest": dataset_digest(dataset),
            "workers_list": list(PARALLEL_WORKERS),
            "budget_evals": 60,
        },
        outputs=metrics,
    )
    rendered = "\n".join(lines)
    print("\n" + rendered)
    print(f"[workers-vs-wallclock written to {json_path}; manifest {manifest_path}]")
    # The acceptance bar: identical front regardless of worker count, and
    # parallel never loses to serial (degrading to the serial path when
    # workers exceed schedulable CPUs counts as 1.0x; 10 % noise margin
    # matches the regression gate's SPEEDUP_NOISE_TOLERANCE).
    assert metrics["front_identical_across_workers"]
    assert metrics["front_size"] > 0
    for workers, speedup in metrics["speedup_vs_serial"].items():
        assert speedup >= 0.9, (
            f"workers={workers} ran at {speedup:.2f}x serial — the scheduler "
            f"must degrade to serial rather than lose to it"
        )


def test_dse_search_benchmark(results_dir):
    """Both strategies find a feasible sub-accurate-energy point within a
    vanishing fraction of the space; metrics land in the JSON ledger."""
    trained, dataset = _setup()
    greedy = run_strategy(trained, dataset, "greedy")
    nsga2 = run_strategy(
        trained,
        dataset,
        get_strategy("nsga2", population=12, generations=4),
        budget=NSGA_BUDGET,
        rng_seed=11,
    )
    metrics = [greedy, nsga2]
    rendered = _render(metrics)
    path = write_result(results_dir, "dse_search.txt", rendered)
    json_path = update_json_result(
        results_dir,
        "dse_search",
        {m["strategy"]: {k: v for k, v in m.items() if k != "strategy"} for m in metrics},
    )
    from repro.provenance import dataset_digest, model_digest

    manifest_path = record_bench(
        "dse_search",
        inputs={
            "model_digest": model_digest(trained.model),
            "dataset_digest": dataset_digest(dataset),
            "max_loss": MAX_LOSS,
            "nsga_budget": NSGA_BUDGET,
        },
        outputs={
            m["strategy"]: {k: v for k, v in m.items() if k != "strategy"}
            for m in metrics
        },
    )
    print("\n" + rendered)
    print(f"[written to {path} and {json_path}; manifest {manifest_path}]")

    for m in metrics:
        # The explorer must touch only a vanishing fraction of the space...
        assert m["evaluations"] < m["space_size"] / 1000
        # ... and return a budget-feasible point cheaper than all-accurate.
        assert m["best_energy_nj"] is not None
        assert m["best_loss_percent"] <= MAX_LOSS
        assert m["best_energy_nj"] < m["accurate_energy_nj"]
    assert nsga2["evaluations"] <= NSGA_BUDGET


if __name__ == "__main__":
    trained_main, dataset_main = _setup()
    results = [
        run_strategy(trained_main, dataset_main, "greedy"),
        run_strategy(
            trained_main,
            dataset_main,
            get_strategy("nsga2", population=12, generations=4),
            budget=NSGA_BUDGET,
            rng_seed=11,
        ),
    ]
    print(_render(results))
