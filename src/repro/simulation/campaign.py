"""Experiment campaigns: training reference models and sweeping approximations.

This module provides the machinery behind the Table III benchmark:

* :func:`train_reference_model` trains one of the six architectures on a
  CIFAR-like dataset with the numpy engine;
* :class:`TrainedModelCache` stores trained parameters (and their float
  accuracy) on disk so the expensive training step runs once per
  (architecture, dataset, training-settings) combination — the cache stem
  carries a hash of the full :class:`TrainingSettings` and the stored
  metadata is validated on load, so changing any hyper-parameter retrains
  instead of silently reusing a stale model;
* :func:`plan_sweep` evaluates every model under arbitrary labeled
  :class:`~repro.simulation.inference.ExecutionPlan` sets (per-layer
  approximation, LUT multipliers, ...);
* :func:`accuracy_sweep` is the Table III sweep built on it: the quantized
  accurate baseline and every requested perforation value with and
  without the control variate, one :class:`AccuracyRecord` per cell,
  in-process or across worker processes with bit-identical results.

Execution runtime
-----------------
Both sweeps run on the unified evaluation runtime (:mod:`repro.runtime`):
one :class:`repro.runtime.service.EvaluationService`
publishes the trained models and datasets once through shared memory
(:mod:`repro.runtime.publishing` — re-exported here for backward
compatibility) when it runs a pool, orders the submitted cells with the
prefix-aware scheduler (:func:`repro.runtime.scheduling.schedule_cells`)
and hands every worker the whole schedule on its own range of the
images.  Workers never train — they attach to already-trained
parameters.  The DSE engine's ``run_campaign(workers=N)`` rides the very
same service.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.models.zoo import build_model
from repro.nn.graph import Graph
from repro.nn.optimizers import SGD
from repro.nn.serialization import load_params, save_params
from repro.nn.training import Trainer, evaluate_accuracy

# Backward-compatible re-exports: the publishing machinery historically
# lived in this module and is part of its public API (``repro.simulation``
# re-exports it in turn).
from repro.runtime.publishing import (  # noqa: F401  (re-exported)
    SharedDatasets,
    SharedTrainedModels,
    publish_datasets,
    publish_trained_models,
)
from repro.runtime.sizing import resolve_worker_count
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    PerforatedProduct,
)
from repro.simulation.metrics import accuracy_loss_percent


def default_cache_dir() -> str:
    """Directory used to cache trained model parameters."""
    return os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-dac21"),
    )


def experiment_dataset(
    num_classes: int,
    train_per_class: int | None = None,
    seed: int | None = None,
) -> Dataset:
    """The CIFAR-like dataset configuration used by the paper-reproduction benches.

    The generator parameters are chosen so the trained reference models land
    around 85-95 % clean accuracy — high enough to be meaningful, low enough
    that approximation-induced degradation is measurable and graded (the
    role CIFAR-10/100 play in the paper).  The 100-class variant uses fewer
    samples per class, making it the harder dataset, as in the paper.

    ``seed`` overrides the synthetic generator's default seed (the CLI
    threads its single ``--seed`` here through one
    :class:`repro.core.seeding.SeedBank` stream).  A custom-seeded
    synthetic dataset gets a ``-seed<N>`` name suffix so trained-model
    cache entries and DSE ledger tags never alias across seeds; real CIFAR
    data (when locally available) ignores the seed.
    """
    from repro.datasets.cifar import load_cifar_like
    from repro.datasets.synthetic import SyntheticCifarConfig

    if num_classes == 10:
        config = SyntheticCifarConfig(
            num_classes=10,
            train_per_class=train_per_class if train_per_class is not None else 150,
            test_per_class=40,
            noise_std=0.22,
            confusion=0.45,
            seed=10 if seed is None else int(seed),
        )
    elif num_classes == 100:
        config = SyntheticCifarConfig(
            num_classes=100,
            train_per_class=train_per_class if train_per_class is not None else 24,
            test_per_class=6,
            noise_std=0.20,
            confusion=0.45,
            seed=100 if seed is None else int(seed),
        )
    else:
        raise ValueError(f"num_classes must be 10 or 100, got {num_classes}")
    dataset = load_cifar_like(num_classes=num_classes, synthetic_config=config)
    if seed is not None and dataset.name.startswith("synthetic"):
        dataset = dataclasses.replace(dataset, name=f"{dataset.name}-seed{int(seed)}")
    return dataset


@dataclass
class TrainedModel:
    """A trained architecture together with its float test accuracy."""

    name: str
    dataset_name: str
    model: Graph
    float_accuracy: float


@dataclass(frozen=True)
class TrainingSettings:
    """Hyper-parameters of the reference training runs."""

    epochs: int = 8
    batch_size: int = 64
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 0.85
    seed: int = 0


def train_reference_model(
    model_name: str,
    dataset: Dataset,
    settings: TrainingSettings = TrainingSettings(),
    verbose: bool = False,
) -> TrainedModel:
    """Train one architecture on ``dataset`` and return it with its accuracy."""
    rng = np.random.default_rng(settings.seed)
    model = build_model(model_name, num_classes=dataset.num_classes, rng=rng)
    optimizer = SGD(
        learning_rate=settings.learning_rate,
        momentum=settings.momentum,
        weight_decay=settings.weight_decay,
    )
    trainer = Trainer(model, optimizer, rng=np.random.default_rng(settings.seed + 1))
    trainer.fit(
        dataset.train_images,
        dataset.train_labels,
        epochs=settings.epochs,
        batch_size=settings.batch_size,
        validation=(dataset.test_images, dataset.test_labels),
        lr_decay=settings.lr_decay,
        verbose=verbose,
    )
    float_acc = evaluate_accuracy(model, dataset.test_images, dataset.test_labels)
    return TrainedModel(
        name=model_name,
        dataset_name=dataset.name,
        model=model,
        float_accuracy=float_acc,
    )


def settings_fingerprint(settings: TrainingSettings) -> str:
    """Stable short hash of every :class:`TrainingSettings` field.

    Used in the cache file stem so that any hyper-parameter change (epochs,
    learning rate, decay, ...) maps to a distinct cache entry instead of
    silently aliasing an older run.
    """
    payload = json.dumps(dataclasses.asdict(settings), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def trained_cache_stem(
    model_name: str, dataset_name: str, settings: TrainingSettings
) -> str:
    """The cache-entry stem of one (model, dataset, training-settings) triple.

    Public so run manifests can state *which* cache entry a result came
    from: the stem a manifest records is byte-identical to the one
    :class:`TrainedModelCache` names its files with.
    """
    return (
        f"{model_name}__{dataset_name}__seed{settings.seed}"
        f"__cfg{settings_fingerprint(settings)}"
    )


class TrainedModelCache:
    """Disk cache of trained models keyed by (model, dataset, training settings).

    The cache stem embeds :func:`settings_fingerprint`, and the stored JSON
    metadata (model, dataset, full settings) is re-validated on load; any
    mismatch retrains and overwrites the entry rather than returning a stale
    model.
    """

    def __init__(self, cache_dir: str | None = None):
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()

    def _paths(
        self, model_name: str, dataset_name: str, settings: TrainingSettings
    ) -> tuple[str, str]:
        stem = trained_cache_stem(model_name, dataset_name, settings)
        return (
            os.path.join(self.cache_dir, f"{stem}.npz"),
            os.path.join(self.cache_dir, f"{stem}.json"),
        )

    def _load_valid_meta(
        self,
        meta_path: str,
        model_name: str,
        dataset_name: str,
        settings: TrainingSettings,
    ) -> dict | None:
        """The stored metadata, or ``None`` when it does not match the request."""
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if meta.get("model") != model_name or meta.get("dataset") != dataset_name:
            return None
        if meta.get("settings") != dataclasses.asdict(settings):
            return None
        if "float_accuracy" not in meta:
            return None
        return meta

    def load_or_train(
        self,
        model_name: str,
        dataset: Dataset,
        settings: TrainingSettings = TrainingSettings(),
        verbose: bool = False,
    ) -> TrainedModel:
        """Return a cached trained model, training and caching it if missing."""
        params_path, meta_path = self._paths(model_name, dataset.name, settings)
        if os.path.exists(params_path) and os.path.exists(meta_path):
            meta = self._load_valid_meta(meta_path, model_name, dataset.name, settings)
            if meta is not None:
                model = build_model(
                    model_name,
                    num_classes=dataset.num_classes,
                    rng=np.random.default_rng(settings.seed),
                )
                load_params(model, params_path)
                return TrainedModel(
                    name=model_name,
                    dataset_name=dataset.name,
                    model=model,
                    float_accuracy=float(meta["float_accuracy"]),
                )
        trained = train_reference_model(model_name, dataset, settings, verbose=verbose)
        os.makedirs(self.cache_dir, exist_ok=True)
        save_params(trained.model, params_path)
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "model": model_name,
                    "dataset": dataset.name,
                    "seed": settings.seed,
                    "settings": dataclasses.asdict(settings),
                    "float_accuracy": trained.float_accuracy,
                },
                handle,
                indent=2,
            )
        return trained


@dataclass(frozen=True)
class AccuracyRecord:
    """One cell of the Table III sweep."""

    model: str
    dataset: str
    m: int
    with_control_variate: bool
    baseline_accuracy: float
    approximate_accuracy: float

    @property
    def accuracy_loss(self) -> float:
        """Accuracy loss in percentage points versus the accurate design."""
        return accuracy_loss_percent(self.baseline_accuracy, self.approximate_accuracy)


@dataclass
class SweepResult:
    """All records of an accuracy sweep plus the quantized baselines."""

    records: list[AccuracyRecord] = field(default_factory=list)
    baselines: dict[tuple[str, str], float] = field(default_factory=dict)

    def lookup(self, model: str, dataset: str, m: int, with_cv: bool) -> AccuracyRecord:
        """Find the record of one (model, dataset, m, method) combination."""
        for record in self.records:
            if (
                record.model == model
                and record.dataset == dataset
                and record.m == m
                and record.with_control_variate == with_cv
            ):
                return record
        raise LookupError(f"no record for {model}/{dataset}/m={m}/cv={with_cv}")

    def average_loss(self, dataset: str, m: int, with_cv: bool) -> float:
        """Average accuracy loss over all models, as in Table III's last row."""
        losses = [
            record.accuracy_loss
            for record in self.records
            if record.dataset == dataset
            and record.m == m
            and record.with_control_variate == with_cv
        ]
        if not losses:
            raise LookupError(f"no records for {dataset}/m={m}/cv={with_cv}")
        return float(np.mean(losses))


@dataclass(frozen=True)
class PlanAccuracyRecord:
    """One cell of a :func:`plan_sweep`: one model evaluated under one plan."""

    model: str
    dataset: str
    plan_label: str
    accuracy: float


def plan_sweep(
    trained_models: Iterable[TrainedModel],
    datasets: "dict[str, Dataset]",
    plans: Sequence[tuple[str, ExecutionPlan]],
    max_eval_images: int | None = None,
    calibration_images: int = 128,
    max_workers: int | None = None,
) -> list[PlanAccuracyRecord]:
    """Evaluate every trained model under every labeled execution plan.

    The sweep behind per-layer approximation studies and the Table III
    sweep (:func:`accuracy_sweep`), a thin client of the evaluation
    runtime: each ``(label, plan)`` pair is one cell per model, and one
    ephemeral :class:`~repro.runtime.service.EvaluationService` orders the
    cells with the prefix-aware scheduler (so consecutive cells share the
    deepest possible prefix, which each multi-plan walk runs once).
    Results are returned in ``(model, plan)`` input order and are
    bit-identical to evaluating each plan on a fresh executor.

    Parameters
    ----------
    plans:
        Labeled :class:`~repro.simulation.inference.ExecutionPlan` objects;
        labels key the returned records.
    max_eval_images / calibration_images:
        As in :func:`accuracy_sweep`.
    max_workers:
        Worker process count; ``None`` auto-sizes from the schedulable-CPU
        count and host load.  Requests are clamped to the schedulable CPUs
        and to the cell count (:func:`repro.runtime.sizing.
        resolve_worker_count` — a 4-worker request on a 1-CPU box runs the
        in-process path at 1.0x serial instead of 4 contending processes).
        A pool publishes the trained-model parameters and the evaluation
        datasets once through shared memory, so workers attach read-only
        views instead of receiving per-process copies.
    """
    # Imported here: repro.runtime imports this package's inference module.
    from repro.runtime.service import EvaluationService

    models = list(trained_models)
    plans = list(plans)
    if not plans:
        raise ValueError("plan_sweep requires at least one plan")
    cells = [
        (model_index, plan)
        for model_index in range(len(models))
        for _, plan in plans
    ]
    with EvaluationService(
        models,
        datasets,
        max_workers=resolve_worker_count(max_workers, num_cells=len(cells)),
        max_eval_images=max_eval_images,
        calibration_images=calibration_images,
    ) as service:
        accuracies = service.evaluate_cells(cells)
    return [
        PlanAccuracyRecord(
            model=models[model_index].name,
            dataset=models[model_index].dataset_name,
            plan_label=plans[plan_index][0],
            accuracy=accuracies[model_index * len(plans) + plan_index],
        )
        for model_index in range(len(models))
        for plan_index in range(len(plans))
    ]


def _spec_row(perforations: Sequence[int]) -> list[tuple[int | None, bool]]:
    """The (m, cv) cells of one model's Table III row, baseline first
    (``m is None``)."""
    return [(None, False)] + [
        (m, with_cv) for m in perforations for with_cv in (True, False)
    ]


def _sweep_cell_specs(
    models: list[TrainedModel], perforations: Sequence[int]
) -> list[tuple[int, int | None, bool]]:
    """The (model, m, cv) cells of a Table III sweep; ``m is None`` = baseline."""
    return [
        (index, m, with_cv)
        for index in range(len(models))
        for m, with_cv in _spec_row(perforations)
    ]


def _spec_plan(m: int | None, with_cv: bool) -> ExecutionPlan:
    """The uniform execution plan of one (m, cv) sweep cell."""
    if m is None:
        return ExecutionPlan.uniform(AccurateProduct())
    return ExecutionPlan.uniform(PerforatedProduct(m, use_control_variate=with_cv))


def _assemble_sweep_result(
    models: list[TrainedModel],
    perforations: Sequence[int],
    cell_results: Iterable[tuple[int, int | None, bool, float]],
) -> SweepResult:
    baselines: dict[int, float] = {}
    approx: dict[tuple[int, int, bool], float] = {}
    for model_index, m, with_cv, acc in cell_results:
        if m is None:
            baselines[model_index] = acc
        else:
            approx[(model_index, m, with_cv)] = acc
    result = SweepResult()
    for index, trained in enumerate(models):
        baseline_acc = baselines[index]
        result.baselines[(trained.name, trained.dataset_name)] = baseline_acc
        for m in perforations:
            for with_cv in (True, False):
                result.records.append(
                    AccuracyRecord(
                        model=trained.name,
                        dataset=trained.dataset_name,
                        m=m,
                        with_control_variate=with_cv,
                        baseline_accuracy=baseline_acc,
                        approximate_accuracy=approx[(index, m, with_cv)],
                    )
                )
    return result


def accuracy_sweep(
    trained_models: Iterable[TrainedModel],
    datasets: dict[str, Dataset],
    perforations: Sequence[int] = (1, 2, 3),
    max_eval_images: int | None = None,
    calibration_images: int = 128,
    max_workers: int | None = 1,
) -> SweepResult:
    """Evaluate every trained model under every approximation mode.

    The Table III sweep: a :func:`plan_sweep` of each model's row of
    uniform plans — the accurate baseline, then every perforation ``m``
    with and without the control variate.

    Parameters
    ----------
    trained_models:
        Models produced by :func:`train_reference_model` /
        :class:`TrainedModelCache`.
    datasets:
        Mapping from dataset name to dataset (must contain every
        ``TrainedModel.dataset_name``).
    perforations:
        The perforation values ``m`` to sweep (the paper uses 1..3).
    max_eval_images:
        Optional cap on the number of test images (keeps CI-style runs fast).
    calibration_images:
        Number of training images used for activation calibration.
    max_workers:
        As in :func:`plan_sweep`; the default ``1`` sweeps in-process.
        Results are identical at any worker count.
    """
    models = list(trained_models)
    plans = [_spec_plan(m, with_cv) for m, with_cv in _spec_row(perforations)]
    records = plan_sweep(
        models,
        datasets,
        [(plan.default.name, plan) for plan in plans],
        max_eval_images=max_eval_images,
        calibration_images=calibration_images,
        max_workers=max_workers,
    )
    # plan_sweep returns (model, plan) input order: the order of the specs.
    cell_results = [
        (model_index, m, with_cv, record.accuracy)
        for (model_index, m, with_cv), record in zip(
            _sweep_cell_specs(models, perforations), records
        )
    ]
    return _assemble_sweep_result(models, perforations, cell_results)
