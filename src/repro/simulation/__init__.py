"""Experiment machinery: approximate inference and experiment campaigns.

* :mod:`~repro.simulation.inference` — the TFApprox-equivalent executor: runs
  a trained float model with quantized convolution / dense layers whose
  product model can be the accurate multiplier, the perforated multiplier
  with or without the control variate, or any LUT multiplier (per layer).
  Each product model is *compiled* once per layer into a
  :class:`repro.core.product_kernels.ProductKernel` (cached by the
  executor), so the per-batch hot path is free of weight-side work — the
  LUT path in particular runs as two matrix products instead of a 3-D
  gather.
* :mod:`~repro.simulation.metrics` — accuracy and error metrics.
* :mod:`~repro.simulation.campaign` — the Table III sweep (six networks, two
  datasets, m = 1..3, with/without V) built on the labeled-plan sweep
  :func:`~repro.simulation.campaign.plan_sweep`, and the trained-model
  cache (keyed by the full training settings) that keeps benches fast and
  deterministic.  Both sweeps execute through the unified evaluation
  runtime (:mod:`repro.runtime`): one
  :class:`~repro.runtime.service.EvaluationService` schedules cells
  prefix-aware, in process or across persistent workers that attach to
  models and datasets published once through shared memory.
"""

from repro.simulation.inference import (
    ProductModel,
    AccurateProduct,
    PerforatedProduct,
    LUTProduct,
    ExecutionPlan,
    ApproximateExecutor,
)
from repro.simulation.metrics import (
    accuracy,
    accuracy_loss_percent,
    output_error_stats,
    OutputErrorStats,
)
from repro.simulation.campaign import (
    TrainedModel,
    TrainedModelCache,
    TrainingSettings,
    AccuracyRecord,
    PlanAccuracyRecord,
    SharedDatasets,
    SharedTrainedModels,
    SweepResult,
    accuracy_sweep,
    plan_sweep,
    publish_datasets,
    publish_trained_models,
    settings_fingerprint,
    train_reference_model,
    experiment_dataset,
)

__all__ = [
    "ProductModel",
    "AccurateProduct",
    "PerforatedProduct",
    "LUTProduct",
    "ExecutionPlan",
    "ApproximateExecutor",
    "accuracy",
    "accuracy_loss_percent",
    "output_error_stats",
    "OutputErrorStats",
    "TrainedModel",
    "TrainedModelCache",
    "TrainingSettings",
    "AccuracyRecord",
    "PlanAccuracyRecord",
    "SharedDatasets",
    "SharedTrainedModels",
    "SweepResult",
    "accuracy_sweep",
    "plan_sweep",
    "publish_datasets",
    "publish_trained_models",
    "settings_fingerprint",
    "train_reference_model",
    "experiment_dataset",
]
