"""Accuracy scoring of candidate batches — in-process or service-backed.

Two interchangeable evaluators implement the campaign's scoring surface
(``evaluate(plans)``, ``submit(plans)`` returning a ``results()`` handle,
``context_key()``, ``mac_layer_names()``, ``evaluations``):

* :class:`PlanEvaluator` owns one calibrated
  :class:`~repro.simulation.inference.ApproximateExecutor` for the whole
  campaign — exactly the executor a serial
  :func:`~repro.simulation.campaign.plan_sweep` worker would build — and
  scores each candidate batch the way a sweep worker does: in one
  multi-plan walk that runs every shared layer prefix once.
* :class:`ServicePlanEvaluator` fans each batch across the persistent
  worker pool of a :class:`~repro.runtime.service.EvaluationService`
  instead — the parallel path behind ``run_campaign(workers=N)`` — while
  reporting the *same* ledger context key, so serial and parallel
  campaigns share records freely.

Because the executor construction, the multi-plan walk and the service
workers are all bit-exact, every accuracy either evaluator reports is
identical to the value a hand-enumerated
:func:`~repro.simulation.campaign.plan_sweep` (or a fresh executor scoring
the plan alone) would measure for the same plan — the acceptance bar of
the DSE subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.simulation.campaign import TrainedModel
from repro.simulation.inference import EVAL_BATCH_SIZE, ApproximateExecutor, ExecutionPlan
from repro.simulation.metrics import accuracy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service import EvaluationService


def _resolve_eval_arrays(
    dataset: Dataset,
    max_eval_images: int | None,
    eval_images: np.ndarray | None,
    eval_labels: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation arrays a campaign scores against (explicit or capped)."""
    if (eval_images is None) != (eval_labels is None):
        raise ValueError("eval_images and eval_labels must be given together")
    if eval_images is None:
        eval_images = dataset.test_images
        eval_labels = dataset.test_labels
        if max_eval_images is not None:
            eval_images = eval_images[:max_eval_images]
            eval_labels = eval_labels[:max_eval_images]
    return eval_images, eval_labels


class ResolvedBatch:
    """Already-evaluated :meth:`PlanEvaluator.submit` handle.

    The in-process evaluator has no asynchrony to expose, so ``submit``
    evaluates eagerly and wraps the accuracies; the handle exists so the
    campaign engine drives one interface (``submit(...).results()``)
    regardless of execution path.
    """

    def __init__(self, accuracies: list[float]):
        self._accuracies = list(accuracies)

    def __len__(self) -> int:
        return len(self._accuracies)

    def results(self) -> list[float]:
        """Accuracies in the submitted plans' input order."""
        return list(self._accuracies)


class PlanEvaluator:
    """Measures plan accuracies for the DSE campaign (bit-exact with sweeps).

    Parameters mirror :func:`~repro.simulation.campaign.plan_sweep` so a
    campaign and a hand-enumerated sweep over the same knobs agree
    bit-exactly: ``max_eval_images`` caps the test split (prefix slice) and
    ``calibration_images`` slices the head of the training split.
    ``eval_images`` / ``eval_labels`` override the evaluation
    arrays entirely — the hook the CLI's seeded eval subsampling uses.
    """

    def __init__(
        self,
        trained: TrainedModel,
        dataset: Dataset,
        max_eval_images: int | None = None,
        calibration_images: int = 128,
        eval_images: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
    ):
        self.trained = trained
        self.dataset = dataset
        self.max_eval_images = max_eval_images
        self.calibration_images = int(calibration_images)
        self.eval_images, self.eval_labels = _resolve_eval_arrays(
            dataset, max_eval_images, eval_images, eval_labels
        )
        self.executor = ApproximateExecutor(
            trained.model, dataset.train_images[: self.calibration_images]
        )
        self.evaluations = 0

    # ------------------------------------------------------------------
    def context_key(self) -> str:
        """Ledger context digest of this evaluator's exact measurement setup."""
        from repro.dse.ledger import evaluation_context_key

        return evaluation_context_key(
            self.trained.model,
            self.eval_images,
            self.eval_labels,
            self.dataset.train_images[: self.calibration_images],
            batch_size=EVAL_BATCH_SIZE,
            tag=self.dataset.name,
        )

    def mac_layer_names(self) -> list[str]:
        """MAC layer names of the underlying executor, in execution order."""
        return self.executor.mac_layer_names()

    def evaluate(self, plans: Sequence[ExecutionPlan]) -> list[float]:
        """Accuracies of ``plans`` on the evaluation set, in input order.

        The whole batch rides one multi-plan walk of the executor.
        Bit-exact with evaluating each plan on a fresh executor.
        """
        plans = list(plans)
        predictions_per_plan = self.executor.predict_many(self.eval_images, plans)
        self.evaluations += len(plans)
        return [
            accuracy(predictions, self.eval_labels)
            for predictions in predictions_per_plan
        ]

    def submit(self, plans: Sequence[ExecutionPlan]) -> ResolvedBatch:
        """Async-shaped scoring surface (eager here — no workers to overlap).

        Mirrors :meth:`ServicePlanEvaluator.submit` so the campaign engine's
        pipelined scoring (:meth:`~repro.dse.engine.CampaignContext.
        score_async`) runs unchanged on the serial path.
        """
        return ResolvedBatch(self.evaluate(plans))


class ServicePlanEvaluator:
    """Service-backed :class:`PlanEvaluator` drop-in for parallel campaigns.

    Scoring fans each candidate batch across the persistent workers of an
    :class:`~repro.runtime.service.EvaluationService` (which schedules the
    batch prefix-aware); everything
    else — evaluation arrays, calibration slice, batch size, and therefore
    the ledger :meth:`context_key` — matches the in-process evaluator
    exactly, so serial and parallel campaigns replay each other's ledger
    records with zero duplicate evaluations.

    The evaluator does **not** own the service: callers (or
    :func:`~repro.dse.engine.run_campaign`) manage its lifecycle, which is
    what lets one multi-model service back many sequential campaigns.

    For the one-call baseline techniques — which drive an executor
    directly rather than scoring plan batches — :attr:`executor` builds a
    bit-exact in-process executor lazily on first access.
    """

    def __init__(self, service: "EvaluationService", model_index: int):
        self.service = service
        self.model_index = int(model_index)
        self.trained = service.models[self.model_index]
        self.dataset = service.datasets[self.trained.dataset_name]
        self.max_eval_images = service.max_eval_images
        self.calibration_images = service.calibration_images
        self.eval_images, self.eval_labels = _resolve_eval_arrays(
            self.dataset, self.max_eval_images, None, None
        )
        self.evaluations = 0
        self._executor: ApproximateExecutor | None = None

    # ------------------------------------------------------------------
    @property
    def executor(self) -> ApproximateExecutor:
        """Lazily built in-process executor (for baseline ``apply`` calls)."""
        if self._executor is None:
            self._executor = ApproximateExecutor(
                self.trained.model,
                self.dataset.train_images[: self.calibration_images],
            )
        return self._executor

    def context_key(self) -> str:
        """Ledger context digest — identical to the serial evaluator's."""
        from repro.dse.ledger import evaluation_context_key

        return evaluation_context_key(
            self.trained.model,
            self.eval_images,
            self.eval_labels,
            self.dataset.train_images[: self.calibration_images],
            batch_size=EVAL_BATCH_SIZE,
            tag=self.dataset.name,
        )

    def mac_layer_names(self) -> list[str]:
        """MAC layer names of the hosted model, in execution order."""
        return list(self.service.mac_names(self.model_index))

    def evaluate(self, plans: Sequence[ExecutionPlan]) -> list[float]:
        """Accuracies of ``plans``, scored across the service's workers.

        Bit-exact with :meth:`PlanEvaluator.evaluate` (and with
        :func:`~repro.simulation.campaign.plan_sweep`) — results come back
        in input order.
        """
        plans = list(plans)
        if not plans:
            return []
        accuracies = self.service.evaluate_plans(self.model_index, plans)
        self.evaluations += len(plans)
        return accuracies

    def submit(self, plans: Sequence[ExecutionPlan]):
        """Dispatch ``plans`` to the service without blocking on results.

        Returns the service's :class:`~repro.runtime.service.
        EvaluationBatch`: the chunks run on the pool while the caller keeps
        working (e.g. breeding the rest of an NSGA-II generation), and
        ``results()`` blocks only when the accuracies are actually needed.
        The evaluation count is charged at submission — the work is in
        flight from that point on.
        """
        plans = list(plans)
        if not plans:
            return ResolvedBatch([])
        batch = self.service.submit([(self.model_index, plan) for plan in plans])
        self.evaluations += len(plans)
        return batch
