"""Accuracy scoring of candidate batches on the evaluation service.

:class:`PlanEvaluator` implements the campaign's scoring surface — the
blocking ``evaluate(plans)``, ``context_key()``, ``mac_layer_names()`` and
the ``evaluations`` count, the same four names
:class:`~repro.runtime.jobs.client.RemotePlanEvaluator` exposes — on one
model hosted by an :class:`~repro.runtime.service.EvaluationService`, the
one place a local plan is scored and the one owner of the measurement
setup:

* by default the evaluator owns an in-process service built by
  :func:`build_campaign_service` from its measurement knobs;
* with ``service=`` it scores on that service instead (a worker pool, or a
  multi-model session several campaigns share), whose setup wins: knobs
  that conflict with it are rejected.

Either way each candidate batch rides the service's prefix-aware schedule
and one multi-plan walk per model segment, and the ledger
:meth:`~PlanEvaluator.context_key` is the service's, so every accuracy is
identical to the value a hand-enumerated
:func:`~repro.simulation.campaign.plan_sweep` (or a fresh executor scoring
the plan alone) would measure, and campaigns on any service share ledger
records — the acceptance bar of the DSE subsystem.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.runtime.sizing import resolve_worker_count
from repro.simulation.campaign import TrainedModel
from repro.simulation.inference import ApproximateExecutor, ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service import EvaluationService


def build_campaign_service(
    trained_models: "Sequence[TrainedModel]",
    dataset: Dataset,
    workers: int | None,
    max_eval_images: int | None = None,
    calibration_images: int = 128,
    eval_images: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
) -> "EvaluationService":
    """An :class:`EvaluationService` hosting campaign models on ``dataset``.

    The one place the campaign measurement setup maps onto a service: an
    explicit evaluation subset (the CLI's seeded eval subsampling) becomes
    the hosted dataset's test split, so the service scores exactly those
    arrays — and the ledger context key, which hashes the actual
    evaluation bytes, follows them.  Used for the in-process service a
    :class:`PlanEvaluator` owns, for the service :func:`~repro.dse.engine.
    run_campaign` owns, and for the multi-model service the CLI shares
    across ``--models`` campaigns.  ``workers`` passes through the
    degrade-to-serial clamp of
    :func:`~repro.runtime.sizing.resolve_worker_count` (``None`` =
    auto-size); the resulting service runs in-process when only one CPU is
    schedulable.
    """
    from repro.runtime.service import EvaluationService

    if (eval_images is None) != (eval_labels is None):
        raise ValueError("eval_images and eval_labels must be given together")
    workers = resolve_worker_count(workers)
    if eval_images is not None:
        dataset = dataclasses.replace(
            dataset, test_images=eval_images, test_labels=eval_labels
        )
        max_eval_images = None
    return EvaluationService(
        list(trained_models),
        {dataset.name: dataset},
        max_workers=workers,
        max_eval_images=max_eval_images,
        calibration_images=calibration_images,
    )


class PlanEvaluator:
    """Measures plan accuracies for the DSE campaign (bit-exact with sweeps).

    Parameters mirror :func:`~repro.simulation.campaign.plan_sweep` so a
    campaign and a hand-enumerated sweep over the same knobs agree
    bit-exactly: ``max_eval_images`` caps the test split (prefix slice) and
    ``calibration_images`` slices the head of the training split.
    ``eval_images`` / ``eval_labels`` override the evaluation arrays
    entirely — the hook the CLI's seeded eval subsampling uses.

    ``service`` scores on an existing service hosting ``trained`` instead
    of an owned in-process one.  The evaluator does not own it (callers
    manage its lifecycle, which is what lets one multi-model service back
    many sequential campaigns), and a knob that differs from the service's
    setup raises :class:`ValueError` rather than being ignored.
    """

    def __init__(
        self,
        trained: TrainedModel,
        dataset: Dataset,
        max_eval_images: int | None = None,
        calibration_images: int = 128,
        eval_images: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
        service: "EvaluationService | None" = None,
    ):
        if service is None:
            service = build_campaign_service(
                [trained],
                dataset,
                1,
                max_eval_images=max_eval_images,
                calibration_images=calibration_images,
                eval_images=eval_images,
                eval_labels=eval_labels,
            )
        else:
            self._check_service_setup(
                service, max_eval_images, calibration_images, eval_images, eval_labels
            )
        self.trained = trained
        self.service = service
        self.model_index = service.model_index(trained.name, trained.dataset_name)
        self.eval_images, self.eval_labels = service.evaluation_arrays(self.model_index)
        self.evaluations = 0
        self._executor: ApproximateExecutor | None = None

    @staticmethod
    def _check_service_setup(
        service: "EvaluationService",
        max_eval_images: int | None,
        calibration_images: int,
        eval_images: np.ndarray | None,
        eval_labels: np.ndarray | None,
    ) -> None:
        """Reject knobs that would silently diverge from ``service``'s setup.

        The service measures with its own setup; a conflicting knob would
        otherwise be ignored without a trace — and the accuracies (and
        ledger context keys) would differ from what the knobs describe.
        Mirror the knobs onto the service (see :func:`build_campaign_service`)
        instead.
        """
        if eval_images is not None or eval_labels is not None:
            raise ValueError(
                "eval_images/eval_labels cannot be combined with an external "
                "service: host the subset as the service dataset's test split "
                "(build_campaign_service does exactly that)"
            )
        mismatches = [
            f"{name}={ours!r} (service has {theirs!r})"
            for name, ours, theirs in (
                ("max_eval_images", max_eval_images, service.max_eval_images),
                ("calibration_images", int(calibration_images), service.calibration_images),
            )
            if ours != theirs
        ]
        if mismatches:
            raise ValueError(
                "campaign measurement knobs conflict with the external service: "
                + ", ".join(mismatches)
            )

    # ------------------------------------------------------------------
    @property
    def executor(self) -> ApproximateExecutor:
        """Calibrated executor of the evaluated model, whose quantized
        weight codes the weight-oriented technique reads.

        On an in-process service it is the executor that scores the plans
        (so reading its counters after a campaign costs no second
        calibration); a pool scores in its workers, so the evaluator builds
        a bit-exact executor of its own on first access.
        """
        if self.service.serial:
            return self.service.serial_executor(self.model_index)
        if self._executor is None:
            dataset = self.service.datasets[self.trained.dataset_name]
            self._executor = ApproximateExecutor(
                self.trained.model,
                dataset.train_images[: self.service.calibration_images],
            )
        return self._executor

    def context_key(self) -> str:
        """Ledger context digest of the service's measurement setup."""
        return self.service.context_key(self.model_index)

    def mac_layer_names(self) -> list[str]:
        """MAC layer names of the evaluated model, in execution order."""
        return list(self.service.mac_names(self.model_index))

    def evaluate(self, plans: Sequence[ExecutionPlan]) -> list[float]:
        """Accuracies of ``plans`` on the evaluation set, in input order
        (one service batch; blocks until it is scored)."""
        plans = list(plans)
        accuracies = self.service.evaluate_plans(self.model_index, plans)
        self.evaluations += len(plans)
        return accuracies
