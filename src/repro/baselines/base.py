"""Shared infrastructure of the Fig. 5 techniques.

Every technique scores plans through the evaluator surface that a
:class:`~repro.dse.evaluator.PlanEvaluator` and a
:class:`~repro.runtime.jobs.client.RemotePlanEvaluator` share
(``evaluate``, ``context_key``, ``mac_layer_names`` and the
``evaluations`` count): the blocking ``evaluate(plans)`` returns the
accuracies on the evaluator's evaluation set and ``mac_layer_names()``
names the MAC layers in execution order.  A technique scores the accurate
baseline once and each search candidate in an ``evaluate`` call of its
own, and reports the accuracy its chosen plan was scored at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.simulation.inference import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.evaluator import PlanEvaluator
    from repro.runtime.jobs.client import RemotePlanEvaluator

    Evaluator = PlanEvaluator | RemotePlanEvaluator


@dataclass
class TechniqueResult:
    """Outcome of applying one technique to one trained network.

    Attributes
    ----------
    technique:
        Human-readable technique name ("ours", "alwann", ...).
    plan:
        The execution plan (per-layer product models) the technique chose.
    array_power_mw:
        Power of the MAC array the technique requires (its own multiplier
        choice, including any reconfiguration overhead).
    extra_cycles_per_layer:
        Additional pipeline cycles per convolution layer (1 for the MAC+
        column of our technique, 0 otherwise).
    accuracy:
        Top-1 accuracy measured under the plan.
    baseline_accuracy:
        Accuracy of the accurate (quantized) design on the same data.
    details:
        Free-form per-layer metadata (selected multipliers, modes, ...).
    """

    technique: str
    plan: ExecutionPlan
    array_power_mw: float
    extra_cycles_per_layer: int
    accuracy: float
    baseline_accuracy: float
    details: dict[str, object] = field(default_factory=dict)

    @property
    def accuracy_loss_percent(self) -> float:
        """Accuracy loss in percentage points versus the accurate design."""
        return 100.0 * (self.baseline_accuracy - self.accuracy)
