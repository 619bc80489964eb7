"""The paper's technique packaged as a Fig. 5 comparison entry."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.base import TechniqueResult
from repro.core.accelerator_model import AcceleratorConfig
from repro.hardware.area_power import array_cost
from repro.hardware.technology import GENERIC_14NM, TechnologyModel
from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Evaluator


class ControlVariateTechnique:
    """Our control-variate approximation at a fixed perforation value.

    The Fig. 5 comparison uses ``m = 2`` (the paper's choice: "high power
    reduction for moderate accuracy loss") on a 64x64 array.
    """

    name = "ours"

    def __init__(
        self,
        m: int = 2,
        array_size: int = 64,
        technology: TechnologyModel = GENERIC_14NM,
    ):
        self.m = int(m)
        self.array_size = int(array_size)
        self.technology = technology

    def apply(self, evaluator: "Evaluator") -> TechniqueResult:
        """Score the technique's plan against the accurate array (no search)."""
        config = AcceleratorConfig.make(self.array_size, self.m, use_control_variate=True)
        plan = ExecutionPlan.uniform(PerforatedProduct(self.m, use_control_variate=True))
        baseline_acc, approx_acc = evaluator.evaluate(
            [ExecutionPlan.uniform(AccurateProduct()), plan]
        )
        power_mw = array_cost(config, self.technology).power_mw
        return TechniqueResult(
            technique=self.name,
            plan=plan,
            array_power_mw=power_mw,
            extra_cycles_per_layer=1,
            accuracy=approx_acc,
            baseline_accuracy=baseline_acc,
            details={"m": self.m, "array_size": self.array_size},
        )
