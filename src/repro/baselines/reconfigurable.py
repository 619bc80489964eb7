"""Layer-wise runtime-reconfigurable accuracy baseline (Zervakis et al., 2020).

The third comparison point of Fig. 5 ([8] in the paper) generates multipliers
whose accuracy is reconfigurable at run time and configures them *per
convolution layer*.  Reconfigurability costs additional hardware, so the
multipliers are more expensive than fixed approximate designs, and layer-wise
granularity forces conservative settings on sensitive layers — the two
reasons the paper gives for its limited energy savings.

The implementation below performs a greedy per-layer search: layers are
visited in execution order, each layer is assigned the most aggressive
perforation level whose cumulative accuracy drop stays within the budget,
and the array power follows the mean power factor of the layers' levels
(unweighted, an accurate layer counting 1) times the reconfiguration
overhead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.base import TechniqueResult
from repro.hardware.area_power import array_cost_from_multiplier
from repro.hardware.technology import GENERIC_14NM, TechnologyModel
from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Evaluator


class ReconfigurableBaseline:
    """Layer-wise reconfigurable-accuracy approximation."""

    name = "reconfigurable"

    def __init__(
        self,
        array_size: int = 64,
        max_accuracy_drop: float = 0.01,
        accuracy_levels: tuple[int, ...] = (2, 1),
        reconfiguration_overhead: float = 1.05,
        technology: TechnologyModel = GENERIC_14NM,
    ):
        self.array_size = int(array_size)
        self.max_accuracy_drop = float(max_accuracy_drop)
        self.accuracy_levels = tuple(sorted(set(int(m) for m in accuracy_levels), reverse=True))
        if any(m < 1 or m > 7 for m in self.accuracy_levels):
            raise ValueError("accuracy levels must be within [1, 7]")
        self.reconfiguration_overhead = float(reconfiguration_overhead)
        self.technology = technology

    # ------------------------------------------------------------------
    def _effective_multiplier_power(self, assignment: dict[str, int]) -> float:
        """Mean relative multiplier power over the layers of the assignment.

        The multipliers must be runtime-reconfigurable (the accuracy level
        changes between layers), so a layer configured at level ``m`` only
        recovers part of the fixed perforated multiplier's saving.
        """
        tech = self.technology
        if not assignment:
            return 1.0
        total = 0.0
        for m in assignment.values():
            total += tech.reconfigurable_power_factor(m) if m > 0 else 1.0
        return total / len(assignment)

    def apply(self, evaluator: "Evaluator") -> TechniqueResult:
        """Greedy per-layer accuracy-level assignment within the drop budget."""
        plan = ExecutionPlan.uniform(AccurateProduct())
        baseline_acc = accuracy = evaluator.evaluate([plan])[0]
        assignment: dict[str, int] = {name: 0 for name in evaluator.mac_layer_names()}
        for layer in assignment:
            for m in self.accuracy_levels:
                candidate = plan.with_layer(
                    layer, PerforatedProduct(m, use_control_variate=False)
                )
                candidate_acc = evaluator.evaluate([candidate])[0]
                if baseline_acc - candidate_acc <= self.max_accuracy_drop:
                    plan, accuracy = candidate, candidate_acc
                    assignment[layer] = m
                    break

        effective = self._effective_multiplier_power(assignment)
        approximated_layers = sum(1 for m in assignment.values() if m > 0)
        # If the search could not approximate any layer the design degenerates
        # to the plain accurate array and pays no reconfiguration overhead.
        overhead = self.reconfiguration_overhead if approximated_layers else 1.0
        power_mw = array_cost_from_multiplier(
            effective,
            effective,
            self.array_size,
            tech=self.technology,
            multiplier_overhead=overhead,
        ).power_mw
        return TechniqueResult(
            technique=self.name,
            plan=plan,
            array_power_mw=power_mw,
            extra_cycles_per_layer=0,
            accuracy=accuracy,
            baseline_accuracy=baseline_acc,
            details={
                "assignment": dict(assignment),
                "approximated_layers": approximated_layers,
            },
        )
