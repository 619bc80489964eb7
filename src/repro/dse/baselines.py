"""One-call strategy adapters for the state-of-the-art baselines.

The Fig. 5 techniques (:mod:`repro.baselines`) each pick their own execution
plan and array design through ``apply``; wrapping them as
:class:`~repro.dse.strategies.SearchStrategy` entries makes a SOTA
comparison just another ``--strategy`` value of the DSE subsystem: the
technique runs once against the campaign's evaluator (a
:class:`~repro.dse.evaluator.PlanEvaluator`, or a
:class:`~repro.runtime.jobs.client.RemotePlanEvaluator` with ``--remote``),
and its result enters the Pareto front as an external point costed by the
same cycle model as every searched assignment
(:meth:`~repro.dse.space.SearchSpace.uniform_energy_nj` over the
technique's reported array power).

The techniques search internally (library scans, per-layer mode selection)
through the same evaluator, but not through the campaign's ledger, so their
own intermediate evaluations are not counted against the campaign's
evaluation budget — the budget governs the campaign's plan scoring, and
each adapter contributes exactly one point.  ``weight-oriented`` also reads
the weight codes from the evaluator's local executor, so it cannot run
against a remote evaluator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines import (
    AlwannBaseline,
    ControlVariateTechnique,
    ReconfigurableBaseline,
    WeightOrientedBaseline,
)
from repro.dse.strategies import SearchStrategy, register_strategy
from repro.multipliers.library import MultiplierLibrary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.engine import CampaignContext


class BaselineStrategy(SearchStrategy):
    """Base adapter: run one technique, publish one external front point."""

    def build_technique(self, ctx: "CampaignContext"):
        raise NotImplementedError

    def search(self, ctx: "CampaignContext") -> None:
        result = self.build_technique(ctx).apply(ctx.evaluator)
        energy_nj = ctx.space.uniform_energy_nj(
            result.array_power_mw,
            extra_cycles_per_layer=result.extra_cycles_per_layer,
        )
        ctx.add_external_point(
            label=result.technique,
            accuracy=result.accuracy,
            energy_nj=energy_nj,
            meta={"details": dict(result.details)},
        )


@register_strategy
class OursFixedStrategy(BaselineStrategy):
    """The paper's fixed choice (m = 2 with V) as a single point."""

    name = "ours-fixed"

    def __init__(self, m: int = 2):
        self.m = int(m)

    def build_technique(self, ctx: "CampaignContext"):
        return ControlVariateTechnique(m=self.m, array_size=ctx.space.array_size)


@register_strategy
class AlwannStrategy(BaselineStrategy):
    """Uniform ALWANN library selection with weight tuning."""

    name = "alwann"

    def __init__(self, library: MultiplierLibrary | None = None):
        self.library = library

    def build_technique(self, ctx: "CampaignContext"):
        library = self.library or MultiplierLibrary.synthetic_evoapprox()
        return AlwannBaseline(
            library,
            array_size=ctx.space.array_size,
            max_accuracy_drop=ctx.max_loss / 100.0,
        )


@register_strategy
class WeightOrientedStrategy(BaselineStrategy):
    """Weight-oriented reconfigurable approximation ([6])."""

    name = "weight-oriented"

    def build_technique(self, ctx: "CampaignContext"):
        return WeightOrientedBaseline(
            array_size=ctx.space.array_size,
            max_accuracy_drop=ctx.max_loss / 100.0,
        )


@register_strategy
class ReconfigurableStrategy(BaselineStrategy):
    """Layer-wise runtime-reconfigurable accuracy ([8])."""

    name = "reconfigurable"

    def build_technique(self, ctx: "CampaignContext"):
        return ReconfigurableBaseline(
            array_size=ctx.space.array_size,
            max_accuracy_drop=ctx.max_loss / 100.0,
        )


__all__ = [
    "BaselineStrategy",
    "OursFixedStrategy",
    "AlwannStrategy",
    "WeightOrientedStrategy",
    "ReconfigurableStrategy",
]
