"""Retraining-free state-of-the-art baselines used in the Fig. 5 comparison.

The paper compares its control-variate approximation against three prior
techniques that, like it, avoid retraining:

* ALWANN (Mrazek et al., ICCAD 2019) — selects one approximate multiplier
  per network (the uniform variant the paper uses for fairness) from a
  library and re-tunes the stored weights to minimize the expected
  multiplication error (:mod:`~repro.baselines.alwann`);
* weight-oriented approximation (Tasoulas et al., TCAS-I 2020) — runtime
  reconfigurable multipliers whose accuracy mode is chosen per weight value
  (:mod:`~repro.baselines.weight_oriented`);
* runtime-reconfigurable accuracy multipliers (Zervakis et al., IEEE Access
  2020) — layer-wise accuracy configuration of reconfigurable multipliers
  (:mod:`~repro.baselines.reconfigurable`).

Each technique's ``apply(evaluator)`` scores its candidate plans through a
:class:`~repro.dse.evaluator.PlanEvaluator` or a
:class:`~repro.runtime.jobs.client.RemotePlanEvaluator`, one ``evaluate``
call per candidate, and returns a
:class:`~repro.baselines.base.TechniqueResult` holding its execution plan,
array power model and measured accuracy, which the Fig. 5 bench, the
golden workload and the DSE adapters turn into energy / accuracy points.
Every candidate is an :class:`~repro.simulation.inference.ExecutionPlan`:
ALWANN's weight tuning is a LUT product over a remapped table.
"""

from repro.baselines.base import TechniqueResult
from repro.baselines.alwann import AlwannBaseline, tune_weights, tuned_product
from repro.baselines.weight_oriented import WeightOrientedBaseline, WeightOrientedProduct
from repro.baselines.reconfigurable import ReconfigurableBaseline
from repro.baselines.ours import ControlVariateTechnique

__all__ = [
    "TechniqueResult",
    "AlwannBaseline",
    "tune_weights",
    "tuned_product",
    "WeightOrientedBaseline",
    "WeightOrientedProduct",
    "ReconfigurableBaseline",
    "ControlVariateTechnique",
]
