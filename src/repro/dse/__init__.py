"""Automated design-space exploration of per-layer approximation mappings.

The paper's headline methodology is a *search*: pick a per-layer mix of
approximate multipliers (perforated, with or without the control-variate
MAC+ column, or arbitrary library designs) that minimizes energy subject to
an accuracy-loss budget.  This package turns the repo's fast simulation
substrate into that decision procedure:

* :mod:`~repro.dse.space` — :class:`SearchSpace`: per-layer candidate
  menus priced by the hardware cycle/power models;
* :mod:`~repro.dse.strategies` — the pluggable :class:`SearchStrategy`
  registry (``exhaustive``, ``greedy``, ``nsga2``, plus the one-call
  baseline adapters of :mod:`~repro.dse.baselines`);
* :mod:`~repro.dse.pareto` — :class:`ParetoFront` with dominance pruning;
* :mod:`~repro.dse.ledger` — :class:`CampaignLedger`: persistent,
  content-addressed records that make campaigns resumable and re-runs free;
* :mod:`~repro.dse.evaluator` — :class:`PlanEvaluator` (in-process) and
  :class:`ServicePlanEvaluator` (fanned across a
  :class:`repro.runtime.service.EvaluationService` worker pool): accuracy
  scoring through the executor's multi-plan walk, both bit-exact
  with :func:`repro.simulation.campaign.plan_sweep`;
* :mod:`~repro.dse.engine` — :func:`run_campaign` wiring it all together
  (the CLI exposes it as ``python -m repro dse``, with ``--workers N``
  selecting the parallel path and ``--models all`` a multi-model session).

See the package ``README.md`` for the strategy registry and the ledger
record format.
"""

from repro.dse.engine import (
    CampaignContext,
    DseResult,
    build_campaign_service,
    run_campaign,
)
from repro.dse.evaluator import PlanEvaluator, ServicePlanEvaluator
from repro.dse.ledger import CampaignLedger, evaluation_context_key, plan_key
from repro.dse.pareto import ParetoFront, ParetoPoint
from repro.dse.space import Candidate, SearchSpace
from repro.dse.strategies import (
    BudgetExhausted,
    ExhaustiveSearch,
    GreedySearch,
    NSGA2Search,
    SearchStrategy,
    get_strategy,
    has_strategy,
    register_strategy,
    strategy_names,
)

# Importing the adapters registers the baseline strategies.
from repro.dse import baselines as _baselines  # noqa: F401  (registration side effect)

__all__ = [
    "Candidate",
    "SearchSpace",
    "ParetoFront",
    "ParetoPoint",
    "CampaignLedger",
    "evaluation_context_key",
    "plan_key",
    "PlanEvaluator",
    "ServicePlanEvaluator",
    "CampaignContext",
    "DseResult",
    "build_campaign_service",
    "run_campaign",
    "BudgetExhausted",
    "SearchStrategy",
    "register_strategy",
    "strategy_names",
    "has_strategy",
    "get_strategy",
    "ExhaustiveSearch",
    "GreedySearch",
    "NSGA2Search",
]
