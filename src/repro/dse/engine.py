"""Campaign engine: strategy-driven exploration with ledger and Pareto front.

:func:`run_campaign` wires the subsystem together for one trained network:

1. build (or accept) the :class:`~repro.dse.space.SearchSpace` and pick
   the evaluator: the one given, else a
   :class:`~repro.dse.evaluator.PlanEvaluator` on the given
   :class:`~repro.runtime.service.EvaluationService`, else one on its own
   in-process service — the campaign itself sets no measurement knob;
2. score the all-accurate assignment first — it anchors the quantized
   baseline accuracy every loss figure refers to and the accurate energy
   every saving is measured against;
3. hand a :class:`CampaignContext` to the selected
   :class:`~repro.dse.strategies.SearchStrategy`, whose blocking ``score``
   call is the only way a strategy scores plans: it dedups assignments
   within the run, replays ledger records on resume, scores a batch's
   fresh plans in one ``evaluator.evaluate`` call (one multi-plan walk),
   records each result in the ledger *as soon as the batch is measured*
   (so a killed campaign loses at most the batch being scored), updates
   the :class:`~repro.dse.pareto.ParetoFront`, and enforces the
   evaluation budget;
4. return a :class:`DseResult` with the front, every evaluated point and
   the campaign statistics (fresh evaluations, ledger hits, wall-clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.datasets.synthetic import Dataset
# build_campaign_service is unused here but stays importable from this
# module: perfbench's passes import it by this path.
from repro.dse.evaluator import PlanEvaluator, build_campaign_service  # noqa: F401
from repro.dse.ledger import CampaignLedger, plan_key
from repro.dse.pareto import ParetoFront, ParetoPoint
from repro.dse.space import SearchSpace
from repro.dse.strategies import BudgetExhausted, SearchStrategy, get_strategy
from repro.simulation.campaign import TrainedModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service import EvaluationService
    from repro.simulation.inference import ExecutionPlan


#: Fields a ledger record must carry to be replayed (:meth:`CampaignContext.
#: _point_from_record` and the baseline anchor read them).  The job layer
#: keys its ``result-cache`` records (``repro serve --cache-persist``) with
#: the same :func:`~repro.dse.ledger.plan_key` recipe but stores only the
#: accuracy; such a record is a miss, and the campaign overwrites it.
_REPLAY_FIELDS = (
    "label",
    "assignment",
    "accuracy",
    "accuracy_loss",
    "baseline_accuracy",
    "energy_nj",
)


class CampaignContext:
    """The campaign surface a :class:`SearchStrategy` drives.

    Strategies call :meth:`score` with assignment batches — it blocks
    until the batch is scored, one ``evaluator.evaluate`` call per batch —
    and read :attr:`space`, :attr:`max_loss`, :attr:`rng` and
    :attr:`remaining_evals`.  Baseline adapters additionally reach the
    shared :attr:`evaluator` (for technique ``apply`` calls) and publish
    their result through :meth:`add_external_point`.
    """

    def __init__(
        self,
        space: SearchSpace,
        evaluator: PlanEvaluator,
        ledger: CampaignLedger,
        max_loss: float,
        budget_evals: int | None,
        rng: np.random.Generator,
        resume: bool,
    ):
        self.space = space
        self.evaluator = evaluator
        self.ledger = ledger
        self.max_loss = float(max_loss)
        self.budget_evals = budget_evals if budget_evals is None else int(budget_evals)
        self.rng = rng
        self.resume = bool(resume)
        self.front = ParetoFront()
        self.points: dict[str, ParetoPoint] = {}
        self.evaluations = 0
        self.ledger_replays = 0
        self.dedup_hits = 0
        self._context_key = evaluator.context_key()
        self._baseline_accuracy: float | None = None

    # ------------------------------------------------------------------
    @property
    def context_key(self) -> str:
        """Digest of the evaluation context (model, dataset, eval knobs)."""
        return self._context_key

    @property
    def baseline_accuracy(self) -> float:
        """Quantized accurate baseline accuracy (set by the first score)."""
        if self._baseline_accuracy is None:
            raise RuntimeError("baseline accuracy not measured yet")
        return self._baseline_accuracy

    @property
    def remaining_evals(self) -> float:
        """Fresh evaluations still allowed (``inf`` without a budget)."""
        if self.budget_evals is None:
            return float("inf")
        return max(0, self.budget_evals - self.evaluations)

    def loss_percent(self, accuracy: float) -> float:
        """Accuracy loss versus the campaign baseline, in percentage points."""
        return 100.0 * (self.baseline_accuracy - accuracy)

    # ------------------------------------------------------------------
    def _point_from_record(self, key: str, record: dict) -> ParetoPoint:
        return ParetoPoint(
            label=record["label"],
            energy_nj=float(record["energy_nj"]),
            accuracy=float(record["accuracy"]),
            accuracy_loss=float(record["accuracy_loss"]),
            meta={
                "assignment": tuple(record["assignment"]),
                "key": key,
                "from_ledger": True,
            },
        )

    def _admit(self, key: str, point: ParetoPoint) -> None:
        self.points[key] = point
        self.front.add(point)

    def score(self, assignments: Sequence[Sequence[int]]) -> list[ParetoPoint]:
        """Evaluate a batch of assignments, returning points in input order.

        Ledger and in-run duplicates are replayed without touching the
        evaluator or the budget.  The fresh plans are scored in one
        ``evaluator.evaluate`` call, then ledgered and admitted to the front
        in input order; the first fresh assignment ever scored fixes the
        campaign's baseline accuracy (the engine guarantees it is the
        all-accurate one).  Raises :class:`BudgetExhausted` when fresh work
        would exceed the evaluation budget — after recording whatever part
        of the batch still fit.
        """
        normalized = [self.space.validate(a) for a in assignments]
        keys: list[str] = []
        fresh: dict[str, tuple[tuple[int, ...], ExecutionPlan]] = {}
        for assignment in normalized:
            plan = self.space.plan(assignment)
            key = plan_key(self._context_key, plan, self.space.layer_names)
            keys.append(key)
            if key in self.points or key in fresh:
                self.dedup_hits += 1
                continue
            if self.resume:
                record = self.ledger.get(key, required=_REPLAY_FIELDS)
                if record is not None:
                    if self._baseline_accuracy is None:
                        self._baseline_accuracy = float(record["baseline_accuracy"])
                    self.ledger_replays += 1
                    self._admit(key, self._point_from_record(key, record))
                    continue
            fresh[key] = (assignment, plan)

        pending = list(fresh.items())
        truncated = len(pending) > self.remaining_evals
        if truncated:
            pending = pending[: int(self.remaining_evals)]
        if pending:
            accuracies = self.evaluator.evaluate([plan for _, (_, plan) in pending])
            self.evaluations += len(pending)
            if self._baseline_accuracy is None:
                # The engine scores the all-accurate assignment first, so
                # the first fresh accuracy is the quantized baseline.
                self._baseline_accuracy = accuracies[0]
            for (key, (assignment, _)), accuracy in zip(pending, accuracies):
                point = ParetoPoint(
                    label=self.space.label(assignment),
                    energy_nj=self.space.energy_nj(assignment),
                    accuracy=accuracy,
                    accuracy_loss=self.loss_percent(accuracy),
                    meta={"assignment": assignment, "key": key},
                )
                self.ledger.put(
                    key,
                    {
                        "label": point.label,
                        "assignment": list(assignment),
                        "layers": self.space.describe(assignment),
                        "accuracy": point.accuracy,
                        "accuracy_loss": point.accuracy_loss,
                        "baseline_accuracy": self.baseline_accuracy,
                        "energy_nj": point.energy_nj,
                        "context": self._context_key,
                    },
                )
                self._admit(key, point)
        if truncated:
            raise BudgetExhausted(f"evaluation budget of {self.budget_evals} reached")
        return [self.points[key] for key in keys]

    def add_external_point(
        self,
        label: str,
        accuracy: float,
        energy_nj: float,
        meta: dict | None = None,
    ) -> ParetoPoint:
        """Publish a point measured outside the assignment space.

        Used by the baseline adapters, whose techniques choose their own
        plans and array designs; the point joins the front (and the result
        listing) but is not ledgered — the technique owns its own search.
        """
        point = ParetoPoint(
            label=label,
            energy_nj=float(energy_nj),
            accuracy=float(accuracy),
            accuracy_loss=self.loss_percent(accuracy),
            meta={"external": True, **(meta or {})},
        )
        self.points[f"external:{label}"] = point
        self.front.add(point)
        return point


@dataclass
class DseResult:
    """Outcome of one DSE campaign."""

    strategy: str
    front: ParetoFront
    points: list[ParetoPoint]
    baseline_accuracy: float
    accurate_energy_nj: float
    max_loss: float
    stats: dict = field(default_factory=dict)

    def best(self) -> ParetoPoint | None:
        """Minimum-energy front point meeting the loss budget."""
        return self.front.min_energy_point(self.max_loss)

    def energy_reduction_percent(self) -> float | None:
        """Energy saving of :meth:`best` versus the all-accurate design."""
        best = self.best()
        if best is None or self.accurate_energy_nj <= 0:
            return None
        return 100.0 * (1.0 - best.energy_nj / self.accurate_energy_nj)


def front_payload(result: "DseResult") -> list[dict]:
    """The Pareto front as JSON-able dicts, each point with its ledger key.

    The ``ledger_key`` is the content-addressed :func:`~repro.dse.ledger.
    plan_key` the point's evaluation was recorded under (``None`` for
    external baseline points, which are not ledgered) — embedding it in run
    manifests and golden files makes a front traceable to the exact ledger
    records that produced it.
    """
    return [
        {
            "label": point.label,
            "energy_nj": point.energy_nj,
            "accuracy": point.accuracy,
            "accuracy_loss": point.accuracy_loss,
            "ledger_key": point.meta.get("key"),
        }
        for point in result.front.points()
    ]


def run_campaign(
    trained: TrainedModel,
    dataset: Dataset,
    strategy: "str | SearchStrategy" = "greedy",
    max_loss: float = 0.5,
    budget_evals: int | None = None,
    space: SearchSpace | None = None,
    evaluator: "PlanEvaluator | None" = None,
    ledger: CampaignLedger | None = None,
    resume: bool = False,
    rng: np.random.Generator | None = None,
    service: "EvaluationService | None" = None,
    **space_kwargs,
) -> DseResult:
    """Run one design-space exploration campaign on a trained network.

    Parameters
    ----------
    trained / dataset:
        The network under exploration and its dataset (evaluation split
        scored, training-split head used for calibration) — the same pair a
        :func:`~repro.simulation.campaign.plan_sweep` takes.
    strategy:
        Registered strategy name (see
        :func:`repro.dse.strategies.strategy_names`) or an instance.
    max_loss:
        Accuracy-loss budget in percentage points (the paper's headline
        constraint, e.g. 0.5).
    budget_evals:
        Cap on *fresh* accuracy evaluations; ledger replays are free.
    space:
        Prebuilt :class:`SearchSpace`; by default built here
        (``space_kwargs`` forwards to :meth:`SearchSpace.build`, e.g.
        ``array_size=...``, ``library=...``).
    evaluator / service:
        Where the campaign scores, and so its whole measurement setup:
        ``evaluator`` (a :class:`PlanEvaluator` or a remote one) as given;
        else ``PlanEvaluator(trained, dataset, service=service)``, the way
        several sequential campaigns (``repro dse --models ...``) share one
        service, its worker pool and its calibrated executors; else an
        in-process ``PlanEvaluator(trained, dataset)`` with the default
        setup.  Passing both is a :class:`ValueError`.  The caller owns a
        given service's lifecycle.  Every accuracy is bit-exact at any
        worker count, so campaigns on any service find the identical
        Pareto front and share ledger records.
    ledger / resume:
        Persistent ledger and whether to *replay* its records.  Records are
        always written when a ledger is given, so a crashed campaign can be
        resumed later; replay is opt-in to keep fresh runs measured.
    rng:
        Seeded generator for the stochastic strategies (NSGA-II); defaults
        to ``np.random.default_rng(0)`` for reproducibility.
    """
    if budget_evals is not None and budget_evals < 1:
        raise ValueError("budget_evals must be at least 1 (the accurate baseline)")
    if evaluator is not None and service is not None:
        raise ValueError(
            "pass evaluator or service, not both: the evaluator already fixes "
            "where the campaign scores (use PlanEvaluator(..., service=...))"
        )
    if space is None:
        space = SearchSpace.build(
            trained.model, dataset.image_shape, **space_kwargs
        )
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    # Validate the configuration before building an evaluation service.
    strategy.prepare(space, budget_evals)
    if evaluator is None:
        evaluator = PlanEvaluator(trained, dataset, service=service)
    if ledger is None:
        ledger = CampaignLedger(path=None)
    if rng is None:
        rng = np.random.default_rng(0)

    ctx = CampaignContext(
        space=space,
        evaluator=evaluator,
        ledger=ledger,
        max_loss=max_loss,
        budget_evals=budget_evals,
        rng=rng,
        resume=resume,
    )
    start = time.perf_counter()
    # The all-accurate design anchors the baseline accuracy and the energy
    # reference; scoring it first also guarantees it is always on record.
    ctx.score([space.accurate_assignment()])
    try:
        strategy.search(ctx)
    except BudgetExhausted:
        pass
    wall_clock = time.perf_counter() - start

    return DseResult(
        strategy=strategy.name,
        front=ctx.front,
        points=list(ctx.points.values()),
        baseline_accuracy=ctx.baseline_accuracy,
        accurate_energy_nj=space.accurate_energy_nj(),
        max_loss=ctx.max_loss,
        stats={
            "evaluations": ctx.evaluations,
            "ledger_replays": ctx.ledger_replays,
            "dedup_hits": ctx.dedup_hits,
            "ledger": ledger.stats(),
            "points": len(ctx.points),
            "front_size": len(ctx.front),
            "wall_clock_s": wall_clock,
            "space_size": space.size(),
            # The evaluation-context digest every ledger record of this
            # campaign is keyed under — run manifests embed it so a front
            # is traceable to its ledger records by hash alone.
            "context_key": ctx.context_key,
            # The pool size of the service that scored (a remote
            # evaluator reports 1).
            "workers": (
                evaluator.service.max_workers
                if isinstance(evaluator, PlanEvaluator)
                else 1
            ),
        },
    )
