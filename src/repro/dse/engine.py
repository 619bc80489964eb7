"""Campaign engine: strategy-driven exploration with ledger and Pareto front.

:func:`run_campaign` wires the subsystem together for one trained network:

1. build (or accept) the :class:`~repro.dse.space.SearchSpace` and the
   :class:`~repro.dse.evaluator.PlanEvaluator` — at any worker count one
   evaluator on the given :class:`~repro.runtime.service.EvaluationService`
   or on one the campaign builds (and closes) itself;
2. score the all-accurate assignment first — it anchors the quantized
   baseline accuracy every loss figure refers to and the accurate energy
   every saving is measured against;
3. hand a :class:`CampaignContext` to the selected
   :class:`~repro.dse.strategies.SearchStrategy`, whose ``score`` callback
   dedups assignments within the run, replays ledger records on resume,
   evaluates fresh plans in batches through the multi-plan walk,
   records each result in the ledger *as soon as it is measured* (so a
   killed campaign loses at most the in-flight batch), updates the
   :class:`~repro.dse.pareto.ParetoFront`, and enforces the evaluation
   budget;
4. return a :class:`DseResult` with the front, every evaluated point and
   the campaign statistics (fresh evaluations, ledger hits, wall-clock).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.dse.evaluator import PlanEvaluator, build_campaign_service
from repro.dse.ledger import CampaignLedger, plan_key
from repro.dse.pareto import ParetoFront, ParetoPoint
from repro.dse.space import SearchSpace
from repro.dse.strategies import BudgetExhausted, SearchStrategy, get_strategy
from repro.runtime.sizing import resolve_worker_count
from repro.simulation.campaign import TrainedModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service import EvaluationService


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


class PendingScore:
    """Handle of one in-flight :meth:`CampaignContext.score_async` batch.

    Holds the evaluator's submission handle plus everything needed to
    record the batch once its accuracies land: the ledger keys of the whole
    batch (in input order) and the fresh ``(key, assignment)`` pairs that
    were actually dispatched.  Collection is FIFO: resolving this handle
    first resolves every batch submitted before it, so ledger writes,
    baseline anchoring and Pareto admissions happen in submission order —
    exactly the order the blocking :meth:`~CampaignContext.score` would
    have produced.
    """

    def __init__(
        self,
        ctx: "CampaignContext",
        keys: list[str],
        pending: list[tuple[str, tuple[int, ...]]],
        handle,
        truncated: bool,
    ):
        self._ctx = ctx
        self._keys = keys
        self._pending = pending
        self._handle = handle
        self._truncated = truncated
        self.collected = False

    def _collect(self) -> None:
        """Record this batch's fresh results (idempotent; called in FIFO)."""
        if self.collected:
            return
        self.collected = True
        ctx = self._ctx
        try:
            if self._handle is None:
                return
            accuracies = self._handle.results()
            if ctx._baseline_accuracy is None and accuracies:
                # The engine scores the all-accurate assignment first, so
                # the first fresh accuracy is the quantized baseline.
                ctx._baseline_accuracy = accuracies[0]
            for (key, assignment), acc in zip(self._pending, accuracies):
                point = ParetoPoint(
                    label=ctx.space.label(assignment),
                    energy_nj=ctx.space.energy_nj(assignment),
                    accuracy=acc,
                    accuracy_loss=ctx.loss_percent(acc),
                    meta={"assignment": assignment, "key": key},
                )
                ctx.ledger.put(
                    key,
                    {
                        "label": point.label,
                        "assignment": list(assignment),
                        "layers": ctx.space.describe(assignment),
                        "accuracy": point.accuracy,
                        "accuracy_loss": point.accuracy_loss,
                        "baseline_accuracy": ctx.baseline_accuracy,
                        "energy_nj": point.energy_nj,
                        "context": ctx._context_key,
                    },
                )
                ctx._admit(key, point)
        finally:
            ctx._pending_keys.difference_update(key for key, _ in self._pending)

    def points(self) -> list[ParetoPoint]:
        """Resolve to points in the batch's input order (blocking).

        Raises :class:`BudgetExhausted` when the batch was truncated at
        submission — after recording whatever part of it still fit, the
        same contract as the blocking :meth:`~CampaignContext.score`.
        """
        self._ctx._drain_through(self)
        if self._truncated:
            raise BudgetExhausted(
                f"evaluation budget of {self._ctx.budget_evals} reached"
            )
        return [self._ctx.points[key] for key in self._keys]


class CampaignContext:
    """The campaign surface a :class:`SearchStrategy` drives.

    Strategies call :meth:`score` with assignment batches and read
    :attr:`space`, :attr:`max_loss`, :attr:`rng` and
    :attr:`remaining_evals`.  Pipelining strategies use
    :meth:`score_async` instead — submission dispatches the fresh plans to
    the evaluator immediately (on a pool service the workers start
    evaluating while the strategy keeps breeding candidates) and
    the returned :class:`PendingScore` resolves them later.  Baseline
    adapters additionally reach the shared :attr:`evaluator` (for
    technique ``apply`` calls) and publish their result through
    :meth:`add_external_point`.
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
        self._outstanding: "deque[PendingScore]" = deque()
        self._pending_keys: set[str] = set()

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

    def score_async(self, assignments: Sequence[Sequence[int]]) -> PendingScore:
        """Dispatch a batch of assignments, returning an in-flight handle.

        Ledger and in-run duplicates (including keys already *in flight*
        from earlier uncollected batches) are resolved without touching the
        evaluator or the budget.  Fresh plans are submitted to the
        evaluator immediately — on a pool service the workers start on
        them while the strategy keeps generating candidates
        — and charged against the budget at submission.  Ledger writes,
        baseline anchoring and Pareto admissions happen at *collection*
        (:meth:`PendingScore.points`), strictly in submission order, so the
        observable campaign state is identical to blocking :meth:`score`
        calls in the same order.
        """
        normalized = [self.space.validate(a) for a in assignments]
        keys: list[str] = []
        fresh: dict[str, tuple[int, ...]] = {}
        for assignment in normalized:
            key = plan_key(
                self._context_key,
                self.space.plan(assignment),
                self.space.layer_names,
            )
            keys.append(key)
            if key in self.points or key in self._pending_keys:
                self.dedup_hits += 1
                continue
            if key in fresh:
                self.dedup_hits += 1
                continue
            if self.resume:
                record = self.ledger.get(key, required=_REPLAY_FIELDS)
                if record is not None:
                    point = self._point_from_record(key, record)
                    if self._baseline_accuracy is None:
                        self._baseline_accuracy = float(record["baseline_accuracy"])
                    self.ledger_replays += 1
                    self._admit(key, point)
                    continue
            fresh[key] = assignment

        truncated = False
        pending = list(fresh.items())
        if pending and self.remaining_evals < len(pending):
            pending = pending[: int(self.remaining_evals)]
            truncated = True
        handle = None
        if pending:
            plans = [self.space.plan(assignment) for _, assignment in pending]
            handle = self.evaluator.submit(plans)
            self.evaluations += len(plans)
            self._pending_keys.update(key for key, _ in pending)
        score = PendingScore(self, keys, pending, handle, truncated)
        self._outstanding.append(score)
        return score

    def score(self, assignments: Sequence[Sequence[int]]) -> list[ParetoPoint]:
        """Evaluate a batch of assignments, returning points in input order.

        Ledger and in-run duplicates are replayed without touching the
        evaluator or the budget; the first fresh assignment ever scored
        fixes the campaign's baseline accuracy (the engine guarantees it is
        the all-accurate one).  Raises :class:`BudgetExhausted` when fresh
        work would exceed the evaluation budget — after recording whatever
        part of the batch still fit.
        """
        return self.score_async(assignments).points()

    def _drain_through(self, target: PendingScore) -> None:
        """Collect outstanding batches in FIFO order up to ``target``."""
        if target.collected:
            return
        while self._outstanding:
            head = self._outstanding.popleft()
            head._collect()
            if head is target:
                return

    def finish(self) -> None:
        """Collect every outstanding :meth:`score_async` batch.

        The engine calls this after the strategy returns so no in-flight
        evaluation is dropped unrecorded; a well-behaved strategy has
        already collected everything and this is a no-op.
        """
        while self._outstanding:
            self._outstanding.popleft()._collect()

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
    max_eval_images: int | None = None,
    calibration_images: int = 128,
    eval_images: np.ndarray | None = None,
    eval_labels: np.ndarray | None = None,
    workers: int | None = 1,
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
    space / evaluator:
        Prebuilt :class:`SearchSpace` / evaluator; by default both are
        built here (``space_kwargs`` forwards to
        :meth:`SearchSpace.build`, e.g. ``array_size=...``,
        ``library=...``).
    ledger / resume:
        Persistent ledger and whether to *replay* its records.  Records are
        always written when a ledger is given, so a crashed campaign can be
        resumed later; replay is opt-in to keep fresh runs measured.
    rng:
        Seeded generator for the stochastic strategies (NSGA-II); defaults
        to ``np.random.default_rng(0)`` for reproducibility.
    workers:
        Candidate batches are fanned across this many evaluation-service
        worker processes (must be >= 1; ``None`` auto-sizes from the
        schedulable CPUs and host load).  The request is clamped to the
        schedulable-CPU count
        (:func:`repro.runtime.sizing.resolve_worker_count`): ``workers=4``
        on a 1-CPU box degrades to the serial in-process path — 1.0x the
        serial wall-clock instead of four contending processes.  The
        candidate generations of NSGA-II and the frontier expansions of
        the greedy descent are embarrassingly parallel, and every accuracy
        stays bit-exact with the serial path — ``workers=N`` produces the
        identical Pareto front and shares ledger records with
        ``workers=1``.
    service:
        A started (or startable) multi-model
        :class:`~repro.runtime.service.EvaluationService` hosting
        ``trained`` — the way several sequential campaigns (``repro dse
        --models ...``) reuse one worker pool and its calibrated
        executors.  The caller owns the service's lifecycle;
        ``workers`` is ignored in its favor, and measurement knobs that
        conflict with the service's setup raise :class:`ValueError`.
    """
    if budget_evals is not None and budget_evals < 1:
        raise ValueError("budget_evals must be at least 1 (the accurate baseline)")
    if workers is not None and int(workers) < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    requested_workers = workers if workers is None else int(workers)
    # The degrade-to-serial clamp: never more workers than schedulable CPUs
    # (a 4-worker request on a 1-CPU box runs the serial path at 1.0x
    # serial, not 4 time-slicing processes at ~0.5x).
    effective_workers = resolve_worker_count(workers)
    if evaluator is not None and (
        service is not None
        or (requested_workers is not None and requested_workers > 1)
    ):
        # An explicit evaluator fully determines the execution path; a
        # service or worker count alongside it would be silently ignored.
        raise ValueError(
            "evaluator is mutually exclusive with workers/service: the "
            "evaluator already fixes the execution path (pass "
            "PlanEvaluator(..., service=...) to score on a service)"
        )
    if space is None:
        space = SearchSpace.build(
            trained.model, dataset.image_shape, **space_kwargs
        )
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    # Validate the configuration before building the evaluation service.
    strategy.prepare(space, budget_evals)
    owned_service: "EvaluationService | None" = None
    try:
        if evaluator is None:
            if service is None:
                service = owned_service = build_campaign_service(
                    [trained],
                    dataset,
                    effective_workers,
                    max_eval_images=max_eval_images,
                    calibration_images=calibration_images,
                    eval_images=eval_images,
                    eval_labels=eval_labels,
                )
                # The owned service now hosts the knobs' setup (an eval
                # subset as its test split), so they match it by construction.
                max_eval_images = service.max_eval_images
                eval_images = eval_labels = None
            # An external service's setup wins: PlanEvaluator rejects
            # conflicting knobs loudly instead of ignoring them.
            evaluator = PlanEvaluator(
                trained,
                dataset,
                max_eval_images=max_eval_images,
                calibration_images=calibration_images,
                eval_images=eval_images,
                eval_labels=eval_labels,
                service=service,
            )
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
            # Pipelining strategies may leave in-flight batches; collect
            # them so nothing evaluated goes unrecorded.
            ctx.finish()
        except BudgetExhausted:
            try:
                ctx.finish()
            except BudgetExhausted:  # pragma: no cover - defensive
                pass
        wall_clock = time.perf_counter() - start
    finally:
        # A KeyboardInterrupt (or any failure) lands here with every scored
        # plan already ledgered — ledger writes are eager and atomic — so
        # the only cleanup owed is the service's workers.
        if owned_service is not None:
            owned_service.close()

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
            # Derived from the evaluator actually used, so an explicitly
            # passed PlanEvaluator reports its service's pool size (a
            # remote one reports 1); requested_workers keeps the pre-clamp
            # request visible (None when the caller asked for auto-sizing).
            "workers": (
                evaluator.service.max_workers
                if isinstance(evaluator, PlanEvaluator)
                else 1
            ),
            "requested_workers": requested_workers,
        },
    )
