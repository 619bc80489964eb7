"""Pluggable search strategies of the DSE engine.

A :class:`SearchStrategy` drives the exploration of one
:class:`~repro.dse.space.SearchSpace` by proposing assignment batches to the
campaign's scoring callback (which handles ledger lookups, dedup, Pareto
updates and the evaluation budget — see :mod:`repro.dse.engine`).  The
process-wide registry maps strategy names to classes so campaigns (and the
``repro dse`` CLI) select one by name:

``exhaustive``
    Enumerates every assignment — the ground truth for small spaces.
``greedy``
    Energy-per-accuracy descent mirroring the paper's selection: starting
    from the all-accurate plan, repeatedly take the single-layer step to
    the next cheaper candidate with the best energy-saved per accuracy-lost
    ratio among the steps that keep the loss within budget.
``nsga2``
    Seeded NSGA-II multi-objective genetic search (constrained domination:
    loss-budget violations are dominated by feasible points) for spaces too
    large to enumerate and too non-convex for the greedy descent.

The one-call baseline adapters of :mod:`repro.dse.baselines` register here
too, so a state-of-the-art comparison is just another ``--strategy`` value.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dse.engine import CampaignContext


class BudgetExhausted(Exception):
    """Raised by the scoring callback when the evaluation budget runs out."""


class SearchStrategy(abc.ABC):
    """Strategy proposing assignment batches to a campaign."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    def prepare(self, space, budget_evals: int | None) -> None:
        """Validate the campaign configuration before any evaluation.

        Called by :func:`repro.dse.engine.run_campaign` right after the
        space is known — before the evaluator is calibrated or a single
        plan is scored — so foreseeable configuration errors (e.g. an
        unbudgeted exhaustive search over a huge space) fail fast and
        cheap.  Default: accept everything.
        """

    @abc.abstractmethod
    def search(self, ctx: "CampaignContext") -> None:
        """Explore ``ctx.space`` through ``ctx.score`` until done.

        Implementations may simply let :class:`BudgetExhausted` propagate —
        the campaign engine treats it as a normal termination.
        """

    def describe(self) -> str:
        """One-line description used by listings."""
        doc = (type(self).__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name


_REGISTRY: dict[str, Type[SearchStrategy]] = {}


def register_strategy(cls: Type[SearchStrategy]) -> Type[SearchStrategy]:
    """Class decorator adding a strategy to the process-wide registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("strategy must define a concrete name")
    if cls.name in _REGISTRY:
        raise ValueError(f"search strategy {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def strategy_names() -> list[str]:
    """Names of all registered strategies, in registration order."""
    return list(_REGISTRY)


def has_strategy(name: str) -> bool:
    return name in _REGISTRY


def get_strategy(name: str, **kwargs) -> SearchStrategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown search strategy {name!r}; registered strategies: {known}"
        ) from None
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
@register_strategy
class ExhaustiveSearch(SearchStrategy):
    """Enumerate every assignment of the space (small spaces only)."""

    name = "exhaustive"

    #: Refuse to enumerate spaces beyond this size without an explicit
    #: evaluation budget — the budget then bounds the run instead.
    max_unbudgeted_size = 4096

    def __init__(self, batch_size: int = 32):
        self.batch_size = int(batch_size)

    def prepare(self, space, budget_evals: int | None) -> None:
        if budget_evals is None and space.size() > self.max_unbudgeted_size:
            raise ValueError(
                f"exhaustive search over {space.size()} assignments needs "
                f"an evaluation budget (budget_evals); use greedy or nsga2 "
                f"for spaces this large"
            )

    def search(self, ctx: "CampaignContext") -> None:
        self.prepare(ctx.space, ctx.budget_evals)
        batch: list[tuple[int, ...]] = []
        for assignment in ctx.space.enumerate_assignments():
            batch.append(assignment)
            if len(batch) >= self.batch_size:
                ctx.score(batch)
                batch = []
        if batch:
            ctx.score(batch)


@register_strategy
class GreedySearch(SearchStrategy):
    """Energy-per-accuracy descent (the paper's selection heuristic)."""

    name = "greedy"

    #: Loss increments below this (in percentage points) are treated as
    #: free, so the ratio stays finite when a step costs no accuracy.
    loss_epsilon = 1e-6

    def search(self, ctx: "CampaignContext") -> None:
        space = ctx.space
        current = space.accurate_assignment()
        current_point = ctx.score([current])[0]
        while True:
            proposals: list[tuple[int, ...]] = []
            for layer_index in range(space.num_layers):
                index = current[layer_index]
                if index + 1 < space.num_candidates:
                    proposals.append(
                        current[:layer_index]
                        + (index + 1,)
                        + current[layer_index + 1 :]
                    )
            if not proposals:
                return
            points = ctx.score(proposals)
            best = None
            best_ratio = -math.inf
            for assignment, point in zip(proposals, points):
                if point.accuracy_loss > ctx.max_loss:
                    continue
                saving = current_point.energy_nj - point.energy_nj
                if saving <= 0:
                    continue
                added_loss = max(
                    point.accuracy_loss - current_point.accuracy_loss,
                    self.loss_epsilon,
                )
                ratio = saving / added_loss
                if ratio > best_ratio:
                    best_ratio = ratio
                    best = (assignment, point)
            if best is None:
                return
            current, current_point = best


@register_strategy
class NSGA2Search(SearchStrategy):
    """Seeded NSGA-II genetic multi-objective search.

    Each generation breeds all its children first and scores them as one
    batch (one :meth:`~repro.dse.engine.CampaignContext.score` call), so
    the multi-plan walk shares every layer prefix across the whole
    generation.  Every accuracy is bit-exact at any worker count, so the
    candidate stream (and therefore the Pareto front) is too.
    """

    name = "nsga2"

    def __init__(
        self,
        population: int = 16,
        generations: int = 12,
        crossover_prob: float = 0.9,
        mutation_prob: float | None = None,
    ):
        if population < 4:
            raise ValueError("nsga2 population must be at least 4")
        self.population = int(population)
        self.generations = int(generations)
        self.crossover_prob = float(crossover_prob)
        self.mutation_prob = mutation_prob

    # -- genetic operators ------------------------------------------------
    def _initial_population(self, ctx: "CampaignContext") -> list[tuple[int, ...]]:
        space = ctx.space
        population: list[tuple[int, ...]] = [space.accurate_assignment()]
        seen = set(population)
        # Seed a gradient of uniform designs (every layer on candidate k):
        # cheap anchors spanning the energy axis.
        for k in range(1, space.num_candidates):
            uniform = (k,) * space.num_layers
            if uniform not in seen and len(population) < self.population:
                population.append(uniform)
                seen.add(uniform)
        attempts = 0
        while len(population) < self.population and attempts < 50 * self.population:
            candidate = tuple(
                int(g)
                for g in ctx.rng.integers(0, space.num_candidates, space.num_layers)
            )
            attempts += 1
            if candidate not in seen:
                population.append(candidate)
                seen.add(candidate)
        return population

    def _mutate(self, ctx: "CampaignContext", genes: tuple[int, ...]) -> tuple[int, ...]:
        space = ctx.space
        prob = (
            self.mutation_prob
            if self.mutation_prob is not None
            else 1.0 / space.num_layers
        )
        out = list(genes)
        for i in range(space.num_layers):
            if ctx.rng.random() < prob:
                out[i] = int(ctx.rng.integers(0, space.num_candidates))
        return tuple(out)

    def _crossover(
        self, ctx: "CampaignContext", a: tuple[int, ...], b: tuple[int, ...]
    ) -> tuple[int, ...]:
        if ctx.rng.random() >= self.crossover_prob:
            return a
        mask = ctx.rng.random(len(a)) < 0.5
        return tuple(x if take else y for x, y, take in zip(a, b, mask))

    # -- NSGA-II machinery ------------------------------------------------
    @staticmethod
    def _violation(point, max_loss: float) -> float:
        return max(0.0, point.accuracy_loss - max_loss)

    @classmethod
    def _dominates(cls, a, b, max_loss: float) -> bool:
        """Constrained dominance on (energy min, loss min)."""
        va, vb = cls._violation(a, max_loss), cls._violation(b, max_loss)
        if va == 0.0 and vb > 0.0:
            return True
        if va > 0.0 and vb > 0.0:
            return va < vb
        if va > 0.0 and vb == 0.0:
            return False
        return a.dominates(b)

    @classmethod
    def _sort_fronts(cls, points, max_loss: float) -> list[list[int]]:
        """Fast non-dominated sort; returns index fronts, best first."""
        n = len(points)
        dominated_by: list[list[int]] = [[] for _ in range(n)]
        domination_count = [0] * n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if cls._dominates(points[i], points[j], max_loss):
                    dominated_by[i].append(j)
                elif cls._dominates(points[j], points[i], max_loss):
                    domination_count[i] += 1
        fronts: list[list[int]] = [[i for i in range(n) if domination_count[i] == 0]]
        while fronts[-1]:
            next_front: list[int] = []
            for i in fronts[-1]:
                for j in dominated_by[i]:
                    domination_count[j] -= 1
                    if domination_count[j] == 0:
                        next_front.append(j)
            fronts.append(next_front)
        return fronts[:-1]

    @staticmethod
    def _crowding(points, front: list[int]) -> dict[int, float]:
        distance = {i: 0.0 for i in front}
        if len(front) <= 2:
            return {i: math.inf for i in front}
        for objective in (
            lambda p: p.energy_nj,
            lambda p: p.accuracy_loss,
        ):
            ordered = sorted(front, key=lambda i: objective(points[i]))
            lo = objective(points[ordered[0]])
            hi = objective(points[ordered[-1]])
            distance[ordered[0]] = distance[ordered[-1]] = math.inf
            if hi <= lo:
                continue
            for rank in range(1, len(ordered) - 1):
                gap = objective(points[ordered[rank + 1]]) - objective(
                    points[ordered[rank - 1]]
                )
                distance[ordered[rank]] += gap / (hi - lo)
        return distance

    def search(self, ctx: "CampaignContext") -> None:
        space = ctx.space
        population = self._initial_population(ctx)
        points = ctx.score(population)
        for _ in range(self.generations):
            fronts = self._sort_fronts(points, ctx.max_loss)
            rank = {}
            crowding = {}
            for front_index, front in enumerate(fronts):
                crowding.update(self._crowding(points, front))
                for i in front:
                    rank[i] = front_index

            def fitness_key(i: int) -> tuple[float, float]:
                return (rank[i], -crowding[i])

            def tournament() -> int:
                a, b = ctx.rng.integers(0, len(population), 2)
                return int(a) if fitness_key(int(a)) <= fitness_key(int(b)) else int(b)

            children: list[tuple[int, ...]] = []
            seen = set(population)
            attempts = 0
            while len(children) < self.population and attempts < 50 * self.population:
                child = self._mutate(
                    ctx,
                    self._crossover(
                        ctx, population[tournament()], population[tournament()]
                    ),
                )
                attempts += 1
                if child not in seen:
                    children.append(child)
                    seen.add(child)
            if not children:
                return
            child_points = ctx.score(children)

            combined = population + children
            combined_points = points + child_points
            fronts = self._sort_fronts(combined_points, ctx.max_loss)
            next_indices: list[int] = []
            for front in fronts:
                if len(next_indices) + len(front) <= self.population:
                    next_indices.extend(front)
                else:
                    crowd = self._crowding(combined_points, front)
                    remaining = self.population - len(next_indices)
                    next_indices.extend(
                        sorted(front, key=lambda i: -crowd[i])[:remaining]
                    )
                if len(next_indices) >= self.population:
                    break
            population = [combined[i] for i in next_indices]
            points = [combined_points[i] for i in next_indices]


__all__ = [
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
