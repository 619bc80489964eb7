"""Prefix-aware scheduling of evaluation cells.

An evaluation *cell* is one ``(model, plan)`` pair.  Consecutive cells that
share a per-layer fingerprint prefix land in one multi-plan walk of the
executor, which runs the shared prefix once
(:meth:`repro.simulation.inference.ApproximateExecutor.forward_many`), so
the order cells run in is a first-order performance knob.  This module
owns that ordering:

* :func:`schedule_cells` — the order the
  :class:`~repro.runtime.service.EvaluationService` runs any submitted
  cell list in (any mix of models and plans): a permutation of cell
  indices, grouped by model and sorted lexicographically by fingerprint;
* :func:`contiguous_chunks`, :func:`plan_group_slices`,
  :func:`shared_prefix_depths` and :func:`cost_balanced_chunks` — the
  count-, group- and cost-balanced ways of cutting a schedule into
  contiguous worker chunks.  No evaluation path cuts schedules any more
  (the pool splits a batch by images, see
  :mod:`repro.runtime.service`); they stay for their contract tests and
  because perfbench's span hooks resolve them.

Every chunking function preserves the prefix-adjacency contract: chunks
are contiguous slices of the schedule, concatenating them reproduces the
schedule exactly, and chunking never changes *what* is evaluated — only
where it runs.  Sorting is stable everywhere: cells with identical
fingerprints keep their input order, which the scheduler edge-case tests
pin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence, TypeVar

from repro.simulation.inference import ExecutionPlan, plan_fingerprint_sort_key

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.simulation.campaign import TrainedModel

T = TypeVar("T")

#: Cap on how many cells one plan group holds — the unit
#: :func:`plan_group_slices` never splits across chunks.
DEFAULT_PLAN_GROUP_SIZE = 8


def model_mac_names(trained: "TrainedModel") -> tuple[str, ...]:
    """MAC (conv/dense) layer names of one trained model, in execution order.

    The same key the executor's multi-plan walk uses, so schedule
    adjacency matches the prefixes the walk shares exactly.
    """
    return tuple(node.name for node in trained.model.conv_dense_nodes())


def schedule_cells(
    cells: Sequence[tuple[int, ExecutionPlan]],
    mac_names_by_model: dict[int, tuple[str, ...]],
) -> list[int]:
    """Prefix-aware execution order of arbitrary ``(model_index, plan)`` cells.

    Returns a permutation of ``range(len(cells))``: cells are grouped by
    model (ascending index) and, within one model, ordered
    lexicographically by the plan's per-MAC-layer fingerprint sequence —
    plans sharing a layer prefix become adjacent.  The sort is stable, so
    behaviorally identical plans keep their submission order.
    """
    keys: list[tuple[int, tuple[str, ...]]] = []
    for model_index, plan in cells:
        names = mac_names_by_model[model_index]
        keys.append((model_index, plan_fingerprint_sort_key(plan.fingerprints(names))))
    return sorted(range(len(cells)), key=keys.__getitem__)


def plan_group_slices(
    schedule: Sequence[tuple[int, ExecutionPlan]],
    max_group_plans: int = DEFAULT_PLAN_GROUP_SIZE,
    split_depths: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """Plan-group boundaries of a prefix-sorted schedule, as ``(start, stop)``.

    A *plan group* is a maximal run of consecutive same-model cells, capped
    at ``max_group_plans`` — the granularity a chunking cuts at, so a
    group is never split across workers.  On a
    fingerprint-sorted schedule the cells of a group share the deepest
    prefixes the plan set offers, so the worker's multi-plan walk
    (:meth:`repro.simulation.inference.ApproximateExecutor.forward_many`)
    dedupes maximal work.  Concatenating the slices covers ``schedule``
    exactly, in order.

    ``split_depths`` (from :func:`shared_prefix_depths`, one entry per
    consecutive-cell boundary) additionally aligns groups with *divergence
    families*: a group also ends where the next boundary's agreement depth
    drops below the shallowest depth already inside the group.  On a
    fingerprint-sorted schedule a per-layer sensitivity screen produces
    runs of plans that all diverge at one layer (constant boundary depth)
    separated by depth drops; cutting at the drops keeps each family —
    whose members share their divergence layer's input, the sharing the
    stacked launch actually exploits — in one group instead of splitting it
    at an arbitrary count boundary.
    """
    if int(max_group_plans) < 1:
        raise ValueError(
            f"max_group_plans must be a positive integer, got {max_group_plans}"
        )
    if split_depths is not None and len(split_depths) < len(schedule) - 1:
        raise ValueError(
            f"need one depth per cell boundary: {len(split_depths)} depths "
            f"for {len(schedule)} cells"
        )
    slices: list[tuple[int, int]] = []
    start = 0
    while start < len(schedule):
        stop = start
        model_index = schedule[start][0]
        group_depth: int | None = None
        while (
            stop < len(schedule)
            and schedule[stop][0] == model_index
            and stop - start < int(max_group_plans)
        ):
            if split_depths is not None and stop > start:
                boundary = int(split_depths[stop - 1])
                if group_depth is not None and boundary < group_depth:
                    break
                group_depth = (
                    boundary if group_depth is None else min(group_depth, boundary)
                )
            stop += 1
        slices.append((start, stop))
        start = stop
    return slices


def contiguous_chunks(schedule: Sequence[T], max_chunks: int) -> list[list[T]]:
    """Split ``schedule`` into count-balanced contiguous slices.

    Exactly ``min(len(schedule), max_chunks)`` non-empty chunks whose sizes
    differ by at most one, covering the schedule exactly, in order — each
    worker receives one contiguous block and prefix-sharing neighbors stay
    on the same worker.

    (The historical ceil-div split could leave workers idle: 9 cells on 8
    workers produced 5 chunks of 2 with 3 workers unemployed; the balanced
    split produces 8 chunks — one of 2, seven of 1.)
    """
    if not schedule:
        return []
    if max_chunks < 1:
        raise ValueError("max_chunks must be a positive integer")
    num_chunks = min(len(schedule), int(max_chunks))
    base, extra = divmod(len(schedule), num_chunks)
    chunks: list[list[T]] = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(list(schedule[start : start + size]))
        start += size
    return chunks


def shared_prefix_depths(
    schedule: Sequence[tuple[int, ExecutionPlan]],
    mac_names_by_model: Mapping[int, Sequence[str]],
) -> list[int]:
    """Fingerprint-agreement depth between consecutive scheduled cells.

    ``depths[i]`` is the number of leading MAC layers on which
    ``schedule[i]`` and ``schedule[i + 1]`` compute bit-identical
    activations (0 when the cells belong to different models).  A cut at a
    zero-depth boundary shares nothing to begin with; a cut at depth ``d``
    re-runs a ``d``-layer prefix once — which is what
    :func:`cost_balanced_chunks` minimizes when placing cuts.
    """
    depths: list[int] = []
    fingerprints = [
        plan.fingerprints(mac_names_by_model[model_index])
        for model_index, plan in schedule
    ]
    for index in range(len(schedule) - 1):
        if schedule[index][0] != schedule[index + 1][0]:
            depths.append(0)
            continue
        left, right = fingerprints[index], fingerprints[index + 1]
        depth = 0
        for a, b in zip(left, right):
            if a != b:
                break
            depth += 1
        depths.append(depth)
    return depths


def cost_balanced_chunks(
    schedule: Sequence[T],
    costs: Sequence[float],
    max_chunks: int,
    split_depths: Sequence[int] | None = None,
) -> list[list[T]]:
    """Split ``schedule`` into contiguous chunks of near-equal predicted cost.

    Exactly ``min(len(schedule), max_chunks)`` non-empty contiguous slices
    covering the schedule in order (the same adjacency contract as
    :func:`contiguous_chunks`), but balanced by the per-cell ``costs``
    instead of cell count: the ``j``-th cut lands where the cumulative
    cost is closest to ``total * j / k``, so a schedule with one expensive
    (LUT-heavy) tail yields one small expensive chunk and larger cheap
    ones, so no worker straggles behind the expensive cells.

    ``split_depths`` (from :func:`shared_prefix_depths`) optionally biases
    each cut toward prefix-divergence boundaries: cutting where
    consecutive cells share a deep fingerprint prefix re-runs that prefix
    once, so such positions pay a penalty proportional to their depth
    (in units of the mean cell cost) when competing for the cut.

    Degenerates to :func:`contiguous_chunks` when the costs carry no
    information (all zero/non-positive total).
    """
    if not schedule:
        return []
    if max_chunks < 1:
        raise ValueError("max_chunks must be a positive integer")
    if len(costs) != len(schedule):
        raise ValueError(
            f"need one cost per cell: {len(costs)} costs for "
            f"{len(schedule)} cells"
        )
    n = len(schedule)
    k = min(n, int(max_chunks))
    total = float(sum(max(0.0, float(cost)) for cost in costs))
    if k <= 1:
        return [list(schedule)]
    if total <= 0.0:
        return contiguous_chunks(schedule, k)
    cumulative = [0.0]
    for cost in costs:
        cumulative.append(cumulative[-1] + max(0.0, float(cost)))
    mean_cost = total / n
    max_depth = max(split_depths, default=0) if split_depths else 0
    cuts = [0]
    for j in range(1, k):
        ideal = total * j / k
        # Leave at least one cell for every chunk still to come.
        lo = cuts[-1] + 1
        hi = n - (k - j)
        best_pos = lo
        best_penalty = float("inf")
        for pos in range(lo, hi + 1):
            penalty = abs(cumulative[pos] - ideal)
            if split_depths and max_depth > 0:
                # Cutting between pos-1 and pos re-runs a shared prefix of
                # this depth once; price that against the balance gain.
                penalty += (split_depths[pos - 1] / max_depth) * mean_cost
            if penalty < best_penalty:
                best_penalty = penalty
                best_pos = pos
        cuts.append(best_pos)
    cuts.append(n)
    return [list(schedule[cuts[i] : cuts[i + 1]]) for i in range(k)]


__all__ = [
    "DEFAULT_PLAN_GROUP_SIZE",
    "model_mac_names",
    "schedule_cells",
    "plan_group_slices",
    "contiguous_chunks",
    "shared_prefix_depths",
    "cost_balanced_chunks",
]
