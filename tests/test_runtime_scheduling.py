"""Unit tests of the cost-model-driven scheduler (:mod:`repro.runtime`).

Fast, model-free tests of the runtime's scheduling layer — the properties
the service's bit-exactness and load balance rest on:

* :func:`~repro.runtime.scheduling.contiguous_chunks` is count-balanced:
  exactly ``min(n, max_chunks)`` chunks whose sizes differ by at most one
  (the historical ceil-div split idled workers: 9 cells on 8 workers made
  5 chunks);
* :func:`~repro.runtime.scheduling.cost_balanced_chunks` partitions by
  predicted cost, isolates stragglers, never reorders or drops a cell,
  and biases cuts toward prefix-divergence boundaries;
* :class:`~repro.runtime.cost_model.CellCostModel` prices LUT-mapped
  layers far above perforated ones;
* :mod:`~repro.runtime.sizing` resolves requested worker counts against
  the schedulable CPUs (degrade-to-serial clamp) and pins a pool worker's
  BLAS threads through the library's setter, doing nothing without one.

These run in milliseconds (no trained models, no pools) and are wired
into ``make runtime-smoke`` via the ``scheduler-unit`` target.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime.cost_model import (
    DEFAULT_TECHNIQUE_COST,
    CellCostModel,
    fingerprint_kind,
)
from repro.runtime.scheduling import (
    contiguous_chunks,
    cost_balanced_chunks,
    shared_prefix_depths,
)
from repro.runtime import sizing
from repro.runtime.sizing import (
    POOL_WORKER_BLAS_THREADS,
    auto_worker_count,
    blas_thread_count,
    effective_cpu_count,
    pin_pool_worker_blas_threads,
    resolve_worker_count,
)
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    PerforatedProduct,
    ProductModel,
)

pytestmark = pytest.mark.runtime


class FakeLUT(ProductModel):
    """Stand-in with a LUT-shaped fingerprint (never evaluated here)."""

    def __init__(self, digest: str = "t"):
        self._digest = digest

    def product_sums(self, act_codes, weight_codes, control_variate):
        raise NotImplementedError("scheduling tests never evaluate")

    def fingerprint(self) -> tuple:
        return ("lut", self._digest)


NAMES = ("conv1", "conv2", "conv3")


def _plan(*products) -> ExecutionPlan:
    """Plan assigning ``products[i]`` to ``NAMES[i]`` (None = accurate)."""
    plan = ExecutionPlan.uniform(AccurateProduct())
    for name, product in zip(NAMES, products):
        if product is not None:
            plan = plan.with_layer(name, product)
    return plan


class TestContiguousChunks:
    def test_nine_cells_eight_workers_employ_every_worker(self):
        # The historical ceil-div split produced 5 chunks of 2 here,
        # leaving 3 of 8 workers idle for the whole batch.
        chunks = contiguous_chunks(list(range(9)), 8)
        assert len(chunks) == 8
        sizes = sorted(len(chunk) for chunk in chunks)
        assert sizes == [1, 1, 1, 1, 1, 1, 1, 2]

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16, 17, 31])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 40])
    def test_balanced_cover_in_order(self, n, k):
        schedule = list(range(n))
        chunks = contiguous_chunks(schedule, k)
        assert len(chunks) == min(n, k)
        assert all(chunk for chunk in chunks)
        assert [x for chunk in chunks for x in chunk] == schedule
        sizes = {len(chunk) for chunk in chunks}
        assert max(sizes) - min(sizes) <= 1

    def test_empty_and_invalid(self):
        assert contiguous_chunks([], 4) == []
        with pytest.raises(ValueError, match="positive integer"):
            contiguous_chunks([1], 0)


class TestSharedPrefixDepths:
    def test_identical_plans_share_full_depth(self):
        plan = _plan(PerforatedProduct(2), PerforatedProduct(2), None)
        schedule = [(0, plan), (0, plan)]
        assert shared_prefix_depths(schedule, {0: NAMES}) == [len(NAMES)]

    def test_divergence_depth_counts_leading_agreement(self):
        base = _plan(PerforatedProduct(2), PerforatedProduct(2), None)
        tail_diff = _plan(PerforatedProduct(2), PerforatedProduct(2), FakeLUT())
        head_diff = _plan(PerforatedProduct(3), PerforatedProduct(2), None)
        schedule = [(0, base), (0, tail_diff), (0, head_diff)]
        assert shared_prefix_depths(schedule, {0: NAMES}) == [2, 0]

    def test_model_boundary_is_zero_depth(self):
        plan = _plan(PerforatedProduct(2), None, None)
        schedule = [(0, plan), (1, plan)]
        assert shared_prefix_depths(schedule, {0: NAMES, 1: NAMES}) == [0]


class TestCostBalancedChunks:
    @pytest.mark.parametrize("k", [1, 2, 3, 6, 10])
    def test_exact_cover_in_order(self, k):
        schedule = list("abcdef")
        costs = [1.0, 5.0, 1.0, 1.0, 9.0, 1.0]
        chunks = cost_balanced_chunks(schedule, costs, k)
        assert len(chunks) == min(len(schedule), k)
        assert all(chunk for chunk in chunks)
        assert [x for chunk in chunks for x in chunk] == schedule

    def test_uniform_costs_match_count_balance(self):
        schedule = list(range(10))
        chunks = cost_balanced_chunks(schedule, [1.0] * 10, 4)
        sizes = {len(chunk) for chunk in chunks}
        assert max(sizes) - min(sizes) <= 1

    def test_straggler_isolated_in_small_chunk(self):
        # One LUT-heavy cell worth 40 cheap ones: it must get its own
        # chunk, so the remaining workers share the cheap cells instead
        # of one worker dragging the straggler plus extra load.
        costs = [1.0, 1.0, 1.0, 1.0, 1.0, 40.0]
        chunks = cost_balanced_chunks(list("abcdef"), costs, 4)
        assert ["f"] in chunks

    def test_zero_costs_degenerate_to_count_balance(self):
        schedule = list(range(9))
        assert cost_balanced_chunks(schedule, [0.0] * 9, 8) == contiguous_chunks(
            schedule, 8
        )

    def test_split_depth_bias_moves_cut_to_divergence_boundary(self):
        # Balanced-cost cuts at position 1 and 2 tie (|1-2| = 1 each after
        # the depth penalty); the depth bias makes the zero-depth boundary
        # at position 1 win over the deep-prefix boundary at position 2.
        chunks = cost_balanced_chunks(
            list("abcd"), [1.0] * 4, 2, split_depths=[0, 3, 3]
        )
        assert chunks == [["a"], ["b", "c", "d"]]

    def test_validation(self):
        with pytest.raises(ValueError, match="one cost per cell"):
            cost_balanced_chunks([1, 2], [1.0], 2)
        with pytest.raises(ValueError, match="positive integer"):
            cost_balanced_chunks([1], [1.0], 0)
        assert cost_balanced_chunks([], [], 3) == []


class TestCellCostModel:
    def _model(self) -> CellCostModel:
        return CellCostModel({0: {name: 100.0 for name in NAMES}})

    def test_lut_priced_far_above_perforated(self):
        model = self._model()
        lut = model.group_cost(0, [_plan(FakeLUT(), FakeLUT(), FakeLUT())], NAMES)
        perf = model.group_cost(
            0, [_plan(PerforatedProduct(2), PerforatedProduct(2), PerforatedProduct(2))], NAMES
        )
        accurate = model.group_cost(0, [_plan(None, None, None)], NAMES)
        assert lut / perf == pytest.approx(
            DEFAULT_TECHNIQUE_COST["lut"] / DEFAULT_TECHNIQUE_COST["perforated"]
        )
        assert lut / accurate == pytest.approx(DEFAULT_TECHNIQUE_COST["lut"])
        assert lut > 30 * perf  # the bench-calibrated ~40x gap

    def test_fingerprint_kind_tokens(self):
        assert fingerprint_kind(("accurate",)) == "accurate"
        assert fingerprint_kind(("perforated", 2, True)) == "perforated"
        assert fingerprint_kind(("lut", "abc")) == "lut"
        assert fingerprint_kind((object(),)) == "unknown"

    def test_unknown_model_and_layers_degrade_to_unit_work(self):
        model = CellCostModel({})
        cost = model.group_cost(7, [_plan(None, None, None)], NAMES)
        assert cost == pytest.approx(len(NAMES))  # 1.0 work x 1.0 factor


class TestSizing:
    def test_effective_cpu_count_matches_affinity(self):
        assert effective_cpu_count() == max(1, len(os.sched_getaffinity(0)))

    def test_auto_worker_count_within_bounds(self):
        assert 1 <= auto_worker_count() <= effective_cpu_count()

    def test_explicit_request_clamped_to_schedulable_cpus(self):
        cpus = effective_cpu_count()
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(cpus) == cpus
        assert resolve_worker_count(cpus + 7) == cpus  # degrade, don't contend

    def test_none_means_auto(self):
        assert resolve_worker_count(None) == auto_worker_count()

    def test_num_cells_caps_workers(self):
        assert resolve_worker_count(effective_cpu_count(), num_cells=1) == 1

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_worker_count(0)

    def test_pin_calls_the_setter_and_the_count_reads_the_getter(self, monkeypatch):
        threads = [4]
        monkeypatch.setattr(
            sizing,
            "_openblas_thread_calls",
            lambda: (lambda count: threads.append(count), lambda: threads[-1]),
        )
        assert blas_thread_count() == 4
        pin_pool_worker_blas_threads()
        assert threads == [4, POOL_WORKER_BLAS_THREADS]
        assert blas_thread_count() == 1

    def test_blas_helpers_do_nothing_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(sizing, "_openblas_thread_calls", lambda: None)
        pin_pool_worker_blas_threads()  # no library to pin: a no-op
        assert blas_thread_count() is None
