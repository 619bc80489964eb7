"""Unit tests of the runtime's scheduler and sizing (:mod:`repro.runtime`).

Fast tests of the runtime's scheduling layer — the properties the
service's bit-exactness and load balance rest on:

* :func:`~repro.runtime.scheduling.schedule_cells` orders cells by model,
  keeps prefix-sharing plans adjacent and behaviorally identical plans in
  submission order, including the edge cases (no cells, one cell, one
  plan on several models);
* :func:`~repro.runtime.scheduling.contiguous_chunks` is count-balanced:
  exactly ``min(n, max_chunks)`` chunks whose sizes differ by at most one
  (the historical ceil-div split idled workers: 9 cells on 8 workers made
  5 chunks);
* :func:`~repro.runtime.scheduling.cost_balanced_chunks` partitions by
  predicted cost, isolates stragglers, never reorders or drops a cell,
  and biases cuts toward prefix-divergence boundaries;
* :func:`~repro.runtime.worker.image_range` gives every pool worker a
  contiguous share of the images, covering them exactly;
* :mod:`~repro.runtime.sizing` resolves requested worker counts against
  the schedulable CPUs (degrade-to-serial clamp), gives each process its
  core share of image-shard threads, and pins a process's BLAS threads
  through the library's setter, doing nothing without one.

These run in about a second (untrained toy models, no pools) and are
wired into ``make runtime-smoke`` via the ``scheduler-unit`` target.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.runtime.scheduling import (
    contiguous_chunks,
    cost_balanced_chunks,
    model_mac_names,
    schedule_cells,
    shared_prefix_depths,
)
from repro.runtime import sizing
from repro.runtime.sizing import (
    EVAL_BLAS_THREADS,
    blas_thread_count,
    effective_cpu_count,
    eval_thread_count,
    pin_blas_threads,
    resolve_worker_count,
)
from repro.runtime.worker import image_range
from repro.simulation.campaign import TrainedModel, plan_sweep
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


def _trained(name: str = "vgg13", seed: int = 0) -> TrainedModel:
    model = build_model(
        "vgg13", num_classes=4, base_width=8, rng=np.random.default_rng(seed)
    )
    return TrainedModel(
        name=name, dataset_name="synthetic-cifar4", model=model, float_accuracy=0.0
    )


@pytest.fixture(scope="module")
def one_model():
    return [_trained()]


@pytest.fixture(scope="module")
def two_models():
    return [_trained("vgg13-a", seed=0), _trained("vgg13-b", seed=1)]


def _schedule(models, cells):
    """``schedule_cells`` over ``(model_index, plan)`` cells of ``models``."""
    names = {index: model_mac_names(trained) for index, trained in enumerate(models)}
    return schedule_cells(cells, names)


def _prefix_plans(model, depths, ms):
    """Per-layer plans: exact through ``depth`` layers, perforated after."""
    mac_names = [n.name for n in model.conv_dense_nodes()]
    plans = [("baseline", ExecutionPlan.uniform(AccurateProduct()))]
    for depth in depths:
        for m in ms:
            plan = ExecutionPlan.uniform(AccurateProduct())
            for name in mac_names[depth:]:
                plan = plan.with_layer(name, PerforatedProduct(m))
            plans.append((f"exact{depth}_m{m}", plan))
    return plans


class TestScheduleCellsEdgeCases:
    def test_empty_plan_set_yields_empty_schedule(self, one_model):
        assert _schedule(one_model, []) == []

    def test_plan_sweep_rejects_empty_plan_set(self, one_model):
        with pytest.raises(ValueError):
            plan_sweep(one_model, {}, [])

    def test_single_plan_single_cell(self, one_model):
        assert _schedule(one_model, [(0, ExecutionPlan.uniform(PerforatedProduct(2)))]) == [0]

    def test_single_plan_multiple_models(self, two_models):
        plan = ExecutionPlan.uniform(AccurateProduct())
        assert _schedule(two_models, [(0, plan), (1, plan)]) == [0, 1]
        assert _schedule(two_models, [(1, plan), (0, plan)]) == [1, 0]

    def test_identical_fingerprints_preserve_input_order(self, one_model):
        # Four behaviorally identical plans (accurate == perforated m=0):
        # equal sort keys must keep the stable input order.
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(0)),
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(0, use_control_variate=False)),
        ]
        assert _schedule(one_model, [(0, plan) for plan in plans]) == [0, 1, 2, 3]

    def test_schedule_is_deterministic(self, two_models):
        plans = _prefix_plans(two_models[0].model, depths=(3, 5), ms=(1, 2))
        cells = [(index, plan) for _, plan in plans for index in (1, 0)]
        assert _schedule(two_models, cells) == _schedule(two_models, cells)

    def test_cells_grouped_by_model(self, two_models):
        plans = _prefix_plans(two_models[0].model, depths=(3, 5), ms=(1, 2))
        # Submitted plan-major, interleaving the two models.
        cells = [(index, plan) for _, plan in plans for index in (1, 0)]
        order = _schedule(two_models, cells)
        model_sequence = [cells[position][0] for position in order]
        # One contiguous block per model, in model order.
        assert model_sequence == sorted(model_sequence)
        assert sorted(order) == list(range(len(plans) * len(two_models)))

    def test_prefix_sharing_plans_adjacent(self, one_model):
        plans = _prefix_plans(one_model[0].model, depths=(3, 5), ms=(1, 2))
        order = _schedule(one_model, [(0, plan) for _, plan in plans])
        mac_names = [n.name for n in one_model[0].model.conv_dense_nodes()]
        ordered_fps = [plans[index][1].fingerprints(mac_names) for index in order]
        # Within the schedule, plans sharing the deeper exact prefix must be
        # contiguous: the common-prefix length of neighbors never recovers
        # after dropping (a zig-zag would split a shared prefix apart).
        def lcp(a, b):
            n = 0
            while n < len(a) and a[n] == b[n]:
                n += 1
            return n

        neighbor_lcp = [
            lcp(ordered_fps[i], ordered_fps[i + 1])
            for i in range(len(ordered_fps) - 1)
        ]
        for fps in set(map(tuple, ordered_fps)):
            positions = [i for i, fp in enumerate(ordered_fps) if fp == fps]
            assert positions == list(range(positions[0], positions[-1] + 1))
        assert max(neighbor_lcp) >= 3  # the depth-3 prefix is exploited


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


class TestImageRange:
    @pytest.mark.parametrize("images", [0, 1, 2, 3, 7, 24, 360])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_shares_cover_the_images_in_order(self, images, workers):
        ranges = [image_range(images, worker, workers) for worker in range(workers)]
        assert ranges[0][0] == 0 and ranges[-1][1] == images
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1
        # A share is empty only when there are fewer images than workers.
        assert (min(sizes) == 0) == (images < workers)


class TestSizing:
    def test_effective_cpu_count_matches_affinity(self):
        assert effective_cpu_count() == max(1, len(os.sched_getaffinity(0)))

    def test_explicit_request_clamped_to_schedulable_cpus(self):
        cpus = effective_cpu_count()
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(cpus) == cpus
        assert resolve_worker_count(cpus + 7) == cpus  # degrade, don't contend

    def test_num_cells_caps_workers(self):
        assert resolve_worker_count(effective_cpu_count(), num_cells=1) == 1

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_worker_count(0)
        with pytest.raises(TypeError):  # a count is an explicit integer
            resolve_worker_count(None)

    def test_pin_calls_the_setter_and_the_count_reads_the_getter(self, monkeypatch):
        threads = [4]
        monkeypatch.setattr(
            sizing,
            "_openblas_thread_calls",
            lambda: (lambda count: threads.append(count), lambda: threads[-1]),
        )
        assert blas_thread_count() == 4
        pin_blas_threads()
        assert threads == [4, EVAL_BLAS_THREADS]
        assert blas_thread_count() == 1

    def test_blas_helpers_do_nothing_without_a_setter(self, monkeypatch):
        monkeypatch.setattr(sizing, "_openblas_thread_calls", lambda: None)
        pin_blas_threads()  # no library to pin: a no-op
        assert blas_thread_count() is None

    def test_blas_config_is_the_library_string_or_none(self, monkeypatch):
        """The configuration string the calibration records are keyed on;
        ``None`` without an OpenBLAS or without its config symbol."""
        from types import SimpleNamespace

        config = sizing.blas_config()
        if sizing._openblas() is not None:
            assert config.startswith("OpenBLAS ")
        monkeypatch.setattr(sizing, "_openblas", lambda: None)
        assert sizing.blas_config() is None
        monkeypatch.setattr(sizing, "_openblas", lambda: (SimpleNamespace(), "openblas_", ""))
        assert sizing.blas_config() is None

    def test_eval_threads_are_the_core_share(self, monkeypatch):
        monkeypatch.setattr(sizing, "effective_cpu_count", lambda: 8)
        assert eval_thread_count() == 8  # outside a pool: every CPU
        assert eval_thread_count(2) == 4
        assert eval_thread_count(3) == 2
        assert eval_thread_count(16) == 1  # never below one thread

    def test_join_pool_records_the_share_and_pins_blas(self, monkeypatch):
        threads = []
        monkeypatch.setattr(sizing, "effective_cpu_count", lambda: 8)
        monkeypatch.setattr(
            sizing, "_openblas_thread_calls", lambda: (threads.append, lambda: 1)
        )
        monkeypatch.setattr(sizing, "_pool_size", 1)
        sizing.join_pool(4)
        assert eval_thread_count() == 2
        assert threads == [EVAL_BLAS_THREADS]
