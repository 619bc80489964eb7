"""Edge-case tests of the prefix-aware sweep scheduler `order_plan_cells`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.runtime.scheduling import order_plan_cells
from repro.simulation.campaign import TrainedModel, plan_sweep
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    PerforatedProduct,
)


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


class TestOrderPlanCellsEdgeCases:
    def test_empty_plan_set_yields_empty_schedule(self, one_model):
        assert order_plan_cells(one_model, []) == []

    def test_plan_sweep_rejects_empty_plan_set(self, one_model):
        with pytest.raises(ValueError):
            plan_sweep(one_model, {}, [])

    def test_single_plan_single_cell(self, one_model):
        plans = [("only", ExecutionPlan.uniform(PerforatedProduct(2)))]
        assert order_plan_cells(one_model, plans) == [(0, 0)]

    def test_single_plan_multiple_models(self, two_models):
        plans = [("only", ExecutionPlan.uniform(AccurateProduct()))]
        assert order_plan_cells(two_models, plans) == [(0, 0), (1, 0)]

    def test_identical_fingerprints_preserve_input_order(self, one_model):
        # Four behaviorally identical plans (accurate == perforated m=0):
        # equal sort keys must keep the stable input order.
        plans = [
            ("a", ExecutionPlan.uniform(AccurateProduct())),
            ("b", ExecutionPlan.uniform(PerforatedProduct(0))),
            ("c", ExecutionPlan.uniform(AccurateProduct())),
            ("d", ExecutionPlan.uniform(PerforatedProduct(0, use_control_variate=False))),
        ]
        assert order_plan_cells(one_model, plans) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_schedule_is_deterministic(self, two_models):
        plans = _prefix_plans(two_models[0].model, depths=(3, 5), ms=(1, 2))
        first = order_plan_cells(two_models, plans)
        assert first == order_plan_cells(two_models, plans)

    def test_cells_grouped_by_model(self, two_models):
        plans = _prefix_plans(two_models[0].model, depths=(3, 5), ms=(1, 2))
        cells = order_plan_cells(two_models, plans)
        model_sequence = [model_index for model_index, _ in cells]
        # One contiguous block per model, in model order.
        assert model_sequence == sorted(model_sequence)
        assert len(cells) == len(plans) * len(two_models)
        assert sorted(cells) == [
            (mi, pi) for mi in range(2) for pi in range(len(plans))
        ]

    def test_prefix_sharing_plans_adjacent(self, one_model):
        plans = _prefix_plans(one_model[0].model, depths=(3, 5), ms=(1, 2))
        cells = order_plan_cells(one_model, plans)
        mac_names = [n.name for n in one_model[0].model.conv_dense_nodes()]
        ordered_fps = [
            plans[plan_index][1].fingerprints(mac_names) for _, plan_index in cells
        ]
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


class TestContiguousChunkingStability:
    """Pin the worker-chunking contract of the contiguous plan_sweep path."""

    @staticmethod
    def _chunks(cells, max_workers):
        chunksize = -(-len(cells) // max_workers)  # ceil-div, as in _run_sweep
        return [cells[i : i + chunksize] for i in range(0, len(cells), chunksize)]

    def test_chunks_are_contiguous_schedule_slices(self, two_models):
        plans = _prefix_plans(two_models[0].model, depths=(3, 5), ms=(1, 2))
        cells = order_plan_cells(two_models, plans)
        for workers in (1, 2, 3, 4, len(cells), len(cells) + 5):
            chunks = self._chunks(cells, workers)
            assert sum(chunks, []) == cells  # exact cover, original order
            assert len(chunks) <= workers
            sizes = {len(c) for c in chunks[:-1]}
            assert len(sizes) <= 1  # equal-size leading chunks

    def test_chunking_never_splits_a_model_with_aligned_workers(self, two_models):
        plans = _prefix_plans(two_models[0].model, depths=(3, 5), ms=(1, 2))
        cells = order_plan_cells(two_models, plans)
        chunks = self._chunks(cells, max_workers=2)
        assert len(chunks) == 2
        assert {mi for mi, _ in chunks[0]} == {0}
        assert {mi for mi, _ in chunks[1]} == {1}
