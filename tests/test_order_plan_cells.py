"""Edge-case tests of the prefix-aware cell scheduler `schedule_cells`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.runtime.scheduling import model_mac_names, schedule_cells
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
