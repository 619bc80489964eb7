"""Shared layer prefixes of the multi-plan walk: fingerprints, bit-exactness.

The central property pinned here: evaluating a plan batch through
:meth:`ApproximateExecutor.forward_many`, which runs every layer prefix
shared by several plans once, is **bit-identical** to running each plan
alone through the per-plan reference walk (``use_compiled=False``) — for
randomized plan sets that diverge at varying depths, including plans that
already differ at the first MAC layer (zero-length shared prefix).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.perforated import PerforatedMultiplier
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)


@pytest.fixture()
def executor(trained_tiny_model, tiny_dataset):
    """A private compiled executor."""
    return ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:64])


@pytest.fixture(scope="module")
def reference_executor(trained_tiny_model, tiny_dataset):
    """The per-plan reference walk."""
    return ApproximateExecutor(
        trained_tiny_model, tiny_dataset.train_images[:64], use_compiled=False
    )


def _exact_prefix_plan(mac_names: list[str], depth: int, model) -> ExecutionPlan:
    """Exact through ``depth`` MAC layers, ``model`` everywhere after."""
    plan = ExecutionPlan.uniform(AccurateProduct())
    for name in mac_names[depth:]:
        plan = plan.with_layer(name, model)
    return plan


class TestFingerprints:
    def test_accurate_and_m0_share_fingerprint(self):
        assert AccurateProduct().fingerprint() == ("accurate",)
        assert PerforatedProduct(0, True).fingerprint() == ("accurate",)
        assert PerforatedProduct(0, False).fingerprint() == ("accurate",)

    def test_perforated_structural_equality(self):
        assert PerforatedProduct(2, True).fingerprint() == PerforatedProduct(2, True).fingerprint()
        assert PerforatedProduct(2, True).fingerprint() != PerforatedProduct(2, False).fingerprint()
        assert PerforatedProduct(2, True).fingerprint() != PerforatedProduct(3, True).fingerprint()

    def test_lut_fingerprint_keyed_by_table(self):
        a = LUTProduct(PerforatedMultiplier(2))
        b = LUTProduct(PerforatedMultiplier(2))
        c = LUTProduct(PerforatedMultiplier(3))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != LUTProduct(AccurateMultiplier()).fingerprint()

    def test_plan_fingerprints(self):
        plan = ExecutionPlan.uniform(AccurateProduct()).with_layer(
            "conv2", PerforatedProduct(1)
        )
        fps = plan.fingerprints(["conv1", "conv2"])
        assert fps == (("accurate",), ("perforated", 1, True))


class TestPrefixBitExactness:
    @pytest.mark.parametrize("trial", range(3))
    def test_randomized_plans_bit_identical_to_fresh_executors(
        self, trial, executor, reference_executor, tiny_dataset
    ):
        """Property test: multi-plan walk == per-plan reference execution.

        Plans diverge at randomized depths — always including one that
        diverges at the first MAC layer (zero-length shared prefix) — and
        the batch is evaluated over two image batches in two shuffled
        orders, so results cannot depend on plan or call order.
        """
        trial_rng = np.random.default_rng(1000 + trial)
        names = executor.mac_layer_names()
        models = [
            PerforatedProduct(int(trial_rng.integers(1, 4)), bool(trial_rng.integers(2))),
            PerforatedProduct(int(trial_rng.integers(1, 4)), bool(trial_rng.integers(2))),
            LUTProduct(PerforatedMultiplier(2)),
        ]
        depths = sorted(
            int(d) for d in trial_rng.integers(0, len(names) + 1, size=4)
        )
        depths[0] = 0  # force a zero-length-prefix plan into every set
        plans = [
            _exact_prefix_plan(names, depth, models[i % len(models)])
            for i, depth in enumerate(depths)
        ]
        plans.append(ExecutionPlan.uniform(AccurateProduct()))

        batches = [tiny_dataset.test_images[:12], tiny_dataset.test_images[12:24]]
        for _ in range(2):
            order = list(range(len(plans)))
            trial_rng.shuffle(order)
            for batch in batches:
                outputs = executor.forward_many(batch, [plans[i] for i in order])
                for plan_index, logits in zip(order, outputs):
                    np.testing.assert_array_equal(
                        logits, reference_executor.forward(batch, plans[plan_index])
                    )

    def test_plan_outside_context_is_correct(
        self, executor, reference_executor, tiny_dataset
    ):
        """Nothing outlives a call: a plan evaluated after an unrelated plan
        batch on the same images still runs bit-exact."""
        names = executor.mac_layer_names()
        perf = PerforatedProduct(1)
        batch = tiny_dataset.test_images[:8]
        executor.forward_many(
            batch, [_exact_prefix_plan(names, 2, perf), _exact_prefix_plan(names, 4, perf)]
        )
        outsider = _exact_prefix_plan(names, 3, PerforatedProduct(3, False))
        np.testing.assert_array_equal(
            executor.forward(batch, outsider),
            reference_executor.forward(batch, outsider),
        )


class TestActBufferReshaping:
    def test_batch_size_change_between_calls_is_bit_exact(
        self, trained_tiny_model, tiny_dataset
    ):
        """Regression: per-(layer, group) activation buffers persist across
        forward calls; growing, shrinking and re-growing the batch must
        reallocate / slice correctly, never write into a stale shape."""
        executor = ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:64])
        plan = ExecutionPlan.uniform(PerforatedProduct(2))
        images = tiny_dataset.test_images
        for size in (16, 4, 16, 7, 20, 1):
            batch = images[:size]
            # fresh executor per size: an oracle whose buffers never churned
            fresh = ApproximateExecutor(
                trained_tiny_model, tiny_dataset.train_images[:64]
            )
            np.testing.assert_array_equal(
                executor.forward(batch, plan), fresh.forward(batch, plan)
            )

    def test_buffers_grow_but_never_shrink_mid_sequence(
        self, trained_tiny_model, tiny_dataset
    ):
        executor = ApproximateExecutor(trained_tiny_model, tiny_dataset.train_images[:64])
        plan = ExecutionPlan.uniform(AccurateProduct())
        executor.forward(tiny_dataset.test_images[:10], plan)
        shapes_after_10 = {k: b.shape for k, b in executor._act_buffers.items()}
        executor.forward(tiny_dataset.test_images[:3], plan)
        # smaller batch reuses a slice — no reallocation
        assert {k: b.shape for k, b in executor._act_buffers.items()} == shapes_after_10
        executor.forward(tiny_dataset.test_images[:14], plan)
        for key, buffer in executor._act_buffers.items():
            assert buffer.shape[0] >= shapes_after_10[key][0]
