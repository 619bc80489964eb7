"""Multi-plan path: kernels, compiler, executor, scheduler, service.

The acceptance criterion of the multi-plan walk is *bit-exactness*:
collapsing the outer plan loop into one batched backend launch must never
change a number, at any layer of the stack.  This suite pins that end to
end:

* :class:`~repro.core.product_kernels.MultiPlanKernel` — stacked and
  shared launches equal the per-plan kernels on randomized mixed stacks
  (accurate / perforated ± control variate / LUT / fallback), and a LUT
  block streaming its error terms tap by tap runs on its own;
* ``QuantizedLinearOp.output_real_stacked`` — equals the tiled per-plan
  :meth:`output_real` bit for bit;
* ``NumpyBackend.compile_multi`` — bit-exact with the per-plan kernels
  and reuses precompiled ones;
* ``ApproximateExecutor.forward_many`` — randomized plan families against
  the per-plan reference walk (``use_compiled=False``), with and
  without streaming LUT blocks, duplicate plans, single-plan and
  zero-shared-prefix sets, the bound on stacked launch rows, the
  fused-launch counters, one-block launches for a single plan, and the
  bounded fingerprint-keyed kernel cache;
* :func:`~repro.runtime.scheduling.plan_group_slices` — depth-aware group
  cuts land on divergence-family boundaries;
* the service / ``parallel_sweep`` — the sweep reproduces the committed
  golden accuracy table byte-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import NumpyBackend
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    LUTKernel,
    MultiPlanKernel,
    PerforatedKernel,
    ProductKernel,
)
from repro.multipliers.perforated import PerforatedMultiplier
from repro.multipliers.truncated import TruncatedMultiplier
from repro.quantization.qlayers import QuantizedLinearOp
from repro.quantization.schemes import QuantParams
from repro.runtime.scheduling import (
    model_mac_names,
    plan_group_slices,
    shared_prefix_depths,
)
from repro.simulation import inference
from repro.simulation.campaign import TrainedModel, plan_sweep
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)
from repro.simulation.metrics import accuracy

pytestmark = pytest.mark.engine


def _random_lut(rng, exact: bool = False) -> np.ndarray:
    lut = np.arange(256, dtype=np.int64)[:, None] * np.arange(256, dtype=np.int64)
    if exact:
        return lut
    return lut + rng.integers(-200, 200, size=(256, 256))


def _mixed_kernels(weights: np.ndarray, rng) -> list:
    """One of every fusable kind plus a fallback, against shared weights."""
    cv = ControlVariate.from_weight_matrix(weights)
    from repro.baselines.weight_oriented import WeightOrientedProduct

    fallback_model = WeightOrientedProduct(1, 3, threshold=128)
    return [
        AccurateKernel(weights),
        PerforatedKernel(weights, 2, cv),
        PerforatedKernel(weights, 2, None),
        PerforatedKernel(weights, 3, cv),
        PerforatedKernel(weights, 0, cv),
        LUTKernel(weights, _random_lut(rng, exact=True)),
        LUTKernel(weights, _random_lut(rng)),
        CallbackKernel(fallback_model, weights, cv),
    ]


class TestMultiPlanKernel:
    def test_stacked_and_shared_parity_randomized(self, rng):
        for trial in range(5):
            taps = int(rng.integers(3, 20))
            filters = int(rng.integers(1, 8))
            n = int(rng.integers(1, 12))
            weights = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
            kernels = _mixed_kernels(weights, rng)
            multi = MultiPlanKernel(kernels)
            assert multi.plans == len(kernels)

            shared_act = rng.integers(0, 256, size=(n, taps), dtype=np.uint8)
            expected = np.concatenate(
                [np.asarray(k(shared_act), dtype=np.float64) for k in kernels]
            )
            np.testing.assert_array_equal(
                multi.product_sums_multi(shared_act, shared=True), expected
            )

            stacked_act = rng.integers(
                0, 256, size=(len(kernels) * n, taps), dtype=np.uint8
            )
            expected = np.concatenate(
                [
                    np.asarray(k(stacked_act[p * n : (p + 1) * n]), dtype=np.float64)
                    for p, k in enumerate(kernels)
                ]
            )
            np.testing.assert_array_equal(
                multi.product_sums_multi(stacked_act), expected
            )

    def test_error_matrix_cap_falls_back_per_block_bit_exact(self, rng):
        weights = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
        kernels = [LUTKernel(weights, _random_lut(rng)) for _ in range(3)]
        capped = MultiPlanKernel(kernels, max_error_matrix_bytes=0)
        assert capped._stacked_error is None
        uncapped = MultiPlanKernel(kernels)
        assert uncapped._stacked_error is not None
        act = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        np.testing.assert_array_equal(
            capped.product_sums_multi(act, shared=True),
            uncapped.product_sums_multi(act, shared=True),
        )

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "stacked"])
    def test_streaming_lut_blocks_run_on_their_own_bit_exact(self, rng, shared):
        """A LUT kernel streaming its error terms tap by tap has no error
        matrix to stack: the fused launch evaluates its block through the
        kernel itself, equal to the compiled kernel over the same table."""
        weights = rng.integers(0, 256, size=(7, 3), dtype=np.uint8)
        lut = _random_lut(rng)
        streaming = LUTKernel(weights, lut, max_error_matrix_bytes=0)
        compiled = LUTKernel(weights, lut)
        kernels = [AccurateKernel(weights), streaming, compiled, PerforatedKernel(weights, 2)]
        multi = MultiPlanKernel(kernels)
        assert multi._kinds == ["exact", "fallback", "lut", "perf"]
        n = 6
        rows = n if shared else len(kernels) * n
        act = rng.integers(0, 256, size=(rows, 7), dtype=np.uint8)
        blocks = [act if shared else act[p * n : (p + 1) * n] for p in range(len(kernels))]
        out = multi.product_sums_multi(act, shared=shared)
        np.testing.assert_array_equal(
            out,
            np.concatenate(
                [np.asarray(k(b), dtype=np.float64) for k, b in zip(kernels, blocks)]
            ),
        )
        np.testing.assert_array_equal(
            out[n : 2 * n], np.asarray(compiled(blocks[1]), dtype=np.float64)
        )

    def test_shared_kernel_instances_share_one_error_matrix_slot(self, rng):
        """Suffix layers reuse one kernel object across blocks; the stacked
        error matrix must not duplicate it per block."""
        weights = rng.integers(0, 256, size=(5, 3), dtype=np.uint8)
        kernel = LUTKernel(weights, _random_lut(rng))
        multi = MultiPlanKernel([kernel, kernel, kernel])
        assert multi._stacked_error is not None
        assert multi._stacked_error.shape[0] == kernel._error_matrix.shape[0]
        act = rng.integers(0, 256, size=(7, 5), dtype=np.uint8)
        expected = np.asarray(kernel(act), dtype=np.float64)
        out = multi.product_sums_multi(act, shared=True)
        for p in range(3):
            np.testing.assert_array_equal(out[p * 7 : (p + 1) * 7], expected)

    def test_validation(self, rng):
        weights = rng.integers(0, 256, size=(4, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="at least one"):
            MultiPlanKernel([])
        other = rng.integers(0, 256, size=(5, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="layer shape"):
            MultiPlanKernel([AccurateKernel(weights), AccurateKernel(other)])
        multi = MultiPlanKernel([AccurateKernel(weights), AccurateKernel(weights)])
        with pytest.raises(ValueError, match="equal plan blocks"):
            multi.product_sums_multi(
                rng.integers(0, 256, size=(5, 4), dtype=np.uint8)
            )
        with pytest.raises(ValueError, match="shape"):
            multi.product_sums_multi(
                rng.integers(0, 256, size=(4, 7), dtype=np.uint8), shared=True
            )


class TestOutputRealStacked:
    def _op_and_params(self, rng, taps: int, filters: int):
        weights = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
        op = QuantizedLinearOp(
            weights,
            QuantParams(scale=0.013, zero_point=int(rng.integers(0, 256))),
            bias=rng.normal(size=filters),
        )
        act_params = QuantParams(scale=0.07, zero_point=int(rng.integers(0, 256)))
        return op, act_params

    def test_bit_exact_with_tiled_output_real(self, rng):
        for _ in range(5):
            taps = int(rng.integers(2, 16))
            filters = int(rng.integers(1, 6))
            n = int(rng.integers(1, 10))
            plans = int(rng.integers(1, 5))
            op, act_params = self._op_and_params(rng, taps, filters)
            act = rng.integers(0, 256, size=(n, taps), dtype=np.uint8)
            sums = rng.integers(0, 1 << 20, size=(plans * n, filters)).astype(
                np.float64
            )
            expected = np.concatenate(
                [
                    op.output_real(act, act_params, sums[p * n : (p + 1) * n])
                    for p in range(plans)
                ]
            )
            result = op.output_real_stacked(act, act_params, sums, plans)
            np.testing.assert_array_equal(result, expected)

    def test_does_not_mutate_product_sums(self, rng):
        op, act_params = self._op_and_params(rng, 5, 3)
        act = rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
        sums = rng.integers(0, 1000, size=(8, 3)).astype(np.float64)
        before = sums.copy()
        op.output_real_stacked(act, act_params, sums, 2)
        np.testing.assert_array_equal(sums, before)

    def test_shape_validation(self, rng):
        op, act_params = self._op_and_params(rng, 5, 3)
        act = rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
        with pytest.raises(ValueError, match="product_sums"):
            op.output_real_stacked(
                act, act_params, np.zeros((7, 3), dtype=np.float64), 2
            )


class TestCompileMultiContract:
    def test_compile_multi_matches_per_plan_kernels(self, rng):
        """The fused kernel is bit-exact with the per-plan kernels."""
        weights = rng.integers(0, 256, size=(6, 4), dtype=np.uint8)
        cv = ControlVariate.from_weight_matrix(weights)
        models = [AccurateProduct(), PerforatedProduct(2), PerforatedProduct(2, False)]
        act = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
        backend = NumpyBackend()
        multi = backend.compile_multi(models, weights, cv)
        expected = [backend.compile(model, weights, cv)(act) for model in models]
        np.testing.assert_array_equal(
            multi.product_sums_multi(act, shared=True), np.concatenate(expected)
        )

    def test_numpy_compile_multi_reuses_precompiled_kernels(self, rng):
        weights = rng.integers(0, 256, size=(4, 2), dtype=np.uint8)
        backend = NumpyBackend()
        kernels = [backend.compile(AccurateProduct(), weights, None)]
        multi = backend.compile_multi([AccurateProduct()], weights, None, kernels)
        assert multi.kernels[0] is kernels[0]


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


def _random_plans(trained, count: int, seed: int) -> list[ExecutionPlan]:
    """Randomized per-layer plan set (the shapes a sensitivity screen or a
    DSE batch produces), always including the accurate baseline."""
    rng = np.random.default_rng(seed)
    mac_names = [node.name for node in trained.model.conv_dense_nodes()]
    menu = [
        None,
        PerforatedProduct(1),
        PerforatedProduct(2),
        PerforatedProduct(2, use_control_variate=False),
        PerforatedProduct(3),
    ]
    plans = [ExecutionPlan.uniform(AccurateProduct())]
    while len(plans) < count:
        plan = ExecutionPlan.uniform(AccurateProduct())
        for name in mac_names:
            choice = menu[int(rng.integers(0, len(menu)))]
            if choice is not None:
                plan = plan.with_layer(name, choice)
        plans.append(plan)
    return plans


def _plan_families(trained, seed: int, extra_models=()) -> list[ExecutionPlan]:
    """Plan families forking at the first, a middle and the last MAC layer.

    Each family shares a random prefix and forks at its layer into several
    product models (perforated ± control variate, LUT, and
    ``extra_models``), each followed by a random suffix; the batch repeats
    one plan object and carries an equal but distinct copy of another.
    """
    rng = np.random.default_rng(seed)
    mac_names = model_mac_names(trained)
    menu = [
        AccurateProduct(),
        PerforatedProduct(1),
        PerforatedProduct(2, use_control_variate=False),
        PerforatedProduct(3),
        LUTProduct(PerforatedMultiplier(2)),
        LUTProduct(TruncatedMultiplier(1, 2)),
        *extra_models,
    ]

    def pick():
        return menu[int(rng.integers(0, len(menu)))]

    plans: list[ExecutionPlan] = []
    for fork in (0, len(mac_names) // 2, len(mac_names) - 1):
        prefix = ExecutionPlan.uniform(AccurateProduct())
        for name in mac_names[:fork]:
            prefix = prefix.with_layer(name, pick())
        for model in rng.permutation(len(menu))[:4]:
            plan = prefix.with_layer(mac_names[fork], menu[int(model)])
            for name in mac_names[fork + 1 :]:
                plan = plan.with_layer(name, pick())
            plans.append(plan)
    plans.append(plans[1])
    plans.append(ExecutionPlan(plans[5].default, dict(plans[5].per_layer)))
    return plans


class TestExecutorForwardMany:
    @pytest.fixture(scope="class")
    def executor(self, trained, tiny_dataset):
        return ApproximateExecutor(
            trained.model, tiny_dataset.train_images[:32]
        )

    def test_randomized_parity_with_per_plan_forward(
        self, executor, trained, tiny_dataset
    ):
        images = tiny_dataset.test_images[:12]
        for seed in (3, 17):
            plans = _random_plans(trained, count=5, seed=seed)
            # Duplicate plan objects and a distinct-but-identical plan must
            # share one evaluation line without disturbing output order.
            plans.append(plans[1])
            plans.append(ExecutionPlan(plans[2].default, dict(plans[2].per_layer)))
            fused = executor.forward_many(images, plans)
            assert len(fused) == len(plans)
            for plan, logits in zip(plans, fused):
                np.testing.assert_array_equal(logits, executor.forward(images, plan))

    def test_zero_shared_prefix_plans(self, executor, trained, tiny_dataset):
        """Plans diverging at the very first MAC layer still fuse bit-exactly."""
        images = tiny_dataset.test_images[:8]
        first = model_mac_names(trained)[0]
        base = ExecutionPlan.uniform(AccurateProduct())
        plans = [
            base,
            base.with_layer(first, PerforatedProduct(2)),
            base.with_layer(first, PerforatedProduct(3)),
        ]
        fused = executor.forward_many(images, plans)
        for plan, logits in zip(plans, fused):
            np.testing.assert_array_equal(logits, executor.forward(images, plan))

    def test_single_and_empty_plan_sets(self, executor, tiny_dataset):
        images = tiny_dataset.test_images[:4]
        plan = ExecutionPlan.uniform(PerforatedProduct(2))
        (only,) = executor.forward_many(images, [plan])
        np.testing.assert_array_equal(only, executor.forward(images, plan))
        assert executor.forward_many(images, []) == []

    def test_fused_counters_advance(self, trained, tiny_dataset):
        executor = ApproximateExecutor(
            trained.model, tiny_dataset.train_images[:32]
        )
        assert executor.fused_stats() == {
            "fused_launches": 0,
            "fused_plans_total": 0,
        }
        # A single plan rides one-block launches, which are not fused.
        executor.forward(tiny_dataset.test_images[:6], _random_plans(trained, 2, 5)[1])
        assert executor.fused_stats() == {
            "fused_launches": 0,
            "fused_plans_total": 0,
        }
        plans = _random_plans(trained, count=4, seed=5)
        executor.forward_many(tiny_dataset.test_images[:6], plans)
        stats = executor.fused_stats()
        assert stats["fused_launches"] > 0
        assert stats["fused_plans_total"] >= stats["fused_launches"] * 2

    def test_one_plan_makes_no_per_plan_kernel_calls(
        self, trained, tiny_dataset, monkeypatch
    ):
        """A single plan runs every MAC layer as a one-block fused launch:
        the executor never calls a per-plan kernel directly."""
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained.model, calib)
        menu = [
            PerforatedProduct(2),
            LUTProduct(TruncatedMultiplier(1, 2)),
            AccurateProduct(),
            PerforatedProduct(3, use_control_variate=False),
        ]
        plan = ExecutionPlan.uniform(PerforatedProduct(1))
        for i, name in enumerate(model_mac_names(trained)):
            plan = plan.with_layer(name, menu[i % len(menu)])
        calls: list[int] = []
        call = ProductKernel.__call__

        def spy(kernel, act_codes):
            calls.append(act_codes.shape[0])
            return call(kernel, act_codes)

        monkeypatch.setattr(ProductKernel, "__call__", spy)
        images = tiny_dataset.test_images[:6]
        logits = executor.forward(images, plan)
        assert calls == []
        reference = ApproximateExecutor(trained.model, calib, use_compiled=False)
        np.testing.assert_array_equal(logits, reference.forward(images, plan))

    def test_equal_fingerprints_reuse_compiled_kernels(
        self, trained, tiny_dataset, monkeypatch
    ):
        """A plan rebuilt from fresh product-model instances (as a decoded
        wire plan or an unpickled pool chunk is) compiles nothing new."""
        executor = ApproximateExecutor(trained.model, tiny_dataset.train_images[:32])
        compiled: list[str] = []
        compile_one, compile_multi = NumpyBackend.compile, NumpyBackend.compile_multi

        def spy_one(backend, model, *args, **kwargs):
            compiled.append("block")
            return compile_one(backend, model, *args, **kwargs)

        def spy_multi(backend, models, *args, **kwargs):
            compiled.append("kernel")
            return compile_multi(backend, models, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, "compile", spy_one)
        monkeypatch.setattr(NumpyBackend, "compile_multi", spy_multi)
        last = model_mac_names(trained)[-1]

        def build():
            return ExecutionPlan.uniform(PerforatedProduct(2)).with_layer(
                last, PerforatedProduct(3, use_control_variate=False)
            )

        images = tiny_dataset.test_images[:4]
        first = executor.forward(images, build())
        assert compiled
        compiled.clear()
        np.testing.assert_array_equal(executor.forward(images, build()), first)
        assert compiled == []

    def test_kernel_cache_is_bounded(self, trained, tiny_dataset):
        """More distinct fused combinations than the cap evict the oldest
        kernels instead of growing the cache, and results stay exact."""
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained.model, calib)
        cap = ApproximateExecutor._KERNEL_CACHE_CAP
        menu = [AccurateProduct()] + [
            PerforatedProduct(m, use_control_variate=cv)
            for m in range(1, 8)
            for cv in (True, False)
        ]
        pairs = [(a, b) for i, a in enumerate(menu) for b in menu[i + 1 :]]
        layers = len(model_mac_names(trained))
        count = cap // layers + 2  # every pair fuses each layer: > cap combos
        images = tiny_dataset.test_images[:2]
        for a, b in pairs[:count]:
            plans = [ExecutionPlan.uniform(a), ExecutionPlan.uniform(b)]
            outputs = executor.forward_many(images, plans)
        assert len(executor._kernels) == cap
        reference = ApproximateExecutor(trained.model, calib, use_compiled=False)
        for plan, logits in zip(plans, outputs):
            np.testing.assert_array_equal(logits, reference.forward(images, plan))

    def test_forward_is_forward_many_of_one_plan(self, executor, trained, tiny_dataset):
        images = tiny_dataset.test_images[:6]
        for plan in _random_plans(trained, count=3, seed=41):
            np.testing.assert_array_equal(
                executor.forward(images, plan), executor.forward_many(images, [plan])[0]
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_plan_families_match_reference_walk(
        self, trained, tiny_dataset, seed
    ):
        """Plan families forking at the first, a middle and the last MAC
        layer, with duplicates and LUT blocks, equal the per-plan reference."""
        calib = tiny_dataset.train_images[:32]
        compiled = ApproximateExecutor(trained.model, calib)
        reference = ApproximateExecutor(trained.model, calib, use_compiled=False)
        plans = _plan_families(trained, seed)
        images = tiny_dataset.test_images[:10]
        outputs = compiled.forward_many(images, plans)
        assert len(outputs) == len(plans)
        for plan, logits in zip(plans, outputs):
            np.testing.assert_array_equal(logits, reference.forward(images, plan))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plan_families_with_streaming_luts_match_reference_walk(
        self, trained, tiny_dataset, streaming_lut, seed
    ):
        """The same plan families with LUT blocks that stream their error
        terms tap by tap, next to compiled-LUT blocks over the same tables,
        equal the per-plan reference."""
        calib = tiny_dataset.train_images[:32]
        compiled = ApproximateExecutor(trained.model, calib)
        reference = ApproximateExecutor(trained.model, calib, use_compiled=False)
        streaming = [
            streaming_lut(PerforatedMultiplier(2)),
            streaming_lut(TruncatedMultiplier(1, 2)),
        ]
        plans = _plan_families(trained, seed, extra_models=streaming)
        images = tiny_dataset.test_images[:10]
        outputs = compiled.forward_many(images, plans)
        assert len(outputs) == len(plans)
        for plan, logits in zip(plans, outputs):
            np.testing.assert_array_equal(logits, reference.forward(images, plan))
        assert any(model.compiled for model in streaming)

    def test_stacked_launches_stay_within_row_target(
        self, trained, tiny_dataset, monkeypatch
    ):
        """However many plans a caller sends, no stacked launch carries more
        than ``_STACKED_ROWS_TARGET`` image rows."""
        executor = ApproximateExecutor(trained.model, tiny_dataset.train_images[:32])
        launched: list[int] = []
        run_mac = ApproximateExecutor._run_mac_node

        def spy(self, *args):
            out = run_mac(self, *args)
            launched.append(out.shape[0])
            return out

        monkeypatch.setattr(ApproximateExecutor, "_run_mac_node", spy)
        plans = _random_plans(trained, count=64, seed=7)
        mac_names = model_mac_names(trained)
        lines = {plan.fingerprints(mac_names) for plan in plans}
        assert len(lines) > 16  # more lines than one walk carries
        images = tiny_dataset.test_images[:24]
        outputs = executor.forward_many(images, plans)
        assert launched and max(launched) <= inference._STACKED_ROWS_TARGET
        reference = ApproximateExecutor(
            trained.model, tiny_dataset.train_images[:32], use_compiled=False
        )
        for plan, logits in zip(plans[::8], outputs[::8]):
            np.testing.assert_array_equal(logits, reference.forward(images, plan))


class TestPlanGroupSlices:
    def _schedule(self, count: int, model: int = 0):
        plan = ExecutionPlan.uniform(AccurateProduct())
        return [(model, plan)] * count

    def test_cover_and_cap_without_depths(self):
        schedule = self._schedule(10)
        slices = plan_group_slices(schedule, 4)
        assert slices == [(0, 4), (4, 8), (8, 10)]

    def test_model_change_always_cuts(self):
        schedule = self._schedule(3) + self._schedule(2, model=1)
        assert plan_group_slices(schedule, 8) == [(0, 3), (3, 5)]

    def test_depth_drop_cuts_groups_at_family_boundaries(self):
        # Two families of three plans each: constant agreement depth inside
        # a family (5), a drop (2) at the family boundary.  The blind cap
        # (4) would cut mid-family; the depths align the cut with the drop.
        schedule = self._schedule(6)
        depths = [5, 5, 2, 5, 5]
        assert plan_group_slices(schedule, 4, split_depths=depths) == [
            (0, 3),
            (3, 6),
        ]

    def test_group_cap_still_enforced_with_depths(self):
        schedule = self._schedule(6)
        depths = [5, 5, 5, 5, 5]
        assert plan_group_slices(schedule, 2, split_depths=depths) == [
            (0, 2),
            (2, 4),
            (4, 6),
        ]

    def test_rising_depths_do_not_cut(self):
        # Depth may only rise inside a group (deeper agreement is never a
        # reason to split); only drops below the running minimum cut.
        schedule = self._schedule(4)
        depths = [2, 3, 4]
        assert plan_group_slices(schedule, 8, split_depths=depths) == [(0, 4)]

    def test_depths_validation(self):
        schedule = self._schedule(4)
        with pytest.raises(ValueError, match="boundary"):
            plan_group_slices(schedule, 4, split_depths=[1, 2])
        with pytest.raises(ValueError, match="positive"):
            plan_group_slices(schedule, 0)

    def test_depth_aware_groups_align_with_sensitivity_families(self, trained):
        """A per-layer sensitivity screen on the real model: groups must
        land on the divergence-family boundaries of the sorted schedule."""
        mac_names = model_mac_names(trained)
        plans = [ExecutionPlan.uniform(AccurateProduct())]
        for name in mac_names[2:5]:
            for m in (1, 2, 3):
                for cv in (True, False):
                    plans.append(
                        ExecutionPlan.uniform(AccurateProduct()).with_layer(
                            name, PerforatedProduct(m, use_control_variate=cv)
                        )
                    )
        from repro.runtime.scheduling import schedule_cells

        cells = [(0, plan) for plan in plans]
        names_by_model = {0: mac_names}
        order = schedule_cells(cells, names_by_model)
        schedule = [cells[i] for i in order]
        depths = shared_prefix_depths(schedule, names_by_model)
        slices = plan_group_slices(schedule, 8, split_depths=depths)
        # Slices must cover the schedule contiguously...
        assert slices[0][0] == 0 and slices[-1][1] == len(schedule)
        assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
        # ... and every cut must sit at a boundary whose agreement depth is
        # no deeper than the depths inside the adjacent groups (i.e. cuts
        # happen at divergence-family boundaries, not inside a family).
        for _, stop in slices[:-1]:
            boundary = depths[stop - 1]
            assert boundary <= min(depths[max(0, stop - 2) : stop + 1])


@pytest.mark.runtime
class TestServiceFusedParity:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_plan_sweep_fused_equals_unfused(
        self, trained, tiny_dataset, max_workers
    ):
        """The service's multi-plan sweep equals every plan run alone through
        the per-plan reference walk, at every worker count."""
        plans = _random_plans(trained, count=6, seed=23)
        labeled = [(f"p{i}", plan) for i, plan in enumerate(plans)]
        fused = plan_sweep(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            labeled,
            max_eval_images=16,
            calibration_images=32,
            max_workers=max_workers,
        )
        reference = ApproximateExecutor(
            trained.model, tiny_dataset.train_images[:32], use_compiled=False
        )
        images = tiny_dataset.test_images[:16]
        labels = tiny_dataset.test_labels[:16]
        unfused = [accuracy(reference.predict(images, plan), labels) for plan in plans]
        assert [r.accuracy for r in fused] == unfused
        assert [r.plan_label for r in fused] == [label for label, _ in labeled]

    def test_service_stats_report_fused_launches(self, trained, tiny_dataset):
        from repro.runtime import EvaluationService

        plans = _random_plans(trained, count=5, seed=31)
        with EvaluationService(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_workers=1,
            max_eval_images=16,
            calibration_images=32,
        ) as service:
            service.evaluate_plans(0, plans)
            stats = service.stats()
        engine = stats["engine"]
        assert "fuse_plans" not in engine and "plan_group_size" not in engine
        assert engine["fused_launches"] > 0
        assert engine["plans_per_launch_avg"] > 1.0


@pytest.mark.runtime
class TestGoldenAccuracyParity:
    def test_fused_sweep_reproduces_committed_golden_table(self):
        """The sweep must reproduce the committed golden accuracy table
        byte-exactly — the same invariant ``repro verify-results`` gates,
        pinned here directly."""
        import os

        from repro.provenance.manifest import load_json
        from repro.provenance.workload import (
            CALIBRATION_IMAGES,
            PERFORATIONS,
            _train_workload_model,
        )
        from repro.simulation.campaign import parallel_sweep

        golden_path = os.path.join("results", "golden", "accuracy_table.json")
        if not os.path.exists(golden_path):
            pytest.skip("no committed golden accuracy table")
        golden = load_json(golden_path)
        trained, dataset = _train_workload_model()
        sweep = parallel_sweep(
            [trained],
            {dataset.name: dataset},
            perforations=PERFORATIONS,
            calibration_images=CALIBRATION_IMAGES,
            max_workers=1,
        )
        rows = [
            {
                "m": record.m,
                "with_control_variate": record.with_control_variate,
                "accuracy": record.approximate_accuracy,
                "accuracy_loss": record.accuracy_loss,
            }
            for record in sweep.records
        ]
        assert sweep.baselines[(trained.name, dataset.name)] == golden["baseline_accuracy"]
        assert rows == golden["rows"]
