"""Parity suite: compiled product kernels vs. the legacy product-sum paths.

Every kernel produced by ``ProductModel.compile`` — directly and through
:class:`~repro.core.backends.NumpyBackend`, the executor's one compile
path — must be *bit-exact* against the corresponding stateless function in
:mod:`repro.core.approx_conv`; this is what allows the executor to run the
compiled engine by default while keeping the legacy path as the reference.
Run standalone with ``pytest -m engine``.
"""

import numpy as np
import pytest

from repro.core.approx_conv import (
    accurate_product_sums,
    lut_product_sums,
    perforated_product_sums,
)
from repro.core.backends import NumpyBackend
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    LUTKernel,
    PerforatedKernel,
)
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.lut import LUTMultiplier
from repro.multipliers.perforated import PerforatedMultiplier
from repro.multipliers.truncated import TruncatedMultiplier
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine


@pytest.fixture
def backend():
    """The compiler every executor kernel goes through."""
    return NumpyBackend()


@pytest.fixture
def operands(rng):
    acts = rng.integers(0, 256, size=(37, 18), dtype=np.uint8)
    weights = rng.integers(0, 256, size=(18, 7), dtype=np.uint8)
    return acts, weights


def random_lut(rng):
    """A structureless multiplier table (worst case for the compiled path)."""
    exact = np.arange(256, dtype=np.int64)[:, None] * np.arange(256, dtype=np.int64)
    noise = rng.integers(-500, 500, size=(256, 256))
    return exact + noise


class TestKernelParity:
    def test_accurate_kernel_bit_exact(self, operands):
        acts, weights = operands
        kernel = AccurateKernel(weights)
        expected = accurate_product_sums(acts, weights)
        result = kernel(acts)
        assert result.dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7])
    def test_perforated_kernel_bit_exact(self, operands, m):
        acts, weights = operands
        kernel = PerforatedKernel(weights, m)
        expected = perforated_product_sums(acts, weights, m)
        np.testing.assert_array_equal(kernel(acts), expected)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("quantized", [True, False])
    def test_perforated_cv_kernel_bit_exact(self, operands, m, quantized):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights, quantize=quantized)
        kernel = PerforatedKernel(weights, m, cv)
        expected = perforated_product_sums(acts, weights, m, cv)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)

    def test_lut_kernel_bit_exact_random_table(self, operands, rng):
        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        expected = lut_product_sums(acts, weights, lut)
        np.testing.assert_array_equal(kernel(acts), expected)

    def test_lut_kernel_bit_exact_structured_tables(self, operands):
        acts, weights = operands
        for multiplier in (PerforatedMultiplier(2), TruncatedMultiplier(2, 3)):
            lut = multiplier.build_lut()
            kernel = LUTKernel(weights, lut)
            expected = lut_product_sums(acts, weights, lut)
            np.testing.assert_array_equal(kernel(acts), expected)

    def test_accurate_lut_compiles_to_exact_matmul(self, operands):
        """AccurateMultiplier's LUT has zero error: pure matmul, no error term."""
        acts, weights = operands
        kernel = LUTKernel(weights, AccurateMultiplier().build_lut())
        assert kernel.is_exact
        np.testing.assert_array_equal(kernel(acts), accurate_product_sums(acts, weights))

    def test_lut_kernel_lowmem_mode_bit_exact(self, operands, rng):
        """The low-memory fallback (error matrix over budget) stays bit-exact."""
        acts, weights = operands
        lut = random_lut(rng)
        lowmem = LUTKernel(weights, lut, max_error_matrix_bytes=0)
        assert lowmem._error_matrix is None and not lowmem.is_exact
        np.testing.assert_array_equal(lowmem(acts), lut_product_sums(acts, weights, lut))

    def test_lut_kernel_imports_scipy_on_first_use(self, operands, rng, monkeypatch):
        """scipy is not imported with the module: the first LUT error sum
        imports it and then takes the sparse one-hot product."""
        import scipy.sparse

        import repro.core.product_kernels as pk

        monkeypatch.setattr(pk, "_sparse", pk._NOT_IMPORTED)
        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))
        assert pk._sparse is scipy.sparse

    def test_lut_kernel_gather_fallback_bit_exact(self, operands, rng, monkeypatch):
        """The no-scipy per-tap gather path stays bit-exact."""
        import repro.core.product_kernels as pk

        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        monkeypatch.setattr(pk, "_sparse", None)
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_lut_kernel_built_without_scipy_bit_exact(self, operands, rng, monkeypatch):
        """Compile *and* evaluate with scipy absent: the gather loop is the
        only error-sum path, and repeated calls must stay exact."""
        import repro.core.product_kernels as pk

        monkeypatch.setattr(pk, "_sparse", None)
        acts, weights = operands
        lut = random_lut(rng)
        kernel = LUTKernel(weights, lut)
        expected = lut_product_sums(acts, weights, lut)
        np.testing.assert_array_equal(kernel(acts), expected)
        np.testing.assert_array_equal(kernel(acts), expected)  # no state decay
        # Varying batch sizes through the same kernel (executor-style reuse).
        np.testing.assert_array_equal(kernel(acts[:5]), expected[:5])

    def test_executor_lut_plan_without_scipy(
        self, trained_tiny_model, tiny_dataset, rng, monkeypatch
    ):
        """End-to-end LUT inference with scipy absent matches the legacy path."""
        import repro.core.product_kernels as pk

        monkeypatch.setattr(pk, "_sparse", None)
        images = tiny_dataset.test_images[:4]
        calib = tiny_dataset.train_images[:32]
        plan = ExecutionPlan.uniform(LUTProduct(LUTMultiplier(random_lut(rng), name="noscipy")))
        compiled = ApproximateExecutor(trained_tiny_model, calib, use_compiled=True)
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        np.testing.assert_array_equal(
            compiled.forward(images, plan), legacy.forward(images, plan)
        )

    def test_callback_kernel_wraps_product_sums(self, operands):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = PerforatedProduct(2, use_control_variate=True)
        kernel = CallbackKernel(model, weights, cv)
        np.testing.assert_array_equal(
            kernel(acts), model.product_sums(acts, weights, cv)
        )

    def test_wide_activation_codes_stay_exact(self, rng):
        """Non-uint8 codes must bypass the float32 fast path and stay exact.

        Small weights enable the float32 sgemm path (bound holds for 8-bit
        activations); direct callers may pass wider int64 codes, for which
        float32 accumulation would be inexact.
        """
        weights = rng.integers(0, 3, size=(6, 4), dtype=np.uint8)
        acts = rng.integers(0, 1 << 22, size=(9, 6)).astype(np.int64)
        np.testing.assert_array_equal(
            AccurateKernel(weights)(acts), accurate_product_sums(acts, weights)
        )
        np.testing.assert_array_equal(
            PerforatedKernel(weights, 2)(acts),
            perforated_product_sums(acts, weights, 2),
        )

    def test_kernel_shape_validation(self, operands):
        _, weights = operands
        kernel = AccurateKernel(weights)
        with pytest.raises(ValueError):
            kernel(np.zeros((4, weights.shape[0] + 1), dtype=np.uint8))

    def test_compile_dispatch(self, operands):
        _, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        assert isinstance(AccurateProduct().compile(weights, cv), AccurateKernel)
        assert isinstance(PerforatedProduct(2).compile(weights, cv), PerforatedKernel)
        lut_model = LUTProduct(PerforatedMultiplier(1))
        assert isinstance(lut_model.compile(weights, cv), LUTKernel)


class TestBackendKernelParity:
    """Kernels compiled through the backend are bit-exact against the
    legacy reference."""

    def test_accurate(self, operands, backend):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = backend.compile(AccurateProduct(), weights, cv)
        expected = accurate_product_sums(acts, weights)
        result = kernel(acts)
        assert np.asarray(result).dtype == expected.dtype
        np.testing.assert_array_equal(result, expected)

    @pytest.mark.parametrize("m", [0, 2, 7])
    def test_perforated(self, operands, backend, m):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = backend.compile(
            PerforatedProduct(m, use_control_variate=False), weights, cv
        )
        np.testing.assert_array_equal(
            kernel(acts), perforated_product_sums(acts, weights, m)
        )

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("quantized", [True, False])
    def test_perforated_with_control_variate(self, operands, backend, m, quantized):
        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights, quantize=quantized)
        kernel = backend.compile(PerforatedProduct(m, True), weights, cv)
        expected = perforated_product_sums(acts, weights, m, cv)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)

    def test_lut_random_table(self, operands, backend, rng):
        acts, weights = operands
        lut = random_lut(rng)
        model = LUTProduct(LUTMultiplier(lut, name="random"))
        kernel = backend.compile(model, weights, None)
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_lut_structured_tables(self, operands, backend):
        acts, weights = operands
        for multiplier in (PerforatedMultiplier(2), TruncatedMultiplier(2, 3)):
            model = LUTProduct(multiplier)
            kernel = backend.compile(model, weights, None)
            np.testing.assert_array_equal(
                kernel(acts), lut_product_sums(acts, weights, multiplier.build_lut())
            )

    def test_exotic_model_compiles_through_the_backend(self, operands, backend):
        """Models without a specialized kernel fall back bit-exact."""
        from repro.baselines.weight_oriented import WeightOrientedProduct

        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = WeightOrientedProduct(1, 3, threshold=128, compensate_mean=True)
        kernel = backend.compile(model, weights, cv)
        np.testing.assert_array_equal(kernel(acts), model.product_sums(acts, weights, cv))

    def test_large_batch_chunking_is_exact(self, rng, backend):
        """Batches larger than any internal chunk size stay bit-exact."""
        acts = rng.integers(0, 256, size=(2600, 12), dtype=np.uint8)
        weights = rng.integers(0, 256, size=(12, 5), dtype=np.uint8)
        cv = ControlVariate.from_weight_matrix(weights)
        kernel = backend.compile(PerforatedProduct(2, True), weights, cv)
        np.testing.assert_array_equal(
            kernel(acts), perforated_product_sums(acts, weights, 2, cv)
        )


class TestStreamingLUTParity:
    """A LUT layer whose error matrix exceeds the byte cap streams its
    error terms tap by tap, bit-exact with the compiled error matrix."""

    @pytest.mark.parametrize(
        "multiplier",
        [PerforatedMultiplier(2), TruncatedMultiplier(2, 3)],
        ids=["perforated_m2", "truncated_2_3"],
    )
    def test_structured_tables_stream_bit_exact(self, operands, multiplier):
        acts, weights = operands
        lut = multiplier.build_lut()
        kernel = LUTKernel(weights, lut, max_error_matrix_bytes=0)
        assert kernel._error_matrix is None and not kernel.is_exact
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))

    def test_cap_is_inclusive(self, operands, rng):
        """An error matrix of exactly the cap is compiled; one byte less
        streams; both give the same sums."""
        acts, weights = operands
        lut = random_lut(rng)
        matrix_bytes = weights.shape[0] * 256 * weights.shape[1] * 8
        at_cap = LUTKernel(weights, lut, max_error_matrix_bytes=matrix_bytes)
        below = LUTKernel(weights, lut, max_error_matrix_bytes=matrix_bytes - 1)
        assert at_cap._error_matrix is not None
        assert at_cap._error_matrix.nbytes == matrix_bytes
        assert below._error_matrix is None
        expected = lut_product_sums(acts, weights, lut)
        np.testing.assert_array_equal(at_cap(acts), expected)
        np.testing.assert_array_equal(below(acts), expected)

    def test_exact_table_never_streams(self, operands):
        """The exact multiplier has no error term to stream, whatever the cap."""
        acts, weights = operands
        kernel = LUTKernel(weights, AccurateMultiplier().build_lut(), max_error_matrix_bytes=0)
        assert kernel.is_exact and kernel._err_table is None
        np.testing.assert_array_equal(kernel(acts), accurate_product_sums(acts, weights))

    def test_streaming_model_compiles_through_the_backend(
        self, operands, backend, rng, streaming_lut
    ):
        acts, weights = operands
        lut = random_lut(rng)
        model = streaming_lut(LUTMultiplier(lut, name="streaming"))
        kernel = backend.compile(model, weights, None)
        assert model.compiled == [kernel] and kernel._error_matrix is None
        np.testing.assert_array_equal(kernel(acts), lut_product_sums(acts, weights, lut))


class TestWeightOrientedKernelParity:
    @pytest.mark.parametrize("compensate", [True, False])
    @pytest.mark.parametrize("m_low,m_high", [(0, 2), (1, 3)])
    def test_bit_exact(self, operands, compensate, m_low, m_high):
        from repro.baselines.weight_oriented import WeightOrientedProduct

        acts, weights = operands
        cv = ControlVariate.from_weight_matrix(weights)
        model = WeightOrientedProduct(m_low, m_high, threshold=128, compensate_mean=compensate)
        expected = model.product_sums(acts, weights, cv)
        kernel = model.compile(weights, cv)
        result = kernel(acts)
        assert np.asarray(result).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(result, expected)


class TestExecutorEngineParity:
    """Compiled engine vs. legacy executor path on real (tiny) networks."""

    PLANS = {
        "accurate": lambda: ExecutionPlan.uniform(AccurateProduct()),
        "perforated_cv": lambda: ExecutionPlan.uniform(PerforatedProduct(2, True)),
        "perforated": lambda: ExecutionPlan.uniform(PerforatedProduct(3, False)),
        "lut": lambda: ExecutionPlan.uniform(LUTProduct(TruncatedMultiplier(1, 2))),
    }

    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    def test_forward_bit_exact(self, trained_tiny_model, tiny_dataset, plan_name):
        images = tiny_dataset.test_images[:8]
        calib = tiny_dataset.train_images[:32]
        compiled = ApproximateExecutor(trained_tiny_model, calib, use_compiled=True)
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        plan = self.PLANS[plan_name]()
        np.testing.assert_array_equal(
            compiled.forward(images, plan), legacy.forward(images, plan)
        )

    def test_grouped_conv_bit_exact(self, tiny_dataset, rng):
        from repro.models.zoo import build_model

        model = build_model("shufflenet", num_classes=tiny_dataset.num_classes, rng=rng)
        calib = tiny_dataset.train_images[:32]
        images = tiny_dataset.test_images[:4]
        compiled = ApproximateExecutor(model, calib, use_compiled=True)
        legacy = ApproximateExecutor(model, calib, use_compiled=False)
        for plan in (
            ExecutionPlan.uniform(PerforatedProduct(2, True)),
            ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(2))),
        ):
            np.testing.assert_array_equal(
                compiled.forward(images, plan), legacy.forward(images, plan)
            )

    @pytest.mark.parametrize(
        "network,kwargs",
        [("vgg13", {}), ("shufflenet", {}), ("resnet44", {"base_width": 4})],
        ids=["vgg13", "shufflenet", "resnet44"],
    )
    def test_streaming_lut_forward_bit_exact(
        self, tiny_dataset, rng, streaming_lut, network, kwargs
    ):
        """Layers whose LUT error terms stream tap by tap (a plain, a
        grouped-conv and a residual network) match the legacy path."""
        from repro.models.zoo import build_model

        model = build_model(network, num_classes=tiny_dataset.num_classes, rng=rng, **kwargs)
        calib = tiny_dataset.train_images[:32]
        images = tiny_dataset.test_images[:4]
        compiled = ApproximateExecutor(model, calib, use_compiled=True)
        legacy = ApproximateExecutor(model, calib, use_compiled=False)
        lut = streaming_lut(LUTMultiplier(random_lut(rng), name="streaming"))
        plan = ExecutionPlan.uniform(lut)
        np.testing.assert_array_equal(
            compiled.forward(images, plan), legacy.forward(images, plan)
        )
        assert len(lut.compiled) >= len(compiled.mac_layer_names())
        assert all(kernel._error_matrix is None for kernel in lut.compiled)

    def test_accurate_lut_cross_check(self, trained_tiny_model, tiny_dataset):
        """LUT of the exact multiplier == exact matmul through the full model."""
        images = tiny_dataset.test_images[:8]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        via_lut = executor.forward(
            images, ExecutionPlan.uniform(LUTProduct(AccurateMultiplier()))
        )
        via_matmul = executor.forward(images, ExecutionPlan.uniform(AccurateProduct()))
        np.testing.assert_array_equal(via_lut, via_matmul)

    def test_imported_lut_multiplier_bit_exact(self, trained_tiny_model, tiny_dataset, rng):
        """Externally characterized (LUTMultiplier) tables run compiled."""
        images = tiny_dataset.test_images[:4]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        legacy = ApproximateExecutor(trained_tiny_model, calib, use_compiled=False)
        imported = LUTMultiplier(random_lut(rng), name="imported")
        plan = ExecutionPlan.uniform(LUTProduct(imported))
        np.testing.assert_array_equal(
            executor.forward(images, plan), legacy.forward(images, plan)
        )

    def test_batched_logits_match_single_batch(self, trained_tiny_model, tiny_dataset):
        """Persistent activation buffers must not leak state across batches."""
        images = tiny_dataset.test_images[:10]
        calib = tiny_dataset.train_images[:32]
        executor = ApproximateExecutor(trained_tiny_model, calib)
        plan = ExecutionPlan.uniform(PerforatedProduct(2, True))
        whole = executor.logits(images, plan, batch_size=10)
        batched = executor.logits(images, plan, batch_size=3)
        np.testing.assert_array_equal(whole, batched)
