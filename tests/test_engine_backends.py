"""Exactness-boundary property tests of the float-BLAS machinery.

Complements the parity suite in ``test_engine_kernels.py``: this file pins
the numeric exactness boundaries of ``exact_int_matmul`` and
``_WeightOperand``'s f32/f64 promotion with randomized property tests.
"""

import numpy as np
import pytest

from repro.core.approx_conv import accurate_product_sums
from repro.core.product_kernels import (
    _F32_EXACT_BOUND,
    _WeightOperand,
    exact_int_matmul,
)

pytestmark = pytest.mark.engine


class TestExactnessBoundaries:
    """Randomized property tests of the float-BLAS exactness machinery."""

    def test_exact_int_matmul_randomized(self, rng):
        for _ in range(20):
            patches = int(rng.integers(1, 40))
            taps = int(rng.integers(1, 60))
            filters = int(rng.integers(1, 20))
            # Bound values so every partial sum stays far below 2^53.
            lhs = rng.integers(0, 1 << 22, size=(patches, taps))
            rhs = rng.integers(0, 1 << 22, size=(taps, filters))
            expected = lhs @ rhs  # exact int64 reference
            result = exact_int_matmul(lhs, rhs.astype(np.float64))
            assert result.dtype == np.int64
            np.testing.assert_array_equal(result, expected)

    @staticmethod
    def _column_with_sum(total: int) -> np.ndarray:
        """A column of 8-bit codes summing exactly to ``total``."""
        full, rem = divmod(total, 255)
        col = [255] * full + ([rem] if rem else [])
        return np.array(col, dtype=np.int64)

    def test_f32_promotion_boundary_exact_on_both_sides(self, rng):
        """255 * max_col_sum straddling 2^24: f32 allowed below, denied at/above."""
        threshold = _F32_EXACT_BOUND // 255  # last column sum with 255*s < 2^24
        assert 255 * threshold < _F32_EXACT_BOUND <= 255 * (threshold + 1)
        for col_sum, expect_f32 in ((threshold, True), (threshold + 1, False)):
            col = self._column_with_sum(col_sum)
            weights = np.concatenate(
                [col[:, None], np.zeros((col.shape[0], 1), dtype=np.int64)], axis=1
            )
            op = _WeightOperand(weights)
            assert (op._f32 is not None) == expect_f32
            # All-255 activations hit the boundary product sum exactly.
            acts = np.full((3, weights.shape[0]), 255, dtype=np.uint8)
            expected = acts.astype(np.int64) @ weights
            assert expected.max() == 255 * col_sum
            np.testing.assert_array_equal(op.matmul(acts), expected)

    def test_randomized_weight_operand_parity(self, rng):
        """Any uint8 operand mix: _WeightOperand == int64 matmul, both paths."""
        for _ in range(20):
            taps = int(rng.integers(1, 50))
            filters = int(rng.integers(1, 12))
            weights = rng.integers(0, 256, size=(taps, filters), dtype=np.uint8)
            acts = rng.integers(0, 256, size=(int(rng.integers(1, 30)), taps), dtype=np.uint8)
            op = _WeightOperand(weights.astype(np.int64))
            np.testing.assert_array_equal(
                op.matmul(acts), acts.astype(np.int64) @ weights.astype(np.int64)
            )

    def test_empty_weights(self):
        for shape in ((0, 4), (5, 0), (0, 0)):
            weights = np.zeros(shape, dtype=np.int64)
            op = _WeightOperand(weights)
            # Empty weights trivially satisfy the f32 bound.
            assert op._f32 is not None
            acts = np.zeros((3, shape[0]), dtype=np.uint8)
            result = op.matmul(acts)
            assert result.shape == (3, shape[1])
            np.testing.assert_array_equal(result, np.zeros((3, shape[1]), dtype=np.int64))

    def test_signed_weights_disable_f32_but_stay_exact(self, rng):
        weights = rng.integers(-4, 4, size=(6, 3))
        weights[0, 0] = -1  # force at least one negative entry
        op = _WeightOperand(weights.astype(np.int64))
        assert op._f32 is None
        acts = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        np.testing.assert_array_equal(op.matmul(acts), acts.astype(np.int64) @ weights)

    def test_out_of_range_weights_disable_f32_but_stay_exact(self, rng):
        weights = rng.integers(0, 2, size=(6, 3)).astype(np.int64)
        weights[0, 0] = 300  # beyond 8-bit codes: f32 bound argument is void
        op = _WeightOperand(weights)
        assert op._f32 is None
        acts = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        np.testing.assert_array_equal(op.matmul(acts), acts.astype(np.int64) @ weights)

    def test_wide_activations_bypass_f32_path(self, rng):
        """Non-uint8 activations must never take the f32 shortcut, even when
        the weight-side bound holds."""
        weights = rng.integers(0, 3, size=(5, 2)).astype(np.int64)
        op = _WeightOperand(weights)
        assert op._f32 is not None  # tiny column sums: f32 allowed for uint8
        acts = rng.integers(0, 1 << 24, size=(7, 5)).astype(np.int64)
        np.testing.assert_array_equal(op.matmul(acts), acts @ weights)

    def test_accurate_product_cross_check(self, rng):
        """End cross-check: the boundary machinery agrees with the reference."""
        weights = rng.integers(0, 256, size=(11, 4), dtype=np.uint8)
        acts = rng.integers(0, 256, size=(13, 11), dtype=np.uint8)
        np.testing.assert_array_equal(
            _WeightOperand(weights.astype(np.int64)).matmul(acts),
            accurate_product_sums(acts, weights),
        )
