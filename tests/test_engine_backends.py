"""Exactness-boundary property tests of the float-BLAS machinery.

Complements the parity suite in ``test_engine_kernels.py``: this file pins
the numeric exactness boundaries of ``exact_int_matmul`` and
``_WeightOperand``'s f32/f64 promotion (``255 * max_f sum_j |w_jf| < 2^24``,
signed weights included) with randomized property tests.
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

    def test_signed_weights_take_f32_below_the_absolute_bound(self, rng):
        """Centered weights are signed: the float32 bound is on sum_j |w|,
        which bounds every partial sum whatever the signs, so a column with
        255 * sum_j |w| just below 2^24 takes float32 and stays exact, and
        one just above falls back to float64."""
        threshold = _F32_EXACT_BOUND // 255
        for abs_sum, expect_f32 in ((threshold, True), (threshold + 1, False)):
            col = self._column_with_sum(abs_sum)
            col[1::2] *= -1  # alternate signs: the plain sum stays small
            weights = np.stack([col, -col], axis=1)
            op = _WeightOperand(weights)
            assert (op._f32 is not None) == expect_f32
            acts = rng.integers(0, 256, size=(9, weights.shape[0]), dtype=np.uint8)
            acts[0] = 255 * (col > 0)  # the largest product sum of column 0
            acts[1] = 255 * (col < 0)  # and of column 1
            expected = acts.astype(np.int64) @ weights
            assert expected[0, 0] == 255 * int(col[col > 0].sum())
            assert expected[1, 1] == -255 * int(col[col < 0].sum())
            np.testing.assert_array_equal(op.matmul(acts), expected)

    def test_out_of_range_weights_stay_exact(self, rng):
        """Codes beyond 8 bits are fine under the absolute bound too."""
        weights = rng.integers(0, 2, size=(6, 3)).astype(np.int64)
        weights[0, 0] = 300
        op = _WeightOperand(weights)
        assert op._f32 is not None
        acts = rng.integers(0, 256, size=(9, 6), dtype=np.uint8)
        np.testing.assert_array_equal(op.matmul(acts), acts.astype(np.int64) @ weights)
        weights[0, 0] = _F32_EXACT_BOUND  # one product alone leaves float32
        op = _WeightOperand(weights)
        assert op._f32 is None
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
