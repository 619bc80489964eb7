"""Integer execution core shared by quantized convolution and dense layers.

With the affine scheme ``r = s (q - z)`` a real dot product of ``k`` taps
expands into integer arithmetic as

    sum_j w_j a_j = s_w s_a * ( sum_j wq_j aq_j
                                - z_w sum_j aq_j
                                - z_a sum_j wq_j
                                + k z_w z_a )

(Jacob et al., "Quantization and Training of Neural Networks for Efficient
Integer-Arithmetic-Only Inference", CVPR 2018).  Only the first term,
``sum_j wq_j aq_j``, involves per-element products and is therefore the
term executed on the (possibly approximate) MAC array.  The remaining terms
are exact integer corrections.  :class:`QuantizedLinearOp` keeps the
weights and the exact correction terms:

* :meth:`QuantizedLinearOp.output_real` accepts the raw product sum from
  any product model (the accurate matmul by default, or the approximate /
  control-variate-corrected sums of :mod:`repro.core.approx_conv`) and
  applies the textbook chain above: the oracle, run by the reference walk;
* :meth:`QuantizedLinearOp.output_real_stacked` scales sums whose zero
  points a compiled launch already folded in
  (:class:`repro.core.product_kernels.ZeroPointFold` rewrites the bracket
  as ``sum_j (wq_j - z_w) aq_j - z_a sum_j (wq_j - z_w)``), so it only
  multiplies by ``s_w s_a`` and adds the bias, in place.  The bracket is
  the same exact integer either way, so both give the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.quantization.schemes import QuantParams


class QuantizedLinearOp:
    """A quantized ``(patches x taps) @ (taps x filters)`` operation.

    Parameters
    ----------
    weight_codes:
        uint8 array of shape ``(taps, filters)`` — the quantized weights laid
        out exactly as the MAC array consumes them (one column per filter).
    weight_params:
        Quantization parameters of the weights.
    bias:
        Optional real-valued bias per filter, added after dequantization.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        weight_params: QuantParams,
        bias: np.ndarray | None = None,
    ):
        weight_codes = np.asarray(weight_codes)
        if weight_codes.ndim != 2:
            raise ValueError(
                f"weight_codes must be 2-D (taps, filters), got {weight_codes.shape}"
            )
        if weight_codes.dtype != np.uint8:
            raise TypeError(f"weight_codes must be uint8, got {weight_codes.dtype}")
        self.weight_codes = weight_codes
        self.weight_params = weight_params
        self.taps, self.filters = weight_codes.shape
        if bias is None:
            bias = np.zeros(self.filters, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (self.filters,):
            raise ValueError(f"bias must have shape ({self.filters},), got {bias.shape}")
        self.bias = bias
        # Exact per-filter weight-code sums used by the zero-point correction.
        self._weight_code_sums = weight_codes.astype(np.int64).sum(axis=0)

    # ------------------------------------------------------------------
    def exact_product_sum(self, act_codes: np.ndarray) -> np.ndarray:
        """Accurate ``sum_j wq_j aq_j`` for every (patch, filter) pair."""
        act = self._check_activations(act_codes)
        return act.astype(np.int64) @ self.weight_codes.astype(np.int64)

    def output_real(
        self,
        act_codes: np.ndarray,
        act_params: QuantParams,
        product_sum: np.ndarray | None = None,
    ) -> np.ndarray:
        """Dequantized real output of the quantized linear operation.

        Corrected as

            s_w s_a (sums - z_w sum_j aq_j - z_a sum_j wq_j + k z_w z_a) + bias

        one step at a time, in this order.

        Parameters
        ----------
        act_codes:
            uint8 activations of shape ``(patches, taps)``.
        act_params:
            Quantization parameters of the activations.
        product_sum:
            Raw ``sum_j product(wq_j, aq_j)`` of shape ``(patches, filters)``.
            When ``None``, the exact sum is used.  Approximate product models
            (perforation, LUT multipliers, control-variate correction) pass
            their own sums here.  It is never modified.
        """
        act = self._check_activations(act_codes)
        if product_sum is None:
            product_sum = self.exact_product_sum(act)
        product_sum = np.asarray(product_sum, dtype=np.float64)
        expected = (act.shape[0], self.filters)
        if product_sum.shape != expected:
            raise ValueError(
                f"product_sum must have shape {expected}, got {product_sum.shape}"
            )
        # int64-accumulated reduce: exact integer sums without materializing
        # an 8x-wider int64 copy of the codes.
        act_sums = act.sum(axis=1, keepdims=True, dtype=np.int64).astype(np.float64)
        z_w = float(self.weight_params.zero_point)
        z_a = float(act_params.zero_point)
        # The first step allocates the output; the rest of the chain runs in
        # place on it.
        out = np.subtract(product_sum, z_w * act_sums)
        np.subtract(out, z_a * self._weight_code_sums.astype(np.float64), out=out)
        np.add(out, float(self.taps) * z_w * z_a, out=out)
        np.multiply(out, self.weight_params.scale * act_params.scale, out=out)
        np.add(out, self.bias, out=out)
        return out

    def output_real_stacked(
        self, folded_sums: np.ndarray, act_params: QuantParams
    ) -> np.ndarray:
        """Dequantize sums whose zero-point terms are already folded in.

        ``folded_sums`` is ``(rows, filters)`` float64, any number of rows
        (a fused launch stacks its plan blocks): each row holds the exact
        bracket ``sums - z_w sum_j aq_j - z_a sum_j wq_j + k z_w z_a``.  It
        is scaled by ``s_w s_a`` and offset by the bias **in place** and
        returned.
        """
        if (
            folded_sums.dtype != np.float64
            or folded_sums.ndim != 2
            or folded_sums.shape[1] != self.filters
        ):
            raise ValueError(
                f"folded_sums must be float64 of shape (rows, {self.filters}), "
                f"got {folded_sums.dtype} {folded_sums.shape}"
            )
        scale = self.weight_params.scale * act_params.scale
        np.multiply(folded_sums, scale, out=folded_sums)
        np.add(folded_sums, self.bias, out=folded_sums)
        return folded_sums

    # ------------------------------------------------------------------
    def _check_activations(self, act_codes: np.ndarray) -> np.ndarray:
        act = np.asarray(act_codes)
        if act.ndim != 2 or act.shape[1] != self.taps:
            raise ValueError(
                f"activations must have shape (patches, {self.taps}), got {act.shape}"
            )
        if act.dtype != np.uint8:
            raise TypeError(f"activations must be uint8, got {act.dtype}")
        return act
