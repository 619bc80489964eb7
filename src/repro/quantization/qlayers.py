"""Integer execution core shared by quantized convolution and dense layers.

With the affine scheme ``r = s (q - z)`` a real dot product of ``k`` taps
expands into integer arithmetic as

    sum_j w_j a_j = s_w s_a * ( sum_j wq_j aq_j
                                - z_w sum_j aq_j
                                - z_a sum_j wq_j
                                + k z_w z_a )

Only the first term, ``sum_j wq_j aq_j``, involves per-element products and
is therefore the term executed on the (possibly approximate) MAC array.  The
remaining terms are exact integer corrections.  :class:`QuantizedLinearOp`
keeps the weights and the exact correction terms and accepts the raw product
sum from any product model — the accurate matmul by default, or the
approximate / control-variate-corrected sums produced by
:mod:`repro.core.approx_conv`.
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

        The one-block case of :meth:`output_real_stacked`.

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
            their own sums here.
        """
        if product_sum is None:
            product_sum = self.exact_product_sum(act_codes)
        return self.output_real_stacked(act_codes, act_params, product_sum, 1)

    def output_real_stacked(
        self,
        act_codes: np.ndarray,
        act_params: QuantParams,
        product_sums: np.ndarray,
        plans: int,
    ) -> np.ndarray:
        """Dequantized outputs of ``plans`` product-sum blocks sharing one
        activation block (block ``p`` = rows ``[p*N, (p+1)*N)``).

        Each block is corrected as

            s_w s_a (sums - z_w sum_j aq_j - z_a sum_j wq_j + k z_w z_a) + bias

        with the act-dependent term (the per-patch sums of the shared codes)
        computed once for all blocks, so the result equals ``plans`` one-block
        calls bit for bit.  ``product_sums`` is never modified.
        """
        act = self._check_activations(act_codes)
        product_sums = np.asarray(product_sums, dtype=np.float64)
        n = act.shape[0]
        expected = (plans * n, self.filters)
        if product_sums.shape != expected:
            raise ValueError(
                f"product_sums must have shape {expected}, got {product_sums.shape}"
            )
        # int64-accumulated reduce: exact integer sums without materializing
        # an 8x-wider int64 copy of the codes.
        act_sums = act.sum(axis=1, keepdims=True, dtype=np.int64).astype(np.float64)
        z_w = float(self.weight_params.zero_point)
        z_a = float(act_params.zero_point)
        # The first step allocates the output; the rest of the correction
        # chain runs in place on it, one elementwise operation at a time.
        out = np.subtract(
            product_sums.reshape(plans, n, self.filters), (z_w * act_sums)[None]
        )
        np.subtract(
            out, (z_a * self._weight_code_sums.astype(np.float64))[None, None, :],
            out=out,
        )
        np.add(out, float(self.taps) * z_w * z_a, out=out)
        scale = self.weight_params.scale * act_params.scale
        np.multiply(out, scale, out=out)
        np.add(out, self.bias[None, None, :], out=out)
        return out.reshape(expected)

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
