"""The compiler of the product-kernel engine.

Every product model (accurate, perforated ± control variate, LUT, ...)
compiles against one layer's quantized weights into a kernel that is
evaluated per batch (``ProductModel.compile -> ProductKernel``).  The
executor runs every compiled MAC launch through one kernel shape: it
compiles each distinct per-block kernel once with
:meth:`NumpyBackend.compile` and fuses a layer's blocks with
:meth:`NumpyBackend.compile_multi` into a
:class:`~repro.core.product_kernels.MultiPlanKernel` (one block when the
layer runs a single product model), which it caches by the blocks'
fingerprints.

The kernels are the BLAS-backed ones of :mod:`repro.core.product_kernels`
(float32/float64 sgemm/dgemm with the exactness bounds documented there),
bit-exact against the reference functions in :mod:`repro.core.approx_conv`;
the ``pytest -m engine`` parity suite enforces this.  A LUT error matrix
larger than ``DEFAULT_MAX_ERROR_MATRIX_BYTES`` is not built: that layer
streams its error terms tap by tap instead, with the same results.
"""

from __future__ import annotations

import numpy as np

from repro.core.product_kernels import MultiPlanKernel, ProductKernel


class NumpyBackend:
    """Compiles product models into numpy/BLAS kernels (exact float32/float64 matmuls)."""

    def compile(
        self, product_model, weight_codes: np.ndarray, control_variate
    ) -> ProductKernel:
        """Compile ``product_model`` against one layer's quantized weights."""
        return product_model.compile(weight_codes, control_variate)

    def compile_multi(
        self,
        product_models,
        weight_codes: np.ndarray,
        control_variate,
        kernels=None,
    ) -> MultiPlanKernel:
        """Fuse P per-plan product models into one batched multi-plan kernel.

        ``kernels``, when given, carries the already compiled per-plan
        kernels for the same ``(models, weights, cv)`` triple so precompiled
        state (LUT error matrices) is reused instead of rebuilt.
        """
        if kernels is None:
            kernels = [
                self.compile(model, weight_codes, control_variate)
                for model in product_models
            ]
        return MultiPlanKernel(kernels)


__all__ = ["NumpyBackend"]
