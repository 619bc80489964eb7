"""Core contribution: control-variate approximation for approximate MAC arrays.

This package implements Section III of the paper:

* :mod:`~repro.core.control_variate` — the control variate ``V = C * sum_j
  x_j`` with the variance-optimal constant ``C = E[W_j]`` (eq. (7), (11)).
* :mod:`~repro.core.error_model` — closed-form mean and variance of the
  convolution error with and without the control variate (eqs. (3), (10),
  (12)) plus Monte-Carlo validation helpers.
* :mod:`~repro.core.approx_conv` — the approximate product-sum computations
  that plug into the quantized linear op: accurate, perforated without
  correction, perforated with the control variate, and generic LUT
  multipliers.
* :mod:`~repro.core.accelerator_model` — a configuration object tying the
  approximation mode to the MAC-array geometry used by the simulators and
  hardware models.
* :mod:`~repro.core.product_kernels` — compiled per-layer product kernels:
  the weight-dependent state of every product model is built once per
  (layer, plan) and reused across batches; the LUT path becomes two matrix
  products via the ``lut = exact - error`` decomposition.
* :mod:`~repro.core.backends` — :class:`NumpyBackend`, the one compiler
  of the executor's kernels: per-block product kernels, fused into
  multi-plan kernels per layer.
"""

from repro.core.control_variate import (
    ControlVariate,
    optimal_control_constant,
    quantize_control_constant,
)
from repro.core.error_model import (
    ConvolutionErrorStats,
    convolution_error_stats,
    simulate_convolution_error,
    variance_reduction_factor,
)
from repro.core.approx_conv import (
    ApproximationMode,
    accurate_product_sums,
    perforated_product_sums,
    lut_product_sums,
    product_sums,
)
from repro.core.accelerator_model import AcceleratorConfig
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    LUTKernel,
    PerforatedKernel,
    ProductKernel,
    exact_int_matmul,
)
from repro.core.backends import NumpyBackend

__all__ = [
    "ControlVariate",
    "optimal_control_constant",
    "quantize_control_constant",
    "ConvolutionErrorStats",
    "convolution_error_stats",
    "simulate_convolution_error",
    "variance_reduction_factor",
    "ApproximationMode",
    "accurate_product_sums",
    "perforated_product_sums",
    "lut_product_sums",
    "product_sums",
    "AcceleratorConfig",
    "ProductKernel",
    "AccurateKernel",
    "PerforatedKernel",
    "LUTKernel",
    "CallbackKernel",
    "exact_int_matmul",
    "NumpyBackend",
]
