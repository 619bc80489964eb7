"""Selecting an engine backend for the compiled product-kernel engine.

The approximate executor compiles every (layer, plan) combination into a
:class:`repro.core.product_kernels.ProductKernel` through a pluggable
*engine backend* (:mod:`repro.core.backends`).  All backends are bit-exact
— they trade simulation speed and memory only — and every backend also
compiles the multi-plan kernel that evaluates several plans' blocks of one
layer in a single launch.  The same selection is available end to end:

* library: ``ApproximateExecutor(model, calib, engine_backend="lowmem")``
* sweeps:  ``parallel_sweep(models, datasets, engine_backend="lowmem")``
* config:  ``AcceleratorConfig(engine_backend="lowmem")``
* CLI:     ``python -m repro accuracy --model vgg13 --engine-backend lowmem``
           and ``python -m repro backends`` to list availability.

This script compiles one ResNet-shaped conv layer's product models through
every available backend, singly and as one multi-plan kernel, and checks
them against the legacy reference.
"""

import numpy as np

from repro.core.approx_conv import lut_product_sums, perforated_product_sums
from repro.core.backends import backend_names, get_backend
from repro.core.control_variate import ControlVariate
from repro.multipliers.lut import LUTMultiplier
from repro.simulation.inference import LUTProduct, PerforatedProduct


def main() -> None:
    rng = np.random.default_rng(0)
    acts = rng.integers(0, 256, size=(512, 144), dtype=np.uint8)
    weights = rng.integers(0, 256, size=(144, 32), dtype=np.uint8)
    cv = ControlVariate.from_weight_matrix(weights)
    lut = np.arange(256, dtype=np.int64)[:, None] * np.arange(256, dtype=np.int64)
    lut = lut + rng.integers(-100, 100, size=(256, 256))

    perforated_ref = perforated_product_sums(acts, weights, 2, cv)
    lut_ref = lut_product_sums(acts, weights, lut)

    print("engine backends (see also: python -m repro backends)")
    for name in backend_names():
        backend = get_backend(name)
        available, reason = backend.availability()
        if not available:
            print(f"  {name:<8} unavailable: {reason}")
            continue
        cases = (
            ("perforated m=2 +V", PerforatedProduct(2, True), perforated_ref),
            ("lut (random table)", LUTProduct(LUTMultiplier(lut, name="example")), lut_ref),
        )
        for label, model, reference in cases:
            kernel = backend.compile(model, weights, cv)
            ok = np.array_equal(kernel(acts), reference)
            print(
                f"  {name:<8} {label:<20} -> {type(kernel).__name__:<22} "
                f"bit-exact: {'yes' if ok else 'NO'}"
            )
            assert ok, f"backend {name} diverged from the legacy reference on {label}"
        # Both plans in one launch: the shared activation block is
        # evaluated under each plan and the outputs are stacked plan-major.
        multi = backend.compile_multi([model for _, model, _ in cases], weights, cv)
        stacked = multi.product_sums_multi(acts, shared=True)
        ok = np.array_equal(stacked, np.concatenate([ref for _, _, ref in cases]))
        print(
            f"  {name:<8} {'both, one launch':<20} -> {type(multi).__name__:<22} "
            f"bit-exact: {'yes' if ok else 'NO'}"
        )
        assert ok, f"backend {name} multi-plan kernel diverged from the reference"


if __name__ == "__main__":
    main()
