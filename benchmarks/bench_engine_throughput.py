"""Engine throughput — compiled product kernels vs. the legacy per-batch paths.

Three measurements back the compiled-engine acceptance criteria:

* **LUT kernel throughput** on a ResNet-shaped conv layer (3x3x64 taps, 64
  filters, 4096 patches): the compiled ``lut = exact - error`` decomposition
  must be at least 5x faster than the legacy 3-D gather of
  :func:`repro.core.approx_conv.lut_product_sums`, with bit-exact outputs.
* **Backend throughput** on the same layer: the executor's one compile
  path (:class:`~repro.core.backends.NumpyBackend`, the ``numpy`` row)
  compiles the accurate, perforated+V and LUT product models and reports
  patches/s.  Every output is asserted bit-exact against the legacy
  reference, and the LUT case must meet the legacy speedup floor above.
  One batched ``compile_multi`` launch over a mixed plan stack reports
  fused plan-patches/s next to the per-plan loop, bit-exact against it.
* **End-to-end sweep wall-clock** on the Table III configuration (accurate
  baseline plus m = 1..3 with and without the control variate): the
  compiled executor must be at least 2x faster than the legacy executor,
  again bit-exact.

Patches/sec figures are printed and written to ``results/`` so regressions
are visible across runs.  Run via pytest (``pytest -m engine
benchmarks/bench_engine_throughput.py``) or directly as a script.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import record_bench, update_json_result, write_result

from repro.core.approx_conv import (
    accurate_product_sums,
    lut_product_sums,
    perforated_product_sums,
)
from repro.core.backends import NumpyBackend
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import LUTKernel
from repro.multipliers.lut import LUTMultiplier
from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.models.zoo import build_model
from repro.nn.optimizers import SGD
from repro.nn.training import Trainer
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine

# ResNet-shaped conv layer: 3x3 kernel over 64 channels, 64 filters.
PATCHES = 4096
TAPS = 3 * 3 * 64
FILTERS = 64

LUT_MIN_SPEEDUP = 5.0
SWEEP_MIN_SPEEDUP = 2.0


def _random_lut(rng: np.random.Generator) -> np.ndarray:
    """A structureless table — the worst case for the compiled decomposition."""
    exact = np.arange(256, dtype=np.int64)[:, None] * np.arange(256, dtype=np.int64)
    return exact + rng.integers(-500, 500, size=(256, 256))


def _best_of(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_lut_throughput() -> dict:
    rng = np.random.default_rng(0)
    acts = rng.integers(0, 256, size=(PATCHES, TAPS), dtype=np.uint8)
    weights = rng.integers(0, 256, size=(TAPS, FILTERS), dtype=np.uint8)
    lut = _random_lut(rng)

    legacy_out = lut_product_sums(acts, weights, lut)
    legacy_time = _best_of(lambda: lut_product_sums(acts, weights, lut), repeats=2)

    compile_start = time.perf_counter()
    kernel = LUTKernel(weights, lut)
    compile_time = time.perf_counter() - compile_start
    compiled_out = kernel(acts)
    compiled_time = _best_of(lambda: kernel(acts))

    assert np.array_equal(compiled_out, legacy_out), "compiled LUT kernel not bit-exact"
    return {
        "legacy_time": legacy_time,
        "compiled_time": compiled_time,
        "compile_time": compile_time,
        "legacy_pps": PATCHES / legacy_time,
        "compiled_pps": PATCHES / compiled_time,
        "speedup": legacy_time / compiled_time,
    }


def run_backend_throughput() -> list[dict]:
    """Patches/s of the three product models compiled through the backend.

    One row, ``numpy``.  Every kernel must be bit-exact against the legacy
    reference; one batched ``compile_multi`` launch over a mixed plan stack
    is timed too, bit-exact against the per-plan loop.
    """
    rng = np.random.default_rng(0)
    acts = rng.integers(0, 256, size=(PATCHES, TAPS), dtype=np.uint8)
    weights = rng.integers(0, 256, size=(TAPS, FILTERS), dtype=np.uint8)
    lut = _random_lut(rng)
    cv = ControlVariate.from_weight_matrix(weights)

    from repro.simulation.inference import LUTProduct

    cases = [
        ("accurate", AccurateProduct(), accurate_product_sums(acts, weights)),
        (
            "perforated m=2 +V",
            PerforatedProduct(2, True),
            perforated_product_sums(acts, weights, 2, cv),
        ),
        (
            "lut (random table)",
            LUTProduct(LUTMultiplier(lut, name="bench")),
            lut_product_sums(acts, weights, lut),
        ),
    ]
    # A DSE-shaped plan stack for the fused launch: repeated techniques on
    # purpose, so kernel/E-matrix dedupe inside the fused path is exercised.
    multi_models = [
        AccurateProduct(),
        PerforatedProduct(1, True),
        PerforatedProduct(2, True),
        PerforatedProduct(2, False),
        LUTProduct(LUTMultiplier(lut, name="bench")),
        PerforatedProduct(2, True),
        LUTProduct(LUTMultiplier(lut, name="bench")),
        AccurateProduct(),
    ]
    backend = NumpyBackend()
    row = {"backend": "numpy", "cases": {}}
    for case_name, model, expected in cases:
        kernel = backend.compile(model, weights, cv)
        out = kernel(acts)  # warm-up + correctness in one
        assert np.array_equal(out, expected), (
            f"backend 'numpy' not bit-exact on {case_name}"
        )
        elapsed = _best_of(lambda: kernel(acts))
        row["cases"][case_name] = PATCHES / elapsed
    row["fused"] = _run_fused_backend_case(backend, multi_models, weights, cv, acts)
    return [row]


def _run_fused_backend_case(backend, models, weights, cv, acts) -> dict:
    """One shared-input ``compile_multi`` launch vs. the per-plan kernel loop."""
    plan_kernels = [backend.compile(model, weights, cv) for model in models]
    expected = np.concatenate([kernel(acts) for kernel in plan_kernels], axis=0)
    multi = backend.compile_multi(models, weights, cv)
    out = multi.product_sums_multi(acts, shared=True)  # warm-up + correctness
    assert np.array_equal(out, expected), (
        "backend 'numpy' fused launch not bit-exact vs per-plan loop"
    )

    def per_plan():
        for kernel in plan_kernels:
            kernel(acts)

    fused_time = _best_of(lambda: multi.product_sums_multi(acts, shared=True))
    per_plan_time = _best_of(per_plan)
    plan_patches = len(models) * PATCHES
    return {
        "plans": len(models),
        "fused_pps": plan_patches / fused_time,
        "per_plan_pps": plan_patches / per_plan_time,
        "speedup": per_plan_time / fused_time,
    }


def _table3_setup():
    """A scaled Table III cell: one trained network, full plan set."""
    dataset = make_synthetic_cifar(
        SyntheticCifarConfig(
            num_classes=10, image_size=32, train_per_class=20, test_per_class=20, seed=3
        )
    )
    model = build_model("vgg13", num_classes=10, rng=np.random.default_rng(0))
    trainer = Trainer(model, SGD(learning_rate=0.05), rng=np.random.default_rng(1))
    trainer.fit(dataset.train_images, dataset.train_labels, epochs=1, batch_size=32)
    plans = [ExecutionPlan.uniform(AccurateProduct())] + [
        ExecutionPlan.uniform(PerforatedProduct(m, use_control_variate=cv))
        for m in (1, 2, 3)
        for cv in (True, False)
    ]
    return dataset, model, plans


def run_sweep_wallclock() -> dict:
    dataset, model, plans = _table3_setup()
    images = dataset.test_images
    calib = dataset.train_images[:64]
    compiled = ApproximateExecutor(model, calib, use_compiled=True)
    legacy = ApproximateExecutor(model, calib, use_compiled=False)
    for executor in (compiled, legacy):  # warm caches / kernels
        executor.predict(images[:16], plans[0])
    for plan in plans:
        np.testing.assert_array_equal(
            compiled.forward(images[:8], plan), legacy.forward(images[:8], plan)
        )

    def sweep(executor):
        def run():
            for plan in plans:
                executor.predict(images, plan)

        return run

    compiled_time = _best_of(sweep(compiled), repeats=2)
    legacy_time = _best_of(sweep(legacy), repeats=2)
    evals = len(plans) * images.shape[0]
    return {
        "legacy_time": legacy_time,
        "compiled_time": compiled_time,
        "legacy_ips": evals / legacy_time,
        "compiled_ips": evals / compiled_time,
        "speedup": legacy_time / compiled_time,
    }


def _render(lut: dict, backends: list[dict], sweep: dict) -> str:
    lines = [
        "engine throughput: legacy vs compiled product kernels",
        "",
        f"LUT product sums ({PATCHES} patches x {TAPS} taps x {FILTERS} filters):",
        f"  legacy    {lut['legacy_pps']:10.0f} patches/s  ({lut['legacy_time']:.3f} s)",
        f"  compiled  {lut['compiled_pps']:10.0f} patches/s  ({lut['compiled_time']:.3f} s"
        f" + {lut['compile_time']:.3f} s one-time compile)",
        f"  speedup   {lut['speedup']:.1f}x  (required >= {LUT_MIN_SPEEDUP:.0f}x)",
        "",
        "Backend throughput (patches/s, bit-exact vs legacy reference):",
    ]
    for row in backends:
        cases = "  ".join(
            f"{case}: {pps:10.0f}" for case, pps in row["cases"].items()
        )
        lines.append(f"  {row['backend']:<8} {cases}")
        fused = row["fused"]
        lines.append(
            f"  {'':<8} fused x{fused['plans']}: "
            f"{fused['fused_pps']:10.0f} plan-patches/s "
            f"(per-plan loop {fused['per_plan_pps']:10.0f}, "
            f"{fused['speedup']:.2f}x)"
        )
    lines += [
        "",
        "Table III sweep (vgg13, accurate + m=1..3 x {with, without} V):",
        f"  legacy    {sweep['legacy_ips']:10.1f} image-evals/s  ({sweep['legacy_time']:.2f} s)",
        f"  compiled  {sweep['compiled_ips']:10.1f} image-evals/s  ({sweep['compiled_time']:.2f} s)",
        f"  speedup   {sweep['speedup']:.1f}x  (required >= {SWEEP_MIN_SPEEDUP:.0f}x)",
    ]
    return "\n".join(lines)


def test_engine_throughput(results_dir):
    """Compiled kernels beat the legacy paths by the required margins, and
    the backend reports bit-exact throughput."""
    lut = run_lut_throughput()
    backends = run_backend_throughput()
    sweep = run_sweep_wallclock()
    rendered = _render(lut, backends, sweep)
    path = write_result(results_dir, "engine_throughput.txt", rendered)
    json_path = update_json_result(
        results_dir,
        "engine_throughput",
        {
            "workload": {"patches": PATCHES, "taps": TAPS, "filters": FILTERS},
            "lut": lut,
            "backends": backends,
            "sweep_compiled_vs_legacy": sweep,
        },
    )
    manifest_path = record_bench(
        "engine_throughput",
        inputs={
            "workload": {"patches": PATCHES, "taps": TAPS, "filters": FILTERS},
            "min_speedups": {"lut": LUT_MIN_SPEEDUP, "sweep": SWEEP_MIN_SPEEDUP},
        },
        outputs={
            "lut": lut,
            "backends": backends,
            "sweep_compiled_vs_legacy": sweep,
        },
    )
    print("\n" + rendered)
    print(f"\n[written to {path} and {json_path}; manifest {manifest_path}]")
    assert lut["speedup"] >= LUT_MIN_SPEEDUP
    assert sweep["speedup"] >= SWEEP_MIN_SPEEDUP
    by_name = {row["backend"]: row for row in backends}
    # The numpy backend's LUT kernel is the same code path as the compiled
    # measurement above, so its floor is the legacy speedup requirement.
    numpy_lut_pps = by_name["numpy"]["cases"]["lut (random table)"]
    assert numpy_lut_pps >= LUT_MIN_SPEEDUP * lut["legacy_pps"]


if __name__ == "__main__":
    lut_result = run_lut_throughput()
    backend_rows = run_backend_throughput()
    sweep_result = run_sweep_wallclock()
    print(_render(lut_result, backend_rows, sweep_result))
