"""Property tests of the zero-point-folded MAC launch.

A compiled launch multiplies the layer group's centered weights
``W' = W - z_w`` (:class:`~repro.core.product_kernels.ZeroPointFold`) and
returns the exact integer bracket of the dequantization, which
:meth:`~repro.quantization.qlayers.QuantizedLinearOp.output_real_stacked`
only scales.  Every launch must equal, bit for bit (``.view(np.uint64)``),
per-block :meth:`ProductKernel.product_sums` followed by the textbook
:meth:`QuantizedLinearOp.output_real`:

* on random launches: zero points 0, mid and 255; ``m`` from 0 to 7 with
  and without the control variate, whose constants are quantized or real;
  compiled and streaming LUTs, over a library table or a tuned one (its
  rows remapped, as ALWANN's weight tuning does), and callback blocks;
  shared and stacked launches; and layers whose ``255 * sum_j |W'_j|``
  leaves float32, so they multiply in float64 (and perforated bit sums
  past 2^16, which leave uint16);
* on every launch of an executor walking a grouped-convolution network
  under random plan mixes, with and without a tuned-table LUT layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    _F32_EXACT_BOUND,
    AccurateKernel,
    CallbackKernel,
    LUTKernel,
    MultiPlanKernel,
    PerforatedKernel,
    ZeroPointFold,
)
from repro.models.zoo import build_model
from repro.multipliers.lut import LUTMultiplier
from repro.multipliers.truncated import TruncatedMultiplier
from repro.quantization.qlayers import QuantizedLinearOp
from repro.quantization.schemes import QuantParams
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
    ProductModel,
)

pytestmark = pytest.mark.engine

_LUT = TruncatedMultiplier(1, 2).build_lut()
_EXACT_LUT = np.outer(np.arange(256), np.arange(256))

_BLOCKS = st.one_of(
    st.just(("accurate",)),
    st.tuples(
        st.just("perf"), st.integers(0, 7), st.sampled_from(["none", "quantized", "real"])
    ),
    st.just(("lut",)),
    st.just(("exact_lut",)),
    st.just(("streaming_lut",)),
    st.just(("tuned_lut",)),
    st.just(("tuned_streaming_lut",)),
    st.tuples(st.just("callback"), st.integers(0, 7), st.booleans()),
)


def _zero_point(kind: str, rng: np.random.Generator) -> int:
    return {"zero": 0, "mid": int(rng.integers(1, 255)), "max": 255}[kind]


def _tuned_lut(rng: np.random.Generator) -> np.ndarray:
    """``_LUT`` with its weight rows remapped at random: a tuned table."""
    return _LUT[rng.integers(0, 256, size=256)]


def _compile(spec, weights: np.ndarray, tuned_lut: np.ndarray):
    """The per-block kernel of ``spec`` over the layer's codes ``weights``."""
    if spec[0] == "accurate":
        return AccurateKernel(weights)
    if spec[0] == "perf":
        _, m, cv_kind = spec
        cv = None
        if cv_kind != "none":
            cv = ControlVariate.from_weight_matrix(weights, quantize=cv_kind == "quantized")
        return PerforatedKernel(weights, m, cv)
    if spec[0] == "lut":
        return LUTKernel(weights, _LUT)
    if spec[0] == "exact_lut":
        return LUTKernel(weights, _EXACT_LUT)
    if spec[0] == "streaming_lut":
        return LUTKernel(weights, _LUT, max_error_matrix_bytes=0)
    if spec[0] == "tuned_lut":
        return LUTKernel(weights, tuned_lut)
    if spec[0] == "tuned_streaming_lut":
        return LUTKernel(weights, tuned_lut, max_error_matrix_bytes=0)
    _, m, use_cv = spec
    return CallbackKernel(
        PerforatedProduct(m, use_cv), weights, ControlVariate.from_weight_matrix(weights)
    )


def _assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


@given(
    seed=st.integers(0, 2**32 - 1),
    specs=st.lists(_BLOCKS, min_size=1, max_size=5),
    weight_zero=st.sampled_from(["zero", "mid", "max"]),
    act_zero=st.sampled_from(["zero", "mid", "max"]),
    shared=st.booleans(),
    wide=st.booleans(),
    capped=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_a_folded_launch_equals_product_sums_plus_output_real(
    seed, specs, weight_zero, act_zero, shared, wide, capped
):
    rng = np.random.default_rng(seed)
    filters = int(rng.integers(1, 5))
    rows = int(rng.integers(1, 6))
    # Wide layers: 255 * sum_j |w_j - 0| >= 255 * 300 * 250 > 2^24, so the
    # centered operand is float64.
    taps, low = (300, 250) if wide else (int(rng.integers(1, 13)), 0)
    z_w = 0 if wide else _zero_point(weight_zero, rng)
    weights = rng.integers(low, 256, size=(taps, filters), dtype=np.uint8)
    z_a = _zero_point(act_zero, rng)
    op = QuantizedLinearOp(
        weights, QuantParams(scale=float(rng.uniform(1e-3, 0.1)), zero_point=z_w),
        bias=rng.normal(size=filters),
    )
    act_params = QuantParams(scale=float(rng.uniform(1e-3, 0.1)), zero_point=z_a)
    tuned_lut = _tuned_lut(rng)
    kernels = [_compile(spec, weights, tuned_lut) for spec in specs]
    fold = ZeroPointFold(weights, z_w, z_a)
    if wide:
        assert 255 * int(np.abs(weights.astype(np.int64) - z_w).sum(axis=0).max()) >= _F32_EXACT_BOUND
        assert fold.operand._f32 is None
    multi = MultiPlanKernel(kernels, max_error_matrix_bytes=0 if capped else 1 << 28, fold=fold)
    act = rng.integers(0, 256, size=(rows if shared else rows * len(specs), taps), dtype=np.uint8)

    result = op.output_real_stacked(multi.product_sums_multi(act, shared=shared), act_params)

    blocks = [act if shared else act[p * rows : (p + 1) * rows] for p in range(len(specs))]
    expected = np.concatenate(
        [
            op.output_real(block, act_params, kernel.product_sums(block))
            for kernel, block in zip(kernels, blocks)
        ]
    )
    _assert_same_bits(result, expected)


def test_perforated_bit_sums_past_uint16_stay_exact():
    """m = 7 over 520 taps of code 255: sum_j x_j = 520 * 127 > 2^16 - 1,
    so the sums are taken in int64."""
    taps, filters = 520, 3
    weights = np.random.default_rng(0).integers(0, 256, size=(taps, filters), dtype=np.uint8)
    kernel = PerforatedKernel(weights, 7, ControlVariate.from_weight_matrix(weights))
    op = QuantizedLinearOp(weights, QuantParams(scale=0.01, zero_point=128))
    act_params = QuantParams(scale=0.02, zero_point=3)
    act = np.full((4, taps), 255, dtype=np.uint8)
    multi = MultiPlanKernel([kernel], fold=ZeroPointFold(weights, 128, 3))
    result = op.output_real_stacked(multi.product_sums_multi(act), act_params)
    _assert_same_bits(result, op.output_real(act, act_params, kernel.product_sums(act)))


def test_zero_points_of_zero_leave_the_raw_product_sums(rng):
    weights = rng.integers(0, 256, size=(7, 3), dtype=np.uint8)
    act = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    cv = ControlVariate.from_weight_matrix(weights)
    kernels = [AccurateKernel(weights), PerforatedKernel(weights, 2, cv), LUTKernel(weights, _LUT)]
    sums = MultiPlanKernel(kernels).product_sums_multi(act, shared=True)
    np.testing.assert_array_equal(sums, np.concatenate([k(act) for k in kernels]))


class _Callback(ProductModel):
    """A product model without a compiled form: its kernel is a callback."""

    def product_sums(self, act_codes, weight_codes, control_variate):
        return PerforatedProduct(3).product_sums(act_codes, weight_codes, control_variate)

    def fingerprint(self) -> tuple:
        return ("callback-perforated", 3)


_MODELS = (
    AccurateProduct(),
    PerforatedProduct(1),
    PerforatedProduct(2, use_control_variate=False),
    PerforatedProduct(3),
    PerforatedProduct(7, use_control_variate=False),
    LUTProduct(TruncatedMultiplier(1, 2)),
    _Callback(),
)

_EXECUTORS: dict[str, ApproximateExecutor] = {}


def _executor(tiny_dataset) -> ApproximateExecutor:
    if "shufflenet" not in _EXECUTORS:
        model = build_model(
            "shufflenet", num_classes=tiny_dataset.num_classes, rng=np.random.default_rng(3)
        )
        _EXECUTORS["shufflenet"] = ApproximateExecutor(model, tiny_dataset.train_images[:16])
    return _EXECUTORS["shufflenet"]


@given(
    choices=st.lists(
        st.lists(st.integers(0, len(_MODELS) - 1), min_size=1, max_size=40),
        min_size=1,
        max_size=3,
    ),
    tuned_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
@settings(max_examples=15, deadline=None)
def test_every_launch_of_a_grouped_conv_walk_equals_the_textbook_chain(
    tiny_dataset, choices, tuned_seed
):
    executor = _executor(tiny_dataset)
    # Start from an empty kernel cache: the check below finds each launch's
    # kernel in it, and a hit on an old entry would not save it from eviction.
    executor.drop_working_set()
    names = executor.mac_layer_names()
    plans = [
        ExecutionPlan(
            default=AccurateProduct(),
            per_layer={
                name: _MODELS[line[i % len(line)]] for i, name in enumerate(names)
            },
        )
        for line in choices
    ]
    if tuned_seed is not None:
        # One layer of every plan runs a tuned table, as ALWANN plans do.
        rng = np.random.default_rng(tuned_seed)
        layer = names[int(rng.integers(len(names)))]
        tuned = LUTProduct(LUTMultiplier(_tuned_lut(rng)))
        plans = [plan.with_layer(layer, tuned) for plan in plans]
    launches = []
    launch = MultiPlanKernel.product_sums_multi

    def record(kernel, act_codes, shared=False):
        sums = launch(kernel, act_codes, shared=shared)
        launches.append((kernel, act_codes.copy(), shared, sums.copy()))
        return sums

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultiPlanKernel, "product_sums_multi", record)
        executor.forward_many(tiny_dataset.test_images[:2], plans)
    owners = {id(kernel): key for key, kernel in executor._kernels.items()}
    grouped = 0
    assert launches
    for kernel, act, shared, sums in launches:
        name, group, _ = owners[id(kernel)]
        qnode = executor._nodes[name]
        op = qnode.ops[group]
        grouped += len(qnode.ops) > 1
        rows = act.shape[0] if shared else act.shape[0] // kernel.plans
        blocks = [
            act if shared else act[p * rows : (p + 1) * rows]
            for p in range(kernel.plans)
        ]
        expected = np.concatenate(
            [
                op.output_real(block, qnode.act_params, block_kernel.product_sums(block))
                for block_kernel, block in zip(kernel.kernels, blocks)
            ]
        )
        _assert_same_bits(op.output_real_stacked(sums, qnode.act_params), expected)
    assert grouped
