"""Oracles of the executor's float glue: each copy-light body against the
formula it replaced, bit for bit.

* :func:`~repro.nn.im2col.im2col` is one strided-window copy; its oracle is
  the index gather ``x[:, rows, cols, :]`` over
  :func:`~repro.nn.im2col.im2col_indices`.
* :meth:`~repro.nn.layers.BatchNorm.forward` (one chain for eval and
  training) and :func:`~repro.quantization.quantize.quantize` run in place
  on one owned temporary; their oracles are the allocating expressions.
* :func:`~repro.quantization.quantize.calibrate_percentile` takes both
  percentiles from one partition; its oracle is two single-q calls.
* :class:`~repro.simulation.inference.ApproximateExecutor` calibrates each
  MAC layer on one float walk that drops every activation after its last
  reader, taking each range on a helper thread and partitioning dropped
  inputs in place; its oracle calibrates from ``Graph.forward(...,
  return_activations=True)``, which keeps them all, at calibration counts
  from 1 to 32 images.  Calibration pins BLAS to one thread first, so an
  executor built first in a fresh interpreter gets the parameters of one
  built after another executor's sharded walk.
* :func:`~repro.simulation.campaign.calibrated_executor` calibrates a
  cached model once per calibration set and builds later executors from
  the stored parameters; its oracle is the executor that calibrated (the
  miss) and a plain ``ApproximateExecutor``, whose parameters and logits a
  hit reproduces bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.models.zoo import build_model
from repro.multipliers.perforated import PerforatedMultiplier
from repro.nn.im2col import im2col, im2col_indices
from repro.nn.layers import BatchNorm
from repro.quantization.quantize import calibrate_minmax, calibrate_percentile, quantize
from repro.quantization.schemes import QMAX, QMIN, QuantParams
from repro.simulation.campaign import (
    TrainedModelCache,
    TrainingSettings,
    calibrated_executor,
)
from repro.simulation.inference import (
    AccurateProduct,
    ApproximateExecutor,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
)

pytestmark = pytest.mark.engine


def _same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal dtype, shape and bit pattern (so -0.0 differs from 0.0)."""
    unsigned = f"u{expected.itemsize}"
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and np.array_equal(actual.view(unsigned), expected.view(unsigned))
    )


def _gather_im2col(x, kernel, stride, pad, pad_value=0):
    """The index-gather unfold ``im2col`` replaced."""
    batch, height, width, channels = x.shape
    if pad:
        x = np.pad(
            x,
            ((0, 0), (pad, pad), (pad, pad), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    rows, cols, out_h, out_w = im2col_indices(height, width, kernel, kernel, stride, pad)
    columns = x[:, rows, cols, :].reshape(batch * out_h * out_w, kernel * kernel * channels)
    return columns, out_h, out_w


def _codes_and_pad(rng, dtype: str, shape):
    """uint8 codes padded with a non-zero code, or float64 padded with 0."""
    if dtype == "uint8":
        return rng.integers(0, 256, size=shape, dtype=np.uint8), 7
    return rng.normal(size=shape), 0


class TestStridedIm2col:
    @pytest.mark.parametrize("dtype", ["uint8", "float64"])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_equals_index_gather(self, rng, dtype, kernel, stride, pad):
        x, pad_value = _codes_and_pad(rng, dtype, (3, 7, 6, 5))
        columns, out_h, out_w = im2col(x, kernel, kernel, stride, pad, pad_value=pad_value)
        expected, exp_h, exp_w = _gather_im2col(x, kernel, stride, pad, pad_value)
        assert (out_h, out_w) == (exp_h, exp_w)
        assert _same_bits(columns, expected)
        # 1x1 windows at stride 1 tile the (padded) input row-major: a
        # read-only view of it.  Overlapping or skipping windows are copied.
        view = kernel == 1 and stride == 1
        assert columns.flags.c_contiguous
        assert columns.flags.writeable != view
        assert np.shares_memory(columns, x) == (view and not pad)

    @pytest.mark.parametrize("dtype", ["uint8", "float64"])
    @pytest.mark.parametrize("kernel,stride,pad", [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 0)])
    def test_channel_slice_of_a_grouped_conv(self, rng, dtype, kernel, stride, pad):
        """A group's input is a non-contiguous channel slice."""
        x, pad_value = _codes_and_pad(rng, dtype, (2, 6, 6, 8))
        group = x[..., 4:8]
        assert not group.flags.c_contiguous
        columns, _, _ = im2col(group, kernel, kernel, stride, pad, pad_value=pad_value)
        expected, _, _ = _gather_im2col(group, kernel, stride, pad, pad_value)
        assert _same_bits(columns, expected)
        assert columns.flags.c_contiguous and columns.flags.writeable
        assert not np.shares_memory(columns, x)

    @pytest.mark.parametrize("pad", [0, 1])
    def test_one_window_over_the_whole_input_is_a_read_only_view(self, rng, pad):
        """A kernel as large as the padded input needs no copy either."""
        x = rng.integers(0, 256, size=(2, 5, 5, 4), dtype=np.uint8)
        kernel = 5 + 2 * pad
        columns, _, _ = im2col(x, kernel, kernel, 1, pad, pad_value=7)
        expected, _, _ = _gather_im2col(x, kernel, 1, pad, pad_value=7)
        assert _same_bits(columns, expected)
        assert columns.flags.c_contiguous and not columns.flags.writeable
        assert np.shares_memory(columns, x) == (not pad)


def _batchnorm(rng, channels: int) -> BatchNorm:
    layer = BatchNorm(channels)
    layer.gamma = rng.normal(size=channels)
    layer.beta = rng.normal(size=channels)
    layer.running_mean = rng.normal(size=channels)
    layer.running_var = rng.random(channels) + 0.1
    return layer


class TestInPlaceBatchNorm:
    @pytest.mark.parametrize("shape", [(4, 5, 5, 6), (7, 6)])
    def test_eval_forward_equals_formula_bit_for_bit(self, rng, shape):
        layer = _batchnorm(rng, 6)
        x = rng.normal(size=shape)
        before = x.copy()
        inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
        expected = layer.gamma * ((x - layer.running_mean) * inv_std) + layer.beta
        assert _same_bits(layer.forward(x), expected)
        assert _same_bits(x, before)  # the input is not the temporary
        assert layer._cache is None

    def test_training_forward_still_caches_x_hat(self, rng):
        layer = _batchnorm(rng, 3)
        x = rng.normal(size=(8, 4, 4, 3))
        axes = (0, 1, 2)
        inv_std = 1.0 / np.sqrt(x.var(axis=axes) + layer.eps)
        x_hat = (x - x.mean(axis=axes)) * inv_std
        out = layer.forward(x, training=True)
        assert _same_bits(layer._cache["x_hat"], x_hat)
        assert _same_bits(out, layer.gamma * x_hat + layer.beta)
        (dx,) = layer.backward(np.ones_like(x))
        assert dx.shape == x.shape


def _expression_quantize(tensor, params: QuantParams) -> np.ndarray:
    """The allocating expression ``quantize`` replaced."""
    arr = np.asarray(tensor, dtype=np.float64)
    q = np.rint(arr / params.scale) + params.zero_point
    np.clip(q, QMIN, QMAX, out=q)
    return q.astype(np.uint8)


class TestInPlaceQuantize:
    @pytest.mark.parametrize("case", ["float64", "half_code_ties", "float32", "strided"])
    def test_equals_old_expression_with_and_without_out(self, rng, case):
        params = QuantParams.from_range(-1.5, 2.5)
        tensor = rng.normal(scale=2.0, size=(5, 8, 3))  # spills past both clips
        if case == "half_code_ties":
            tensor = (np.arange(-300, 300) + 0.5) * params.scale
        elif case == "float32":
            tensor = tensor.astype(np.float32)
        elif case == "strided":
            tensor = tensor[:, ::2]
        before = tensor.copy()
        expected = _expression_quantize(tensor, params)
        assert _same_bits(quantize(tensor, params), expected)
        out = np.empty(expected.shape, dtype=np.uint8)
        assert quantize(tensor, params, out=out) is out
        assert _same_bits(out, expected)
        assert _same_bits(tensor, before)


class TestOnePartitionPercentile:
    @pytest.mark.parametrize("percentile", [99.9, 99.0, 75.0, 100.0])
    def test_equals_two_single_q_calls(self, rng, percentile):
        tensor = rng.standard_t(3, size=(9, 11, 13))  # long tails
        lo = float(np.percentile(tensor, 100.0 - percentile))
        hi = float(np.percentile(tensor, percentile))
        assert calibrate_percentile(tensor, percentile) == QuantParams.from_range(lo, hi)


class TestOneWalkCalibration:
    @pytest.mark.parametrize(
        "network, overrides",
        [
            ("vgg13", {}),
            ("resnet44", {"base_width": 4}),  # residual merges
            ("shufflenet", {}),  # grouped convolutions, channel shuffles
            ("googlenet", {"base_width": 4}),  # concatenated branches
        ],
    )
    @pytest.mark.parametrize("percentile", [99.9, 100.0])
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 32])
    def test_activation_params_equal_the_keep_everything_walk(
        self, tiny_dataset, network, overrides, percentile, count
    ):
        model = build_model(
            network,
            num_classes=tiny_dataset.num_classes,
            rng=np.random.default_rng(5),
            **overrides,
        )
        images = tiny_dataset.train_images[:count].copy()
        before = images.copy()
        executor = ApproximateExecutor(model, images, activation_percentile=percentile)
        # The first MAC node reads the caller's images: never partitioned.
        np.testing.assert_array_equal(images, before)
        _, activations = model.forward(images, training=False, return_activations=True)
        nodes = model.conv_dense_nodes()
        assert sorted(executor._nodes) == sorted(node.name for node in nodes)
        for node in nodes:
            x = activations[node.inputs[0]]
            expected = (
                calibrate_minmax(x) if percentile >= 100.0 else calibrate_percentile(x, percentile)
            )
            # A positive finite scale compares equal only to the same bits.
            assert executor._nodes[node.name].act_params == expected, node.name


class TestStoredCalibration:
    @pytest.fixture(scope="class")
    def cached(self, tiny_dataset, tmp_path_factory):
        """vgg13 loaded back from a trained-model cache entry."""
        cache = TrainedModelCache(cache_dir=str(tmp_path_factory.mktemp("stored-calibration")))
        settings = TrainingSettings(epochs=1)
        cache.load_or_train("vgg13", tiny_dataset, settings)
        return cache.load_or_train("vgg13", tiny_dataset, settings)

    @pytest.mark.parametrize("percentile", [99.9, 100.0])
    def test_a_hit_is_bit_identical_to_a_miss_and_a_fresh_executor(
        self, cached, tiny_dataset, calibration_walks, percentile
    ):
        walks = calibration_walks
        images = tiny_dataset.train_images[:32]
        miss = calibrated_executor(cached, images, percentile)
        hit = calibrated_executor(cached, images, percentile)
        fresh = ApproximateExecutor(cached.model, images, activation_percentile=percentile)
        assert len(walks) == 2  # the miss and the fresh executor; the hit walked nothing
        assert hit.act_params() == miss.act_params() == fresh.act_params()
        assert list(hit.act_params()) == hit.mac_layer_names()
        test_images = tiny_dataset.test_images[:16]
        for plan in (
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(2)),
            ExecutionPlan.uniform(PerforatedProduct(3, use_control_variate=False)),
            ExecutionPlan.uniform(LUTProduct(PerforatedMultiplier(1))),
        ):
            expected = fresh.forward(test_images, plan).view(np.uint64)
            for executor in (hit, miss):
                got = executor.forward(test_images, plan).view(np.uint64)
                np.testing.assert_array_equal(got, expected)


#: Builds vgg13 on the test suite's synthetic images in a fresh interpreter
#: and prints whether an executor built first calibrates like one built
#: after a sharded walk of another network.  Before calibration pinned BLAS,
#: the first ran on OpenBLAS's default threads (one per core) and every
#: later one on one thread, and the two disagreed on one vgg13 node at 32
#: images on a 2-CPU host.
_FIRST_EXECUTOR_SCRIPT = """
import numpy as np
from repro.datasets.synthetic import SyntheticCifarConfig, make_synthetic_cifar
from repro.models.zoo import build_model
from repro.runtime import sizing
from repro.simulation.inference import ApproximateExecutor, AccurateProduct, ExecutionPlan

config = SyntheticCifarConfig(num_classes=4, image_size=16, train_per_class=40,
                              test_per_class=10, noise_std=0.10, confusion=0.20, seed=7)
dataset = make_synthetic_cifar(config)
images = dataset.train_images[:32]
model = build_model("vgg13", num_classes=4, rng=np.random.default_rng(5))
first = ApproximateExecutor(model, images)
sizing.effective_cpu_count = lambda: 2
other = build_model("shufflenet", num_classes=4, rng=np.random.default_rng(5))
ApproximateExecutor(other, images).forward(
    dataset.test_images[:4], ExecutionPlan.uniform(AccurateProduct())
)
later = ApproximateExecutor(model, images)
print(sorted(n for n in first._nodes if first._nodes[n].act_params != later._nodes[n].act_params))
"""


def test_first_executor_calibrates_like_one_built_after_a_sharded_walk():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    result = subprocess.run(
        [sys.executable, "-c", _FIRST_EXECUTOR_SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
