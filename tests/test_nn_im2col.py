"""Tests of the im2col / col2im lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import col2im, conv_output_size, im2col, im2col_indices


def _direct_conv(x, weight, stride, pad):
    """Naive reference convolution (NHWC, weight (kh, kw, cin, cout))."""
    batch, height, width, cin = x.shape
    kh, kw, _, cout = weight.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out_h = (height + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    out = np.zeros((batch, out_h, out_w, cout))
    for b in range(batch):
        for i in range(out_h):
            for j in range(out_w):
                patch = x[b, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
                for f in range(cout):
                    out[b, i, j, f] = (patch * weight[..., f]).sum()
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(16, 3, 1, 1) == 16
        assert conv_output_size(16, 3, 2, 1) == 8
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_indices_shape(self):
        rows, cols, out_h, out_w = im2col_indices(8, 8, 3, 3, 1, 1)
        assert rows.shape == (64, 9)
        assert cols.shape == (64, 9)
        assert (out_h, out_w) == (8, 8)

    def test_requires_nhwc(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((4, 4, 3)), 3, 3)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matmul_equals_direct_convolution(self, rng, stride, pad):
        x = rng.normal(size=(2, 8, 8, 3))
        weight = rng.normal(size=(3, 3, 3, 5))
        cols, out_h, out_w = im2col(x, 3, 3, stride, pad)
        result = (cols @ weight.reshape(-1, 5)).reshape(2, out_h, out_w, 5)
        expected = _direct_conv(x, weight, stride, pad)
        assert np.allclose(result, expected)

    def test_1x1_kernel_is_reshape(self, rng):
        x = rng.normal(size=(2, 5, 5, 4))
        cols, out_h, out_w = im2col(x, 1, 1, 1, 0)
        assert cols.shape == (2 * 25, 4)
        assert np.array_equal(cols.view(np.uint64), x.reshape(-1, 4).view(np.uint64))
        # The windows already tile ``x`` row-major: a read-only view, no copy.
        assert np.shares_memory(cols, x)
        assert not cols.flags.writeable

    @given(
        height=st.integers(4, 10),
        width=st.integers(4, 10),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_shapes_property(self, height, width, kernel, stride):
        pad = (kernel - 1) // 2
        x = np.zeros((1, height, width, 2))
        cols, out_h, out_w = im2col(x, kernel, kernel, stride, pad)
        assert cols.shape == (out_h * out_w, kernel * kernel * 2)
        assert out_h == conv_output_size(height, kernel, stride, pad)


class TestCol2im:
    def test_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 6, 6, 3))
        cols, out_h, out_w = im2col(x, 3, 3, 1, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_no_padding_case(self, rng):
        x = rng.normal(size=(1, 4, 4, 2))
        cols, _, _ = im2col(x, 2, 2, 2, 0)
        back = col2im(np.ones_like(cols), x.shape, 2, 2, 2, 0)
        # Non-overlapping 2x2 windows: every input position is counted once.
        assert np.allclose(back, 1.0)
