"""im2col / col2im helpers for NHWC convolution.

Convolutions are lowered to matrix multiplications: every receptive-field
patch becomes one row of a ``(patches, kh*kw*cin)`` matrix, and the filters
become a ``(kh*kw*cin, cout)`` matrix.  This is also exactly the layout the
quantized / approximate executors need, because the systolic MAC array of
Section IV consumes one weight column per filter and streams activation
patches through it.

The forward unfold, :func:`im2col`, is one strided-window copy: a
``(batch, out_h, out_w, kh, kw, channels)`` window view over the padded
input, flattened by a single contiguous copy.  The scatter indices of the
adjoint, :func:`col2im`, depend only on the convolution geometry, so
:func:`im2col_indices` memoizes them (LRU, keyed by the geometry tuple):
every training batch through the same layer pays the index construction
once.  The cached arrays are returned read-only and shared between callers;
they serve ``col2im`` only.
"""

from __future__ import annotations

import functools

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


@functools.lru_cache(maxsize=256)
def _cached_im2col_indices(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    base_r = np.repeat(np.arange(out_h) * stride, out_w)
    base_c = np.tile(np.arange(out_w) * stride, out_h)
    off_r = np.repeat(np.arange(kernel_h), kernel_w)
    off_c = np.tile(np.arange(kernel_w), kernel_h)
    rows = base_r[:, None] + off_r[None, :]
    cols = base_c[:, None] + off_c[None, :]
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols, out_h, out_w


def im2col_indices(
    height: int,
    width: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Row/column gather indices for im2col on a padded ``(H, W)`` plane.

    Returns ``(rows, cols, out_h, out_w)`` where ``rows`` and ``cols`` have
    shape ``(out_h * out_w, kernel_h * kernel_w)`` and index into the padded
    input plane.  The index arrays are memoized per geometry and returned as
    shared read-only views.
    """
    return _cached_im2col_indices(
        int(height), int(width), int(kernel_h), int(kernel_w), int(stride), int(pad)
    )


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
    pad_value: float | int = 0,
) -> tuple[np.ndarray, int, int]:
    """Unfold an NHWC tensor into patch rows.

    Parameters
    ----------
    x:
        Input of shape ``(batch, height, width, channels)``.
    kernel_h, kernel_w, stride, pad:
        Convolution geometry (symmetric padding).
    pad_value:
        Constant used for the padded border (default 0).  The quantized
        executor unfolds uint8 *codes* rather than real values and pads with
        the zero-point code — the code of the real value 0 — so that
        quantize-then-unfold equals unfold-then-quantize elementwise.

    Returns
    -------
    (columns, out_h, out_w):
        ``columns`` has shape ``(batch * out_h * out_w, kernel_h * kernel_w *
        channels)`` with the tap ordering ``(kh, kw, channel)`` — matching the
        filter reshape used by :class:`repro.nn.layers.Conv2D`.  It is
        C-contiguous, and a read-only view of ``x`` (or of its padded copy)
        wherever no copy is needed — a 1x1 kernel at stride 1, or one window
        over the whole padded input — so callers must never write into it.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    if pad:
        x = np.pad(
            x,
            ((0, 0), (pad, pad), (pad, pad), (0, 0)),
            mode="constant",
            constant_values=pad_value,
        )
    step_b, step_h, step_w, step_c = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kernel_h, kernel_w, channels),
        strides=(step_b, step_h * stride, step_w * stride, step_h, step_w, step_c),
        writeable=False,
    )
    # ``reshape`` makes the one contiguous copy wherever windows overlap or
    # skip, and returns a view where they already lie row-major in ``x``;
    # ``ascontiguousarray`` copies such a view only when ``x`` is itself
    # strided (a grouped convolution's channel slice).
    columns = np.ascontiguousarray(
        windows.reshape(batch * out_h * out_w, kernel_h * kernel_w * channels)
    )
    return columns, out_h, out_w


def col2im(
    columns: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold patch-row gradients back onto the (padded) input — adjoint of im2col."""
    batch, height, width, channels = input_shape
    rows, cols, out_h, out_w = im2col_indices(
        height, width, kernel_h, kernel_w, stride, pad
    )
    padded = np.zeros(
        (batch, height + 2 * pad, width + 2 * pad, channels), dtype=columns.dtype
    )
    patches = columns.reshape(batch, out_h * out_w, kernel_h * kernel_w, channels)
    # Scatter-add each tap back to its padded-plane position.
    np.add.at(padded, (slice(None), rows, cols, slice(None)), patches)
    if pad:
        return padded[:, pad:-pad, pad:-pad, :]
    return padded
