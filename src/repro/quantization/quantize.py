"""Tensor quantization, dequantization and calibration helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quantization.schemes import QMAX, QMIN, QuantParams


def calibrate_minmax(tensor: np.ndarray) -> QuantParams:
    """Derive quantization parameters from the min/max of ``tensor``."""
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot calibrate an empty tensor")
    return QuantParams.from_range(float(arr.min()), float(arr.max()))


def calibrate_percentile(
    tensor: np.ndarray, percentile: float = 99.9, overwrite_input: bool = False
) -> QuantParams:
    """Derive quantization parameters from symmetric percentiles.

    Clipping a small fraction of outliers typically improves post-training
    quantization accuracy for activation tensors with long tails.

    Parameters
    ----------
    tensor:
        Observed activation samples.
    percentile:
        Upper percentile to keep, in ``(50, 100]``.  ``100`` degenerates to
        min/max calibration.
    overwrite_input:
        Partition a float64 ``tensor`` in place instead of a copy (the
        caller no longer reads it); the parameters are the same.
    """
    if not 50.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (50, 100], got {percentile}")
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot calibrate an empty tensor")
    # One partition serves both order statistics.
    lo, hi = np.percentile(
        arr, [100.0 - percentile, percentile], overwrite_input=overwrite_input
    )
    return QuantParams.from_range(float(lo), float(hi))


def quantize(
    tensor: np.ndarray, params: QuantParams, out: np.ndarray | None = None
) -> np.ndarray:
    """Quantize a real tensor to uint8 codes using ``params``.

    Parameters
    ----------
    tensor:
        Real-valued input of any shape.
    params:
        Quantization parameters.
    out:
        Optional preallocated uint8 array of the same shape receiving the
        codes — lets hot loops (e.g. the approximate executor) reuse a
        batch-persistent buffer instead of allocating per call.
    """
    arr = np.asarray(tensor, dtype=np.float64)
    # clip(rint(arr / scale) + zero_point), in place on one owned temporary.
    q = np.divide(arr, params.scale)
    np.rint(q, out=q)
    q += params.zero_point
    np.clip(q, QMIN, QMAX, out=q)
    if out is None:
        return q.astype(np.uint8)
    if out.dtype != np.uint8 or out.shape != arr.shape:
        raise ValueError(
            f"out must be uint8 with shape {arr.shape}, got {out.dtype} {out.shape}"
        )
    np.copyto(out, q, casting="unsafe")
    return out


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Recover real values from uint8 codes."""
    q = np.asarray(codes, dtype=np.float64)
    return (q - float(params.zero_point)) * params.scale


@dataclass(frozen=True)
class QuantizedTensor:
    """A uint8 tensor bundled with its quantization parameters."""

    codes: np.ndarray
    params: QuantParams

    def __post_init__(self) -> None:
        if self.codes.dtype != np.uint8:
            raise TypeError(f"codes must be uint8, got {self.codes.dtype}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.codes.shape)

    def dequantize(self) -> np.ndarray:
        """Return the real-valued tensor represented by this object."""
        return dequantize(self.codes, self.params)


def quantize_tensor(
    tensor: np.ndarray, params: QuantParams | None = None
) -> QuantizedTensor:
    """Quantize ``tensor``, calibrating parameters from it when not given."""
    if params is None:
        params = calibrate_minmax(tensor)
    return QuantizedTensor(codes=quantize(tensor, params), params=params)
