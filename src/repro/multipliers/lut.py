"""Lookup-table (LUT) based multiplier evaluation.

TFApprox — the flow the paper extends for its accuracy experiments — emulates
approximate hardware multipliers on GPU by exhaustive 256x256 lookup tables.
This module provides the same mechanism for the numpy engine:

* :func:`build_lut` materializes the table of any :class:`Multiplier`.
* :func:`apply_lut` evaluates products through a table with chunked fancy
  indexing so that large im2col matrices do not blow up memory.
* :class:`LUTMultiplier` turns an arbitrary table back into a
  :class:`Multiplier`, which is how externally-characterized multipliers
  (e.g. EvoApprox-style netlist simulations) would be imported.  The wire
  codec decodes LUT products into it, and ALWANN's weight tuning is one (a
  row remap of the library multiplier's table).
"""

from __future__ import annotations

import numpy as np

from repro.multipliers.base import Multiplier, OPERAND_LEVELS, _validate_operands


def build_lut(multiplier: Multiplier) -> np.ndarray:
    """Materialize the exhaustive ``256 x 256`` product table of a multiplier."""
    return multiplier.build_lut()


def apply_lut(
    lut: np.ndarray, w: np.ndarray, a: np.ndarray, chunk_size: int = 1 << 20
) -> np.ndarray:
    """Evaluate ``lut[w, a]`` elementwise with bounded peak memory.

    Parameters
    ----------
    lut:
        ``(256, 256)`` product table.
    w, a:
        Broadcast-compatible integer operand arrays with values in
        ``[0, 255]``.
    chunk_size:
        Number of elements looked up per chunk.
    """
    lut = np.asarray(lut)
    if lut.shape != (OPERAND_LEVELS, OPERAND_LEVELS):
        raise ValueError(f"lut must have shape (256, 256), got {lut.shape}")
    w64, a64 = _validate_operands(w, a)
    w_b, a_b = np.broadcast_arrays(w64, a64)
    flat_w = w_b.reshape(-1)
    flat_a = a_b.reshape(-1)
    out = np.empty(flat_w.shape[0], dtype=np.int64)
    for start in range(0, flat_w.shape[0], chunk_size):
        stop = start + chunk_size
        out[start:stop] = lut[flat_w[start:stop], flat_a[start:stop]]
    return out.reshape(w_b.shape)


class LUTMultiplier(Multiplier):
    """A multiplier defined entirely by an exhaustive product table.

    Products *are* the table, so a :class:`~repro.simulation.inference.
    LUTProduct` over it is fingerprint-identical to one over whatever
    multiplier produced the table.
    """

    def __init__(self, lut: np.ndarray, name: str = "lut"):
        lut = np.asarray(lut, dtype=np.int64)
        if lut.shape != (OPERAND_LEVELS, OPERAND_LEVELS):
            raise ValueError(f"lut must have shape (256, 256), got {lut.shape}")
        self._lut = lut
        self.name = str(name)

    @property
    def lut(self) -> np.ndarray:
        """The underlying product table (read-only view)."""
        view = self._lut.view()
        view.flags.writeable = False
        return view

    def multiply(self, w: np.ndarray, a: np.ndarray) -> np.ndarray:
        return apply_lut(self._lut, w, a)

    @classmethod
    def from_multiplier(cls, multiplier: Multiplier) -> "LUTMultiplier":
        """Freeze any multiplier into its LUT form (used to cross-check paths)."""
        return cls(build_lut(multiplier), name=f"lut[{multiplier.name}]")
