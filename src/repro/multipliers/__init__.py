"""Approximate multiplier substrate.

The paper replaces the accurate unsigned 8x8 multipliers of the MAC array
with *partial product perforated* multipliers (Zervakis et al., TVLSI 2016)
and, for the state-of-the-art comparison of Fig. 5, builds every technique on
a shared library of approximate multipliers (EvoApprox8b in the paper; a
synthetic equivalent here).

Public API
----------
* :class:`~repro.multipliers.base.Multiplier` — the behavioural interface.
* :class:`~repro.multipliers.accurate.AccurateMultiplier`
* :class:`~repro.multipliers.perforated.PerforatedMultiplier` — the paper's
  approximate multiplier; error ``eps = W * (A mod 2^m)``.
* :class:`~repro.multipliers.truncated.TruncatedMultiplier`
* :class:`~repro.multipliers.compensated.CompensatedMultiplier`
* :class:`~repro.multipliers.lut.LUTMultiplier`,
  :class:`~repro.multipliers.lut.TableMultiplier` and LUT helpers.
* :class:`~repro.multipliers.library.MultiplierLibrary` — a synthetic
  EvoApprox-like library with power/area/delay metadata.
* :mod:`~repro.multipliers.error_stats` — empirical and analytical error
  statistics of a multiplier.
"""

from repro.multipliers.base import Multiplier, OPERAND_BITS, OPERAND_LEVELS
from repro.multipliers.accurate import AccurateMultiplier
from repro.multipliers.perforated import PerforatedMultiplier
from repro.multipliers.truncated import TruncatedMultiplier
from repro.multipliers.compensated import CompensatedMultiplier
from repro.multipliers.lut import LUTMultiplier, TableMultiplier, build_lut, apply_lut
from repro.multipliers.library import LibraryEntry, MultiplierLibrary
from repro.multipliers.error_stats import (
    ErrorStats,
    empirical_error_stats,
    perforation_error_stats,
)

__all__ = [
    "Multiplier",
    "OPERAND_BITS",
    "OPERAND_LEVELS",
    "AccurateMultiplier",
    "PerforatedMultiplier",
    "TruncatedMultiplier",
    "CompensatedMultiplier",
    "LUTMultiplier",
    "TableMultiplier",
    "build_lut",
    "apply_lut",
    "LibraryEntry",
    "MultiplierLibrary",
    "ErrorStats",
    "empirical_error_stats",
    "perforation_error_stats",
]
