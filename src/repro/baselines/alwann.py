"""ALWANN-style baseline: library multiplier selection plus weight tuning.

ALWANN (Mrazek et al., ICCAD 2019) builds approximate accelerators without
retraining by (a) choosing approximate multipliers from a characterized
library and (b) *tuning* the stored weights: every weight value ``w`` is
replaced by the nearby value ``w'`` whose approximate products best match
the exact products of ``w`` under the expected activation distribution.
The original work searches a per-layer (non-uniform) assignment with NSGA-II;
the paper's comparison uses the *uniform* variant (one multiplier type for
the whole network) for fairness, which is what this class implements: it
scans the library's Pareto front from cheapest to most accurate and keeps the
cheapest multiplier whose accuracy stays within the allowed drop.

Uniform tuning maps every weight code ``w`` to one ``t(w)``, so the tuned
products ``lut[t(w), a]`` are the multiplier's table with its rows
remapped.  :func:`tuned_product` is a LUT product over that table, run on
the layer's own codes: its fingerprint digests the table, so the tuning is
part of the plan, while the zero-point terms and the control constants
keep the stored codes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.base import TechniqueResult
from repro.hardware.area_power import array_cost_from_multiplier
from repro.hardware.technology import GENERIC_14NM, TechnologyModel
from repro.multipliers.base import Multiplier, OPERAND_LEVELS
from repro.multipliers.library import LibraryEntry, MultiplierLibrary
from repro.multipliers.lut import LUTMultiplier
from repro.simulation.inference import AccurateProduct, ExecutionPlan, LUTProduct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Evaluator


def tune_weights(
    weight_codes: np.ndarray,
    multiplier: Multiplier,
    activation_codes: np.ndarray | None = None,
    search_radius: int = 2,
) -> np.ndarray:
    """ALWANN weight tuning: map each weight to the code minimizing expected error.

    For every weight value ``w`` the tuned value ``w'`` (within
    ``search_radius`` codes of ``w``) minimizes

        sum_a p(a) | approx(w', a) - w * a |

    where ``p(a)`` is the empirical activation distribution (uniform when no
    samples are given).  Only the value mapping depends on the multiplier, so
    the mapping is computed once per weight value and applied via lookup.
    """
    codes = np.asarray(weight_codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= OPERAND_LEVELS):
        raise ValueError("weight codes out of the uint8 range")
    if activation_codes is None:
        probabilities = np.full(OPERAND_LEVELS, 1.0 / OPERAND_LEVELS)
    else:
        acts = np.asarray(activation_codes, dtype=np.int64).reshape(-1)
        counts = np.bincount(acts, minlength=OPERAND_LEVELS).astype(np.float64)
        probabilities = counts / counts.sum()
    lut = multiplier.build_lut().astype(np.float64)
    a_values = np.arange(OPERAND_LEVELS, dtype=np.float64)
    mapping = np.empty(OPERAND_LEVELS, dtype=np.int64)
    for w in range(OPERAND_LEVELS):
        lo = max(0, w - search_radius)
        hi = min(OPERAND_LEVELS - 1, w + search_radius)
        candidates = np.arange(lo, hi + 1)
        exact = w * a_values
        costs = np.abs(lut[candidates, :] - exact[None, :]) @ probabilities
        mapping[w] = candidates[int(np.argmin(costs))]
    return mapping[codes].astype(np.uint8)


def tuned_product(multiplier: Multiplier) -> LUTProduct:
    """``multiplier`` under uniform weight tuning, as one LUT product.

    Row ``w`` of its table is row ``tune_weights(w)`` of the multiplier's,
    so on a layer's own codes it multiplies the tuned weights.
    """
    mapping = tune_weights(np.arange(OPERAND_LEVELS), multiplier)
    table = multiplier.build_lut()[mapping]
    return LUTProduct(LUTMultiplier(table, name=f"{multiplier.name}+tuned"))


class AlwannBaseline:
    """Uniform ALWANN: one library multiplier for the whole network."""

    name = "alwann"

    def __init__(
        self,
        library: MultiplierLibrary,
        array_size: int = 64,
        max_accuracy_drop: float = 0.01,
        technology: TechnologyModel = GENERIC_14NM,
        apply_weight_tuning: bool = True,
    ):
        self.library = library
        self.array_size = int(array_size)
        self.max_accuracy_drop = float(max_accuracy_drop)
        self.technology = technology
        self.apply_weight_tuning = bool(apply_weight_tuning)

    # ------------------------------------------------------------------
    def _candidates(self) -> list[LibraryEntry]:
        """Fixed-function library entries, cheapest first."""
        entries = [e for e in self.library.pareto_front() if not e.reconfigurable]
        return sorted(entries, key=lambda e: e.relative_power)

    def apply(self, evaluator: "Evaluator") -> TechniqueResult:
        """Select the cheapest multiplier whose accuracy fits the budget."""
        baseline_plan = ExecutionPlan.uniform(AccurateProduct())
        baseline_acc = evaluator.evaluate([baseline_plan])[0]
        for entry in self._candidates():
            product = (
                tuned_product(entry.multiplier)
                if self.apply_weight_tuning
                else LUTProduct(entry.multiplier)
            )
            plan = ExecutionPlan.uniform(product)
            accuracy = evaluator.evaluate([plan])[0]
            if baseline_acc - accuracy <= self.max_accuracy_drop:
                break
        else:
            # No approximate entry satisfies the budget: fall back to accurate.
            entry = self.library.accurate_entry()
            plan, accuracy = baseline_plan, baseline_acc
        power_mw = array_cost_from_multiplier(
            entry.relative_power,
            entry.relative_area,
            self.array_size,
            tech=self.technology,
        ).power_mw
        return TechniqueResult(
            technique=self.name,
            plan=plan,
            array_power_mw=power_mw,
            extra_cycles_per_layer=0,
            accuracy=accuracy,
            baseline_accuracy=baseline_acc,
            details={"multiplier": entry.name, "weight_tuning": self.apply_weight_tuning},
        )
