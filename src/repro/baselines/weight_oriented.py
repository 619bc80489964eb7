"""Weight-oriented approximation baseline (Tasoulas et al., TCAS-I 2020).

The weight-oriented approach ([6] in the paper) uses runtime-reconfigurable
multipliers with a few accuracy modes and selects the mode *per weight
value*: weights that would induce large multiplication errors are mapped to
the low-approximation mode, the remaining ones to the aggressive mode.  The
multipliers carry a constant correction for their systematic (mean) error,
so the technique is unbiased but — as Section III of the paper points out —
the error *variance* remains, which is why it must stay conservative.

This implementation expresses the idea on the perforation family:

* mode assignment: weight codes below a magnitude threshold use the
  aggressive perforation ``m_high``; codes above it use ``m_low``;
* mean compensation: the per-filter constant ``sum_j E[x_j] * w_j`` is added
  to the accumulation (the constant-correction scheme of [6]);
* hardware: the array pays a reconfiguration overhead on its multipliers and
  its power follows the mode mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.base import TechniqueResult
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import ProductKernel, _WeightOperand
from repro.hardware.area_power import array_cost_from_multiplier
from repro.hardware.technology import GENERIC_14NM, TechnologyModel
from repro.simulation.inference import AccurateProduct, ExecutionPlan, ProductModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.base import Evaluator


def _x_mean(m: int) -> float:
    return ((1 << m) - 1) / 2.0


class WeightOrientedProduct(ProductModel):
    """Per-weight accuracy-mode product model with mean compensation.

    Parameters
    ----------
    m_low / m_high:
        Perforation of the conservative and aggressive modes (``m_low`` may
        be 0, i.e. exact).
    threshold:
        Weight codes strictly below the threshold use the aggressive mode.
    compensate_mean:
        Add the per-filter constant correction for the systematic error.
    """

    def __init__(
        self,
        m_low: int,
        m_high: int,
        threshold: int,
        compensate_mean: bool = True,
    ):
        if not 0 <= m_low <= m_high < 8:
            raise ValueError("need 0 <= m_low <= m_high < 8")
        if not 0 <= threshold <= 256:
            raise ValueError("threshold must be within [0, 256]")
        self.m_low = int(m_low)
        self.m_high = int(m_high)
        self.threshold = int(threshold)
        self.compensate_mean = bool(compensate_mean)

    def mode_masks(self, weight_codes: np.ndarray) -> np.ndarray:
        """Boolean mask (same shape as weights) of entries using the aggressive mode."""
        return np.asarray(weight_codes, dtype=np.int64) < self.threshold

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        act = np.asarray(act_codes, dtype=np.int64)
        weights = np.asarray(weight_codes, dtype=np.int64)
        aggressive = self.mode_masks(weights)
        sums = act @ weights
        compensation = np.zeros(weights.shape[1], dtype=np.float64)
        for m, selector in ((self.m_high, aggressive), (self.m_low, ~aggressive)):
            if m == 0 or not selector.any():
                continue
            mask = np.int64((1 << m) - 1)
            x = act & mask
            selected = weights * selector
            sums = sums - x @ selected
            if self.compensate_mean:
                compensation += _x_mean(m) * selected.sum(axis=0)
        if self.compensate_mean:
            return sums + np.rint(compensation).astype(np.int64)[None, :]
        return sums

    def compile(
        self, weight_codes: np.ndarray, control_variate: ControlVariate
    ) -> ProductKernel:
        return _WeightOrientedKernel(self, weight_codes)

    @property
    def name(self) -> str:
        return f"weight_oriented(m_low={self.m_low}, m_high={self.m_high}, thr={self.threshold})"


class _WeightOrientedKernel(ProductKernel):
    """Compiled form of :class:`WeightOrientedProduct` for one layer.

    The mode masks, per-mode selected weight matrices and the constant mean
    compensation depend only on the weights, so they are all precomputed
    here; the per-batch work is one matmul per active mode.  Bit-exact
    against :meth:`WeightOrientedProduct.product_sums`.
    """

    def __init__(self, product: WeightOrientedProduct, weight_codes: np.ndarray):
        weights = np.asarray(weight_codes, dtype=np.int64)
        if weights.ndim != 2:
            raise ValueError(
                f"weight_codes must be 2-D (taps, filters), got {weights.shape}"
            )
        super().__init__(weights)
        aggressive = product.mode_masks(weights)
        self._w_op = _WeightOperand(weights)
        self._modes: list[tuple[int, _WeightOperand]] = []
        compensation = np.zeros(weights.shape[1], dtype=np.float64)
        for m, selector in ((product.m_high, aggressive), (product.m_low, ~aggressive)):
            if m == 0 or not selector.any():
                continue
            mask = (1 << m) - 1
            selected = weights * selector
            self._modes.append((mask, _WeightOperand(selected)))
            if product.compensate_mean:
                compensation += _x_mean(m) * selected.sum(axis=0)
        self._compensation: np.ndarray | None = None
        if product.compensate_mean:
            self._compensation = np.rint(compensation).astype(np.int64)[None, :]

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        sums = self._w_op.matmul(act)
        for mask, selected_op in self._modes:
            sums = sums - selected_op.matmul(act & mask)
        if self._compensation is not None:
            return sums + self._compensation
        return sums


@dataclass(frozen=True)
class _ModeConfig:
    m_low: int
    m_high: int
    threshold_percentile: float


#: Candidate configurations scanned from most to least aggressive.
_CANDIDATES: tuple[_ModeConfig, ...] = (
    _ModeConfig(m_low=1, m_high=2, threshold_percentile=75.0),
    _ModeConfig(m_low=1, m_high=2, threshold_percentile=50.0),
    _ModeConfig(m_low=0, m_high=2, threshold_percentile=50.0),
    _ModeConfig(m_low=0, m_high=2, threshold_percentile=25.0),
    _ModeConfig(m_low=0, m_high=1, threshold_percentile=50.0),
    _ModeConfig(m_low=0, m_high=1, threshold_percentile=25.0),
)


class WeightOrientedBaseline:
    """Weight-oriented approximation with an accuracy-drop budget."""

    name = "weight_oriented"

    def __init__(
        self,
        array_size: int = 64,
        max_accuracy_drop: float = 0.01,
        reconfiguration_overhead: float = 1.15,
        technology: TechnologyModel = GENERIC_14NM,
    ):
        self.array_size = int(array_size)
        self.max_accuracy_drop = float(max_accuracy_drop)
        self.reconfiguration_overhead = float(reconfiguration_overhead)
        self.technology = technology

    # ------------------------------------------------------------------
    def _relative_multiplier_power(self, config: _ModeConfig, aggressive_fraction: float) -> float:
        # The technique needs *runtime-reconfigurable* multipliers (the mode
        # depends on the weight streamed in), so each mode only recovers a
        # fraction of the fixed perforated multiplier's saving.
        tech = self.technology
        high = tech.reconfigurable_power_factor(config.m_high)
        low = (
            tech.reconfigurable_power_factor(config.m_low) if config.m_low > 0 else 1.0
        )
        return aggressive_fraction * high + (1.0 - aggressive_fraction) * low

    def apply(self, evaluator: "Evaluator") -> TechniqueResult:
        """Pick the most aggressive mode configuration within the budget.

        The mode thresholds are percentiles of the network's weight codes,
        read from the evaluator's local executor: a remote evaluator has
        none, and raises :class:`RuntimeError`.
        """
        executor = evaluator.executor
        all_codes = np.concatenate(
            [
                codes.reshape(-1)
                for layer in evaluator.mac_layer_names()
                for codes in executor.quantized_weights(layer)
            ]
        )
        baseline_plan = ExecutionPlan.uniform(AccurateProduct())
        baseline_acc = evaluator.evaluate([baseline_plan])[0]

        # Fallback: if no mode configuration fits the budget the design keeps
        # the plain accurate array (and pays no reconfiguration overhead).
        chosen_plan, chosen_acc = baseline_plan, baseline_acc
        chosen_power_rel = 1.0
        chosen_overhead = 1.0
        chosen_details: dict[str, object] = {"configuration": "accurate"}
        for candidate in _CANDIDATES:
            threshold = int(np.percentile(all_codes, candidate.threshold_percentile))
            fraction = float((all_codes < threshold).mean())
            product = WeightOrientedProduct(candidate.m_low, candidate.m_high, threshold)
            plan = ExecutionPlan.uniform(product)
            accuracy = evaluator.evaluate([plan])[0]
            if baseline_acc - accuracy <= self.max_accuracy_drop:
                chosen_plan, chosen_acc = plan, accuracy
                chosen_power_rel = self._relative_multiplier_power(candidate, fraction)
                chosen_overhead = self.reconfiguration_overhead
                chosen_details = {
                    "configuration": product.name,
                    "aggressive_fraction": fraction,
                }
                break

        power_mw = array_cost_from_multiplier(
            chosen_power_rel,
            chosen_power_rel,
            self.array_size,
            tech=self.technology,
            multiplier_overhead=chosen_overhead,
        ).power_mw
        return TechniqueResult(
            technique=self.name,
            plan=chosen_plan,
            array_power_mw=power_mw,
            extra_cycles_per_layer=0,
            accuracy=chosen_acc,
            baseline_accuracy=baseline_acc,
            details=chosen_details,
        )
