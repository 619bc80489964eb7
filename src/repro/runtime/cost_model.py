"""Cost model pricing evaluation cells for cost-balanced scheduling.

The runtime's scheduler historically split a batch into equal cell-*count*
chunks, which implicitly assumes every cell costs the same.  It does not:
a LUT-mapped layer streams every product through a 256x256 table and runs
roughly 40x slower than a perforated or accurate layer on the same shapes
(``results/BENCH_engine.json`` ``engine_throughput``: ~460k products/s
accurate, ~390k perforated, ~8.5k LUT on the numpy backend).  One LUT-heavy
cell in an otherwise cheap chunk turns that chunk into the batch's
straggler and serializes the pool.

:class:`CellCostModel` predicts the relative cost of one ``(model, plan)``
cell so :func:`repro.runtime.scheduling.cost_balanced_chunks` can partition
the schedule by *predicted work* instead of cell count:

* **per-layer work** — each MAC layer's multiply-accumulate count,
  extracted once per hosted model via
  :func:`repro.accelerator.scheduling.layer_shapes_of_model` (the same
  im2col lowering the cycle model uses);
* **per-technique throughput factors** — how much slower one product of a
  technique is than an accurate product; defaults calibrated from the
  ``engine_throughput`` bench above, refined **online** from measured
  chunk wall-clocks (:meth:`observe`), so a host whose BLAS/LUT balance
  differs from the calibration box converges to its own ratios;
* the technique of a layer is read from the plan's per-layer
  :meth:`~repro.simulation.inference.ProductModel.fingerprint` — the same
  token the prefix scheduler sorts by, so pricing needs no new plumbing.

Predictions are *relative* (unit: accurate-MAC equivalents).  Balancing
only needs ratios; :meth:`predict_seconds` additionally converts through
the online-estimated seconds-per-unit when at least one chunk has been
observed.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.simulation.inference import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.simulation.campaign import TrainedModel

#: Relative cost of one product per technique kind, normalized to the
#: accurate array.  Calibrated from the ``engine_throughput`` bench (numpy
#: backend): perforated runs at ~85 % of accurate throughput (1.2x cost)
#: and the LUT path at ~1/55 (we price it at 48 = 40x the perforated cost,
#: the ratio the bench pins).  Unknown kinds (custom product models) price
#: as perforated — close enough until :meth:`CellCostModel.observe`
#: refines them.
DEFAULT_TECHNIQUE_COST: dict[str, float] = {
    "accurate": 1.0,
    "perforated": 1.2,
    "lut": 48.0,
}

#: Fallback factor for fingerprint kinds absent from the table.
DEFAULT_UNKNOWN_COST = 1.2

#: A chunk is *dominated* by a technique kind when that kind contributes at
#: least this share of its predicted cost; only dominated chunks refine the
#: kind's throughput factor (mixed chunks refine the seconds-per-unit
#: scale instead — see :meth:`CellCostModel.observe`).
DOMINANT_SHARE = 0.75


def fingerprint_kind(fingerprint: tuple) -> str:
    """Technique kind of one per-layer fingerprint token.

    Structural fingerprints lead with their kind (``("accurate",)``,
    ``("perforated", m, cv)``, ``("lut", digest)``); identity fingerprints
    of custom product models lead with the class qualname, which serves as
    their kind so repeated custom models share one learned factor.
    """
    if fingerprint and isinstance(fingerprint[0], str):
        return fingerprint[0]
    return "unknown"


def model_layer_work(trained: "TrainedModel", image_shape: tuple) -> dict[str, float]:
    """Per-MAC-layer work (multiply-accumulate count) of one trained model.

    Runs the one-image dummy forward of
    :func:`~repro.accelerator.scheduling.layer_shapes_of_model`; falls back
    to uniform unit work per layer if shape extraction fails (an exotic
    graph must degrade the *balance*, never the evaluation).
    """
    from repro.accelerator.scheduling import layer_shapes_of_model

    names = [node.name for node in trained.model.conv_dense_nodes()]
    try:
        shapes = layer_shapes_of_model(trained.model, tuple(image_shape))
        return {shape.name: float(shape.macs) for shape in shapes}
    except Exception:
        return {name: 1.0 for name in names}


class CellCostModel:
    """Prices ``(model, plan)`` cells from per-layer technique throughput.

    Parameters
    ----------
    layer_work:
        ``{model_index: {layer_name: work units}}`` — the plan-invariant
        per-layer work of every hosted model (MAC counts; see
        :func:`model_layer_work`).
    technique_cost:
        Initial per-kind throughput factors; defaults to
        :data:`DEFAULT_TECHNIQUE_COST` (bench-calibrated).
    smoothing:
        EWMA weight of one new observation during online refinement
        (0 disables refinement, 1 trusts only the latest chunk).
    """

    def __init__(
        self,
        layer_work: Mapping[int, Mapping[str, float]],
        technique_cost: Mapping[str, float] | None = None,
        smoothing: float = 0.3,
    ):
        if not 0.0 <= float(smoothing) <= 1.0:
            raise ValueError(f"smoothing must be within [0, 1], got {smoothing}")
        self._layer_work = {
            int(index): dict(work) for index, work in layer_work.items()
        }
        base = DEFAULT_TECHNIQUE_COST if technique_cost is None else technique_cost
        self._technique_cost = dict(base)
        self.smoothing = float(smoothing)
        self._seconds_per_unit: float | None = None
        self._observations = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def technique_factor(self, kind: str) -> float:
        """Current relative cost of one product of ``kind`` (accurate = 1)."""
        return self._technique_cost.get(kind, DEFAULT_UNKNOWN_COST)

    def group_cost(
        self,
        model_index: int,
        plans: Sequence[ExecutionPlan],
        mac_names: Sequence[str],
    ) -> float:
        """Predicted cost of one *fused* plan group, in accurate-MAC units.

        A plan group rides one fused multi-plan launch per MAC layer
        (:meth:`~repro.simulation.inference.ApproximateExecutor.forward_many`):
        at depth ``d`` the stacked launch evaluates one block per *distinct*
        fingerprint prefix of length ``d + 1`` — the shared prefix runs
        once, and plans that already diverged but assign the same model to
        deeper layers still share nothing further.  The group therefore
        prices as the sum over depths of (distinct prefixes at that depth)
        x (layer work) x (technique factor of the block's model), which is
        what makes a group of prefix-sharing plans cheaper than the sum of
        its plans priced one by one — the dedupe the scheduler should
        balance on.  A one-plan group prices a single cell.
        """
        work = self._layer_work.get(int(model_index), {})
        sequences = {plan.fingerprints(mac_names) for plan in plans}
        total = 0.0
        for depth, name in enumerate(mac_names):
            layer_work = work.get(name, 1.0)
            seen: set[tuple] = set()
            for sequence in sequences:
                prefix = sequence[: depth + 1]
                if prefix in seen:
                    continue
                seen.add(prefix)
                total += layer_work * self.technique_factor(
                    fingerprint_kind(sequence[depth])
                )
        return total

    def chunk_units_by_kind(
        self,
        chunk: Sequence[tuple[int, ExecutionPlan]],
        mac_names_by_model: Mapping[int, Sequence[str]],
    ) -> dict[str, float]:
        """Raw work units of one chunk, keyed by technique kind.

        The *unweighted* per-kind totals (no throughput factors applied) —
        the shape :meth:`observe` consumes, so refinement can re-derive a
        kind's factor from a measured wall-clock.
        """
        units: dict[str, float] = {}
        for model_index, plan in chunk:
            work = self._layer_work.get(int(model_index), {})
            mac_names = mac_names_by_model[model_index]
            for name, fingerprint in zip(mac_names, plan.fingerprints(mac_names)):
                kind = fingerprint_kind(fingerprint)
                units[kind] = units.get(kind, 0.0) + work.get(name, 1.0)
        return units

    def predicted_cost(self, units_by_kind: Mapping[str, float]) -> float:
        """Weighted cost of per-kind unit totals under the current factors."""
        return sum(
            units * self.technique_factor(kind)
            for kind, units in units_by_kind.items()
        )

    def predict_seconds(self, cost: float) -> float | None:
        """Predicted wall-clock of ``cost`` units, once calibrated online."""
        if self._seconds_per_unit is None:
            return None
        return float(cost) * self._seconds_per_unit

    # ------------------------------------------------------------------
    # Online refinement
    # ------------------------------------------------------------------
    @property
    def observations(self) -> int:
        """Number of measured chunks folded into the model so far."""
        return self._observations

    @property
    def seconds_per_unit(self) -> float | None:
        """Online-estimated seconds per accurate-MAC-equivalent unit."""
        return self._seconds_per_unit

    def observe(
        self, units_by_kind: Mapping[str, float], wall_clock_s: float
    ) -> None:
        """Fold one measured chunk wall-clock into the model.

        Two-level refinement, deterministic given the observation stream:

        * a chunk **dominated** by one technique kind (>= 75 % of its
          predicted cost) re-derives that kind's throughput factor from
          the measurement — the chunk's wall-clock, converted through the
          current seconds-per-unit scale, minus the minority kinds' share;
        * every chunk updates the **seconds-per-unit** scale (EWMA), which
          anchors :meth:`predict_seconds`.

        Mispriced defaults therefore converge: a host whose LUT path is
        80x (not 48x) slower keeps producing LUT-dominated chunks that
        overshoot their prediction, and each one pulls the LUT factor up.
        """
        wall_clock_s = float(wall_clock_s)
        predicted = self.predicted_cost(units_by_kind)
        if wall_clock_s <= 0.0 or predicted <= 0.0:
            return
        with self._lock:
            alpha = self.smoothing
            if self._seconds_per_unit is not None and alpha > 0.0:
                dominant = max(
                    units_by_kind,
                    key=lambda kind: units_by_kind[kind]
                    * self.technique_factor(kind),
                )
                share = (
                    units_by_kind[dominant] * self.technique_factor(dominant)
                ) / predicted
                if share >= DOMINANT_SHARE and units_by_kind[dominant] > 0.0:
                    # Total units implied by the measurement, minus what the
                    # minority kinds account for, re-prices the dominant kind.
                    implied_total = wall_clock_s / self._seconds_per_unit
                    minority = predicted - (
                        units_by_kind[dominant] * self.technique_factor(dominant)
                    )
                    implied_factor = (implied_total - minority) / units_by_kind[
                        dominant
                    ]
                    if implied_factor > 0.0:
                        current = self.technique_factor(dominant)
                        self._technique_cost[dominant] = (
                            1.0 - alpha
                        ) * current + alpha * implied_factor
                    predicted = self.predicted_cost(units_by_kind)
            scale = wall_clock_s / predicted
            if self._seconds_per_unit is None or alpha == 0.0:
                self._seconds_per_unit = scale
            else:
                self._seconds_per_unit = (
                    1.0 - alpha
                ) * self._seconds_per_unit + alpha * scale
            self._observations += 1

    # ------------------------------------------------------------------
    @classmethod
    def from_models(
        cls,
        trained_models: "Sequence[TrainedModel]",
        image_shapes: Sequence[tuple],
        technique_cost: Mapping[str, float] | None = None,
        smoothing: float = 0.3,
    ) -> "CellCostModel":
        """Cost model of a hosted model list (one dummy forward per model)."""
        layer_work = {
            index: model_layer_work(trained, shape)
            for index, (trained, shape) in enumerate(
                zip(trained_models, image_shapes)
            )
        }
        return cls(layer_work, technique_cost=technique_cost, smoothing=smoothing)


__all__ = [
    "DEFAULT_TECHNIQUE_COST",
    "DEFAULT_UNKNOWN_COST",
    "DOMINANT_SHARE",
    "fingerprint_kind",
    "model_layer_work",
    "CellCostModel",
]
