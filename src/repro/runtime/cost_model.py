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
  technique is than an accurate product, calibrated from the
  ``engine_throughput`` bench above;
* the technique of a layer is read from the plan's per-layer
  :meth:`~repro.simulation.inference.ProductModel.fingerprint` — the same
  token the prefix scheduler sorts by, so pricing needs no new plumbing.

Predictions are *relative* (unit: accurate-MAC equivalents): balancing only
needs ratios.  The factors are fixed: refining them online from measured
chunk wall clocks did not move the pooled greedy DSE campaign's wall clock
once each pool worker ran one BLAS thread.  The pricing itself matters
wherever LUT candidates enter pool batches (``repro dse --include-library``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.simulation.inference import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.simulation.campaign import TrainedModel

#: Relative cost of one product per technique kind, normalized to the
#: accurate array.  Calibrated from the ``engine_throughput`` bench (numpy
#: backend): perforated runs at ~85 % of accurate throughput (1.2x cost)
#: and the LUT path at ~1/55 (we price it at 48 = 40x the perforated cost,
#: the ratio the bench pins).  Unknown kinds (custom product models) price
#: as perforated.
DEFAULT_TECHNIQUE_COST: dict[str, float] = {
    "accurate": 1.0,
    "perforated": 1.2,
    "lut": 48.0,
}

#: Fallback factor for fingerprint kinds absent from the table.
DEFAULT_UNKNOWN_COST = 1.2


def fingerprint_kind(fingerprint: tuple) -> str:
    """Technique kind of one per-layer fingerprint token.

    Structural fingerprints lead with their kind (``("accurate",)``,
    ``("perforated", m, cv)``, ``("lut", digest)``); identity fingerprints
    of custom product models lead with the class qualname, which serves as
    their kind so repeated custom models share one factor.
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
        :func:`model_layer_work`).  Techniques are priced with the
        bench-calibrated :data:`DEFAULT_TECHNIQUE_COST`.
    """

    def __init__(self, layer_work: Mapping[int, Mapping[str, float]]):
        self._layer_work = {
            int(index): dict(work) for index, work in layer_work.items()
        }

    def technique_factor(self, kind: str) -> float:
        """Relative cost of one product of ``kind`` (accurate = 1)."""
        return DEFAULT_TECHNIQUE_COST.get(kind, DEFAULT_UNKNOWN_COST)

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

    # ------------------------------------------------------------------
    @classmethod
    def from_models(
        cls,
        trained_models: "Sequence[TrainedModel]",
        image_shapes: Sequence[tuple],
    ) -> "CellCostModel":
        """Cost model of a hosted model list (one dummy forward per model)."""
        layer_work = {
            index: model_layer_work(trained, shape)
            for index, (trained, shape) in enumerate(
                zip(trained_models, image_shapes)
            )
        }
        return cls(layer_work)


__all__ = [
    "DEFAULT_TECHNIQUE_COST",
    "DEFAULT_UNKNOWN_COST",
    "fingerprint_kind",
    "model_layer_work",
    "CellCostModel",
]
