"""Per-layer approximation search space of the DSE engine.

A :class:`SearchSpace` pairs the MAC layers of one trained network with a
*candidate menu*: per-layer choices of :class:`~repro.simulation.inference.
ProductModel` drawn from the perforated family (with and without the
control-variate MAC+ column) and, optionally, the approximate-multiplier
library (as :class:`~repro.simulation.inference.LUTProduct` entries).  An
*assignment* — one candidate index per explored layer — maps to an
:class:`~repro.simulation.inference.ExecutionPlan` for accuracy scoring and
to a modeled network energy for costing:

* each layer's cycle count comes from the weight-stationary timing model
  (:func:`repro.accelerator.scheduling.layer_cycles`, including the +1
  pipeline cycle of the MAC+ column);
* each layer's array power comes from the hardware model
  (:func:`repro.hardware.area_power.array_cost` for the perforated family,
  :func:`repro.hardware.area_power.array_cost_from_multiplier` for library
  multipliers), i.e. the per-layer accounting a runtime-reconfigurable
  array pays.

Candidates carry structural fingerprints, so the executor's
fingerprint-keyed kernel cache compiles a (layer, candidate) block once and
reuses it for every plan that holds the candidate, and the multi-plan walk
deduplicates candidates and shares their layer prefixes within every
batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.accelerator.scheduling import LayerShape, layer_cycles, layer_shapes_of_model
from repro.core.accelerator_model import AcceleratorConfig
from repro.hardware.area_power import array_cost, array_cost_from_multiplier
from repro.hardware.technology import GENERIC_14NM, TechnologyModel
from repro.multipliers.library import MultiplierLibrary
from repro.nn.graph import Graph
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
    ProductModel,
)


@dataclass(frozen=True)
class Candidate:
    """One per-layer design choice of the search space.

    Attributes
    ----------
    name:
        Human-readable name (``accurate``, ``perforated_m2+V``,
        ``lut[trunc_w1_a2]`` ...).
    code:
        Short token used in compact plan labels (``A``, ``p2v``, ``L3``).
    model:
        The shared :class:`ProductModel` instance evaluated for this choice.
    power_mw:
        Power of the MAC array while a layer streams on this design.
    cycle_config:
        Accelerator configuration used for the layer's cycle count (carries
        the array size and the MAC+ extra pipeline cycle).
    """

    name: str
    code: str
    model: ProductModel = field(compare=False)
    power_mw: float
    cycle_config: AcceleratorConfig

    def layer_energy_nj(self, shape: LayerShape) -> float:
        """Energy (nJ) of one layer streamed on this candidate's array."""
        cycles = layer_cycles(shape, self.cycle_config)
        return cycles * self.power_mw * self.cycle_config.clock_ns / 1e3


class SearchSpace:
    """Per-layer candidate assignment space of one trained network."""

    def __init__(
        self,
        layer_names: Sequence[str],
        candidates: Sequence[Candidate],
        shapes: dict[str, LayerShape],
        array_size: int,
        clock_ns: float = 1.0,
    ):
        if not layer_names:
            raise ValueError("search space needs at least one explored layer")
        if len(candidates) < 2:
            raise ValueError("search space needs at least two candidates per layer")
        missing = [name for name in layer_names if name not in shapes]
        if missing:
            raise ValueError(f"no layer shape for explored layers: {missing}")
        # Candidate 0 is always the accurate design (strategies rely on it:
        # greedy starts there, assignments index cheaper designs upward).
        ordered = sorted(candidates, key=lambda c: -c.power_mw)
        if not isinstance(ordered[0].model, AccurateProduct):
            accurate = [c for c in ordered if isinstance(c.model, AccurateProduct)]
            if not accurate:
                raise ValueError("search space requires an accurate candidate")
            ordered.remove(accurate[0])
            ordered.insert(0, accurate[0])
        self.layer_names = tuple(layer_names)
        self.candidates = tuple(ordered)
        self.shapes = dict(shapes)
        self.array_size = int(array_size)
        self.clock_ns = float(clock_ns)
        # Per-(layer, candidate) energies are fixed by the timing and power
        # models, so the whole energy table is precomputed once.
        self._energy_table: dict[str, tuple[float, ...]] = {
            name: tuple(c.layer_energy_nj(self.shapes[name]) for c in self.candidates)
            for name in self.layer_names
        }
        # Energy of the layers *outside* the explored set: they always run
        # on the accurate design, contributing a constant offset.
        self._fixed_energy = sum(
            self.candidates[0].layer_energy_nj(shape)
            for name, shape in self.shapes.items()
            if name not in self.layer_names
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: Graph,
        input_shape: tuple[int, int, int],
        array_size: int = 64,
        perforations: Sequence[int] = (1, 2, 3),
        include_no_cv: bool = True,
        library: MultiplierLibrary | None = None,
        max_library_candidates: int = 4,
        layers: Sequence[str] | None = None,
        technology: TechnologyModel = GENERIC_14NM,
        clock_ns: float = 1.0,
    ) -> "SearchSpace":
        """Enumerate the candidate menu of ``model`` from the multiplier families.

        Parameters
        ----------
        model / input_shape:
            The trained network and its input spatial shape (used to derive
            the per-layer MAC shapes for the cycle model).
        array_size:
            ``N`` of the ``N x N`` MAC array every candidate is priced on.
        perforations:
            Perforation values of the MAC* family; each enters with the
            control variate and (when ``include_no_cv``) without it.
        library:
            Optional multiplier library; its cheapest
            ``max_library_candidates`` non-reconfigurable Pareto-front
            entries join the menu as LUT candidates.
        layers:
            Restrict the *explored* layers to this subset (unexplored MAC
            layers stay accurate).  Default: every conv/dense layer.
        """
        shapes = {s.name: s for s in layer_shapes_of_model(model, input_shape)}
        layer_names = tuple(layers) if layers is not None else tuple(shapes)
        unknown = [name for name in layer_names if name not in shapes]
        if unknown:
            raise ValueError(f"unknown MAC layers: {unknown}")

        candidates: list[Candidate] = []
        accurate_config = AcceleratorConfig.accurate(array_size, clock_ns=clock_ns)
        candidates.append(
            Candidate(
                name="accurate",
                code="A",
                model=AccurateProduct(),
                power_mw=array_cost(accurate_config, technology).power_mw,
                cycle_config=accurate_config,
            )
        )
        for m in perforations:
            cv_variants = (True, False) if include_no_cv else (True,)
            for use_cv in cv_variants:
                config = AcceleratorConfig.make(
                    array_size, m, use_control_variate=use_cv, clock_ns=clock_ns
                )
                product = PerforatedProduct(m, use_control_variate=use_cv)
                candidates.append(
                    Candidate(
                        name=product.name,
                        code=f"p{m}v" if use_cv else f"p{m}",
                        model=product,
                        power_mw=array_cost(config, technology).power_mw,
                        cycle_config=config,
                    )
                )
        if library is not None:
            entries = [
                e
                for e in library.pareto_front()
                if not e.reconfigurable and e.stats.max_absolute > 0
            ]
            entries = sorted(entries, key=lambda e: e.relative_power)
            for index, entry in enumerate(entries[: max(0, int(max_library_candidates))]):
                product = LUTProduct(entry.multiplier)
                candidates.append(
                    Candidate(
                        name=product.name,
                        code=f"L{index}",
                        model=product,
                        power_mw=array_cost_from_multiplier(
                            entry.relative_power,
                            entry.relative_area,
                            array_size,
                            tech=technology,
                        ).power_mw,
                        cycle_config=accurate_config,
                    )
                )
        return cls(layer_names, candidates, shapes, array_size, clock_ns=clock_ns)

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layer_names)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def size(self) -> int:
        """Number of distinct assignments the space contains."""
        return self.num_candidates**self.num_layers

    def accurate_assignment(self) -> tuple[int, ...]:
        """The all-accurate assignment (candidate 0 everywhere)."""
        return (0,) * self.num_layers

    def validate(self, assignment: Sequence[int]) -> tuple[int, ...]:
        """Normalize and bounds-check one assignment."""
        assignment = tuple(int(i) for i in assignment)
        if len(assignment) != self.num_layers:
            raise ValueError(
                f"assignment length {len(assignment)} != {self.num_layers} layers"
            )
        if any(not 0 <= i < self.num_candidates for i in assignment):
            raise ValueError(f"candidate index out of range in {assignment}")
        return assignment

    def plan(self, assignment: Sequence[int]) -> ExecutionPlan:
        """The execution plan of one assignment (unexplored layers accurate)."""
        assignment = self.validate(assignment)
        per_layer = {
            name: self.candidates[index].model
            for name, index in zip(self.layer_names, assignment)
            if index != 0
        }
        return ExecutionPlan(default=self.candidates[0].model, per_layer=per_layer)

    def energy_nj(self, assignment: Sequence[int]) -> float:
        """Modeled network energy of one assignment (explored + fixed layers)."""
        assignment = self.validate(assignment)
        explored = sum(
            self._energy_table[name][index]
            for name, index in zip(self.layer_names, assignment)
        )
        return explored + self._fixed_energy

    def accurate_energy_nj(self) -> float:
        """Energy of the all-accurate design (the baseline every point beats)."""
        return self.energy_nj(self.accurate_assignment())

    def label(self, assignment: Sequence[int]) -> str:
        """Compact plan label: candidate codes joined in layer order."""
        assignment = self.validate(assignment)
        return "-".join(self.candidates[i].code for i in assignment)

    def describe(self, assignment: Sequence[int]) -> dict[str, str]:
        """Layer-name -> candidate-name mapping of one assignment."""
        assignment = self.validate(assignment)
        return {
            name: self.candidates[index].name
            for name, index in zip(self.layer_names, assignment)
        }

    def enumerate_assignments(self) -> Iterator[tuple[int, ...]]:
        """Every assignment in deterministic lexicographic order."""
        import itertools

        yield from itertools.product(
            range(self.num_candidates), repeat=self.num_layers
        )

    # ------------------------------------------------------------------
    # Uniform-array costing (baseline techniques)
    # ------------------------------------------------------------------
    def uniform_energy_nj(
        self, power_mw: float, extra_cycles_per_layer: int = 0
    ) -> float:
        """Energy of the whole network on one uniform array.

        Used to cost the one-call baseline techniques, which report a single
        array power (their own multiplier choice, reconfiguration overheads
        included) for every layer; ``extra_cycles_per_layer`` models the
        MAC+ pipeline cycle of the control-variate design.
        """
        if power_mw < 0:
            raise ValueError("power_mw must be non-negative")
        base = AcceleratorConfig.accurate(self.array_size, clock_ns=self.clock_ns)
        total_cycles = sum(
            layer_cycles(shape, base) + int(extra_cycles_per_layer)
            for shape in self.shapes.values()
        )
        return total_cycles * power_mw * self.clock_ns / 1e3
