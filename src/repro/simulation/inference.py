"""Approximate quantized inference executor (the TFApprox substitute).

The executor re-runs a trained float :class:`repro.nn.graph.Graph` with its
convolution and dense layers executed in the quantized integer domain.  The
per-element products of those integer accumulations — the operations the
MAC array performs — are produced by a pluggable :class:`ProductModel`:

* :class:`AccurateProduct` — the accurate array (quantization error only);
* :class:`PerforatedProduct` — the paper's perforated multiplier, with or
  without the control-variate MAC+ column;
* :class:`LUTProduct` — an arbitrary library multiplier (used by the
  state-of-the-art baselines), optionally with ALWANN-style weight tuning.

An :class:`ExecutionPlan` assigns one product model per MAC layer, which is
how layer-wise techniques (ALWANN [7], the reconfigurable approach [8]) are
expressed.  Everything that is not a convolution or dense layer (batch-norm,
ReLU, pooling, merges) runs in float exactly as during training, matching
the fake-quantization methodology of the TFApprox flow the paper uses.

Kernel compilation
------------------
Every :class:`ProductModel` can be *compiled* against one layer's quantized
weights via :meth:`ProductModel.compile`, yielding a
:class:`repro.core.product_kernels.ProductKernel` that hoists all
weight-dependent work (int64 weight conversion, LUT error-matrix
construction, control constants) out of the per-batch hot loop.  The
executor compiles each (layer, group, product model) combination once,
caches the kernel for the lifetime of the product-model instance, and reuses
persistent uint8 activation buffers across batches, so a sweep that runs the
same plan over a full test set performs only the unavoidable per-batch work.
The legacy uncompiled path is kept behind ``use_compiled=False`` and the
``pytest -m engine`` parity suite pins both paths bit-exact.

Engine backends
---------------
*How* kernels are compiled is pluggable: the executor's ``engine_backend``
parameter selects an :class:`repro.core.backends.EngineBackend` by name —
``numpy`` (default BLAS kernels) or ``lowmem`` (capped LUT error matrix plus
chunked evaluation).  All backends are bit-exact; they trade speed and
memory only, and every backend compiles both per-plan and multi-plan
kernels.  Selection is exposed end to end::

    executor = ApproximateExecutor(model, calib, engine_backend="lowmem")
    parallel_sweep(models, datasets, engine_backend="lowmem")
    # CLI: python -m repro accuracy --model vgg13 --engine-backend lowmem
    # CLI: python -m repro backends   # list backends + availability

Multi-plan evaluation
---------------------
A Table III cell or a DSE point re-runs the *same* trained network on the
*same* images under one per-layer plan, so most of the work of a plan
batch is shared.  :meth:`ApproximateExecutor.forward_many` is the one path
every compiled evaluation takes (``forward`` is ``forward_many`` of one
plan):

* plans are deduplicated by their per-layer fingerprints
  (:meth:`ProductModel.fingerprint`) and sorted so that plans sharing a
  layer prefix are adjacent;
* the prefix all plans agree on runs once, at the full image batch;
* from the first layer where plans diverge, every distinct plan "line"
  rides one stacked backend launch per MAC layer
  (:meth:`repro.core.backends.EngineBackend.compile_multi`), chunked over
  images so that no launch exceeds ``_STACKED_ROWS_TARGET`` rows;
* a batch of more than ``_MAX_WALK_LINES`` distinct lines is cut at its
  shallowest divergences into several such walks, so the stacked rows stay
  bounded whatever the number of plans a caller sends.

Nothing computed from the images outlives a call, so results never depend
on call order.  With ``use_compiled=False`` every plan instead runs the
per-plan reference walk through :meth:`ProductModel.product_sums` — the
oracle the stacked walk is tested against.
"""

from __future__ import annotations

import abc
import hashlib
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.accelerator_model import AcceleratorConfig
from repro.core.backends import EngineBackend, resolve_backend
from repro.core.approx_conv import (
    accurate_product_sums,
    lut_product_sums,
    perforated_product_sums,
)
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    KernelOptions,
    LUTKernel,
    PerforatedKernel,
    ProductKernel,
)
from repro.multipliers.base import Multiplier
from repro.nn.graph import Graph
from repro.nn.im2col import im2col
from repro.nn.layers import Conv2D, Dense
from repro.quantization.qlayers import QuantizedLinearOp
from repro.quantization.quantize import calibrate_minmax, calibrate_percentile, quantize
from repro.quantization.schemes import QuantParams


class ProductModel(abc.ABC):
    """Strategy producing the raw product sums of one quantized linear op."""

    @abc.abstractmethod
    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        """Return ``sum_j product(wq_j, aq_j)`` of shape ``(patches, filters)``."""

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        """Compile this model against one layer's weights (run once per plan).

        The default implementation wraps :meth:`product_sums`; subclasses
        with an exploitable structure return a specialized kernel instead.
        ``options`` carries backend-tunable knobs (see
        :class:`~repro.core.product_kernels.KernelOptions`); models honor
        the knobs that apply to them and ignore the rest.
        """
        return CallbackKernel(self, weight_codes, control_variate)

    def fingerprint(self) -> tuple:
        """Hashable token identifying the *numerical behavior* of this model.

        Two product models with equal fingerprints produce bit-identical
        product sums for every input, which is what the multi-plan walk
        deduplicates and shares prefixes on.  The default is instance
        identity — conservative but never wrong; subclasses whose behavior
        is fully determined by their configuration return a structural
        token instead.  The instance is anchored by a weak reference (never
        a raw ``id()``): fingerprints key the executor's multi-plan kernel
        cache, which outlives the plan objects, and a recycled id must not
        let a new, different model match an old kernel.  A dead weakref
        only compares equal to itself.
        """
        return (type(self).__qualname__, weakref.ref(self))

    @property
    def name(self) -> str:
        return type(self).__name__


class AccurateProduct(ProductModel):
    """Exact integer products — the accurate MAC array."""

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        return accurate_product_sums(act_codes, weight_codes)

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        return AccurateKernel(weight_codes)

    def fingerprint(self) -> tuple:
        return ("accurate",)


class PerforatedProduct(ProductModel):
    """Perforated multiplier, optionally corrected by the control variate.

    ``m = 0`` is the degenerate accurate array: products are identical to
    :class:`AccurateProduct` and the control-variate correction is exactly
    zero, matching :func:`repro.core.approx_conv.perforated_product_sums`.
    """

    def __init__(self, m: int, use_control_variate: bool = True):
        if not 0 <= int(m) < 8:
            raise ValueError(f"m must be within [0, 7], got {m}")
        self.m = int(m)
        self.use_control_variate = bool(use_control_variate)

    @classmethod
    def from_config(cls, config: AcceleratorConfig) -> "ProductModel":
        """Product model implied by an accelerator configuration."""
        if not config.is_approximate:
            return AccurateProduct()
        return cls(config.perforation, config.use_control_variate)

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        cv = control_variate if self.use_control_variate else None
        return perforated_product_sums(act_codes, weight_codes, self.m, cv)

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        cv = control_variate if self.use_control_variate else None
        return PerforatedKernel(weight_codes, self.m, cv)

    def fingerprint(self) -> tuple:
        # m=0 is bit-identical to the accurate array (the control-variate
        # correction is exactly zero), so it shares the accurate fingerprint.
        if self.m == 0:
            return ("accurate",)
        return ("perforated", self.m, self.use_control_variate)

    @property
    def name(self) -> str:
        suffix = "+V" if self.use_control_variate else ""
        return f"perforated_m{self.m}{suffix}"


class LUTProduct(ProductModel):
    """Arbitrary approximate multiplier evaluated through its 256x256 LUT."""

    def __init__(self, multiplier: Multiplier, chunk_patches: int = 256):
        self.multiplier = multiplier
        self._lut = multiplier.build_lut()
        self.chunk_patches = int(chunk_patches)
        # Products are fully determined by the table contents, so the
        # fingerprint digests the table — two LUT products over equal tables
        # are interchangeable regardless of the multiplier's name.
        self._lut_digest = hashlib.sha1(
            np.ascontiguousarray(self._lut).tobytes()
        ).hexdigest()

    def product_sums(
        self,
        act_codes: np.ndarray,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
    ) -> np.ndarray:
        return lut_product_sums(
            act_codes, weight_codes, self._lut, chunk_patches=self.chunk_patches
        )

    @property
    def lut(self) -> np.ndarray:
        """The precomputed 256x256 product table (shared by all backends)."""
        return self._lut

    def compile(
        self,
        weight_codes: np.ndarray,
        control_variate: ControlVariate,
        options: KernelOptions | None = None,
    ) -> ProductKernel:
        if options is None:
            options = KernelOptions()
        return LUTKernel(
            weight_codes,
            self._lut,
            max_error_matrix_bytes=options.max_error_matrix_bytes,
        )

    def fingerprint(self) -> tuple:
        return ("lut", self._lut_digest)

    @property
    def name(self) -> str:
        return f"lut[{self.multiplier.name}]"


@dataclass
class ExecutionPlan:
    """Assignment of a product model to every MAC (conv/dense) node."""

    default: ProductModel
    per_layer: dict[str, ProductModel]

    @classmethod
    def uniform(cls, model: ProductModel) -> "ExecutionPlan":
        """Use the same product model for every layer."""
        return cls(default=model, per_layer={})

    @classmethod
    def from_config(cls, config: AcceleratorConfig) -> "ExecutionPlan":
        """Plan implied by a single accelerator configuration."""
        return cls.uniform(PerforatedProduct.from_config(config))

    def model_for(self, layer_name: str) -> ProductModel:
        return self.per_layer.get(layer_name, self.default)

    def with_layer(self, layer_name: str, model: ProductModel) -> "ExecutionPlan":
        """Return a copy of the plan with one layer overridden."""
        per_layer = dict(self.per_layer)
        per_layer[layer_name] = model
        return ExecutionPlan(default=self.default, per_layer=per_layer)

    def fingerprints(self, layer_names: "Sequence[str]") -> tuple:
        """Per-layer :meth:`ProductModel.fingerprint` tokens of this plan.

        Two plans with equal fingerprints over the same layer names compute
        bit-identical outputs through those layers — the invariant behind
        the multi-plan walk's shared prefixes and the prefix-aware sweep
        scheduler.
        """
        return tuple(self.model_for(name).fingerprint() for name in layer_names)

    def check_layers(self, layer_names: "Sequence[str]") -> None:
        """Raise :class:`ValueError` if an override names none of ``layer_names``.

        An override of a layer the model does not have would otherwise be
        ignored, and the plan silently evaluated as its default.
        """
        unknown = sorted(set(self.per_layer) - set(layer_names))
        if unknown:
            raise ValueError(
                f"plan overrides layers the model does not have: {', '.join(unknown)}"
            )


def plan_fingerprint_sort_key(fingerprints: Sequence[tuple]) -> tuple[str, ...]:
    """Lexicographic sort key of one plan's per-layer fingerprint sequence.

    Fingerprint elements are heterogeneous tuples (strings, ints, weakrefs),
    so sequences are compared by element ``repr`` to avoid cross-type
    comparisons.  Equal prefixes sort adjacent — the property both the
    executor's multi-plan walk and the sweep scheduler
    (:func:`repro.simulation.campaign.order_plan_cells`) rely on.
    """
    return tuple(repr(fp) for fp in fingerprints)


@dataclass
class _QuantizedMacNode:
    """Pre-quantized data of one conv/dense node (one entry per group)."""

    node_name: str
    ops: list[QuantizedLinearOp]
    weight_overrides: list[np.ndarray | None]
    control_variates: list[ControlVariate]
    act_params: QuantParams


#: Row budget of one stacked suffix launch (images per chunk scale as
#: target // lines).  Tuned empirically: far below it the chunked walk
#: degenerates into the per-plan loop's call counts; far above it the
#: stacked activations (and every astype/matmul temp behind them) fall out
#: of cache into allocation churn.
_STACKED_ROWS_TARGET = 256

#: Most deduplicated plan lines one stacked walk carries.  A chunk holds
#: ``_STACKED_ROWS_TARGET // lines`` images, so capping the lines keeps at
#: least 16 images per chunk and every launch within the row budget; a
#: larger plan batch is split into several walks.
_MAX_WALK_LINES = _STACKED_ROWS_TARGET // 16


class ApproximateExecutor:
    """Runs a trained model with quantized, possibly approximate, MAC layers.

    Parameters
    ----------
    model:
        The trained float model.
    calibration_images:
        A batch of representative inputs used to calibrate the activation
        quantizers of every MAC layer (post-training quantization).
    activation_percentile:
        Percentile used for activation calibration; 100 gives min/max.
    use_compiled:
        Run each MAC layer through its compiled
        :class:`~repro.core.product_kernels.ProductKernel` (compiled once
        per (layer, group, product model) and cached) on the stacked
        multi-plan walk.  Disable to run every plan through the per-plan
        reference walk over ``ProductModel.product_sums``; both paths are
        bit-exact.
    engine_backend:
        Name (or instance) of the :class:`~repro.core.backends.EngineBackend`
        that compiles the kernels — ``"numpy"`` (default) or ``"lowmem"``.
        An unavailable backend falls back to numpy with a warning; all
        backends are bit-exact.
    """

    def __init__(
        self,
        model: Graph,
        calibration_images: np.ndarray,
        activation_percentile: float = 99.9,
        use_compiled: bool = True,
        engine_backend: str | EngineBackend | None = None,
    ):
        self.model = model
        self.use_compiled = bool(use_compiled)
        self.engine_backend = resolve_backend(engine_backend)
        self._nodes: dict[str, _QuantizedMacNode] = {}
        # Compiled kernels, keyed by product-model instance (weakly, so plans
        # can be discarded) then by (layer, group).
        self._kernel_cache: "weakref.WeakKeyDictionary[ProductModel, dict[tuple[str, int], ProductKernel]]" = (
            weakref.WeakKeyDictionary()
        )
        # Batch-persistent uint8 activation-code buffers per (layer, group).
        self._act_buffers: dict[tuple[str, int], np.ndarray] = {}
        # Fused multi-plan launches: compiled MultiPlanKernels keyed by
        # (layer, group, per-block fingerprints), plus the observability
        # counters surfaced through EvaluationService.stats().
        self._multi_kernel_cache: dict[tuple, object] = {}
        self.fused_launches = 0
        self.fused_plans_total = 0
        self._calibrate(calibration_images, activation_percentile)

    @classmethod
    def from_config(
        cls,
        model: Graph,
        calibration_images: np.ndarray,
        config: AcceleratorConfig,
        **kwargs,
    ) -> "ApproximateExecutor":
        """Executor honoring ``config.engine_backend``.

        Pair with :meth:`ExecutionPlan.from_config` on the same config to
        run the product model the accelerator configuration implies::

            executor = ApproximateExecutor.from_config(model, calib, config)
            logits = executor.forward(images, ExecutionPlan.from_config(config))
        """
        return cls(
            model,
            calibration_images,
            engine_backend=config.engine_backend,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def _calibrate(self, images: np.ndarray, percentile: float) -> None:
        _, activations = self.model.forward(images, training=False, return_activations=True)
        for node in self.model.conv_dense_nodes():
            layer = node.layer
            parent_output = activations[node.inputs[0]]
            if percentile >= 100.0:
                act_params = calibrate_minmax(parent_output)
            else:
                act_params = calibrate_percentile(parent_output, percentile)
            ops: list[QuantizedLinearOp] = []
            cvs: list[ControlVariate] = []
            for weight_matrix, bias in _group_weight_matrices(layer):
                weight_params = calibrate_minmax(weight_matrix)
                weight_codes = quantize(weight_matrix, weight_params)
                ops.append(QuantizedLinearOp(weight_codes, weight_params, bias))
                cvs.append(ControlVariate.from_weight_matrix(weight_codes))
            self._nodes[node.name] = _QuantizedMacNode(
                node_name=node.name,
                ops=ops,
                weight_overrides=[None] * len(ops),
                control_variates=cvs,
                act_params=act_params,
            )

    # ------------------------------------------------------------------
    def mac_layer_names(self) -> list[str]:
        """Names of the quantized MAC layers, in execution order."""
        return [node.name for node in self.model.conv_dense_nodes()]

    def quantized_weights(self, layer_name: str) -> list[np.ndarray]:
        """The uint8 weight matrices (one per group) of a MAC layer."""
        return [op.weight_codes for op in self._nodes[layer_name].ops]

    def set_weight_override(self, layer_name: str, codes_per_group: list[np.ndarray]) -> None:
        """Replace the weight codes used at inference time (ALWANN weight tuning).

        The override only affects the products sent to the MAC array; the
        dequantization, zero-point corrections and control variates keep
        using the original weights, mirroring how ALWANN retunes the stored
        weights without retraining.
        """
        node = self._nodes[layer_name]
        if len(codes_per_group) != len(node.ops):
            raise ValueError(
                f"expected {len(node.ops)} weight matrices for layer {layer_name!r}"
            )
        overrides: list[np.ndarray | None] = []
        for op, codes in zip(node.ops, codes_per_group):
            codes = np.asarray(codes, dtype=np.uint8)
            if codes.shape != op.weight_codes.shape:
                raise ValueError("override shape mismatch")
            overrides.append(codes)
        node.weight_overrides = overrides
        self._kernel_cache = weakref.WeakKeyDictionary()
        self._multi_kernel_cache = {}

    def clear_weight_overrides(self) -> None:
        """Remove all inference-time weight overrides."""
        for node in self._nodes.values():
            node.weight_overrides = [None] * len(node.ops)
        self._kernel_cache = weakref.WeakKeyDictionary()
        self._multi_kernel_cache = {}

    def reuse_stats(self) -> dict[str, int]:
        """Cross-call cache counters: none, since no activations outlive a call."""
        return {}

    def fused_stats(self) -> dict[str, int]:
        """Fused multi-plan launch counters (cumulative)."""
        return {
            "fused_launches": self.fused_launches,
            "fused_plans_total": self.fused_plans_total,
        }

    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
        """Run quantized inference on ``images`` under ``plan``.

        The single-plan case of :meth:`forward_many`.
        """
        return self.forward_many(images, [plan])[0]

    def forward_many(
        self, images: np.ndarray, plans: Sequence[ExecutionPlan]
    ) -> list[np.ndarray]:
        """Run quantized inference under every plan of ``plans`` at once.

        Returns one logits array per plan, in input order.  Plans are
        deduplicated by fingerprint and sorted into prefix-sharing "lines";
        the prefix all lines agree on is walked once and, from each
        divergence depth on, all diverging lines ride a single stacked
        backend launch per MAC layer (:meth:`EngineBackend.compile_multi`).
        More than :data:`_MAX_WALK_LINES` lines are split into several walks
        at their shallowest divergences.  With ``use_compiled=False`` every
        plan runs the per-plan reference walk instead.
        """
        plans = list(plans)
        if not self.use_compiled:
            return [self._reference_forward(images, plan) for plan in plans]
        if not plans:
            return []
        mac_names = tuple(self.mac_layer_names())
        fp_seqs = [plan.fingerprints(mac_names) for plan in plans]
        # Dedupe plans by their full fingerprint sequence: identical plans
        # (even distinct objects) share one evaluation line.
        line_plans: dict[tuple, ExecutionPlan] = {}
        for plan, seq in zip(plans, fp_seqs):
            line_plans.setdefault(seq, plan)
        # Sort lines so prefix-sharing plans are adjacent: splits then form
        # contiguous runs and every divergence is a cut between neighbours.
        lines = sorted(line_plans, key=plan_fingerprint_sort_key)
        lcps = [_common_prefix_length(a, b) for a, b in zip(lines, lines[1:])]
        batch = images.shape[0]
        outputs: dict[tuple, np.ndarray] = {}
        for start, stop in _walk_slices(lcps, 0, len(lines)):
            walk = lines[start:stop]
            stacked = self._forward_lines(
                images, [line_plans[seq] for seq in walk], lcps[start : stop - 1]
            )
            for offset, seq in enumerate(walk):
                outputs[seq] = stacked[offset * batch : (offset + 1) * batch]
        return [outputs[seq] for seq in fp_seqs]

    def _reference_forward(self, images: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
        """Plain per-plan node walk (the ``use_compiled=False`` oracle)."""
        activations = {"input": images}
        self._run_nodes(activations, 0, len(self.model.nodes), plan)
        return activations[self.model.output_name]

    def _run_nodes(
        self,
        activations: dict[str, np.ndarray],
        start: int,
        stop: int,
        plan: ExecutionPlan,
    ) -> None:
        """Execute nodes ``start:stop`` under ``plan`` on top of ``activations``."""
        for node in self.model.nodes[start:stop]:
            inputs = [activations[name] for name in node.inputs]
            if node.name in self._nodes:
                activations[node.name] = self._run_mac_node(
                    node.name, node.layer, inputs[0], plan.model_for(node.name)
                )
            else:
                activations[node.name] = node.layer.forward(*inputs, training=False)

    def _forward_lines(
        self,
        images: np.ndarray,
        line_plans: list[ExecutionPlan],
        lcps: list[int],
    ) -> np.ndarray:
        """Stacked walk over deduped, sorted plan "lines"; returns the
        ``(lines * batch, ...)`` output stack in line order.

        ``lcps[i]`` is the number of leading MAC layers lines ``i`` and
        ``i + 1`` agree on.
        """
        num_lines = len(line_plans)
        batch = images.shape[0]
        mac_depth = {name: d for d, name in enumerate(self.mac_layer_names())}
        # splits[d] holds the boundary positions (between line i and i+1)
        # that open at MAC depth d.
        splits: dict[int, list[int]] = {}
        for i, lcp in enumerate(lcps):
            splits.setdefault(lcp, []).append(i)
        nodes = self.model.nodes
        # The walk is two-phase.  Phase 1 runs the single-block shared
        # prefix at the FULL image batch.  Phase 2 (from the first
        # splitting MAC on) is the stacked walk, chunked over images so
        # each launch carries ~_STACKED_ROWS_TARGET rows: feeding it
        # lines * batch rows at once would blow the arrays (and every
        # astype/matmul behind them) past cache into allocation churn.
        split_index = next(
            (i for i, node in enumerate(nodes) if mac_depth.get(node.name) in splits),
            len(nodes),
        )
        activations = {"input": images}
        self._run_nodes(activations, 0, split_index, line_plans[0])
        if split_index == len(nodes):  # one line: the whole network is shared
            return activations[self.model.output_name]
        needed = self._names_needed_from(split_index)
        live = {name: arr for name, arr in activations.items() if name in needed}
        chunk_rows = _STACKED_ROWS_TARGET // num_lines
        if chunk_rows >= batch:
            return self._stacked_suffix(
                live, batch, split_index, line_plans, splits, mac_depth
            )
        num_chunks = -(-batch // chunk_rows)
        bounds = [(i * batch) // num_chunks for i in range(num_chunks + 1)]
        chunks: list[np.ndarray] = []
        sizes: list[int] = []
        for start, stop in zip(bounds, bounds[1:]):
            sliced = {name: arr[start:stop] for name, arr in live.items()}
            chunks.append(
                self._stacked_suffix(
                    sliced, stop - start, split_index, line_plans, splits, mac_depth
                )
            )
            sizes.append(stop - start)
        return np.concatenate(
            [
                chunk[line * size : (line + 1) * size]
                for line in range(num_lines)
                for chunk, size in zip(chunks, sizes)
            ],
            axis=0,
        )

    def _stacked_suffix(
        self,
        activations: dict[str, np.ndarray],
        batch: int,
        start_index: int,
        line_plans: list[ExecutionPlan],
        splits: dict[int, list[int]],
        mac_depth: dict[str, int],
    ) -> np.ndarray:
        """Stacked walk from the first splitting MAC to the output.

        ``activations`` holds single-block arrays of ``batch`` rows;
        returns the ``(lines * batch, ...)`` line-major output stack."""
        num_lines = len(line_plans)
        runs: list[tuple[int, int]] = [(0, num_lines)]
        nodes = self.model.nodes
        for index in range(start_index, len(nodes)):
            node = nodes[index]
            depth = mac_depth.get(node.name)
            shared_split = False
            if depth is not None and depth in splits:
                cuts = splits[depth]
                new_runs: list[tuple[int, int]] = []
                counts: list[int] = []
                for s, e in runs:
                    inner = [i for i in cuts if s <= i < e - 1]
                    bounds = [s] + [i + 1 for i in inner] + [e]
                    counts.append(len(bounds) - 1)
                    new_runs.extend(zip(bounds, bounds[1:]))
                shared_split = len(runs) == 1 and counts[0] > 1
                mac_input = node.inputs[0]
                raw_input = activations[mac_input]
                needed = self._names_needed_from(index)
                needed_after = self._names_needed_from(index + 1)
                expanded: dict[str, np.ndarray] = {}
                for name, arr in activations.items():
                    if name not in needed:
                        continue
                    if shared_split and name == mac_input and name not in needed_after:
                        # Consumed only by the fused shared-input launch;
                        # skip the blockwise copy entirely.
                        continue
                    expanded[name] = _expand_line_blocks(arr, batch, counts)
                activations = expanded
                runs = new_runs
                x = raw_input if shared_split else activations[node.inputs[0]]
            elif depth is not None:
                x = activations[node.inputs[0]]
            if depth is not None:
                models = [line_plans[s].model_for(node.name) for s, _ in runs]
                if len(runs) == 1 or len({m.fingerprint() for m in models}) == 1:
                    activations[node.name] = self._run_mac_node(
                        node.name, node.layer, x, models[0]
                    )
                else:
                    activations[node.name] = self._run_mac_node_multi(
                        node.name, node.layer, x, models, shared_split
                    )
            else:
                inputs = [activations[name] for name in node.inputs]
                activations[node.name] = node.layer.forward(*inputs, training=False)
        return activations[self.model.output_name]

    def _names_needed_from(self, index: int) -> set[str]:
        """Activation names any node from ``index`` on still consumes."""
        needed = {self.model.output_name}
        for node in self.model.nodes[index:]:
            needed.update(node.inputs)
        return needed

    def logits_many(
        self,
        images: np.ndarray,
        plans: Sequence[ExecutionPlan],
        batch_size: int = 256,
    ) -> list[np.ndarray]:
        """Batched :meth:`forward_many`; one concatenated logits array per plan."""
        plans = list(plans)
        if not plans:
            return []
        outputs: list[list[np.ndarray]] = [[] for _ in plans]
        for start in range(0, images.shape[0], batch_size):
            batch_out = self.forward_many(images[start : start + batch_size], plans)
            for chunks, out in zip(outputs, batch_out):
                chunks.append(out)
        return [np.concatenate(chunks, axis=0) for chunks in outputs]

    def predict_many(
        self,
        images: np.ndarray,
        plans: Sequence[ExecutionPlan],
        batch_size: int = 256,
    ) -> list[np.ndarray]:
        """Predicted class labels per plan."""
        return [
            logits.argmax(axis=1)
            for logits in self.logits_many(images, plans, batch_size=batch_size)
        ]

    def logits(self, images: np.ndarray, plan: ExecutionPlan, batch_size: int = 256) -> np.ndarray:
        """Batched forward pass returning the concatenated logits."""
        return self.logits_many(images, [plan], batch_size=batch_size)[0]

    def predict(self, images: np.ndarray, plan: ExecutionPlan, batch_size: int = 256) -> np.ndarray:
        """Predicted class labels."""
        return self.logits(images, plan, batch_size=batch_size).argmax(axis=1)

    def _run_mac_node_multi(
        self,
        name: str,
        layer: Conv2D | Dense,
        x: np.ndarray,
        models: list[ProductModel],
        shared: bool,
    ) -> np.ndarray:
        """One fused launch evaluating ``len(models)`` plan blocks of a MAC.

        ``shared=False``: ``x`` is the block-stacked input (``blocks *
        batch`` leading rows).  ``shared=True``: ``x`` is a single shared
        block and the output fans out to ``len(models)`` stacked blocks.
        """
        qnode = self._nodes[name]
        return self._run_compiled_mac(
            layer,
            qnode,
            x,
            x.shape[0] * (len(models) if shared else 1),
            lambda g, act_codes: self._run_group_multi(qnode, g, act_codes, models, shared),
        )

    _MULTI_KERNEL_CACHE_CAP = 256

    def _multi_kernel_for(
        self, qnode: _QuantizedMacNode, group: int, models: list[ProductModel]
    ):
        """Compiled fused kernel for one per-block model assignment."""
        fps = tuple(model.fingerprint() for model in models)
        key = (qnode.node_name, group, fps)
        kernel = self._multi_kernel_cache.get(key)
        if kernel is None:
            # Per-block kernels deduped by fingerprint: blocks repeating a
            # model reuse one compiled kernel (and its LUT error matrix).
            by_fp: dict[tuple, ProductKernel] = {}
            kernels = []
            for model, fp in zip(models, fps):
                block_kernel = by_fp.get(fp)
                if block_kernel is None:
                    block_kernel = self._kernel_for(qnode, group, model)
                    by_fp[fp] = block_kernel
                kernels.append(block_kernel)
            override = qnode.weight_overrides[group]
            weight_codes = (
                override if override is not None else qnode.ops[group].weight_codes
            )
            kernel = self.engine_backend.compile_multi(
                models, weight_codes, qnode.control_variates[group], kernels=kernels
            )
            if len(self._multi_kernel_cache) >= self._MULTI_KERNEL_CACHE_CAP:
                self._multi_kernel_cache.pop(next(iter(self._multi_kernel_cache)))
            self._multi_kernel_cache[key] = kernel
        return kernel

    def _run_group_multi(
        self,
        qnode: _QuantizedMacNode,
        group: int,
        act_codes: np.ndarray,
        models: list[ProductModel],
        shared: bool,
    ) -> np.ndarray:
        op = qnode.ops[group]
        kernel = self._multi_kernel_for(qnode, group, models)
        sums = kernel.product_sums_multi(act_codes, shared=shared)
        self.fused_launches += 1
        self.fused_plans_total += len(models)
        if shared:
            # Every correction is per-patch, so the stacked variant (act
            # terms computed once, broadcast across blocks) reproduces the
            # per-block output_real calls bit-exactly without tiling.
            return op.output_real_stacked(
                act_codes, qnode.act_params, sums, len(models)
            )
        return op.output_real(act_codes, qnode.act_params, product_sum=sums)

    # ------------------------------------------------------------------
    def _run_mac_node(
        self,
        name: str,
        layer: Conv2D | Dense,
        x: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        qnode = self._nodes[name]
        if self.use_compiled:
            return self._run_compiled_mac(
                layer,
                qnode,
                x,
                x.shape[0],
                lambda g, act_codes: self._run_group(qnode, g, act_codes, product_model),
            )
        return self._run_reference_mac(layer, qnode, x, product_model)

    def _run_compiled_mac(
        self,
        layer: Conv2D | Dense,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        out_images: int,
        run_group,
    ) -> np.ndarray:
        """Quantize a MAC node's input once, then ``run_group(g, act_codes)``.

        A convolution quantizes its compact NHWC input and unfolds the uint8
        codes (padding with the zero-point code, i.e. quantize(0)) —
        elementwise identical to unfold-then-quantize, but the im2col gather
        duplicates every pixel ~k^2 times, so this quantizes up to k^2 x
        less data and gathers uint8 instead of float64.  ``out_images`` is
        the number of output images ``run_group`` produces.
        """
        if isinstance(layer, Dense):
            return run_group(0, self._quantize_acts(qnode, 0, x))
        cin_per_group = layer.in_channels // layer.groups
        cout_per_group = layer.out_channels // layer.groups
        codes = self._quantize_acts(qnode, -1, x)
        pad_code = int(np.clip(qnode.act_params.zero_point, 0, 255))
        outputs = []
        for g in range(layer.groups):
            act_codes, out_h, out_w = im2col(
                codes[..., g * cin_per_group : (g + 1) * cin_per_group],
                layer.kernel_size,
                layer.kernel_size,
                layer.stride,
                layer.pad,
                pad_value=pad_code,
            )
            out_flat = run_group(g, act_codes)
            outputs.append(out_flat.reshape(out_images, out_h, out_w, cout_per_group))
        return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]

    def _run_reference_mac(
        self,
        layer: Conv2D | Dense,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        """Unfold-then-quantize per group (the ``use_compiled=False`` path)."""
        if isinstance(layer, Dense):
            return self._run_group(qnode, 0, self._quantize_acts(qnode, 0, x), product_model)
        cin_per_group = layer.in_channels // layer.groups
        cout_per_group = layer.out_channels // layer.groups
        outputs = []
        for g in range(layer.groups):
            cols, out_h, out_w = im2col(
                x[..., g * cin_per_group : (g + 1) * cin_per_group],
                layer.kernel_size,
                layer.kernel_size,
                layer.stride,
                layer.pad,
            )
            act_codes = self._quantize_acts(qnode, g, cols)
            out_flat = self._run_group(qnode, g, act_codes, product_model)
            outputs.append(out_flat.reshape(x.shape[0], out_h, out_w, cout_per_group))
        return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]

    def _quantize_acts(self, qnode: _QuantizedMacNode, group: int, cols: np.ndarray) -> np.ndarray:
        """Quantize activations into a per-(layer, group) persistent buffer.

        The buffer is reallocated whenever an incoming batch is larger than
        the current buffer or differs in any trailing (patch/feature) shape;
        smaller batches reuse a leading slice of it, so a batch-size change
        between calls can never write into (or return) a stale-shaped
        window.  Group ``-1`` holds the whole NHWC input of a conv node
        (compiled path).
        """
        key = (qnode.node_name, group)
        buffer = self._act_buffers.get(key)
        if buffer is None or buffer.shape[0] < cols.shape[0] or buffer.shape[1:] != cols.shape[1:]:
            buffer = np.empty(cols.shape, dtype=np.uint8)
            self._act_buffers[key] = buffer
        return quantize(cols, qnode.act_params, out=buffer[: cols.shape[0]])

    def _kernel_for(
        self, qnode: _QuantizedMacNode, group: int, product_model: ProductModel
    ) -> ProductKernel:
        per_model = self._kernel_cache.get(product_model)
        if per_model is None:
            per_model = {}
            self._kernel_cache[product_model] = per_model
        key = (qnode.node_name, group)
        kernel = per_model.get(key)
        if kernel is None:
            override = qnode.weight_overrides[group]
            weight_codes = (
                override if override is not None else qnode.ops[group].weight_codes
            )
            kernel = self.engine_backend.compile(
                product_model, weight_codes, qnode.control_variates[group]
            )
            per_model[key] = kernel
        return kernel

    def _run_group(
        self,
        qnode: _QuantizedMacNode,
        group: int,
        act_codes: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        op = qnode.ops[group]
        if self.use_compiled:
            sums = self._kernel_for(qnode, group, product_model)(act_codes)
        else:
            override = qnode.weight_overrides[group]
            weight_codes = override if override is not None else op.weight_codes
            sums = product_model.product_sums(
                act_codes, weight_codes, qnode.control_variates[group]
            )
        return op.output_real(act_codes, qnode.act_params, product_sum=sums)


def _expand_line_blocks(arr: np.ndarray, rows: int, counts: Sequence[int]) -> np.ndarray:
    """Repeat each ``rows``-sized leading block of ``arr`` blockwise.

    Block ``i`` (rows ``i*rows:(i+1)*rows``) appears ``counts[i]`` times in
    the result, in order — the layout change a run split applies to every
    live activation of the stacked multi-plan walk.
    """
    if all(count == 1 for count in counts):
        return arr
    blocks: list[np.ndarray] = []
    for i, count in enumerate(counts):
        block = arr[i * rows : (i + 1) * rows]
        blocks.extend([block] * count)
    return np.concatenate(blocks, axis=0)


def _common_prefix_length(left: tuple, right: tuple) -> int:
    """Number of leading fingerprints two plan lines agree on."""
    length = 0
    for a, b in zip(left, right):
        if a != b:
            break
        length += 1
    return length


def _walk_slices(lcps: Sequence[int], start: int, stop: int) -> list[tuple[int, int]]:
    """Cut sorted lines ``start:stop`` into walks of at most ``_MAX_WALK_LINES``.

    ``lcps[i]`` is the prefix length lines ``i`` and ``i + 1`` share.  An
    oversized range is split at its shallowest adjacent divergence (the
    cut that re-walks the least shared prefix), ties broken toward the
    middle so equal-depth families halve instead of peeling off one line
    at a time.
    """
    if stop - start <= _MAX_WALK_LINES:
        return [(start, stop)]
    middle = (start + stop) / 2
    cut = min(range(start + 1, stop), key=lambda i: (lcps[i - 1], abs(i - middle)))
    return _walk_slices(lcps, start, cut) + _walk_slices(lcps, cut, stop)


def _group_weight_matrices(layer: Conv2D | Dense):
    """Yield ``(weight_matrix, bias)`` per group with the (taps, filters) layout."""
    if isinstance(layer, Conv2D):
        cout_per_group = layer.out_channels // layer.groups
        for g in range(layer.groups):
            bias = None
            if layer.use_bias:
                bias = layer.bias[g * cout_per_group : (g + 1) * cout_per_group]
            yield layer.weight_matrix(g), bias
    elif isinstance(layer, Dense):
        yield layer.weight, (layer.bias if layer.use_bias else None)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unsupported MAC layer type: {type(layer).__name__}")
