"""Approximate quantized inference executor (the TFApprox substitute).

The executor re-runs a trained float :class:`repro.nn.graph.Graph` with its
convolution and dense layers executed in the quantized integer domain.  The
per-element products of those integer accumulations — the operations the
MAC array performs — are produced by a pluggable :class:`ProductModel`:

* :class:`AccurateProduct` — the accurate array (quantization error only);
* :class:`PerforatedProduct` — the paper's perforated multiplier, with or
  without the control-variate MAC+ column;
* :class:`LUTProduct` — an arbitrary multiplier through its product table
  (used by the state-of-the-art baselines; ALWANN's weight tuning is a row
  remap of that table, so it needs no state of its own).

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
weight-dependent work (LUT error-matrix construction, control constants)
out of the per-batch hot loop.  Every compiled MAC launch is one
:class:`~repro.core.product_kernels.MultiPlanKernel` call followed by one
dequantization (:meth:`QuantizedLinearOp.output_real_stacked`); a layer
that runs a single product model is a one-block launch.  Each
``(layer, group)`` folds its zero points into its weights once
(:class:`~repro.core.product_kernels.ZeroPointFold`: the centered weights
``W' = W - z_w`` and the constant ``-z_a sum_j W'_j``), shared by every
kernel of that group, so a launch returns the exact integer
``lhs @ W' + (c - z_w) sum_j x_j - z_a sum_j W'_j`` and sums no activation
codes; dequantization is then ``* (s_w s_a) + bias`` in place.  The
float32 sgemm stays exact while ``255 * max_f sum_j |W'_jf| < 2^24``
(every MAC layer group of the trained networks meets it) and otherwise
runs in float64.  Kernels are cached
per ``(layer, group, per-block fingerprints)``, at most
``_KERNEL_CACHE_CAP`` of them, the least recently used evicted first, and
their blocks are compiled once per ``(layer, group, fingerprint)`` and
shared through a weak index.  Equal plans built from fresh product-model
instances (decoded from the wire, unpickled in a pool worker) therefore
compile nothing, and the persistent uint8 activation buffers are reused
across batches, so a sweep performs only the unavoidable per-batch work.
Every kernel is compiled through one
:class:`repro.core.backends.NumpyBackend`.  The uncompiled
reference walk is kept behind ``use_compiled=False``: it dequantizes by the
textbook chain of :meth:`QuantizedLinearOp.output_real`, and the
``pytest -m engine`` parity suite pins both paths bit-exact.

Calibration
-----------
The executor calibrates every MAC layer on one float walk over the whole
calibration batch, dropping each activation after its last reader.  The
process pins its OpenBLAS to one thread first: the float64 products of a
multi-threaded BLAS round differently, and the quantization parameters
must not depend on what ran in the process before.  Each MAC node's
percentile (``np.percentile``, which releases the GIL) runs on one helper
thread while the walk runs on; an input the walk has already dropped is
partitioned in place rather than copied.

The parameters are then a pure function of the trained weights, the
calibration images, the percentile and the host's BLAS kernels, so they
are calibrated once per model and calibration set: an executor built
with ``act_params`` (the stored result of an earlier walk, as
:meth:`ApproximateExecutor.act_params` returns it) skips the walk and
only quantizes the weights and builds the control variates.
:func:`repro.simulation.campaign.calibrated_executor` stores the
parameters next to the trained-model cache entry and loads them, bit for
bit, in every later process.

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
* the prefix all plans agree on runs once, at the full image batch, as
  one-block launches;
* from the first layer where plans diverge, every distinct plan "line"
  rides one stacked launch per MAC layer (a single block again where
  all lines run one product model), chunked over images so that no
  launch exceeds ``_STACKED_ROWS_TARGET`` rows;
* a batch of more than ``_MAX_WALK_LINES`` distinct lines is cut at its
  shallowest divergences into several such walks, so the stacked rows stay
  bounded whatever the number of plans a caller sends.

Image shards
------------
Every operation between the input and the logits is per-image, so a batch
splits into contiguous image ranges that walk independently and bit for
bit identically.  ``forward_many`` runs ``S = min(core share, batch)``
such shards, one thread each (shard 0 on the caller's), where the core
share is every schedulable CPU of the process, or its slice of them in a
pool worker (:func:`repro.runtime.sizing.eval_thread_count`).  Before a
sharded walk (as before calibrating) the process pins its OpenBLAS to one
thread, so the host runs one busy thread per core; each concurrent walk gets
``_STACKED_ROWS_TARGET // S`` rows, so the live rows stay put, and drops
every activation after its last reader, which bounds what each shard
thread's malloc arena keeps after the walk.  The shards share the kernel
cache (lookup, compilation and eviction under one lock) and the
fused-launch counters (one count per shard launch); each owns its
activation buffers.

Nothing computed from the images outlives a call, so results never depend
on call order.  With ``use_compiled=False`` every plan instead runs the
per-plan reference walk through :meth:`ProductModel.product_sums` — the
oracle the stacked walk is tested against.
"""

from __future__ import annotations

import abc
import hashlib
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.accelerator_model import AcceleratorConfig
from repro.core.backends import NumpyBackend
from repro.core.approx_conv import (
    accurate_product_sums,
    lut_product_sums,
    perforated_product_sums,
)
from repro.core.control_variate import ControlVariate
from repro.core.product_kernels import (
    AccurateKernel,
    CallbackKernel,
    LUTKernel,
    MultiPlanKernel,
    PerforatedKernel,
    ProductKernel,
    ZeroPointFold,
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
        self, weight_codes: np.ndarray, control_variate: ControlVariate
    ) -> ProductKernel:
        """Compile this model against one layer's weights.

        The default implementation wraps :meth:`product_sums`; subclasses
        with an exploitable structure return a specialized kernel instead.
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
        a raw ``id()``): fingerprints key the executor's kernel cache,
        which outlives the plan objects, and a recycled id must not let a
        new, different model match an old kernel.  A dead weakref only
        compares equal to itself.
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
        self, weight_codes: np.ndarray, control_variate: ControlVariate
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
        self, weight_codes: np.ndarray, control_variate: ControlVariate
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

    def __init__(self, multiplier: Multiplier):
        self.multiplier = multiplier
        self._lut = multiplier.build_lut()
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
        return lut_product_sums(act_codes, weight_codes, self._lut)

    @property
    def lut(self) -> np.ndarray:
        """The precomputed 256x256 product table."""
        return self._lut

    def compile(
        self, weight_codes: np.ndarray, control_variate: ControlVariate
    ) -> ProductKernel:
        return LUTKernel(weight_codes, self._lut)

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
    (:func:`repro.runtime.scheduling.schedule_cells`) rely on.
    """
    return tuple(repr(fp) for fp in fingerprints)


@dataclass
class _QuantizedMacNode:
    """Pre-quantized data of one conv/dense node (one entry per group)."""

    node_name: str
    ops: list[QuantizedLinearOp]
    control_variates: list[ControlVariate]
    act_params: QuantParams


#: Row budget of one stacked suffix launch (images per chunk scale as
#: target // lines), split evenly among concurrent image shards.  Tuned
#: empirically: far below it the chunked walk
#: degenerates into the per-plan loop's call counts; far above it the
#: stacked activations (and every astype/matmul temp behind them) fall out
#: of cache into allocation churn.
_STACKED_ROWS_TARGET = 256

#: Most deduplicated plan lines one stacked walk carries.  A chunk holds
#: ``_STACKED_ROWS_TARGET // (lines * shards)`` images, so capping the
#: lines keeps at least ``16 // shards`` images per chunk and every launch
#: within the row budget; a larger plan batch is split into several walks.
_MAX_WALK_LINES = _STACKED_ROWS_TARGET // 16

#: Images per forward batch of every evaluation (sweep workers, DSE
#: evaluators).  It is part of the measurement setup hashed into the DSE
#: ledger's evaluation context keys.
EVAL_BATCH_SIZE = 256

#: The one compiler of every executor's kernels.
_BACKEND = NumpyBackend()


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
        Run each MAC layer as fused kernel launches (compiled once per
        ``(layer, group, fingerprints)`` and cached) on the stacked
        multi-plan walk.  Disable to run every plan through the per-plan
        reference walk over ``ProductModel.product_sums``; both paths are
        bit-exact.
    act_params:
        Stored activation parameters of every MAC node, as
        :meth:`act_params` returned them for the same model, calibration
        images and percentile.  The executor then skips the calibration
        walk (``calibration_images`` is not read) and only quantizes the
        weights and builds the control variates.
        :func:`repro.simulation.campaign.calibrated_executor` stores and
        loads them with the trained-model cache.
    """

    def __init__(
        self,
        model: Graph,
        calibration_images: np.ndarray,
        activation_percentile: float = 99.9,
        use_compiled: bool = True,
        act_params: "dict[str, QuantParams] | None" = None,
    ):
        self.model = model
        self.use_compiled = bool(use_compiled)
        # Index of the last node reading each activation (see _drop_dead).
        self._last_reader = {
            name: index for index, node in enumerate(model.nodes) for name in node.inputs
        }
        self._nodes: dict[str, _QuantizedMacNode] = {}
        # Batch-persistent uint8 activation-code buffers per (layer, group,
        # image shard).
        self._act_buffers: dict[tuple[str, int, int], np.ndarray] = {}
        # Compiled kernels keyed by (layer, group, per-block fingerprints),
        # in least-recently-used order (a hit moves its key to the end), the
        # first evicted beyond _KERNEL_CACHE_CAP; their per-block
        # kernels are indexed weakly by (layer, group, fingerprint).
        # Each (layer, group)'s zero-point fold is built once and shared by
        # all its kernels.
        self._drop_kernels()
        # Guards the kernel cache and the counters below against the
        # concurrent image shards of one forward_many call.
        self._lock = threading.Lock()
        # Launches of more than one plan block (one per image shard),
        # surfaced through EvaluationService.stats().
        self.fused_launches = 0
        self.fused_plans_total = 0
        if act_params is None:
            self._calibrate(calibration_images, activation_percentile)
            return
        names = self.mac_layer_names()
        if sorted(act_params) != sorted(names):
            raise ValueError(
                f"act_params covers {sorted(act_params)}, the model's MAC "
                f"layers are {sorted(names)}"
            )
        for node in model.conv_dense_nodes():
            self._nodes[node.name] = _quantize_mac_node(node, act_params[node.name])

    # ------------------------------------------------------------------
    def _calibrate(self, images: np.ndarray, percentile: float) -> None:
        """Quantize every MAC layer on one float walk over ``images``.

        A MAC node is calibrated from its input when the walk has run it,
        and every activation is dropped after its last reader, so the walk
        holds only what later nodes still read, not every node's output.
        BLAS is pinned to one thread first, so the parameters do not depend
        on what this process ran before.  A node's activation range is
        taken on one helper thread while the walk runs on to the next MAC
        node, which waits for it: at most one range is pending.  An input
        that neither a live activation nor ``images`` shares memory with is
        partitioned in place.
        """
        # Imported here: repro.runtime imports this module.
        from repro.runtime import sizing

        sizing.pin_blas_threads()
        activations = {"input": images}
        ranges: list[tuple] = []
        with ThreadPoolExecutor(max_workers=1) as helper:
            for index, node in enumerate(self.model.nodes):
                inputs = [activations[name] for name in node.inputs]
                activations[node.name] = node.layer.forward(*inputs, training=False)
                self._drop_dead(activations, index)
                if not isinstance(node.layer, (Conv2D, Dense)):
                    continue
                if ranges:
                    ranges[-1][1].result()  # at most one range pending
                x = inputs[0]
                owned = not any(
                    np.may_share_memory(x, arr) for arr in (images, *activations.values())
                )
                ranges.append((node, helper.submit(_activation_params, x, percentile, owned)))
                del inputs, x
        for node, params in ranges:
            self._nodes[node.name] = _quantize_mac_node(node, params.result())

    # ------------------------------------------------------------------
    def mac_layer_names(self) -> list[str]:
        """Names of the quantized MAC layers, in execution order."""
        return [node.name for node in self.model.conv_dense_nodes()]

    def act_params(self) -> dict[str, QuantParams]:
        """The activation parameters of every MAC layer, by name."""
        return {name: node.act_params for name, node in self._nodes.items()}

    def quantized_weights(self, layer_name: str) -> list[np.ndarray]:
        """The uint8 weight matrices (one per group) of a MAC layer."""
        return [op.weight_codes for op in self._nodes[layer_name].ops]

    def drop_working_set(self) -> None:
        """Free the activation buffers and compiled kernels.

        The next pass rebuilds both on demand; the calibration (activation
        parameters, quantized weights, control variates) is kept.
        """
        self._act_buffers = {}
        self._drop_kernels()

    def _drop_kernels(self) -> None:
        """Forget every compiled kernel, block and zero-point fold."""
        self._kernels: dict[tuple, MultiPlanKernel] = {}
        self._blocks: "weakref.WeakValueDictionary[tuple, ProductKernel]" = (
            weakref.WeakValueDictionary()
        )
        self._folds: dict[tuple[str, int], ZeroPointFold] = {}

    def reuse_stats(self) -> dict[str, int]:
        """Cross-call cache counters: none, since no activations outlive a call."""
        return {}

    def fused_stats(self) -> dict[str, int]:
        """Counters of launches carrying more than one plan (cumulative)."""
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
        launch per MAC layer (:meth:`NumpyBackend.compile_multi`).
        More than :data:`_MAX_WALK_LINES` lines are split into several walks
        at their shallowest divergences.  The images are split into
        contiguous shards walked on one thread each (see "Image shards" in
        the module docstring); exceptions of any shard propagate.  With
        ``use_compiled=False`` every plan runs the per-plan reference walk
        instead, on the calling thread.
        """
        plans = list(plans)
        if not self.use_compiled:
            return [self._reference_forward(images, plan) for plan in plans]
        if not plans:
            return []
        # Imported here: repro.runtime imports this module.
        from repro.runtime import sizing

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
        walks = [
            (lines[start:stop], lcps[start : stop - 1])
            for start, stop in _walk_slices(lcps, 0, len(lines))
        ]
        batch = images.shape[0]
        shards = max(1, min(sizing.eval_thread_count(), batch))
        bounds = [(shard * batch) // shards for shard in range(shards + 1)]
        # Concurrent walks split the row budget, so the live rows stay put.
        rows_target = _STACKED_ROWS_TARGET // shards

        def run_shard(shard: int) -> dict[tuple, np.ndarray]:
            shard_images = images[bounds[shard] : bounds[shard + 1]]
            size = shard_images.shape[0]
            outputs: dict[tuple, np.ndarray] = {}
            for walk, walk_lcps in walks:
                stacked = self._forward_lines(
                    shard_images,
                    [line_plans[seq] for seq in walk],
                    walk_lcps,
                    rows_target,
                    shard,
                )
                for offset, seq in enumerate(walk):
                    outputs[seq] = stacked[offset * size : (offset + 1) * size]
            return outputs

        if shards == 1:
            outputs = run_shard(0)
        else:
            sizing.pin_blas_threads()
            with ThreadPoolExecutor(max_workers=shards - 1) as pool:
                futures = [pool.submit(run_shard, shard) for shard in range(1, shards)]
                parts = [run_shard(0)] + [future.result() for future in futures]
            outputs = {
                seq: np.concatenate([part[seq] for part in parts], axis=0)
                for seq in lines
            }
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
        shard: int = 0,
    ) -> None:
        """Execute nodes ``start:stop`` under ``plan`` on top of ``activations``."""
        for index in range(start, stop):
            node = self.model.nodes[index]
            inputs = [activations[name] for name in node.inputs]
            if node.name not in self._nodes:
                activations[node.name] = node.layer.forward(*inputs, training=False)
            elif self.use_compiled:
                activations[node.name] = self._run_mac_node(
                    node.name,
                    node.layer,
                    inputs[0],
                    [plan.model_for(node.name)],
                    False,
                    shard,
                )
            else:
                activations[node.name] = self._run_reference_mac(
                    node.layer, self._nodes[node.name], inputs[0], plan.model_for(node.name)
                )
            self._drop_dead(activations, index)

    def _drop_dead(self, activations: dict[str, np.ndarray], index: int) -> None:
        """Drop the activations node ``index`` was the last node to read.

        A walk then holds only the activations later nodes still read, not
        every node's output: that bounds a shard thread's working set, and
        with it what its malloc arena keeps after the walk.
        """
        for name in self.model.nodes[index].inputs:
            if self._last_reader[name] == index:
                activations.pop(name, None)

    def _forward_lines(
        self,
        images: np.ndarray,
        line_plans: list[ExecutionPlan],
        lcps: list[int],
        rows_target: int,
        shard: int,
    ) -> np.ndarray:
        """Stacked walk over deduped, sorted plan "lines"; returns the
        ``(lines * batch, ...)`` output stack in line order.

        ``lcps[i]`` is the number of leading MAC layers lines ``i`` and
        ``i + 1`` agree on.  ``rows_target`` bounds the rows of one stacked
        launch; ``shard`` selects the activation buffers the walk owns.
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
        # each launch carries ~rows_target rows: feeding it
        # lines * batch rows at once would blow the arrays (and every
        # astype/matmul behind them) past cache into allocation churn.
        split_index = next(
            (i for i, node in enumerate(nodes) if mac_depth.get(node.name) in splits),
            len(nodes),
        )
        activations = {"input": images}
        self._run_nodes(activations, 0, split_index, line_plans[0], shard)
        if split_index == len(nodes):  # one line: the whole network is shared
            return activations[self.model.output_name]
        # ``activations`` now holds only what nodes from split_index on read.
        chunk_rows = max(1, rows_target // num_lines)
        if chunk_rows >= batch:
            return self._stacked_suffix(
                activations, batch, split_index, line_plans, splits, mac_depth, shard
            )
        num_chunks = -(-batch // chunk_rows)
        bounds = [(i * batch) // num_chunks for i in range(num_chunks + 1)]
        chunks: list[np.ndarray] = []
        sizes: list[int] = []
        for start, stop in zip(bounds, bounds[1:]):
            sliced = {name: arr[start:stop] for name, arr in activations.items()}
            chunks.append(
                self._stacked_suffix(
                    sliced, stop - start, split_index, line_plans, splits, mac_depth, shard
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
        shard: int,
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
            if depth is None:
                inputs = [activations[name] for name in node.inputs]
                activations[node.name] = node.layer.forward(*inputs, training=False)
                self._drop_dead(activations, index)
                continue
            mac_input = node.inputs[0]
            x = activations[mac_input]
            shared_split = False
            if depth in splits:
                cuts = splits[depth]
                new_runs: list[tuple[int, int]] = []
                counts: list[int] = []
                for s, e in runs:
                    inner = [i for i in cuts if s <= i < e - 1]
                    bounds = [s] + [i + 1 for i in inner] + [e]
                    counts.append(len(bounds) - 1)
                    new_runs.extend(zip(bounds, bounds[1:]))
                shared_split = len(runs) == 1 and counts[0] > 1
                expanded: dict[str, np.ndarray] = {}
                for name, arr in activations.items():
                    if shared_split and name == mac_input and self._last_reader[name] == index:
                        # Consumed only by the fused shared-input launch;
                        # skip the blockwise copy entirely.
                        continue
                    expanded[name] = _expand_line_blocks(arr, batch, counts)
                activations = expanded
                runs = new_runs
                if not shared_split:
                    x = activations[mac_input]
            models = [line_plans[s].model_for(node.name) for s, _ in runs]
            if not shared_split and len({m.fingerprint() for m in models}) == 1:
                models = models[:1]  # one product model: the stack is one block
            activations[node.name] = self._run_mac_node(
                node.name, node.layer, x, models, shared_split, shard
            )
            del x
            self._drop_dead(activations, index)
        return activations[self.model.output_name]

    def logits_many(
        self,
        images: np.ndarray,
        plans: Sequence[ExecutionPlan],
        batch_size: int = EVAL_BATCH_SIZE,
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
        batch_size: int = EVAL_BATCH_SIZE,
    ) -> list[np.ndarray]:
        """Predicted class labels per plan."""
        return [
            logits.argmax(axis=1)
            for logits in self.logits_many(images, plans, batch_size=batch_size)
        ]

    def logits(
        self, images: np.ndarray, plan: ExecutionPlan, batch_size: int = EVAL_BATCH_SIZE
    ) -> np.ndarray:
        """Batched forward pass returning the concatenated logits."""
        return self.logits_many(images, [plan], batch_size=batch_size)[0]

    def predict(
        self, images: np.ndarray, plan: ExecutionPlan, batch_size: int = EVAL_BATCH_SIZE
    ) -> np.ndarray:
        """Predicted class labels."""
        return self.logits(images, plan, batch_size=batch_size).argmax(axis=1)

    def _run_mac_node(
        self,
        name: str,
        layer: Conv2D | Dense,
        x: np.ndarray,
        models: list[ProductModel],
        shared: bool,
        shard: int,
    ) -> np.ndarray:
        """One compiled launch per group evaluating ``len(models)`` plan blocks.

        ``shared=False``: ``x`` is the block-stacked input (``blocks *
        batch`` leading rows); a single model evaluates all of it as one
        block.  ``shared=True``: ``x`` is a single shared block and the
        output fans out to ``len(models)`` stacked blocks.

        A convolution quantizes its compact NHWC input and unfolds the uint8
        codes (padding with the zero-point code, i.e. quantize(0)) —
        elementwise identical to unfold-then-quantize, but the im2col unfold
        duplicates every pixel ~k^2 times, so this quantizes up to k^2 x
        less data and copies uint8 instead of float64.
        """
        qnode = self._nodes[name]
        plans = len(models) if shared else 1

        def launch(group: int, act_codes: np.ndarray) -> np.ndarray:
            kernel = self._kernel(qnode, group, models)
            sums = kernel.product_sums_multi(act_codes, shared=shared)
            if len(models) > 1:
                with self._lock:
                    self.fused_launches += 1
                    self.fused_plans_total += len(models)
            return qnode.ops[group].output_real_stacked(sums, qnode.act_params)

        if isinstance(layer, Dense):
            return launch(0, self._quantize_acts(qnode, 0, x, shard))
        cin_per_group = layer.in_channels // layer.groups
        cout_per_group = layer.out_channels // layer.groups
        codes = self._quantize_acts(qnode, -1, x, shard)
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
            out_flat = launch(g, act_codes)
            outputs.append(
                out_flat.reshape(x.shape[0] * plans, out_h, out_w, cout_per_group)
            )
        return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]

    #: Most cached kernels per executor: a daemon receives LUT tables by
    #: value, so the fingerprints it compiles for are unbounded.
    _KERNEL_CACHE_CAP = 256

    def _kernel(
        self, qnode: _QuantizedMacNode, group: int, models: list[ProductModel]
    ) -> MultiPlanKernel:
        """Compiled kernel for one per-block model assignment of a layer group.

        Keyed by fingerprints, so plans rebuilt from fresh product-model
        instances (decoded from the wire, unpickled in a pool worker) reuse
        it.  Blocks are compiled once per ``(layer, group, fingerprint)``
        and shared by every cached kernel through the weak block index, so a
        LUT error matrix is built once per layer, and every kernel of a
        layer group launches against the group's one
        :class:`ZeroPointFold`.  The least recently used kernel is evicted
        first.  Lookup, compilation and eviction share one lock: concurrent
        shards ask for the same kernel at the same moment, and it is
        compiled once.
        """
        fps = tuple(model.fingerprint() for model in models)
        key = (qnode.node_name, group, fps)
        with self._lock:
            kernel = self._kernels.pop(key, None)
            if kernel is not None:
                self._kernels[key] = kernel
                return kernel
            op = qnode.ops[group]
            weight_codes = op.weight_codes
            fold = self._folds.get((qnode.node_name, group))
            if fold is None:
                fold = self._folds[(qnode.node_name, group)] = ZeroPointFold(
                    weight_codes, op.weight_params.zero_point, qnode.act_params.zero_point
                )
            cv = qnode.control_variates[group]
            blocks = []
            for model, fp in zip(models, fps):
                block = self._blocks.get((qnode.node_name, group, fp))
                if block is None:
                    block = _BACKEND.compile(model, weight_codes, cv)
                    self._blocks[(qnode.node_name, group, fp)] = block
                blocks.append(block)
            kernel = _BACKEND.compile_multi(
                models, weight_codes, cv, kernels=blocks, fold=fold
            )
            if len(self._kernels) >= self._KERNEL_CACHE_CAP:
                self._kernels.pop(next(iter(self._kernels)))
            self._kernels[key] = kernel
            return kernel

    def _run_reference_mac(
        self,
        layer: Conv2D | Dense,
        qnode: _QuantizedMacNode,
        x: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        """Unfold-then-quantize per group (the ``use_compiled=False`` path)."""
        if isinstance(layer, Dense):
            return self._run_reference_group(
                qnode, 0, self._quantize_acts(qnode, 0, x), product_model
            )
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
            out_flat = self._run_reference_group(qnode, g, act_codes, product_model)
            outputs.append(out_flat.reshape(x.shape[0], out_h, out_w, cout_per_group))
        return np.concatenate(outputs, axis=-1) if layer.groups > 1 else outputs[0]

    def _quantize_acts(
        self, qnode: _QuantizedMacNode, group: int, cols: np.ndarray, shard: int = 0
    ) -> np.ndarray:
        """Quantize activations into a per-(layer, group, shard) persistent buffer.

        The buffer is reallocated whenever an incoming batch is larger than
        the current buffer or differs in any trailing (patch/feature) shape;
        smaller batches reuse a leading slice of it, so a batch-size change
        between calls can never write into (or return) a stale-shaped
        window.  Group ``-1`` holds the whole NHWC input of a conv node
        (compiled path); each concurrent image shard owns its buffers.
        """
        key = (qnode.node_name, group, shard)
        buffer = self._act_buffers.get(key)
        if buffer is None or buffer.shape[0] < cols.shape[0] or buffer.shape[1:] != cols.shape[1:]:
            buffer = np.empty(cols.shape, dtype=np.uint8)
            self._act_buffers[key] = buffer
        return quantize(cols, qnode.act_params, out=buffer[: cols.shape[0]])

    def _run_reference_group(
        self,
        qnode: _QuantizedMacNode,
        group: int,
        act_codes: np.ndarray,
        product_model: ProductModel,
    ) -> np.ndarray:
        op = qnode.ops[group]
        sums = product_model.product_sums(
            act_codes, op.weight_codes, qnode.control_variates[group]
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


def _activation_params(x: np.ndarray, percentile: float, owned: bool) -> QuantParams:
    """Activation parameters of a MAC node whose float input over the
    calibration batch is ``x``; an ``owned`` input is partitioned in place."""
    if percentile >= 100.0:
        return calibrate_minmax(x)
    return calibrate_percentile(x, percentile, overwrite_input=owned)


def _quantize_mac_node(node, act_params: QuantParams) -> _QuantizedMacNode:
    """Quantized weights and control variates of one conv/dense node,
    with its activation parameters."""
    ops: list[QuantizedLinearOp] = []
    cvs: list[ControlVariate] = []
    for weight_matrix, bias in _group_weight_matrices(node.layer):
        weight_params = calibrate_minmax(weight_matrix)
        weight_codes = quantize(weight_matrix, weight_params)
        ops.append(QuantizedLinearOp(weight_codes, weight_params, bias))
        cvs.append(ControlVariate.from_weight_matrix(weight_codes))
    return _QuantizedMacNode(
        node_name=node.name,
        ops=ops,
        control_variates=cvs,
        act_params=act_params,
    )


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
