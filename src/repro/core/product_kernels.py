"""Compiled per-layer product kernels for the approximate executor.

The legacy product-sum functions in :mod:`repro.core.approx_conv` re-derive
all per-layer state (int64 weight copies, LUT gathers, control constants) on
every batch.  A :class:`ProductKernel` is the compiled counterpart: it is
built **once** per (layer, execution plan) by ``ProductModel.compile`` and
then evaluated on every activation batch, so all weight-dependent work is
hoisted out of the hot loop.

The LUT kernel is the important one.  For an arbitrary 256x256 multiplier
table the legacy path materializes a ``(patches, taps, filters)`` gather per
chunk.  The compiled kernel instead decomposes the table as

    lut[w, a] = w * a - err[w, a]

so the exact part ``sum_j w_j a_j`` is a single matrix product, and the error
part becomes a matrix product of the *one-hot encoded* activations against a
precompiled ``(taps * 256, filters)`` error matrix::

    err_sums[p, f] = sum_j err[w[j, f], act[p, j]]
                   = onehot(act)[p, :] @ E[:, f],
    E[j * 256 + a, f] = err[w[j, f], a]

The one-hot matrix has exactly ``taps`` ones per row, so the product is
evaluated through a scipy CSR matrix when scipy is available, or through a
per-tap gather loop otherwise — either way the 3-D gather is gone.

All integer matrix products are executed in float64 BLAS and cast back: every
partial product and every partial sum is a non-negative integer bounded by
``taps * 255 * 255 << 2^53``, so the float64 accumulation is exact and the
results are bit-identical to the int64 reference paths (enforced by the
``pytest -m engine`` parity suite).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.control_variate import ControlVariate
from repro.multipliers.base import OPERAND_LEVELS

try:  # pragma: no cover - exercised indirectly via LUTKernel paths
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy is available in CI
    _sparse = None


#: Largest precompiled LUT error matrix, in bytes, before :class:`LUTKernel`
#: falls back to the low-memory per-tap evaluation.
DEFAULT_MAX_ERROR_MATRIX_BYTES = 1 << 28


@dataclass(frozen=True)
class KernelOptions:
    """Backend-tunable knobs honored by ``ProductModel.compile``.

    An :class:`repro.core.backends.EngineBackend` passes these to the
    product models it compiles; models honor the knobs that apply to them
    (only the LUT kernel has a memory/speed trade-off today) and ignore the
    rest, so options never change results — only footprint and speed.
    """

    #: Cap on the precompiled LUT error matrix; layers whose matrix would
    #: exceed it use the streaming per-tap evaluation instead.
    max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES


def _as_int64_weights(weight_codes: np.ndarray) -> np.ndarray:
    w = np.asarray(weight_codes)
    if w.ndim != 2:
        raise ValueError(f"weight_codes must be 2-D (taps, filters), got {w.shape}")
    return w.astype(np.int64)


def exact_int_matmul(lhs: np.ndarray, rhs_f64: np.ndarray) -> np.ndarray:
    """``lhs @ rhs`` for non-negative integer operands, via float64 BLAS.

    Exact because every partial sum is an integer below 2^53; BLAS is an
    order of magnitude faster than numpy's native int64 matmul.
    """
    return (lhs.astype(np.float64) @ rhs_f64).astype(np.int64)


#: Largest per-(patch, filter) product sum for which float32 accumulation is
#: still exact (integers below 2^24).
_F32_EXACT_BOUND = 1 << 24


class _WeightOperand:
    """A weight matrix prepared for exact floating-point BLAS products.

    Stores the float64 copy of the ``(taps, filters)`` weights and, when
    every possible product sum of 8-bit activations against them fits below
    2^24 (``255 * max_f sum_j w[j, f] < 2^24``), a float32 copy as well —
    float32 sgemm is about twice as fast as dgemm and still bit-exact in
    that regime, because every partial sum is a non-negative integer below
    the float32 exact-integer limit.
    """

    def __init__(self, w: np.ndarray):
        self._f64 = w.astype(np.float64)
        w64 = w.astype(np.int64)
        # The bound argument requires genuine 8-bit codes: signed or
        # out-of-range weights could overflow float32 partial products even
        # with a small column sum, so they disqualify the f32 copy entirely.
        is_8bit = w64.size == 0 or (w64.min() >= 0 and w64.max() < OPERAND_LEVELS)
        max_col_sum = int(w64.sum(axis=0).max()) if w64.size else 0
        self._f32 = (
            w.astype(np.float32)
            if is_8bit and 255 * max_col_sum < _F32_EXACT_BOUND
            else None
        )

    def matmul(self, lhs: np.ndarray) -> np.ndarray:
        """Exact ``lhs @ w`` as int64 for integer-valued ``lhs``.

        The float32 path is only taken for uint8 operands — the dtype
        guarantees the <= 255 bound the exactness argument needs; any other
        integer input goes through float64, which is exact for every partial
        sum below 2^53.
        """
        if self._f32 is not None and lhs.dtype == np.uint8:
            return (lhs.astype(np.float32) @ self._f32).astype(np.int64)
        return exact_int_matmul(lhs, self._f64)


class ProductKernel(abc.ABC):
    """A product model compiled against one layer's quantized weights.

    Calling the kernel with ``(patches, taps)`` activation codes returns the
    ``(patches, filters)`` raw product sums, exactly as the corresponding
    legacy function in :mod:`repro.core.approx_conv` would.
    """

    def __init__(self, taps: int, filters: int):
        self.taps = int(taps)
        self.filters = int(filters)

    @abc.abstractmethod
    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        """Raw ``sum_j product(wq_j, aq_j)`` of shape ``(patches, filters)``."""

    def __call__(self, act_codes: np.ndarray) -> np.ndarray:
        return self.product_sums(act_codes)

    def _check_acts(self, act_codes: np.ndarray) -> np.ndarray:
        """Validate shape; keep integer dtypes as-is — uint8 stays uint8, so
        the executor's persistent buffers reach BLAS without an int64 detour.
        Non-integer inputs are truncated to int64, matching the legacy
        ``_check_codes`` behaviour of :mod:`repro.core.approx_conv`."""
        act = np.asarray(act_codes)
        if act.ndim != 2 or act.shape[1] != self.taps:
            raise ValueError(
                f"activations must have shape (patches, {self.taps}), got {act.shape}"
            )
        if not np.issubdtype(act.dtype, np.integer):
            act = act.astype(np.int64)
        return act


class AccurateKernel(ProductKernel):
    """Compiled exact ``act @ weights`` product sums."""

    def __init__(self, weight_codes: np.ndarray):
        w = _as_int64_weights(weight_codes)
        super().__init__(*w.shape)
        self._w_op = _WeightOperand(w)

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        return self._w_op.matmul(act)


class PerforatedKernel(ProductKernel):
    """Compiled perforated product sums, optionally CV-corrected.

    ``m = 0`` degenerates to the accurate array: the products equal
    :func:`repro.core.approx_conv.accurate_product_sums` and the control
    variate correction is exactly zero (``x = A mod 1 = 0``).
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        m: int,
        control_variate: ControlVariate | None = None,
    ):
        if not 0 <= int(m) < 8:
            raise ValueError(f"m must be within [0, 7], got {m}")
        w = _as_int64_weights(weight_codes)
        super().__init__(*w.shape)
        if control_variate is not None and control_variate.n_filters != self.filters:
            raise ValueError(
                f"control variate has {control_variate.n_filters} filters, "
                f"weights have {self.filters}"
            )
        self.m = int(m)
        self._mask = (1 << self.m) - 1
        self._w_op = _WeightOperand(w)
        self.control_variate = control_variate

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        # The mask fits any 8-bit operand dtype, so these ops stay in the
        # input dtype (uint8 in the executor) — no int64 round trip.
        x = act & self._mask
        sums = self._w_op.matmul(act - x)
        cv = self.control_variate
        if cv is None:
            return sums
        correction = cv.correction(x.sum(axis=1, dtype=np.int64))
        if cv.quantized:
            return sums + correction.astype(np.int64)
        return sums.astype(np.float64) + correction


class LUTKernel(ProductKernel):
    """Compiled product sums for an arbitrary 256x256 multiplier LUT.

    The table is decomposed as ``lut[w, a] = w * a - err[w, a]`` (see the
    module docstring); an exact multiplier therefore compiles down to the
    plain matmul with no error term at all.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        lut: np.ndarray,
        max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES,
    ):
        lut = np.asarray(lut, dtype=np.int64)
        if lut.shape != (OPERAND_LEVELS, OPERAND_LEVELS):
            raise ValueError(f"lut must have shape (256, 256), got {lut.shape}")
        w = _as_int64_weights(weight_codes)
        if w.size and (w.min() < 0 or w.max() >= OPERAND_LEVELS):
            raise ValueError(f"weight codes out of range [0, {OPERAND_LEVELS - 1}]")
        super().__init__(*w.shape)
        self._w_op = _WeightOperand(w)
        levels = np.arange(OPERAND_LEVELS, dtype=np.int64)
        err_table = levels[:, None] * levels[None, :] - lut
        # _err_table/_w are only needed by the low-memory per-batch fallback;
        # on the exact and fully-compiled paths they are dropped below.
        self._err_table: np.ndarray | None = None
        self._w: np.ndarray | None = None
        self._error_matrix: np.ndarray | None = None
        self._tap_offsets: np.ndarray | None = None
        self._exact = not err_table.any()
        if self._exact:
            return
        matrix_bytes = self.taps * OPERAND_LEVELS * self.filters * 8
        if matrix_bytes > max_error_matrix_bytes:
            # Low-memory mode: per-tap gather against the raw table.
            self._err_table = err_table
            self._w = w
            return
        # E[j * 256 + a, f] = err[w[j, f], a], built in tap chunks to bound
        # the transient (taps, filters, 256) intermediate.
        matrix = np.empty((self.taps * OPERAND_LEVELS, self.filters), dtype=np.int64)
        view = matrix.reshape(self.taps, OPERAND_LEVELS, self.filters)
        chunk = max(1, (1 << 24) // max(1, OPERAND_LEVELS * self.filters * 8))
        for start in range(0, self.taps, chunk):
            stop = min(start + chunk, self.taps)
            view[start:stop] = err_table[w[start:stop]].transpose(0, 2, 1)
        self._error_matrix = matrix
        self._tap_offsets = np.arange(self.taps, dtype=np.int64) * OPERAND_LEVELS
        self._ones = np.empty(0, dtype=np.int8)

    @property
    def is_exact(self) -> bool:
        """True when the LUT is the exact multiplier (no error term compiled)."""
        return self._exact

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = self._check_acts(act_codes)
        if act.dtype != np.uint8 and act.size and (
            act.min() < 0 or act.max() >= OPERAND_LEVELS
        ):
            raise ValueError(f"activation codes out of range [0, {OPERAND_LEVELS - 1}]")
        sums = self._w_op.matmul(act)
        if self._exact:
            return sums
        if self._error_matrix is not None:
            return sums - self._error_sums_compiled(act)
        return sums - self._error_sums_lowmem(act)

    # ------------------------------------------------------------------
    def _error_sums_compiled(self, act: np.ndarray) -> np.ndarray:
        patches = act.shape[0]
        indices = (act + self._tap_offsets[None, :]).ravel()
        if _sparse is not None:
            # int8 ones: 8x smaller than int64 for a patches*taps-long array
            # that is pure structure; scipy promotes the product back to the
            # error matrix's int64.
            if self._ones.shape[0] < indices.shape[0]:
                self._ones = np.ones(indices.shape[0], dtype=np.int8)
            indptr = np.arange(patches + 1, dtype=np.int64) * self.taps
            onehot = _sparse.csr_matrix(
                (self._ones[: indices.shape[0]], indices, indptr),
                shape=(patches, self.taps * OPERAND_LEVELS),
            )
            return np.asarray(onehot @ self._error_matrix)
        view = self._error_matrix.reshape(self.taps, OPERAND_LEVELS, self.filters)
        err = np.zeros((patches, self.filters), dtype=np.int64)
        for j in range(self.taps):
            err += view[j][act[:, j]]
        return err

    def _error_sums_lowmem(self, act: np.ndarray) -> np.ndarray:
        err = np.zeros((act.shape[0], self.filters), dtype=np.int64)
        for j in range(self.taps):
            err += self._err_table[self._w[j][None, :], act[:, j][:, None]]
        return err


class ChunkedKernel(ProductKernel):
    """Evaluate a wrapped kernel in bounded patch chunks.

    Rows (patches) are computed independently by every kernel, so splitting
    the batch along the patch axis is bit-exact while capping the transient
    memory of the wrapped kernel (one-hot products, correction terms) at the
    chunk size.  Used by the low-memory engine backend.
    """

    def __init__(self, base: ProductKernel, chunk_patches: int):
        if chunk_patches < 1:
            raise ValueError(f"chunk_patches must be positive, got {chunk_patches}")
        super().__init__(base.taps, base.filters)
        self.base = base
        self.chunk_patches = int(chunk_patches)

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        act = np.asarray(act_codes)
        patches = act.shape[0]
        if patches <= self.chunk_patches:
            return self.base(act_codes)
        parts = [
            self.base(act[start : start + self.chunk_patches])
            for start in range(0, patches, self.chunk_patches)
        ]
        return np.concatenate(parts, axis=0)


class CallbackKernel(ProductKernel):
    """Fallback kernel wrapping an uncompiled ``ProductModel.product_sums``.

    Used by product models that do not provide a specialized compiled form;
    the weight codes and control variate are still bound once at compile
    time, so callers need no per-batch layer state.
    """

    def __init__(self, product_model, weight_codes: np.ndarray, control_variate):
        w = np.asarray(weight_codes)
        if w.ndim != 2:
            raise ValueError(f"weight_codes must be 2-D (taps, filters), got {w.shape}")
        super().__init__(*w.shape)
        self._product_model = product_model
        self._weight_codes = weight_codes
        self._control_variate = control_variate

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        return self._product_model.product_sums(
            act_codes, self._weight_codes, self._control_variate
        )


class MultiPlanKernel:
    """P per-plan kernels of one layer, fused into one batched launch.

    The sweep's outer plan loop evaluates the same layer under P product
    models, one :class:`ProductKernel` launch each.  This kernel collapses
    those P launches into one: the per-plan ``exact - err`` decompositions
    are *stacked along the patch axis*, so the dense parts become a single
    ``(P*N, taps)``-shaped BLAS product against the shared weight operand
    and the LUT error parts become one block-stacked one-hot sparse product
    (block p's one-hot columns are offset into its own copy of the error
    matrix).  Two input conventions are supported:

    * ``shared=False`` — ``act_codes`` is the ``(P*N, taps)`` stack of P
      per-plan activation blocks (plans already diverged upstream);
    * ``shared=True`` — ``act_codes`` is one ``(N, taps)`` block shared by
      every plan (the divergence layer itself).  The shared accurate term
      is computed **once** and broadcast, and perforated blocks are deduped
      by mask so e.g. the ±V variants of one ``m`` share a single masked
      matmul.

    Output is always the ``(P*N, filters)`` product sums in float64 — the
    dtype :meth:`QuantizedLinearOp.output_real_stacked` dequantizes — with
    block p bit-identical (as a value) to ``kernels[p](act_block_p)``.
    ``P = 1`` is the executor's single-model launch.
    Kernel types the fusion does not understand (chunked, callback,
    streaming low-memory LUTs) are evaluated per block through their own
    kernel, so fusion never changes results, only launch count.

    All kernels must be compiled against the same weight codes; the shared
    weight operand is borrowed from the first fusable kernel.
    """

    def __init__(
        self,
        kernels,
        max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES,
    ):
        kernels = list(kernels)
        if not kernels:
            raise ValueError("MultiPlanKernel needs at least one kernel")
        self.taps = kernels[0].taps
        self.filters = kernels[0].filters
        for kernel in kernels:
            if (kernel.taps, kernel.filters) != (self.taps, self.filters):
                raise ValueError(
                    "all fused kernels must share one layer shape; got "
                    f"({kernel.taps}, {kernel.filters}) vs ({self.taps}, {self.filters})"
                )
        self.kernels = kernels
        self._kinds: list[str] = []
        self._w_op: _WeightOperand | None = None
        for kernel in kernels:
            if isinstance(kernel, AccurateKernel):
                kind = "exact"
            elif isinstance(kernel, LUTKernel) and kernel.is_exact:
                kind = "exact"
            elif isinstance(kernel, LUTKernel) and kernel._error_matrix is not None:
                kind = "lut"
            elif isinstance(kernel, PerforatedKernel):
                kind = "perf"
            else:
                kind = "fallback"
            if kind != "fallback" and self._w_op is None:
                self._w_op = kernel._w_op
            self._kinds.append(kind)
        self._lut_blocks = [i for i, k in enumerate(self._kinds) if k == "lut"]
        # One stacked error matrix over the *distinct* per-block matrices
        # (blocks may share a kernel instance, e.g. suffix layers where only
        # the prefix diverged); block p's one-hot columns land at
        # slot(p) * taps * 256.  Falls back to per-block products when the
        # stack would exceed the byte cap.
        self._stacked_error: np.ndarray | None = None
        self._block_slots: dict[int, int] = {}
        if self._lut_blocks:
            distinct: list[np.ndarray] = []
            ids: dict[int, int] = {}
            for i in self._lut_blocks:
                matrix = self.kernels[i]._error_matrix
                slot = ids.setdefault(id(matrix), len(distinct))
                if slot == len(distinct):
                    distinct.append(matrix)
                self._block_slots[i] = slot
            total_bytes = sum(m.nbytes for m in distinct)
            if total_bytes <= max_error_matrix_bytes and _sparse is not None:
                self._stacked_error = (
                    distinct[0] if len(distinct) == 1 else np.vstack(distinct)
                )
        self._tap_offsets = np.arange(self.taps, dtype=np.int64) * OPERAND_LEVELS
        self._ones = np.empty(0, dtype=np.int8)

    @property
    def plans(self) -> int:
        """Number of fused per-plan blocks."""
        return len(self.kernels)

    def product_sums_multi(
        self, act_codes: np.ndarray, shared: bool = False
    ) -> np.ndarray:
        """Stacked ``(plans * N, filters)`` float64 product sums.

        ``act_codes`` is ``(N, taps)`` when ``shared`` (one activation block
        evaluated under every plan) or ``(plans * N, taps)`` otherwise
        (block p = rows ``[p*N, (p+1)*N)``).
        """
        act = np.asarray(act_codes)
        if act.ndim != 2 or act.shape[1] != self.taps:
            raise ValueError(
                f"activations must have shape (patches, {self.taps}), got {act.shape}"
            )
        if not np.issubdtype(act.dtype, np.integer):
            act = act.astype(np.int64)
        if shared:
            return self._sums_shared(act)
        if act.shape[0] % self.plans:
            raise ValueError(
                f"stacked activations ({act.shape[0]} rows) do not divide "
                f"into {self.plans} equal plan blocks"
            )
        return self._sums_stacked(act)

    def __call__(self, act_codes: np.ndarray, shared: bool = False) -> np.ndarray:
        return self.product_sums_multi(act_codes, shared=shared)

    # ------------------------------------------------------------------
    def _sums_stacked(self, act: np.ndarray) -> np.ndarray:
        n = act.shape[0] // self.plans
        out = np.empty((self.plans * n, self.filters), dtype=np.float64)
        blocks = [act[p * n : (p + 1) * n] for p in range(self.plans)]
        dense_blocks = [p for p, k in enumerate(self._kinds) if k != "fallback"]
        if dense_blocks:
            # One (D*N, taps) dense product: perforated blocks contribute
            # their masked activations, exact/LUT blocks contribute as-is.
            # The stack keeps uint8 inputs uint8, so the weight operand's
            # float32 fast path applies exactly as it does per plan.
            needs_copy = any(
                self._kinds[p] == "perf" and self.kernels[p]._mask for p in dense_blocks
            )
            masked_sums: dict[int, np.ndarray] = {}
            if len(dense_blocks) == self.plans and not needs_copy:
                lhs = act
            else:
                lhs = np.empty((len(dense_blocks) * n, self.taps), dtype=act.dtype)
                for row, p in enumerate(dense_blocks):
                    dst = lhs[row * n : (row + 1) * n]
                    if self._kinds[p] == "perf" and self.kernels[p]._mask:
                        block = blocks[p]
                        x = block & self.kernels[p]._mask
                        if self.kernels[p].control_variate is not None:
                            masked_sums[p] = x.sum(axis=1, dtype=np.int64)
                        np.subtract(block, x, out=dst)
                    else:
                        dst[...] = blocks[p]
            dense = self._w_op.matmul(lhs)
            for row, p in enumerate(dense_blocks):
                sums = dense[row * n : (row + 1) * n]
                self._finish_block(
                    out, p, n, blocks[p], sums, masked_sums=masked_sums.get(p)
                )
        if self._lut_blocks:
            self._subtract_errors(out, n, blocks)
        for p, kind in enumerate(self._kinds):
            if kind == "fallback":
                out[p * n : (p + 1) * n] = self.kernels[p](blocks[p])
        return out

    def _sums_shared(self, act: np.ndarray) -> np.ndarray:
        n = act.shape[0]
        out = np.empty((self.plans * n, self.filters), dtype=np.float64)
        # Exact sums feed every accurate/LUT block and every m = 0
        # perforated block — computed once, broadcast into each.
        exact: np.ndarray | None = None
        masked: dict[int, np.ndarray] = {}
        masked_x_sums: dict[int, np.ndarray] = {}
        distinct_masks = sorted(
            {
                self.kernels[p]._mask
                for p, k in enumerate(self._kinds)
                if k == "perf" and self.kernels[p]._mask
            }
        )
        if distinct_masks:
            # One (D*N, taps) product over the distinct masked variants.
            lhs = np.empty((len(distinct_masks) * n, self.taps), dtype=act.dtype)
            for row, mask in enumerate(distinct_masks):
                x = act & mask
                masked_x_sums[mask] = x.sum(axis=1, dtype=np.int64)
                np.subtract(act, x, out=lhs[row * n : (row + 1) * n])
            dense = self._w_op.matmul(lhs)
            masked = {
                mask: dense[row * n : (row + 1) * n]
                for row, mask in enumerate(distinct_masks)
            }
        for p, kind in enumerate(self._kinds):
            if kind == "fallback":
                out[p * n : (p + 1) * n] = self.kernels[p](act)
                continue
            if kind == "perf" and self.kernels[p]._mask:
                sums = masked[self.kernels[p]._mask]
            else:
                if exact is None:
                    exact = self._w_op.matmul(act)
                sums = exact
            self._finish_block(
                out, p, n, act, sums,
                masked_sums=masked_x_sums.get(self.kernels[p]._mask)
                if kind == "perf"
                else None,
            )
        if self._lut_blocks:
            self._subtract_errors(out, n, [act] * self.plans)
        return out

    def _finish_block(
        self,
        out: np.ndarray,
        p: int,
        n: int,
        act_block: np.ndarray,
        sums: np.ndarray,
        masked_sums: np.ndarray | None = None,
    ) -> None:
        """Write block ``p``'s dense sums (+ CV correction) into ``out``.

        ``masked_sums`` optionally carries the per-row sums of
        ``act_block & mask`` already computed while assembling the dense
        product, saving the second full pass over the activations.  LUT
        error terms are subtracted afterwards by ``_subtract_errors``.
        """
        dst = out[p * n : (p + 1) * n]
        kernel = self.kernels[p]
        if self._kinds[p] == "perf" and kernel.control_variate is not None:
            if masked_sums is None:
                x = act_block & kernel._mask
                masked_sums = x.sum(axis=1, dtype=np.int64)
            correction = kernel.control_variate.correction(masked_sums)
            if kernel.control_variate.quantized:
                correction = correction.astype(np.int64)
            np.add(sums, correction, out=dst, casting="unsafe")
        else:
            dst[...] = sums

    def _subtract_errors(self, out: np.ndarray, n: int, blocks) -> None:
        """Subtract every LUT block's error sums, fused when possible."""
        if self._stacked_error is None:
            for p in self._lut_blocks:
                kernel = self.kernels[p]
                out[p * n : (p + 1) * n] -= kernel._error_sums_compiled(blocks[p])
            return
        # Block-stacked one-hot product: row r of LUT block p selects
        # columns act[r, j] + j*256 + slot(p)*taps*256 of the stacked error
        # matrix — one CSR matmul for all LUT blocks at once.
        rows = len(self._lut_blocks) * n
        width = self.taps * OPERAND_LEVELS
        indices = np.empty((len(self._lut_blocks), n, self.taps), dtype=np.int64)
        for row, p in enumerate(self._lut_blocks):
            offset = self._block_slots[p] * width
            np.add(blocks[p], self._tap_offsets[None, :] + offset, out=indices[row])
        flat = indices.reshape(rows * self.taps)
        if self._ones.shape[0] < flat.shape[0]:
            self._ones = np.ones(flat.shape[0], dtype=np.int8)
        indptr = np.arange(rows + 1, dtype=np.int64) * self.taps
        onehot = _sparse.csr_matrix(
            (self._ones[: flat.shape[0]], flat, indptr),
            shape=(rows, self._stacked_error.shape[0]),
        )
        errors = np.asarray(onehot @ self._stacked_error)
        for row, p in enumerate(self._lut_blocks):
            out[p * n : (p + 1) * n] -= errors[row * n : (row + 1) * n]


__all__ = [
    "DEFAULT_MAX_ERROR_MATRIX_BYTES",
    "KernelOptions",
    "ProductKernel",
    "AccurateKernel",
    "PerforatedKernel",
    "LUTKernel",
    "ChunkedKernel",
    "CallbackKernel",
    "MultiPlanKernel",
    "exact_int_matmul",
]
