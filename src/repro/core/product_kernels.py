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

All integer matrix products run in float BLAS and are exact: every partial
product and every partial sum is an integer below the float format's exact
range (``taps * 255 * 255 << 2^53`` for float64; float32 only where
``255 * max_f sum_j |w_jf| < 2^24``), so the results are bit-identical to the
int64 reference paths (enforced by the ``pytest -m engine`` parity suite).

A fused launch (:class:`MultiPlanKernel`) folds the layer's zero points into
its weights (:class:`ZeroPointFold`): it multiplies the centered weights
``W' = W - z_w`` and returns the exact integer that dequantization scales,
``lhs @ W' + (c - z_w) * sum_j x_j - z_a * sum_j W'_j`` (``c`` the
control-variate constant, 0 without it), so no launch sums the activation
codes.  The centered weights are signed; the float32 bound above covers
them, since it bounds ``|w|``.
"""

from __future__ import annotations

import abc
import functools

import numpy as np

from repro.core.control_variate import ControlVariate
from repro.multipliers.base import OPERAND_LEVELS

#: ``scipy.sparse`` once :func:`_scipy_sparse` has imported it, ``None`` when
#: scipy is missing (a test sets it to ``None`` to force the gather path).
#: Imported on the first LUT use, not with this module: most runs compile
#: no LUT kernel, and importing ``scipy.sparse`` also loads ``numpy.f2py``.
_sparse = _NOT_IMPORTED = object()


def _scipy_sparse():
    """``scipy.sparse``, imported on first use, or ``None`` without scipy."""
    global _sparse
    if _sparse is _NOT_IMPORTED:
        try:
            from scipy import sparse
        except ImportError:  # pragma: no cover - scipy is available in CI
            sparse = None
        _sparse = sparse
    return _sparse


#: Largest precompiled LUT error matrix, in bytes, before :class:`LUTKernel`
#: falls back to the low-memory per-tap evaluation.
DEFAULT_MAX_ERROR_MATRIX_BYTES = 1 << 28


def _check_weights(weight_codes: np.ndarray) -> np.ndarray:
    w = np.asarray(weight_codes)
    if w.ndim != 2:
        raise ValueError(f"weight_codes must be 2-D (taps, filters), got {w.shape}")
    return w


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
    """An integer weight matrix prepared for exact floating-point BLAS products.

    Holds a float32 copy of the ``(taps, filters)`` weights when every
    product sum of 8-bit activations against them stays an integer below
    2^24 (``255 * max_f sum_j |w[j, f]| < 2^24``, which bounds every
    partial sum whatever the weights' signs) and a float64 copy otherwise.
    float32 sgemm is about twice as fast as dgemm and still bit-exact in
    that regime.
    """

    def __init__(self, w: np.ndarray):
        w64 = np.asarray(w).astype(np.int64)
        reach = 255 * int(np.abs(w64).sum(axis=0).max()) if w64.size else 0
        if reach < _F32_EXACT_BOUND:
            self._f32, self._f64 = w64.astype(np.float32), None
        else:
            self._f32, self._f64 = None, w64.astype(np.float64)

    def product(self, lhs: np.ndarray) -> np.ndarray:
        """Exact ``lhs @ w`` in float for integer-valued ``lhs``.

        float32 for uint8 operands on the float32 copy (the dtype
        guarantees the <= 255 bound the exactness argument needs); any
        other input runs in float64, which is exact for every partial sum
        below 2^53.
        """
        if self._f32 is None:
            return lhs.astype(np.float64) @ self._f64
        if lhs.dtype == np.uint8:
            return lhs.astype(np.float32) @ self._f32
        return lhs.astype(np.float64) @ self._f32.astype(np.float64)

    def matmul(self, lhs: np.ndarray) -> np.ndarray:
        """Exact ``lhs @ w`` as int64 for integer-valued ``lhs``."""
        return self.product(lhs).astype(np.int64)


class ProductKernel(abc.ABC):
    """A product model compiled against one layer's quantized weights.

    Calling the kernel with ``(patches, taps)`` activation codes returns the
    ``(patches, filters)`` raw product sums, exactly as the corresponding
    legacy function in :mod:`repro.core.approx_conv` would.
    ``weight_codes`` are the ``(taps, filters)`` codes it was compiled
    against.
    """

    def __init__(self, weight_codes: np.ndarray):
        self.weight_codes = _check_weights(weight_codes)
        self.taps, self.filters = (int(n) for n in self.weight_codes.shape)

    @functools.cached_property
    def _w_op(self) -> _WeightOperand:
        """The kernel's own weight operand, built by its first product.

        A fused launch multiplies the layer's centered operand
        (:class:`ZeroPointFold`) instead, so the kernels it fuses never
        build theirs.
        """
        return _WeightOperand(self.weight_codes)

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
        super().__init__(weight_codes)
        if control_variate is not None and control_variate.n_filters != self.filters:
            raise ValueError(
                f"control variate has {control_variate.n_filters} filters, "
                f"weights have {self.filters}"
            )
        self.m = int(m)
        self._mask = (1 << self.m) - 1
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
        super().__init__(weight_codes)
        w = self.weight_codes.astype(np.int64)
        if w.size and (w.min() < 0 or w.max() >= OPERAND_LEVELS):
            raise ValueError(f"weight codes out of range [0, {OPERAND_LEVELS - 1}]")
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
        sparse = _scipy_sparse()
        if sparse is not None:
            # int8 ones: 8x smaller than int64 for a patches*taps-long array
            # that is pure structure; scipy promotes the product back to the
            # error matrix's int64.  Bound once: a concurrent caller may
            # swap in a shorter scratch array between a check and a slice.
            ones = self._ones
            if ones.shape[0] < indices.shape[0]:
                ones = self._ones = np.ones(indices.shape[0], dtype=np.int8)
            indptr = np.arange(patches + 1, dtype=np.int64) * self.taps
            onehot = sparse.csr_matrix(
                (ones[: indices.shape[0]], indices, indptr),
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


class CallbackKernel(ProductKernel):
    """Fallback kernel wrapping an uncompiled ``ProductModel.product_sums``.

    Used by product models that do not provide a specialized compiled form;
    the weight codes and control variate are still bound once at compile
    time, so callers need no per-batch layer state.
    """

    def __init__(self, product_model, weight_codes: np.ndarray, control_variate):
        super().__init__(weight_codes)
        self._product_model = product_model
        self._control_variate = control_variate

    def product_sums(self, act_codes: np.ndarray) -> np.ndarray:
        return self._product_model.product_sums(
            act_codes, self.weight_codes, self._control_variate
        )


class ZeroPointFold:
    """The zero points of one layer group, folded into its weights.

    With affine codes ``r = s (q - z)``, the dot product of ``k`` taps
    dequantizes from the exact integer

        T = sum_j W_j a_j - z_w sum_j a_j - z_a sum_j W_j + k z_w z_a
          = sum_j (W_j - z_w) a_j - z_a sum_j (W_j - z_w)

    where ``W`` are the layer's codes.  A launch against the centered
    weights ``W' = W - z_w`` (:attr:`operand`, built once per layer group
    and shared by all its fused kernels) therefore needs no ``sum_j a_j``.
    A perforated block multiplies ``a'_j = a_j - x_j``, and since
    ``sum_j a_j = sum_j a'_j + sum_j x_j`` its ``T`` is
    ``a' @ W' + (c - z_w) sum_j x_j - z_a sum_j W'_j``, with ``c`` the
    control constant ``C`` (0 without the control variate).  Every block
    reads the layer's own codes: ALWANN's weight tuning is a row remap of
    its LUT (:mod:`repro.baselines.alwann`), not other codes.

    Every term is an integer far below 2^53, so ``T`` is exact in float64,
    and scaling it (``QuantizedLinearOp.output_real_stacked``) gives
    bit for bit what the textbook chain of ``QuantizedLinearOp.output_real``
    gives.  Zero points of 0 (the default) make ``T`` the raw product sums.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        weight_zero_point: int = 0,
        act_zero_point: int = 0,
    ):
        w = _check_weights(weight_codes).astype(np.int64)
        self.taps, self.filters = (int(n) for n in w.shape)
        self.weight_zero_point = int(weight_zero_point)
        self.act_zero_point = int(act_zero_point)
        self.operand = _WeightOperand(w - self.weight_zero_point)
        self.weight_sums = w.sum(axis=0)
        centered_sums = self.weight_sums - self.taps * self.weight_zero_point
        # -z_a * sum_j (W_j - z_w), written 0 - x so that a zero is +0.0.
        self.offsets = 0.0 - float(self.act_zero_point) * centered_sums.astype(np.float64)

    def subtract_zero_points(
        self, product_sums: np.ndarray, act: np.ndarray, out: np.ndarray
    ) -> None:
        """``out = product_sums - z_w sum_j a_j - z_a sum_j W_j + k z_w z_a``.

        The textbook chain, in the operation order of
        ``QuantizedLinearOp.output_real``, for raw sums that need not be
        integers (callback kernels, real control constants).
        """
        act_sums = act.sum(axis=1, keepdims=True, dtype=np.int64).astype(np.float64)
        z_w = float(self.weight_zero_point)
        z_a = float(self.act_zero_point)
        np.subtract(np.asarray(product_sums, dtype=np.float64), z_w * act_sums, out=out)
        np.subtract(out, z_a * self.weight_sums.astype(np.float64), out=out)
        np.add(out, float(self.taps) * z_w * z_a, out=out)


def _perforate(
    block: np.ndarray, mask: int, out: np.ndarray, sums: bool
) -> np.ndarray | None:
    """Write ``block`` with its ``mask`` bits cleared into ``out``; return
    the per-row sums of the cleared bits ``x`` when ``sums`` is set.

    The sums stay in uint16 wherever ``taps * mask < 2^16`` bounds them.
    """
    bits = block.dtype.type(mask)
    np.bitwise_and(block, np.invert(bits), out=out)
    if not sums:
        return None
    exact_in_uint16 = block.shape[1] * mask < (1 << 16)
    return np.bitwise_and(block, bits).sum(
        axis=1, dtype=np.uint16 if exact_in_uint16 else np.int64
    )


class MultiPlanKernel:
    """P per-plan kernels of one layer, fused into one batched launch.

    The sweep's outer plan loop evaluates the same layer under P product
    models, one :class:`ProductKernel` launch each.  This kernel collapses
    those P launches into one: the per-plan ``exact - err`` decompositions
    are *stacked along the patch axis*, so the dense parts become a single
    ``(P*N, taps)``-shaped BLAS product against the layer's centered
    weights and the LUT error parts become one block-stacked one-hot
    sparse product (block p's one-hot columns are offset into its own copy
    of the error matrix).  Two input conventions are supported:

    * ``shared=False`` — ``act_codes`` is the ``(P*N, taps)`` stack of P
      per-plan activation blocks (plans already diverged upstream);
    * ``shared=True`` — ``act_codes`` is one ``(N, taps)`` block shared by
      every plan (the divergence layer itself).  The shared accurate term
      is computed **once** and broadcast, and perforated blocks are deduped
      by mask so e.g. the ±V variants of one ``m`` share a single masked
      matmul.

    Output is always ``(P*N, filters)`` float64: block p holds the folded
    integer ``T`` of ``fold`` (see :class:`ZeroPointFold`) for
    ``kernels[p](act_block_p)``, which
    :meth:`QuantizedLinearOp.output_real_stacked` only scales.  Without a
    ``fold`` the zero points are 0 and block p equals (as a value)
    ``kernels[p](act_block_p)``.  ``P = 1`` is the executor's
    single-model launch.  Kernel types the fusion does not understand
    (callback kernels, LUTs streaming their error terms tap by tap,
    control variates with real constants) are evaluated per block through
    their own kernel and folded by the textbook chain, so fusion never
    changes results, only launch count.

    All kernels must be compiled against the same weight codes, which
    ``fold`` (built from ``kernels[0]`` when not given) must share.
    """

    def __init__(
        self,
        kernels,
        max_error_matrix_bytes: int = DEFAULT_MAX_ERROR_MATRIX_BYTES,
        fold: ZeroPointFold | None = None,
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
        if fold is None:
            fold = ZeroPointFold(kernels[0].weight_codes)
        if (fold.taps, fold.filters) != (self.taps, self.filters):
            raise ValueError(
                f"fold of shape ({fold.taps}, {fold.filters}) does not match "
                f"the kernels' ({self.taps}, {self.filters})"
            )
        self.kernels = kernels
        self.fold = fold
        self._kinds: list[str] = []
        # Per block: the perforation mask (0 for unmasked blocks) and, for
        # a perforated block whose T has a sum_j x_j term, the (2, filters)
        # rows [c - z_w; offsets] that one k = 2 product turns into that
        # term plus the offsets.
        self._masks: list[int] = []
        self._x_rows: list[np.ndarray | None] = []
        for kernel in kernels:
            if isinstance(kernel, AccurateKernel):
                kind = "exact"
            elif isinstance(kernel, LUTKernel) and kernel.is_exact:
                kind = "exact"
            elif isinstance(kernel, LUTKernel) and kernel._error_matrix is not None:
                kind = "lut"
            elif isinstance(kernel, PerforatedKernel) and (
                kernel.control_variate is None or kernel.control_variate.quantized
            ):
                kind = "perf"
            else:
                kind = "fallback"
            self._kinds.append(kind)
            mask = kernel._mask if kind == "perf" else 0
            self._masks.append(mask)
            x_rows = None
            if mask and (kernel.control_variate is not None or fold.weight_zero_point):
                c = (
                    kernel.control_variate.constants
                    if kernel.control_variate is not None
                    else np.zeros(self.filters)
                )
                x_rows = np.stack([c - fold.weight_zero_point, fold.offsets])
            self._x_rows.append(x_rows)
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
            if total_bytes <= max_error_matrix_bytes and _scipy_sparse() is not None:
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
        """Stacked ``(plans * N, filters)`` float64 folded sums.

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
            # The stack keeps uint8 inputs uint8, so the float32 path
            # applies exactly as it does per plan.
            x_sums: dict[int, np.ndarray | None] = {}
            if len(dense_blocks) == self.plans and not any(self._masks):
                lhs = act
            else:
                lhs = np.empty((len(dense_blocks) * n, self.taps), dtype=act.dtype)
                for row, p in enumerate(dense_blocks):
                    dst = lhs[row * n : (row + 1) * n]
                    if self._masks[p]:
                        x_sums[p] = _perforate(
                            blocks[p], self._masks[p], dst, self._x_rows[p] is not None
                        )
                    else:
                        dst[...] = blocks[p]
            dense = self.fold.operand.product(lhs)
            for row, p in enumerate(dense_blocks):
                self._finish_block(
                    out[p * n : (p + 1) * n], p, dense[row * n : (row + 1) * n], x_sums.get(p)
                )
        if self._lut_blocks:
            self._subtract_errors(out, n, blocks)
        for p, kind in enumerate(self._kinds):
            if kind == "fallback":
                self._fold_block(out[p * n : (p + 1) * n], p, blocks[p])
        return out

    def _sums_shared(self, act: np.ndarray) -> np.ndarray:
        n = act.shape[0]
        out = np.empty((self.plans * n, self.filters), dtype=np.float64)
        masks = sorted({mask for mask in self._masks if mask})
        x_sums: dict[int, np.ndarray | None] = {}
        if masks:
            # One (D*N, taps) product over the distinct masked variants.
            lhs = np.empty((len(masks) * n, self.taps), dtype=act.dtype)
            for row, mask in enumerate(masks):
                needs_sums = any(
                    rows is not None
                    for m, rows in zip(self._masks, self._x_rows)
                    if m == mask
                )
                x_sums[mask] = _perforate(
                    act, mask, lhs[row * n : (row + 1) * n], needs_sums
                )
            masked = self.fold.operand.product(lhs)
        # The unmasked T feeds every accurate/LUT block and every m = 0
        # perforated block — computed into the first, copied into the rest.
        exact: np.ndarray | None = None
        for p, kind in enumerate(self._kinds):
            dst = out[p * n : (p + 1) * n]
            mask = self._masks[p]
            if kind == "fallback":
                self._fold_block(dst, p, act)
            elif mask:
                row = masks.index(mask)
                self._finish_block(dst, p, masked[row * n : (row + 1) * n], x_sums[mask])
            elif exact is None:
                self._finish_block(dst, p, self.fold.operand.product(act), None)
                exact = dst
            else:
                dst[...] = exact
        if self._lut_blocks:
            self._subtract_errors(out, n, [act] * self.plans)
        return out

    def _finish_block(
        self,
        dst: np.ndarray,
        p: int,
        dense: np.ndarray,
        x_sums: np.ndarray | None,
    ) -> None:
        """Write block ``p``'s ``T`` from its dense product into ``dst``.

        ``dense`` is the block's product against the centered weights and
        ``x_sums`` the per-row sums of its perforated bits, already taken
        while its masked operand was built.  LUT error terms are
        subtracted afterwards by ``_subtract_errors``.
        """
        x_rows = self._x_rows[p]
        if x_rows is None:
            np.add(dense, self.fold.offsets, out=dst)
            return
        # [sum_j x_j, 1] @ [c - z_w; offsets]: one k = 2 product, exact
        # because both of its terms are integers far below 2^53.
        terms = np.empty((dst.shape[0], 2), dtype=np.float64)
        terms[:, 0] = x_sums
        terms[:, 1] = 1.0
        np.matmul(terms, x_rows, out=dst)
        np.add(dst, dense, out=dst)

    def _fold_block(self, dst: np.ndarray, p: int, block: np.ndarray) -> None:
        """Block ``p`` through its own kernel, folded by the textbook chain."""
        self.fold.subtract_zero_points(self.kernels[p](block), block, dst)

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
        ones = self._ones  # bound once, as in LUTKernel._error_sums_compiled
        if ones.shape[0] < flat.shape[0]:
            ones = self._ones = np.ones(flat.shape[0], dtype=np.int8)
        indptr = np.arange(rows + 1, dtype=np.int64) * self.taps
        onehot = _scipy_sparse().csr_matrix(
            (ones[: flat.shape[0]], flat, indptr),
            shape=(rows, self._stacked_error.shape[0]),
        )
        errors = np.asarray(onehot @ self._stacked_error)
        for row, p in enumerate(self._lut_blocks):
            out[p * n : (p + 1) * n] -= errors[row * n : (row + 1) * n]


__all__ = [
    "DEFAULT_MAX_ERROR_MATRIX_BYTES",
    "ProductKernel",
    "AccurateKernel",
    "PerforatedKernel",
    "LUTKernel",
    "CallbackKernel",
    "MultiPlanKernel",
    "ZeroPointFold",
    "exact_int_matmul",
]
