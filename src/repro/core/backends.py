"""Pluggable engine backends for the compiled product-kernel engine.

PR 1 introduced the ``ProductModel.compile -> ProductKernel`` seam: every
product model (accurate, perforated ± control variate, LUT, ...) compiles
against one layer's quantized weights into a kernel that is evaluated per
batch.  This module makes the *compiler* pluggable: an
:class:`EngineBackend` owns the strategy used to build those kernels, and a
process-wide registry lets callers select one by name —

``numpy``
    The default BLAS-backed kernels of
    :mod:`repro.core.product_kernels` (float32/float64 sgemm/dgemm with the
    exactness bounds documented there).
``lowmem``
    A low-memory streaming variant of the numpy backend: the LUT
    error-matrix footprint is capped (forcing the per-tap evaluation for
    large layers) and every kernel is evaluated in bounded patch chunks, so
    peak transient memory is independent of the batch size.

Every backend compiles both a per-plan kernel (:meth:`EngineBackend.compile`)
and a multi-plan kernel (:meth:`EngineBackend.compile_multi`) that stacks
several plans' blocks of one layer into one launch; the executor's
multi-plan walk uses both.

All backends are **bit-exact** against the legacy reference functions in
:mod:`repro.core.approx_conv`; the ``pytest -m engine`` parity suite is
parametrized over every registered backend and enforces this.

Selection is threaded through the stack: ``AcceleratorConfig.engine_backend``
names the backend implied by a hardware configuration (honored by
``ApproximateExecutor.from_config``),
``ApproximateExecutor(engine_backend=...)`` compiles every layer through it,
``parallel_sweep(..., engine_backend=...)`` forwards it to sweep workers, and
the CLI exposes ``--engine-backend`` (plus ``python -m repro backends`` to
list availability).
"""

from __future__ import annotations

import abc
import warnings

import numpy as np

from repro.core.product_kernels import (
    ChunkedKernel,
    KernelOptions,
    MultiPlanKernel,
    ProductKernel,
)

DEFAULT_BACKEND = "numpy"


class BackendUnavailableError(RuntimeError):
    """Raised when an unavailable backend is resolved without fallback."""


class EngineBackend(abc.ABC):
    """Strategy that compiles product models into per-layer kernels.

    Subclasses define a unique :attr:`name`, an availability probe and the
    :meth:`compile` / :meth:`compile_multi` hooks.  A backend must be
    *bit-exact* against the legacy reference paths of
    :mod:`repro.core.approx_conv` — backends trade only speed and memory,
    never results.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def availability(self) -> tuple[bool, str]:
        """``(available, reason)`` — ``reason`` explains unavailability."""

    def is_available(self) -> bool:
        return self.availability()[0]

    @abc.abstractmethod
    def compile(
        self, product_model, weight_codes: np.ndarray, control_variate
    ) -> ProductKernel:
        """Compile ``product_model`` against one layer's quantized weights."""

    @abc.abstractmethod
    def compile_multi(
        self,
        product_models,
        weight_codes: np.ndarray,
        control_variate,
        kernels=None,
    ):
        """Fuse P per-plan product models into one batched multi-plan kernel.

        Returns an object with the :class:`~repro.core.product_kernels.
        MultiPlanKernel` interface (``plans``, ``product_sums_multi(act,
        shared=...)``).  ``kernels``, when given, carries the already
        compiled per-plan kernels for the same ``(models, weights, cv)``
        triple so precompiled state (LUT error matrices) is reused instead
        of rebuilt.
        """

    def describe(self) -> str:
        """One-line human-readable description used by the CLI listing."""
        doc = (type(self).__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name


class NumpyBackend(EngineBackend):
    """Default numpy/BLAS kernels (exact float32/float64 matmuls)."""

    name = "numpy"

    def __init__(self, options: KernelOptions | None = None):
        self.options = options if options is not None else KernelOptions()

    def availability(self) -> tuple[bool, str]:
        return True, ""

    def compile(
        self, product_model, weight_codes: np.ndarray, control_variate
    ) -> ProductKernel:
        return product_model.compile(
            weight_codes, control_variate, options=self.options
        )

    def compile_multi(
        self,
        product_models,
        weight_codes: np.ndarray,
        control_variate,
        kernels=None,
    ) -> MultiPlanKernel:
        if kernels is None:
            kernels = [
                self.compile(model, weight_codes, control_variate)
                for model in product_models
            ]
        return MultiPlanKernel(
            kernels, max_error_matrix_bytes=self.options.max_error_matrix_bytes
        )


class LowMemoryBackend(NumpyBackend):
    """Streaming numpy kernels with a capped LUT error-matrix footprint.

    Two knobs bound peak memory:

    * ``max_error_matrix_bytes`` caps the precompiled ``(taps * 256,
      filters)`` LUT error matrix — layers over the cap use the per-tap
      streaming evaluation instead of materializing it;
    * ``chunk_patches`` wraps every compiled kernel so each batch is
      evaluated in bounded patch chunks, keeping transients (one-hot
      products, correction terms) independent of the batch size.

    Outputs are bit-exact with every other backend: chunking splits work
    along the patch axis only, and rows are computed independently.  The
    inherited :meth:`compile_multi` fuses the chunked kernels; the stacked
    launch evaluates each of their blocks through the chunked kernel
    itself, so the bound holds on the multi-plan path too.
    """

    name = "lowmem"

    def __init__(
        self,
        max_error_matrix_bytes: int = 1 << 20,
        chunk_patches: int = 1024,
    ):
        if max_error_matrix_bytes < 0:
            raise ValueError("max_error_matrix_bytes must be non-negative")
        if chunk_patches < 1:
            raise ValueError("chunk_patches must be positive")
        super().__init__(KernelOptions(max_error_matrix_bytes=max_error_matrix_bytes))
        self.chunk_patches = int(chunk_patches)

    def compile(
        self, product_model, weight_codes: np.ndarray, control_variate
    ) -> ProductKernel:
        kernel = super().compile(product_model, weight_codes, control_variate)
        return ChunkedKernel(kernel, self.chunk_patches)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, EngineBackend] = {}


def register_backend(backend: EngineBackend, replace: bool = False) -> EngineBackend:
    """Add ``backend`` to the process-wide registry (keyed by its name)."""
    if not backend.name or backend.name == "abstract":
        raise ValueError("backend must define a concrete name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"engine backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> list[str]:
    """Names of all registered backends (available or not), in registration order."""
    return list(_REGISTRY)


def available_backend_names() -> list[str]:
    """Names of the backends whose availability probe passes."""
    return [name for name, backend in _REGISTRY.items() if backend.is_available()]


def has_backend(name: str) -> bool:
    return name in _REGISTRY


def get_backend(name: str) -> EngineBackend:
    """Look up a registered backend by name (availability not checked)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown engine backend {name!r}; registered backends: {known}"
        ) from None


def resolve_backend(
    backend: str | EngineBackend | None,
    allow_fallback: bool = True,
) -> EngineBackend:
    """Resolve a backend name (or instance) to a usable backend.

    ``None`` resolves to the default (``numpy``) backend.  When the
    requested backend exists but is unavailable (its availability probe
    fails), the default backend is returned with a warning if
    ``allow_fallback`` is true — this is the "fall back cleanly" contract —
    otherwise :class:`BackendUnavailableError` is raised.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, EngineBackend):
        resolved = backend
    else:
        resolved = get_backend(str(backend))
    available, reason = resolved.availability()
    if available:
        return resolved
    if not allow_fallback:
        raise BackendUnavailableError(
            f"engine backend {resolved.name!r} is unavailable: {reason}"
        )
    warnings.warn(
        f"engine backend {resolved.name!r} is unavailable ({reason}); "
        f"falling back to {DEFAULT_BACKEND!r}",
        RuntimeWarning,
        stacklevel=2,
    )
    return get_backend(DEFAULT_BACKEND)


register_backend(NumpyBackend())
register_backend(LowMemoryBackend())


__all__ = [
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "EngineBackend",
    "NumpyBackend",
    "LowMemoryBackend",
    "register_backend",
    "backend_names",
    "available_backend_names",
    "has_backend",
    "get_backend",
    "resolve_backend",
]
