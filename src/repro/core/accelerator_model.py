"""Configuration object describing one approximate DNN accelerator instance."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.approx_conv import ApproximationMode


@dataclass(frozen=True)
class AcceleratorConfig:
    """A TPU-like systolic accelerator with optional control-variate MACs.

    Attributes
    ----------
    array_size:
        ``N`` of the ``N x N`` MAC array (the paper evaluates 16..64).
    perforation:
        Perforation parameter ``m`` of the MAC* multipliers; ``0`` means the
        accurate array.
    mode:
        Product model executed by the array; derived from ``perforation``
        and ``use_control_variate`` by :meth:`make`.
    use_control_variate:
        Whether the extra MAC+ column applying ``V`` is instantiated.
    activation_bits / weight_bits:
        Operand widths (both 8 in the paper).
    clock_ns:
        Clock period.  The approximate arrays are synthesized at the accurate
        array's critical path, so by construction all configurations of the
        same ``array_size`` share this value (Section V-A).
    """

    array_size: int = 64
    perforation: int = 0
    use_control_variate: bool = True
    activation_bits: int = 8
    weight_bits: int = 8
    clock_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.array_size < 1:
            raise ValueError(f"array_size must be positive, got {self.array_size}")
        if not 0 <= self.perforation < self.activation_bits:
            raise ValueError(
                f"perforation must be within [0, {self.activation_bits - 1}], "
                f"got {self.perforation}"
            )
        if self.activation_bits != 8 or self.weight_bits != 8:
            raise ValueError("only 8-bit operands are supported by this reproduction")
        if self.clock_ns <= 0:
            raise ValueError(f"clock_ns must be positive, got {self.clock_ns}")

    @classmethod
    def accurate(cls, array_size: int = 64, clock_ns: float = 1.0) -> "AcceleratorConfig":
        """The accurate baseline array."""
        return cls(
            array_size=array_size,
            perforation=0,
            use_control_variate=False,
            clock_ns=clock_ns,
        )

    @classmethod
    def make(
        cls,
        array_size: int,
        perforation: int,
        use_control_variate: bool = True,
        clock_ns: float = 1.0,
    ) -> "AcceleratorConfig":
        """Convenience constructor mirroring the paper's (N, m) sweep."""
        return cls(
            array_size=array_size,
            perforation=perforation,
            use_control_variate=use_control_variate,
            clock_ns=clock_ns,
        )

    @property
    def mode(self) -> ApproximationMode:
        """The product model implied by this configuration."""
        if self.perforation == 0:
            return ApproximationMode.ACCURATE
        if self.use_control_variate:
            return ApproximationMode.PERFORATED_CV
        return ApproximationMode.PERFORATED

    @property
    def is_approximate(self) -> bool:
        return self.perforation > 0

    @property
    def columns(self) -> int:
        """Physical MAC columns: ``N`` plus one MAC+ column when V is applied."""
        return self.array_size + (1 if self.is_approximate and self.use_control_variate else 0)

    def describe(self) -> str:
        """Short human-readable description used in reports."""
        if not self.is_approximate:
            return f"accurate {self.array_size}x{self.array_size}"
        suffix = "with control variate" if self.use_control_variate else "w/o V"
        return (
            f"perforated m={self.perforation} {self.array_size}x{self.array_size} {suffix}"
        )
