"""Wire codec: :class:`~repro.simulation.inference.ExecutionPlan` <-> JSON.

The jobs layer (and the HTTP transport above it) ships plans between
clients and the daemon as plain JSON.  The codec is **fingerprint
preserving**: a plan that round-trips through it produces the exact same
:meth:`~repro.simulation.inference.ProductModel.fingerprint` sequence as
the original, so content-addressed cache keys (and therefore ledger
records and the service-level result cache) are identical whether a cell
arrived in-process or over the wire.

Wire format of one product model::

    {"kind": "accurate"}
    {"kind": "perforated", "m": 2, "use_control_variate": true}
    {"kind": "lut", "name": "mul8u_XYZ", "table": "<base64 int64 LE bytes>"}

and of one plan::

    {"default": {...}, "per_layer": {"<layer name>": {...}, ...}}

LUT tables travel by value (the 256x256 int64 grid, base64-encoded) so a
remote client can submit a multiplier the server has never seen; decoding
wraps the table in a :class:`~repro.multipliers.lut.TableMultiplier`, whose
:meth:`~repro.multipliers.base.Multiplier.build_lut` reproduces the table
bit-exactly — keeping the LUT fingerprint (a digest of the table bytes)
stable across the round trip.
"""

from __future__ import annotations

import base64

import numpy as np

from repro.multipliers.base import OPERAND_LEVELS
from repro.multipliers.lut import TableMultiplier
from repro.simulation.inference import (
    AccurateProduct,
    ExecutionPlan,
    LUTProduct,
    PerforatedProduct,
    ProductModel,
)


class PlanCodecError(ValueError):
    """A payload that does not decode to a valid plan (HTTP 400 material)."""


def encode_product(model: ProductModel) -> dict:
    """JSON-able payload of one product model (see module docstring)."""
    if isinstance(model, PerforatedProduct):
        return {
            "kind": "perforated",
            "m": model.m,
            "use_control_variate": model.use_control_variate,
        }
    if isinstance(model, LUTProduct):
        table = np.ascontiguousarray(model.lut, dtype=np.int64)
        return {
            "kind": "lut",
            "name": model.multiplier.name,
            "table": base64.b64encode(table.tobytes()).decode("ascii"),
        }
    if isinstance(model, AccurateProduct):
        return {"kind": "accurate"}
    raise PlanCodecError(
        f"cannot encode product model of type {type(model).__name__}"
    )


def decode_product(payload: dict) -> ProductModel:
    """Inverse of :func:`encode_product` (fingerprint preserving)."""
    if not isinstance(payload, dict):
        raise PlanCodecError(f"product payload must be an object, got {payload!r}")
    kind = payload.get("kind")
    if kind == "accurate":
        return AccurateProduct()
    if kind == "perforated":
        # JSON types only: a bool is an int in Python, and int() or bool()
        # would coerce 2.7, "3" or "false" instead of rejecting them.
        m = payload.get("m")
        use_cv = payload.get("use_control_variate", True)
        if type(m) is not int or not isinstance(use_cv, bool):
            raise PlanCodecError(
                "perforated payload needs an integer 'm' and a boolean "
                f"'use_control_variate': {payload!r}"
            )
        try:
            return PerforatedProduct(m, use_control_variate=use_cv)
        except ValueError as exc:
            raise PlanCodecError(str(exc)) from None
    if kind == "lut":
        try:
            raw = base64.b64decode(payload["table"], validate=True)
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanCodecError(f"bad LUT table payload: {exc}") from None
        expected = OPERAND_LEVELS * OPERAND_LEVELS * np.dtype(np.int64).itemsize
        if len(raw) != expected:
            raise PlanCodecError(
                f"LUT table must be {expected} bytes of int64, got {len(raw)}"
            )
        table = np.frombuffer(raw, dtype=np.int64).reshape(
            OPERAND_LEVELS, OPERAND_LEVELS
        )
        return LUTProduct(TableMultiplier(table, name=payload.get("name", "table")))
    raise PlanCodecError(f"unknown product kind {kind!r}")


def encode_plan(plan: ExecutionPlan) -> dict:
    """JSON-able payload of one execution plan."""
    return {
        "default": encode_product(plan.default),
        "per_layer": {
            name: encode_product(model) for name, model in plan.per_layer.items()
        },
    }


def decode_plan(payload: dict) -> ExecutionPlan:
    """Inverse of :func:`encode_plan` (fingerprint preserving)."""
    if not isinstance(payload, dict) or "default" not in payload:
        raise PlanCodecError(f"plan payload must be an object with 'default': {payload!r}")
    per_layer = payload.get("per_layer", {})
    if not isinstance(per_layer, dict):
        raise PlanCodecError(f"per_layer must be an object, got {per_layer!r}")
    return ExecutionPlan(
        default=decode_product(payload["default"]),
        per_layer={
            str(name): decode_product(model) for name, model in per_layer.items()
        },
    )


def encode_plans(plans: "list[ExecutionPlan]") -> list[dict]:
    return [encode_plan(plan) for plan in plans]


def decode_plans(payloads: "list[dict]") -> list[ExecutionPlan]:
    if not isinstance(payloads, list):
        raise PlanCodecError(f"plans must be a list, got {payloads!r}")
    return [decode_plan(payload) for payload in payloads]


__all__ = [
    "PlanCodecError",
    "encode_product",
    "decode_product",
    "encode_plan",
    "decode_plan",
    "encode_plans",
    "decode_plans",
]
