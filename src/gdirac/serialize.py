"""JSON and CSV encodings shared by the library and the CLI.

Scalars are encoded as {"a": "p/q", "b": "r/s"} with decimal integer
strings, states by their occupation data, vectors as sorted
[{"state": ..., "coeff": ...}] lists.  All encoders are deterministic:
equal values produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dirac import TensorState
from .fock import FockState
from .linalg import Vec
from .scalar import Scalar
from .spinor import SpinState


def frac_to_str(x: int | Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def scalar_to_json(x: Scalar) -> dict:
    return {"a": frac_to_str(x.a), "b": frac_to_str(x.b)}


def scalar_from_json(d: dict) -> Scalar:
    return Scalar.of(frac_from_str(d["a"]), frac_from_str(d["b"]))


def fock_state_to_json(s: FockState) -> dict:
    return {"plus": list(s.plus), "minus": list(s.minus)}


def fock_state_from_json(d: dict, zero_ok: bool = False) -> FockState:
    return FockState(tuple(d["plus"]), tuple(d["minus"]), zero_ok)


def spin_state_to_json(s: SpinState) -> dict:
    return {"modes": [list(m) for m in s.modes]}


def spin_state_from_json(d: dict) -> SpinState:
    return SpinState(tuple((m, l) for m, l in d["modes"]))


def tensor_state_to_json(t: TensorState) -> dict:
    return {"fock": fock_state_to_json(t.fock), "spin": spin_state_to_json(t.spin)}


def tensor_state_from_json(d: dict) -> TensorState:
    return TensorState(fock_state_from_json(d["fock"]), spin_state_from_json(d["spin"]))


def _state_to_json(key) -> dict:
    if isinstance(key, FockState):
        return fock_state_to_json(key)
    if isinstance(key, SpinState):
        return spin_state_to_json(key)
    if isinstance(key, TensorState):
        return tensor_state_to_json(key)
    raise TypeError(f"unsupported basis key {key!r}")


def vec_to_json(v: Vec) -> list:
    return [
        {"state": _state_to_json(k), "coeff": scalar_to_json(c)} for k, c in v.items()
    ]


def dumps(payload: dict) -> str:
    """Deterministic JSON rendering with a trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def state_label(key) -> str:
    """Compact deterministic one-line label for CSV headers."""
    return json.dumps(_state_to_json(key), sort_keys=True, separators=(",", ":"))
