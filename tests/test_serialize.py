"""Encoding round trips and deterministic rendering."""

import csv
import io
from fractions import Fraction

import pytest

from gdirac.dirac import TensorState
from gdirac.fock import FockState
from gdirac.linalg import Vec
from gdirac.scalar import Scalar
from gdirac.serialize import (
    dumps,
    fock_state_from_json,
    fock_state_to_json,
    scalar_from_json,
    scalar_to_json,
    spin_state_from_json,
    spin_state_to_json,
    tensor_state_from_json,
    tensor_state_to_json,
    vec_to_json,
)
from gdirac.spinor import SpinState


def test_scalar_roundtrip():
    x = Scalar.of(Fraction(3, 2), Fraction(-1, 4))
    d = scalar_to_json(x)
    assert d == {"a": "3/2", "b": "-1/4"}
    assert scalar_from_json(d) == x


def test_scalar_csv_forms():
    # a CSV cell of a scalar is its str form, written unquoted
    cells = [Scalar.of(Fraction(3, 2)), Scalar.of(1, 1), Scalar.of(0, Fraction(1, 2))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([str(x) for x in cells])
    assert buf.getvalue() == "3/2,1+1√2,0+1/2√2\n"


def test_state_roundtrips():
    f = FockState((1, 3), (-2,))
    assert fock_state_to_json(f) == {"plus": [1, 3], "minus": [-2]}
    assert fock_state_from_json(fock_state_to_json(f)) == f
    f0 = FockState((0, 1), (), True)
    assert fock_state_from_json(fock_state_to_json(f0), zero_ok=True) == f0
    s = SpinState(((1, -1), (2, -3)))
    assert spin_state_to_json(s) == {"modes": [[1, -1], [2, -3]]}
    assert spin_state_from_json(spin_state_to_json(s)) == s
    t = TensorState(f, s)
    assert tensor_state_from_json(tensor_state_to_json(t)) == t


def test_vec_encoding_sorted():
    f1, f2 = FockState((1,), ()), FockState((2,), ())
    v = Vec({f2: Scalar.of(2), f1: Scalar.of(1)})
    out = vec_to_json(v)
    assert out[0]["state"] == {"plus": [1], "minus": []}
    assert out[1]["coeff"] == {"a": "2/1", "b": "0/1"}


def test_dumps_deterministic():
    payload = {"b": 1, "a": [3, 2], "c": {"y": 0, "x": 1}}
    assert dumps(payload) == dumps({"c": {"x": 1, "y": 0}, "a": [3, 2], "b": 1})
    assert dumps(payload).endswith("\n")


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        fock_state_from_json({"plus": [2, 1], "minus": []})
    with pytest.raises(ValueError):
        spin_state_from_json({"modes": [[-1, 2]]})
    with pytest.raises(ValueError):
        scalar_from_json({"a": "x", "b": "0"})
    with pytest.raises(ZeroDivisionError):
        scalar_from_json({"a": "1/0", "b": "0"})
