"""JSON round trips on random inputs: scalars, Fock states on both
lattices, spin and tensor states and seeded vectors, each also through
the rendered text of ``dumps``."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fock_states, spin_states, tensor_states

from gdirac.linalg import Vec
from gdirac.sampling import SPACES, random_vector
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

EXAMPLES = settings(max_examples=50, deadline=None)
fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
scalars = st.builds(Scalar.of, fractions, fractions)

# the decoder of each sampling space's basis keys
_DECODE = {
    "fock": fock_state_from_json,
    "fock0": fock_state_from_json,
    "fock-include0": lambda d: fock_state_from_json(d, zero_ok=True),
    "spin": spin_state_from_json,
    "tensor": tensor_state_from_json,
}


def _through_text(d):
    return json.loads(dumps({"x": d}))["x"]


@EXAMPLES
@given(scalars)
def test_scalar_roundtrip(x):
    assert scalar_from_json(_through_text(scalar_to_json(x))) == x


@EXAMPLES
@given(fock_states())
def test_fock_state_roundtrip_on_both_lattices(drawn):
    s, _ = drawn
    # the Fock JSON form does not record the lattice; the reader names it
    assert fock_state_from_json(_through_text(fock_state_to_json(s)), s.zero_ok) == s


@EXAMPLES
@given(spin_states())
def test_spin_state_roundtrip(drawn):
    s, _ = drawn
    assert spin_state_from_json(_through_text(spin_state_to_json(s))) == s


@EXAMPLES
@given(tensor_states())
def test_tensor_state_roundtrip(ts):
    assert tensor_state_from_json(_through_text(tensor_state_to_json(ts))) == ts


@EXAMPLES
@given(st.sampled_from(SPACES), st.integers(0, 2**64 - 1), st.integers(1, 5), st.integers(0, 8), scalars)
def test_vec_roundtrip(space, seed, bound, terms, x):
    v = random_vector(space, seed, bound, terms).scaled(x)
    out = vec_to_json(v)
    # the encoding does not depend on the order the terms were summed in
    assert out == vec_to_json(Vec(dict(reversed(v.terms.items()))))
    decoded = {_DECODE[space](e["state"]): scalar_from_json(e["coeff"]) for e in _through_text(out)}
    assert len(decoded) == len(out)
    assert Vec(decoded) == v

