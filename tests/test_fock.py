"""Field operators, normal-ordered quadratics, cocycles."""

import pytest

from gdirac.fock import (
    PSI,
    PSI_STAR,
    FockState,
    LatticeError,
    LieElement,
    apply_field,
    bracket_central,
    charge_number_apply,
    field_state,
    fock_basis,
    ores_bracket,
    ores_cocycle,
    rhat_apply,
    rhat_lie_apply,
    schwinger,
    t_ores_apply,
)
from gdirac.linalg import Vec
from gdirac.rng import SplitMix64
from gdirac.scalar import ONE, ZERO, Scalar

VAC = Vec.basis(FockState.vacuum())


def state(plus=(), minus=(), zero_ok=False):
    return FockState(tuple(plus), tuple(minus), zero_ok)


def test_creator_on_vacuum():
    assert apply_field(PSI_STAR, 1, VAC) == Vec.basis(state([1]))


def test_vacuum_annihilation():
    assert apply_field(PSI, 1, VAC).is_zero()
    assert apply_field(PSI_STAR, -2, VAC).is_zero()


def test_single_crossing_sign():
    v = Vec.basis(state([1]))
    assert apply_field(PSI_STAR, 2, v) == Vec.basis(state([1, 2])).scaled(-1)


def test_minus_block_sign_counts_plus_block():
    # psi_{-1} crosses the whole creator block
    v = Vec.basis(state([1]))
    assert apply_field(PSI, -1, v) == Vec.basis(state([1], [-1])).scaled(-1)
    v2 = Vec.basis(state([1, 2]))
    assert apply_field(PSI, -1, v2) == Vec.basis(state([1, 2], [-1]))


def test_index_zero_rejected_on_default_lattice():
    with pytest.raises(LatticeError):
        apply_field(PSI, 0, VAC)
    with pytest.raises(LatticeError):
        state([0])
    # but fine on the include-zero lattice
    v = Vec.basis(FockState.vacuum(True))
    assert apply_field(PSI_STAR, 0, v) == Vec.basis(state([0], zero_ok=True))


def test_car_relations_exhaustive_bound2():
    basis = fock_basis(2)
    idx = [-2, -1, 1, 2]
    for i in idx:
        for j in idx:
            for s in basis:
                v = Vec.basis(s)
                lhs = apply_field(PSI, i, apply_field(PSI_STAR, j, v)) + apply_field(
                    PSI_STAR, j, apply_field(PSI, i, v)
                )
                assert lhs == (v if i == j else Vec()), (i, j, s)
                pp = apply_field(PSI, i, apply_field(PSI, j, v)) + apply_field(
                    PSI, j, apply_field(PSI, i, v)
                )
                assert pp.is_zero()


def test_rhat_examples():
    assert rhat_apply(-1, -1, VAC).is_zero()
    assert rhat_apply(1, -1, VAC) == Vec.basis(state([1], [-1]))
    v = Vec.basis(state([1]))
    assert rhat_apply(1, 1, v) == v
    assert rhat_apply(-1, -1, Vec.basis(state([], [-1]))) == Vec.basis(state([], [-1])).scaled(-1)


def test_rhat_matches_four_case_product_form():
    # The normal-ordered quadratic equals the case-split operator
    # product: psi*_p psi_q off the lower-right block and
    # -psi_q psi*_p when both indices are negative.
    idx = [-3, -2, -1, 1, 2, 3]
    for p in idx:
        for q in idx:
            for s in fock_basis(3):
                v = Vec.basis(s)
                if p < 0 and q < 0:
                    want = -apply_field(PSI, q, apply_field(PSI_STAR, p, v))
                else:
                    want = apply_field(PSI_STAR, p, apply_field(PSI, q, v))
                assert rhat_apply(p, q, v) == want, (p, q, s)


def test_rhat_preserves_charge():
    basis = fock_basis(3)
    idx = [-3, -2, -1, 1, 2, 3]
    for p in idx:
        for q in idx:
            for s in basis:
                out = rhat_apply(p, q, Vec.basis(s))
                for s2 in out.terms:
                    assert s2.charge == s.charge


def test_central_extension_identity_bound2():
    basis = fock_basis(2)
    idx = [-2, -1, 1, 2]
    for p in idx:
        for q in idx:
            a = LieElement.unit(p, q)
            for m in idx:
                for n in idx:
                    b = LieElement.unit(m, n)
                    br = bracket_central(a, b)
                    for s in basis:
                        v = Vec.basis(s)
                        lhs = rhat_apply(p, q, rhat_apply(m, n, v)) - rhat_apply(
                            m, n, rhat_apply(p, q, v)
                        )
                        assert lhs == rhat_lie_apply(br, v), (p, q, m, n, s)


def test_charge_and_number():
    s = state([1, 2], [-1])
    assert charge_number_apply("charge", Vec.basis(s)) == Vec.basis(s)
    assert charge_number_apply("number", Vec.basis(s)) == Vec.basis(s).scaled(3)
    assert charge_number_apply("charge", VAC).is_zero()


def test_schwinger_table():
    e = LieElement.unit
    assert schwinger(e(-1, 2), e(2, -1)) == ONE
    assert schwinger(e(1, 2), e(2, 1)) == ZERO
    assert schwinger(e(2, -1), e(-1, 2)) == Scalar.of(-1)


def test_schwinger_antisymmetry_random():
    stream = SplitMix64(5)
    idx = [-3, -2, -1, 1, 2, 3]
    for _ in range(200):
        a = LieElement(
            {
                (idx[stream.pick(6)], idx[stream.pick(6)]): stream.coefficient()
                for _ in range(3)
            }
        )
        b = LieElement(
            {
                (idx[stream.pick(6)], idx[stream.pick(6)]): stream.coefficient()
                for _ in range(3)
            }
        )
        assert schwinger(a, b) + schwinger(b, a) == ZERO


def test_bracket_central_examples():
    e = LieElement.unit
    br = bracket_central(e(-1, 1), e(1, -1))
    assert br.terms == {(-1, -1): ONE, (1, 1): Scalar.of(-1)}
    assert br.central == ONE
    br2 = bracket_central(e(1, 2), e(2, 1))
    assert br2.terms == {(1, 1): ONE, (2, 2): Scalar.of(-1)}
    assert br2.central == ZERO
    a = LieElement({(1, 2): ONE, (-1, 1): Scalar.of(3)}, central=5)
    br3 = bracket_central(a, a)
    assert br3.is_zero()


def test_inner_product_orthonormal():
    basis = fock_basis(2)
    for i, s in enumerate(basis):
        for j, t in enumerate(basis):
            want = ONE if i == j else ZERO
            assert Vec.basis(s).inner(Vec.basis(t)) == want
    v = Vec.basis(basis[0]).scaled(2) + Vec.basis(basis[1])
    assert v.inner(Vec.basis(basis[0])) == Scalar.of(2)


def _A(i, j):
    return {(i, j): ONE, (j, i): -ONE}


def test_t_ores_number_term():
    v = Vec.basis(state([1]))
    assert t_ores_apply({(1, 1): ONE}, {}, {}, v) == v


def test_t_ores_pair_creator():
    out = t_ores_apply({}, {}, _A(1, 2), VAC)
    assert out == Vec.basis(state([1, 2]))


def test_t_ores_rejects_bad_input():
    with pytest.raises(ValueError):
        t_ores_apply({}, {(1, 2): ONE}, {}, VAC)  # not antisymmetric
    with pytest.raises(ValueError):
        t_ores_apply({}, {}, {}, Vec.basis(state([], [-1])))  # antiparticle


def test_t_ores_cocycle_worked_case():
    x = ({}, {}, _A(1, 2))
    y = ({}, _A(1, 2), {})
    assert ores_cocycle(x, y) == Scalar.of(-1)
    br = ores_bracket(x, y)
    for s in fock_basis(2):
        if s.minus:
            continue
        v = Vec.basis(s)
        lhs = t_ores_apply(*x, t_ores_apply(*y, v)) - t_ores_apply(*y, t_ores_apply(*x, v))
        assert lhs - t_ores_apply(*br, v) == v.scaled(-1)


def test_t_ores_cocycle_general_pairs():
    triples = [
        ({(1, 1): ONE}, {}, {}),
        ({(1, 2): ONE}, {}, {}),
        ({}, _A(1, 2), {}),
        ({}, {}, _A(1, 3)),
        ({(2, 2): ONE}, _A(2, 3), _A(1, 2)),
    ]
    states = [s for s in fock_basis(3) if not s.minus]
    for x in triples:
        for y in triples:
            br = ores_bracket(x, y)
            coc = ores_cocycle(x, y)
            for s in states:
                v = Vec.basis(s)
                lhs = t_ores_apply(*x, t_ores_apply(*y, v)) - t_ores_apply(
                    *y, t_ores_apply(*x, v)
                )
                rhs = t_ores_apply(*br, v) + v.scaled(coc)
                assert lhs == rhs, (x, y, s)


def test_annihilator_support_is_occupation_set():
    for s in fock_basis(2):
        killers = set()
        for k in range(1, 4):
            if field_state(PSI, k, s) is not None:
                killers.add(k)
            if field_state(PSI_STAR, -k, s) is not None:
                killers.add(-k)
        assert killers == set(s.plus) | set(s.minus)
