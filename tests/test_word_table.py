"""The trigger index of the word tables, its compiled steps, and the
fused square residual.

A table files each word under the one input bit its rightmost factor
needs set (``words._trigger``), and the kernel visits only the buckets of
the bits set on the input state.  That is sound when every word whose
trigger bit is clear vanishes on the state, and then the indexed kernel
must equal the flat sum over every word, also on states wider than the
window.  A bucket is compiled on its first visit, each Fock word to one
integer-mask step that must agree with ``_rhat_word``, the word
evaluated factor by factor through ``fock._rhat``.  A word whose rightmost factor needs no
bit is filed under a mode bit its spin word needs, so no word left in
the always group needs any bit set.  The square residuals compose the
integer word sums directly; a perturbed table, and D_N's own word sum as
a right side, show that they report a nonzero residual exactly as the
vector subtraction would.  Coefficients are drawn from
Q(sqrt2) with denominators up to 6, so the common denominator of the
integer numerators the kernels carry is rarely 1.
"""

from fractions import Fraction
from functools import partial

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdirac import casimir as cas
from gdirac import words
from gdirac.dirac import (
    TensorState,
    _dirac_words,
    _final_words,
    _hk_words,
    _raw_words,
    _square_residual,
    dirac_apply,
    dirac_cutoff_apply,
    tensor_states,
)
from gdirac.fock import _rhat, _rhat_step, window
from gdirac.linalg import _vec, add_to
from gdirac.scalar import HALF, HALF_SQRT2, Scalar
from gdirac.spinor import _fermion_number_words, _spinor_casimir_words, _unit, _unit_word
from gdirac.words import _apply, _compiled, _images, _new_table, _raw_table, _tables, _trigger, _word_table

EXAMPLES = settings(max_examples=60, deadline=None)
TABLES = {
    "dirac": (_dirac_words, HALF_SQRT2),
    "raw": (_raw_words, HALF),
    "hk": (_hk_words, HALF),
    "final": (_final_words, HALF),
}
# a nonzero a + b sqrt2 with rational a, b of denominators 1..6
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
q_sqrt2 = st.builds(Scalar, fractions, fractions).filter(bool)


@st.composite
def tensor_masks(draw):
    """Masks ``(pm, mm, zero_ok, spin)`` of a charge-0 tensor basis state
    of bound <= 4, on either Fock lattice."""
    zero_ok = draw(st.booleans())
    k = draw(st.integers(0, 4))
    plus = draw(st.lists(st.integers(0 if zero_ok else 1, 4), min_size=k, max_size=k, unique=True))
    minus = draw(st.lists(st.integers(-4, -1), min_size=k, max_size=k, unique=True))
    # the modes of bound <= 4 fill the first 16 bits of the spin grid
    spin = draw(st.integers(0, (1 << 16) - 1))
    return sum(1 << p for p in plus), sum(1 << (-1 - l) for l in minus), zero_ok, spin


@st.composite
def wide_tensor_masks(draw):
    """Masks of a tensor basis state of bound <= 7 = N + 3 at the largest
    N drawn here, of any charge: wider than every window, with spin bits
    past N^2."""
    zero_ok = draw(st.booleans())
    pm = draw(st.integers(0, (1 << 8) - 1)) & (-1 if zero_ok else -2)
    mm = draw(st.integers(0, (1 << 7) - 1))
    spin = draw(st.integers(0, (1 << 49) - 1))
    return pm, mm, zero_ok, spin


any_tensor_masks = st.one_of(tensor_masks(), wide_tensor_masks())


def _state(masks) -> TensorState:
    return TensorState.from_mask_key(*masks)


@st.composite
def tensor_vectors(draw, masks=any_tensor_masks):
    """Up to 4 distinct states from ``masks`` with nonzero Q(sqrt2)
    coefficients."""
    states = draw(st.lists(masks.map(_state), min_size=1, max_size=4, unique=True))
    return _vec({s: draw(q_sqrt2) for s in states})


def table_images(words_of, n):
    """The kernel images of the table of ``words_of(n)``."""
    return partial(_images, _word_table(words_of, n))


def apply_table(words_of, scale, n, v):
    return _apply(v, table_images(words_of, n), scale)


def residual(n, words_of, v):
    """The integer residual of 4 D_N^2 v against the right side
    1/2 ``words_of(n)`` v."""
    return _square_residual(table_images(_dirac_words, n), table_images(words_of, n), v)


def canonical(cs) -> bool:
    """Every field of the scalars ``cs`` an int, or a non-integral
    Fraction (``Vec.__eq__`` cannot tell Fraction(2, 1) from 2)."""
    return all(type(x) is int or x.denominator > 1 for c in cs for x in (c.a, c.b))


def _rhat_word(word, pm, mm, zero_ok):
    """A product of E_pq on occupation masks, its rightmost factor acting
    first: ``(crossings, pm, mm)``, or None once a factor vanishes."""
    odd = 0
    for p, q in reversed(word):
        t = _rhat(p, q, pm, mm, zero_ok)
        if t is None:
            return None
        crossings, pm, mm = t
        odd += crossings
    return odd, pm, mm


def flat_apply(words_of, scale, n, v):
    """The word sum evaluated word by word, with no index."""
    out = {}
    for ts, c in v.terms.items():
        f = ts.fock
        for w, fock_word, spin_word in words_of(n):
            t = _rhat_word(fock_word, f.plus_mask, f.minus_mask, f.zero_ok)
            u = _unit_word(spin_word, ts.spin.mask)
            if t is not None and u is not None:
                image = TensorState.from_mask_key(t[1], t[2], f.zero_ok, u[1])
                add_to(out, image, c * scale * (-w if (t[0] + u[0]) & 1 else w))
    return _vec(out)


@EXAMPLES
@given(st.sampled_from(sorted(TABLES)), st.integers(1, 4), any_tensor_masks)
def test_a_word_with_its_trigger_bit_clear_vanishes(form, n, masks):
    pm, mm, zero_ok, spin = masks
    for _, fock_word, spin_word in TABLES[form][0](n):
        trigger = _trigger(fock_word, spin_word)
        if trigger is None or (pm, mm, spin)[trigger[0]] >> trigger[1] & 1:
            continue
        if trigger[0] == 2:
            assert _unit_word(spin_word, spin) is None
        else:
            assert _rhat_word(fock_word, pm, mm, zero_ok) is None


@EXAMPLES
@given(st.sampled_from(sorted(TABLES)), st.integers(1, 4), tensor_vectors())
def test_the_indexed_kernel_equals_the_flat_word_sum(form, n, v):
    words_of, scale = TABLES[form]
    got = apply_table(words_of, scale, n, v)
    assert got == flat_apply(words_of, scale, n, v)
    assert canonical(got.terms.values())


def scalar_dirac(v):
    """The exact D in Scalar arithmetic: +-c per image, then one
    ``Vec.scaled`` by sqrt(2)/2."""
    out = {}
    for ts, c in v.terms.items():
        f, spin = ts.fock, ts.spin
        for p, q in [(p, q) for q in f.plus for p in f.minus] + list(spin.modes):
            t = _unit(q, p, spin.mask)
            u = t and _rhat(p, q, f.plus_mask, f.minus_mask, f.zero_ok)
            if u:
                image = TensorState.from_mask_key(u[1], u[2], f.zero_ok, t[1])
                add_to(out, image, -c if (t[0] + u[0]) & 1 else c)
    return _vec(out).scaled(HALF_SQRT2)


# index 0 has no spinor mode, so D is taken on states with 0 unoccupied,
# on both lattices
off_zero_masks = any_tensor_masks.map(lambda masks: (masks[0] & ~1, *masks[1:]))


@EXAMPLES
@given(tensor_vectors(off_zero_masks))
def test_dirac_apply_matches_scalar_arithmetic(v):
    d1 = dirac_apply(v)
    assert d1 == scalar_dirac(v) and canonical(d1.terms.values())
    # and once more on D v, whose coefficients have other denominators
    d2 = dirac_apply(d1)
    assert d2 == scalar_dirac(d1) and canonical(d2.terms.values())


def test_dirac_apply_refuses_index_zero_as_the_scalar_walk_does():
    v = _vec({_state((1, 1, True, 0)): Scalar(Fraction(1, 3), -1)})
    for apply in (dirac_apply, scalar_dirac):
        with pytest.raises(ValueError):
            apply(v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_word_is_stored_once_and_every_d_word_is_indexed(n):
    for words_of, _ in TABLES.values():
        size, always, *buckets = _raw_table(words_of, n)
        groups = [always, *(g for b in buckets for g in b.values())]
        stored = [(w, f, s) for g in groups for f, ws in g for w, s in ws]
        assert sorted(stored) == sorted(words_of(n)) and size == len(stored)
        # the compiled table holds the same groups, each compiled once
        size_again, table = _new_table(words_of, n)
        assert size_again == size
        assert table[0] == _compiled(always)
        for bucket, raw in zip(table[1:], buckets):
            assert bucket.raw == raw and not bucket
            for pos, g in raw.items():
                assert bucket[pos] == _compiled(g) and pos not in bucket.raw
    # every word of D_N needs a bit: pair annihilation a plus bit, pair
    # creation the mode bit it removes
    assert _raw_table(_dirac_words, n)[1] == ()
    assert _word_table(_dirac_words, n)[0] == ()


def small_tables(n):
    """(words function, arguments) of every word table of the package at
    cut-off ``n``."""
    tables = [(f, (n,)) for f in (_dirac_words, _raw_words, _hk_words, _final_words, _fermion_number_words)]
    tables += [(cas._casimir_words, (tag, n, zero_ok)) for tag in cas._CUTOFF.values() for zero_ok in (False, True)]
    tables += [(cas._casimir_words, (cas.NAIVE_N, n, zero_ok)) for zero_ok in (False, True)]
    tables += [(cas._heisenberg_words, (n, k)) for k in window(n)]
    return tables + [(_spinor_casimir_words, (n, renormalized)) for renormalized in (False, True)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_always_group_word_needs_a_set_bit(n):
    for words_of, args in small_tables(n):
        always = _new_table(words_of, *args)[1][0]
        for _, vp, _, vm, *_, spins in always:
            assert vp == vm == 0, (words_of, args)
            assert all(val == 0 for _, _, val, _ in spins), (words_of, args)


def test_the_spin_step_trigger_files_the_spinor_casimir_words():
    # u_ik u_kj u_jk' u_k'i with i, j < 0 creates (k', i) first and then
    # needs (k', j) set when i != j: only the i = j words stay always, N^2
    # of them at each of the N indices i < 0
    for n in (2, 3, 4):
        always = _raw_table(_spinor_casimir_words, n, False)[1]
        assert sum(len(ws) for _, ws in always) == n**3


def _run_step(step, pm, mm):
    rp, vp, rm, vm, xp, xm, odd, fp, fm = step
    if pm & rp != vp or mm & rm != vm:
        return None
    return (odd + (pm & xp).bit_count() + (mm & xm).bit_count()) & 1, pm ^ fp, mm ^ fm


def _check_step(word, pm, mm, zero_ok):
    t = _rhat_word(word, pm, mm, zero_ok)
    step = _rhat_step(word)
    got = None if step is None else _run_step(step, pm, mm)
    assert got == (None if t is None else (t[0] & 1, t[1], t[2])), (word, pm, mm, zero_ok)


def test_each_compiled_fock_step_equals_the_word_on_every_small_state():
    # every word of up to two factors over the window(2) of a lattice, on
    # every state of bound <= 2 of that lattice; the include-zero words
    # hold index 0, compiled as plus bit 0.  The words compiled to None
    # must vanish on all of them
    for zero_ok in (False, True):
        units = [(p, q) for p in window(2, zero_ok) for q in window(2, zero_ok)]
        for word in [()] + [(a,) for a in units] + [(a, b) for a in units for b in units]:
            for pm in range(0, 8, 1 if zero_ok else 2):
                for mm in range(4):
                    _check_step(word, pm, mm, zero_ok)
    assert _rhat_step(((1, 2), (1, 2))) is None
    assert _rhat_step(((-1, -1),)) == (0, 0, 1, 1, 0, 0, 1, 0, 0)


@EXAMPLES
@given(
    st.lists(st.tuples(st.sampled_from(window(5)), st.sampled_from(window(5))), max_size=4),
    wide_tensor_masks(),
)
@example(((-3, -3),), (0, 1 << 2, False, 0))
@example(((-3, -3), (2, -3)), (1 << 2, 1 << 2, True, 0))
@example(((1, 2), (1, 2)), (1 << 2, 0, False, 0))
def test_each_compiled_fock_step_equals_rhat_word(word, masks):
    pm, mm, zero_ok, _ = masks
    _check_step(tuple(word), pm, mm, zero_ok)


def test_a_bound_one_vector_compiles_only_the_buckets_of_its_bits():
    _tables.clear()
    v = _vec({ts: Scalar(1) for ts in tensor_states(1)})
    assert dirac_cutoff_apply(50, v) == dirac_apply(v)
    # the bound-1 states set plus bit 1, minus bit 0 and mode bit 0
    _, by_plus, by_minus, by_mode = _word_table(_dirac_words, 50)
    assert set(by_plus) == {1} and set(by_minus) == {0} and set(by_mode) == {0}
    assert sorted(by_plus.raw) == list(range(2, 51))
    assert not by_minus.raw
    assert sorted(by_mode.raw) == list(range(1, 50 * 50))


def test_walking_n_upward_keeps_the_held_words_within_the_budget(monkeypatch):
    budget = 600
    monkeypatch.setattr(words, "TABLE_WORDS", budget)
    _tables.clear()
    try:
        for n in range(1, 25):
            # N = 1 stays in use, so the tables between go first
            _word_table(_dirac_words, 1)
            table = _word_table(_dirac_words, n)
            held = [size for size, _ in _tables.values()]
            # D_N holds 2 N^2 words; one past the budget is held alone
            assert sum(held) <= budget or held == [2 * n * n], n
            assert _tables[(_dirac_words, (n,))][1] is table
            if 2 * n * n + 2 <= budget:
                assert (_dirac_words, (1,)) in _tables
        assert words.TABLE_WORDS == budget < 2 * 24 * 24
    finally:
        _tables.clear()


def _perturbed(k):
    """The raw words with the weight of word ``k`` raised by one."""

    def words_of(n):
        for i, (w, fock_word, spin_word) in enumerate(_raw_words(n)):
            yield (w + 1 if i == k else w), fock_word, spin_word

    return words_of


@EXAMPLES
@given(st.integers(1, 4), tensor_masks(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
def test_fused_residual_sees_a_perturbed_weight(n, masks, ab):
    c = Scalar(*ab)
    v = _vec({_state(masks): c})
    pm, mm, zero_ok, spin = masks
    # perturb the first raw word that acts on the state
    k = next(
        (
            i
            for i, (_, fock_word, spin_word) in enumerate(_raw_words(n))
            if _rhat_word(fock_word, pm, mm, zero_ok) is not None and _unit_word(spin_word, spin) is not None
        ),
        None,
    )
    if k is None:
        return
    words_of = _perturbed(k)
    lhs = dirac_cutoff_apply(n, dirac_cutoff_apply(n, v)).scaled(4)
    expected = (lhs - apply_table(words_of, HALF, n, v)).max_abs()
    got = residual(n, words_of, v)
    assert got == expected
    # the unperturbed identity holds, so only the one extra term remains
    assert got == HALF * abs(c) != 0
    assert residual(n, _raw_words, v) == 0


@EXAMPLES
@given(st.integers(1, 4), tensor_vectors())
@example(2, _vec({_state((1 << 1, 1, False, 0)): Scalar(Fraction(1, 3), Fraction(-5, 6))}))
@example(
    3,
    _vec(
        {
            _state((1 << 2, 1 << 1, False, 1)): Scalar(-2, Fraction(-1, 2)),
            _state((0, 0, True, 1 << 3)): Scalar(Fraction(5, 4), Fraction(-3, 2)),
        }
    ),
)
def test_fused_residual_against_a_right_side_that_is_not_the_square(n, v):
    # 4 D_N^2 - 1/2 W_D: D_N's own word sum, deliberately not the square
    d = dirac_cutoff_apply(n, v)
    lhs = dirac_cutoff_apply(n, d).scaled(4)
    expected = (lhs - apply_table(_dirac_words, HALF, n, v)).max_abs()
    got = residual(n, _dirac_words, v)
    assert got == expected and canonical([got])
    # W_D changes the spin length by one and D_N^2 by an even number, so
    # nothing cancels the W_D v = sqrt(2) D_N v side
    assert bool(got) == bool(d)
