"""The trigger index of the word tables, and the fused square residual.

A table files each word under the one input bit its rightmost factor
needs set (``dirac._trigger``), and the kernel visits only the buckets of
the bits set on the input state.  That is sound when every word whose
trigger bit is clear vanishes on the state, and then the indexed kernel
must equal the flat sum over every word.  The ``raw`` and ``hk`` residuals
compose the integer word sums directly; a perturbed table shows that they
report a nonzero residual exactly as the vector subtraction would.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from gdirac.dirac import (
    TensorState,
    _apply_table,
    _dirac_words,
    _hk_words,
    _raw_words,
    _square_residual,
    _trigger,
    _word_table,
    dirac_cutoff_apply,
)
from gdirac.fock import _fock_state, _rhat_word
from gdirac.linalg import _vec, add_to
from gdirac.scalar import HALF, HALF_SQRT2, Scalar
from gdirac.spinor import _spin_state, _unit_word

EXAMPLES = settings(max_examples=60, deadline=None)
TABLES = {"dirac": (_dirac_words, HALF_SQRT2), "raw": (_raw_words, HALF), "hk": (_hk_words, HALF)}


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


def _state(masks) -> TensorState:
    pm, mm, zero_ok, spin = masks
    return TensorState(_fock_state(pm, mm, zero_ok), _spin_state(spin))


@st.composite
def tensor_vectors(draw):
    """Up to 4 distinct states from ``tensor_masks`` with nonzero Q(sqrt2)
    coefficients."""
    states = draw(st.lists(tensor_masks().map(_state), min_size=1, max_size=4, unique=True))
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(lambda ab: Scalar(*ab))
    return _vec({s: draw(coeffs) for s in states})


def flat_apply(words_of, scale, n, v):
    """The word sum evaluated word by word, with no index."""
    out = {}
    for ts, c in v.terms.items():
        f = ts.fock
        for w, fock_word, spin_word in words_of(n):
            t = _rhat_word(fock_word, f.plus_mask, f.minus_mask, f.zero_ok)
            u = _unit_word(spin_word, ts.spin.mask)
            if t is not None and u is not None:
                image = TensorState(_fock_state(t[1], t[2], f.zero_ok), _spin_state(u[1]))
                add_to(out, image, c * scale * (-w if (t[0] + u[0]) & 1 else w))
    return _vec(out)


@EXAMPLES
@given(st.sampled_from(sorted(TABLES)), st.integers(1, 4), tensor_masks())
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
    assert _apply_table(words_of, scale, n, v) == flat_apply(words_of, scale, n, v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_word_is_stored_once_and_every_d_word_is_indexed(n):
    for words_of, _ in TABLES.values():
        always, *buckets = _word_table(words_of, n)
        groups = [always, *(g for b in buckets for g in b.values())]
        stored = [(w, f, s) for g in groups for f, words in g for w, s in words]
        assert sorted(stored) == sorted(words_of(n))
    # every word of D_N needs a bit: pair annihilation a plus bit, pair
    # creation the mode bit it removes
    assert _word_table(_dirac_words, n)[0] == ()


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
    expected = (lhs - _apply_table(words_of, HALF, n, v)).max_abs()
    residual = _square_residual(n, words_of, v)
    assert residual == expected
    # the unperturbed identity holds, so only the one extra term remains
    assert residual == HALF * abs(c) != 0
    assert _square_residual(n, _raw_words, v) == 0
