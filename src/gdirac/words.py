"""Word tables: the one kernel of the windowed operators.

Every windowed operator of the package is a literal sum of words

    w * F (x) S

with an integer weight w, a Fock word F (a product of matrix units E_pq,
each the normal-ordered quadratic of ``fock.rhat_state``) and a spin word
S (a product of unit mode operators u_ab = gamma_ab / sqrt(2)), times one
scale common to the whole sum.  A Fock-side operator has only empty spin
words and a spin-side one only empty Fock words, so the same tables and
the same kernel serve Fock, spin and tensor vectors: a basis state of any
of the three is stored as its ``mask_key`` ``(pm, mm, zero_ok, spin)``
(``fock.MaskState``), with 0 for the factor it lacks, and is rebuilt by
the trusted ``from_mask_key`` of its class.

A word vanishes on every state that lacks a bit it needs set, so a table
files each word once, under one such bit (``_trigger``), or in one
"always" group when it needs none, and collects the words of a group by
Fock word.  A group is compiled when the kernel first visits its bit:
the Fock word becomes one affine step on the occupation masks
(``fock._rhat_step``: required bits and values, parity masks, a constant
parity and flip masks), and each spin word its required mode bits and
values and its units (m, l, bit), whose parities stay symbolic because
they depend on the width of the mask.  Words that can never act are
dropped then.  The kernel (``_images``) visits the always group and the
groups of the bits set on the input state; a Fock step costs two mask
tests, two popcounts and two XORs, with no call, and its spin words are
tested only where it acts.

Images are integer weights on mask keys.  ``_apply``, the one way from a
vector to images and back, writes the input coefficients over one common
denominator, (a + b sqrt2) / den, sums the image weights times a and b
in plain ints per mask key (``_collect``), so terms that cancel never
reach a scalar, multiplies those numerators by the scale in integers,
and builds one canonical scalar and basis state per surviving key.

Tables are cached by (words function, arguments), least recently used
first, and dropped once the words they hold together pass
``TABLE_WORDS``.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .fock import _rhat_step, half_sign
from .linalg import Vec, _vec
from .scalar import Scalar, _from_numerators, _numerators


# ---------------------------------------------------------------------------
# The mode grid of the spin masks


def _mode_bit(m: int, l: int) -> int:
    """Position of the mode (m, l) on the grid mask.

    Shell r = max(m, -l) holds the bits [(r-1)^2, r^2) in lexicographic
    order: (1, -r), ..., (r-1, -r), then (r, -r), ..., (r, -1).  The
    modes of bound <= B fill exactly the first B^2 bits.
    """
    b = -l
    if m < b:
        return (b - 1) * (b - 1) + m - 1
    return m * m - b


@lru_cache(maxsize=1 << 14)
def _mode_masks(m: int, l: int, width: int) -> tuple[int, int]:
    """The bit of the mode (m, l), and the bits of the modes
    lexicographically below it on every shell that meets the first
    ``width`` bits of the grid.

    Below (m, l) are the modes with a smaller m, and those (m, l') with
    l' < l.  Shells under m hold only the first kind; shell s >= m holds
    (1, -s) ... (m-1, -s) of the first kind, then (m, -s) when s > -l,
    and in shell m itself the run (m, -m) ... (m, l-1) of the second.
    """
    r = max(m, -l)
    lower = (1 << (m - 1) * (m - 1)) - 1
    shells = isqrt(width - 1) + 1 if width else 0
    for s in range(m, shells + 1):
        count = m - 1 + (s > r) + (max(0, m + l) if s == m else 0)
        lower |= ((1 << count) - 1) << (s - 1) * (s - 1)
    return 1 << _mode_bit(m, l), lower


# ---------------------------------------------------------------------------
# Tables


def _trigger(fock_word, spin_word):
    """An input bit a word needs set, as ``(mask, position)`` on the
    plus (0), minus (1) or spin (2) mask, or None when it needs none.

    First the bit of the rightmost factor: E_pq needs plus bit q when
    q >= 0 (psi_q annihilates there), else minus bit p when p < 0 (psi*_p
    fills a hole there; the diagonal p = q < 0 too); u_ab needs the mode
    bit (b, a) when a < 0.  Index 0 is plus bit 0, as on the include-zero
    lattice; only include-zero windows hold it, so the answer is the same
    on both lattices.  Else the lowest mode bit the spin word needs set
    (``_spin_step``); no Fock word is compiled here.
    """
    if fock_word:
        p, q = fock_word[-1]
        if half_sign(q, True) > 0:
            return 0, q
        if p < 0:
            return 1, -1 - p
    if spin_word:
        a, b = spin_word[-1]
        if a < 0:
            return 2, _mode_bit(b, a)
        step = _spin_step(spin_word)
        needed = step and step[0] & step[1]
        if needed:
            return 2, (needed & -needed).bit_length() - 1
    return None


def _spin_step(spin_word):
    """A spin word compiled to ``(req, val, units)``: it acts on a grid
    mask s when s & req == val, and ``units`` lists ``(m, l, bit)`` for
    its factors in acting order, whose parities stay symbolic (they need
    the width of the mask).  None when the word vanishes on every mask."""
    req = val = flips = 0
    units = []
    for a, b in reversed(spin_word):
        m, l = (a, b) if a > 0 else (b, a)
        bit = 1 << _mode_bit(m, l)
        # u_ab creates the mode (a, b) when a > 0, else removes (b, a)
        need = (0 if a > 0 else bit) ^ (flips & bit)
        if req & bit and val & bit != need:
            return None
        req |= bit
        val |= need
        flips ^= bit
        units.append((m, l, bit))
    return req, val, tuple(units)


def _compiled(groups) -> tuple:
    """Raw groups ``((fock_word, ((weight, spin_word), ...)), ...)``
    compiled to ``(*fock_step, ((weight, *spin_step), ...))``, without
    the words that vanish on every state."""
    out = []
    for fock_word, words in groups:
        step = _rhat_step(fock_word)
        if step is not None:
            spins = tuple((w, *t) for w, spin_word in words if (t := _spin_step(spin_word)) is not None)
            if spins:
                out.append((*step, spins))
    return tuple(out)


class _Bucket(dict):
    """The compiled groups of one trigger kind, by position; the raw
    groups of a position are compiled on its first lookup."""

    __slots__ = ("raw",)

    def __init__(self, raw: dict):
        super().__init__()
        self.raw = raw

    def __missing__(self, position: int) -> tuple:
        groups = self[position] = _compiled(self.raw.pop(position, ()))
        return groups


def _raw_table(words_of, *args) -> tuple:
    """The words ``(weight, fock_word, spin_word)`` of ``words_of(*args)``,
    counted and indexed by trigger: ``(size, always, by_plus, by_minus,
    by_mode)``, where ``size`` is the number of words, and ``always`` and
    each value of the three ``position -> groups`` maps are groups
    ``((fock_word, ((weight, spin_word), ...)), ...)``."""
    always: dict = {}
    buckets: tuple = ({}, {}, {})
    # equal words are stored as one tuple, whichever side they are on
    shared: dict = {}
    size = 0
    for w, fock_word, spin_word in words_of(*args):
        fock_word = shared.setdefault(fock_word, fock_word)
        spin_word = shared.setdefault(spin_word, spin_word)
        trigger = _trigger(fock_word, spin_word)
        groups = always if trigger is None else buckets[trigger[0]].setdefault(trigger[1], {})
        groups.setdefault(fock_word, []).append((w, spin_word))
        size += 1

    def frozen(groups: dict) -> tuple:
        return tuple((fock_word, tuple(words)) for fock_word, words in groups.items())

    return (size, frozen(always), *({pos: frozen(g) for pos, g in b.items()} for b in buckets))


def _new_table(words_of, *args) -> tuple:
    """``_raw_table`` with its groups compiled, as ``(size, table)``: the
    always group at once, and the groups of each trigger position in a
    ``_Bucket``, on the first visit of that position."""
    size, always, *buckets = _raw_table(words_of, *args)
    return size, (_compiled(always), *map(_Bucket, buckets))


# The most words the cached tables hold together, about 42 MiB of D_N
# tables.  The D_N table at N = 300 alone holds 180,000 words in about
# 58 MiB; the 38 tables that one pass of the 12 verify suites builds (at
# the defaults, with ``--max-index 2`` for clifford, cocycle, k-family
# and casimir) hold 3,733.
TABLE_WORDS = 1 << 17

# (words function, arguments) -> (size, table), least recently used first
_tables: dict = {}


def _word_table(words_of, *args) -> tuple:
    """The compiled table of ``words_of(*args)``, built on first use.

    Building one evicts the least recently used tables until the words
    held, the new table's included, are within ``TABLE_WORDS``; a table
    larger than the budget is held alone.
    """
    key = (words_of, args)
    entry = _tables.pop(key, None)
    if entry is None:
        entry = _new_table(words_of, *args)
        held = entry[0] + sum(size for size, _ in _tables.values())
        for old in list(_tables):
            if held <= TABLE_WORDS:
                break
            held -= _tables.pop(old)[0]
    _tables[key] = entry
    return entry[1]


# ---------------------------------------------------------------------------
# The kernel, and the one way from vectors to images and back


def _images(table, key) -> dict:
    """The images of the state with mask key ``key`` under a table's word
    sum: integer weights, some of them 0, on mask keys."""
    pm, mm, zero_ok, spin = key
    always, *buckets = table
    visit = [always]
    for bits, bucket in zip((pm, mm, spin), buckets):
        while bits:
            low = bits & -bits
            groups = bucket[low.bit_length() - 1]
            if groups:
                visit.append(groups)
            bits ^= low
    images: dict = {}
    for groups in visit:
        for rp, vp, rm, vm, xp, xm, odd, fp, fm, words in groups:
            if pm & rp == vp and mm & rm == vm:
                odd += (pm & xp).bit_count() + (mm & xm).bit_count()
                pm1, mm1 = pm ^ fp, mm ^ fm
                for w, req, val, units in words:
                    if spin & req == val:
                        s, crossings = spin, odd
                        for m, l, bit in units:
                            crossings += (s & _mode_masks(m, l, s.bit_length())[1]).bit_count()
                            s ^= bit
                        key = (pm1, mm1, zero_ok, s)
                        images[key] = images.get(key, 0) + (-w if crossings & 1 else w)
    return images


def _collect(v: Vec, images) -> tuple[int, dict, dict]:
    """The sum of c * images(s) over the terms c s of ``v``, in integers.

    ``images`` maps the mask key of one basis state to integer weights on
    the mask keys of its images.  The coefficients of ``v`` are written
    over one common denominator ``den`` as (a + b sqrt2) / den
    (``scalar._numerators``), and w * a and w * b are summed per key into
    the dicts ``a`` and ``b``; a key of ``a`` missing from ``b`` has a
    sqrt2 part of 0.  Returns ``(den, a, b)``.
    """
    den, nums = _numerators(v.terms.values())
    acc_a: dict = {}
    acc_b: dict = {}
    for s, (a, b) in zip(v.terms, nums):
        for key, w in images(s.mask_key).items():
            if w:
                acc_a[key] = acc_a.get(key, 0) + w * a
                if b:
                    acc_b[key] = acc_b.get(key, 0) + w * b
    return den, acc_a, acc_b


def _apply(v: Vec, images, scale: Scalar) -> Vec:
    """``scale`` times ``images`` (a table's ``_images``, or the exact D)
    extended linearly to ``v``.  The scale multiplies the numerators of
    ``_collect`` in integers; a state of the input's class and one
    canonical scalar are built only for each key that survives."""
    if not v.terms:
        return v
    state = type(next(iter(v.terms))).from_mask_key
    den, acc_a, acc_b = _collect(v, images)
    m, ((p, q),) = _numerators((scale,))
    den *= m
    out = {}
    for key, a in acc_a.items():
        b = acc_b.get(key, 0)
        if a or b:
            # (p + q sqrt2)(a + b sqrt2) = (pa + 2qb) + (qa + pb) sqrt2
            out[state(*key)] = _from_numerators(p * a + 2 * q * b, q * a + p * b, den)
    return _vec(out)
