"""Word tables: the one kernel of the windowed operators.

Every windowed operator of the package (D_N and the right sides of
4 D_N^2, the Casimir variants, the Heisenberg shifts, the K family, the
spinor Casimir and the cut-off fermion number) is a literal sum of words

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
Fock word, like words merged into one with their weights summed.  A
group is compiled when the kernel first visits its bit: the Fock word
becomes one affine step on the occupation masks (``_rhat_step``:
required bits and values, parity masks, a constant parity and flip
masks), and each spin word one affine parity step on the grid mask
(``_spin_step``: required mode bits and values, a parity mask, a
constant parity and a flip mask).  The spin steps of a table are
compiled at its shell count S, the largest |index| of its spin words;
the shells of a mask past S all enter their parities the same way, so
the kernel folds them into one (``_folded``) once per input state, and
the steps stay exact on masks of any width.  Words that can never act
are dropped then.  The kernel (``_images``) visits the always group and
the groups of the bits set on the input state; a Fock step costs two
mask tests, two popcounts and two XORs, and a spin step one mask test,
one popcount and one XOR, with no call.

Images are integer weights on mask keys.  ``_apply``, the one way from a
vector to images and back, writes the input coefficients over one common
denominator, (a + b sqrt2) / den, sums the image weights times a and b
in plain ints per mask key (``_collect``), so terms that cancel never
reach a scalar, multiplies those numerators by the scale in integers,
and builds one canonical scalar and basis state per surviving key.

Products and sums of images functions compose in the same integers:
``_compose(terms)`` is the images function of sum w f_1 f_2 ... (each f
an images function, the rightmost acting first), and ``_residual`` takes
the largest coefficient of a scaled images function applied to a vector
by exact integer sign tests, building one scalar; on a one-term vector
c s it is |scale c| times the largest |weight| of the images of s, with
no collect step.  Every bracket and square identity of the package is
checked that way, with no vector in between.

``_compose``, ``_collect``, ``_residual`` and ``_apply`` only read the
dicts an images function returns, never write to them, so ``_memo(f)``
may hand out the same dict for a key on every call: a bracket check
evaluates each factor once per key, however many partners it has.

Tables are cached by (words function, arguments), least recently used
first, and dropped once the words they hold together pass
``TABLE_WORDS``.  Other modules see a table only as the images function
``_table_images`` makes of it; only this module knows its format.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain
from math import isqrt
from types import MappingProxyType

from .linalg import Vec, _vec
from .scalar import ZERO, Scalar, _from_numerators, _numerators, _sign


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
    Every shell past max(m, -l) thus adds its first m bits.

    The exact unit (``spinor._unit``, ``spinor._ktilde``) reads these at
    the width of the mask it acts on; a compiled spin step
    (``_spin_step``) once, at the width of its table's shells.
    """
    r = max(m, -l)
    lower = (1 << (m - 1) * (m - 1)) - 1
    shells = isqrt(width - 1) + 1 if width else 0
    for s in range(m, shells + 1):
        count = m - 1 + (s > r) + (max(0, m + l) if s == m else 0)
        lower |= ((1 << count) - 1) << (s - 1) * (s - 1)
    return 1 << _mode_bit(m, l), lower


# ---------------------------------------------------------------------------
# Fock words as affine steps on the occupation masks

# An affine step on occupation masks is the tuple
#
#     (rp, vp, rm, vm, xp, xm, odd, fp, fm)
#
# of a word that acts on (pm, mm) when pm & rp == vp and mm & rm == vm,
# with crossings odd + #(pm & xp) + #(mm & xm), and sends the masks to
# (pm ^ fp, mm ^ fm).  The parity masks xp, xm may be negative: -1 counts
# every bit, so a step stays exact on masks of any width.
_IDENTITY_STEP = (0, 0, 0, 0, 0, 0, 0, 0, 0)


def _field_step(star: bool, k: int) -> tuple:
    """psi*_k (``star``) or psi_k as an affine step, as ``fock._field``.

    Index 0 is plus bit 0, as on the include-zero lattice; only
    include-zero windows hold it."""
    if k >= 0:
        bit = 1 << k
        return bit, 0 if star else bit, 0, 0, bit - 1, 0, 0, bit, 0
    bit = 1 << (-1 - k)
    return 0, 0, bit, bit if star else 0, -1, -(1 << -k), 0, 0, bit


def _then(first: tuple, second: tuple):
    """The step ``second`` after ``first``, or None when their
    requirements conflict and the product vanishes on every state."""
    rp1, vp1, rm1, vm1, xp1, xm1, odd1, fp1, fm1 = first
    rp2, vp2, rm2, vm2, xp2, xm2, odd2, fp2, fm2 = second
    # the later requirement is read on the masks the earlier flips made
    vp2 ^= fp1 & rp2
    vm2 ^= fm1 & rm2
    if (vp1 ^ vp2) & rp1 & rp2 or (vm1 ^ vm2) & rm1 & rm2:
        return None
    odd = odd1 + odd2 + (fp1 & xp2).bit_count() + (fm1 & xm2).bit_count()
    return rp1 | rp2, vp1 | vp2, rm1 | rm2, vm1 | vm2, xp1 ^ xp2, xm1 ^ xm2, odd & 1, fp1 ^ fp2, fm1 ^ fm2


def _rhat_step(word):
    """A product of E_pq, its rightmost factor acting first, compiled to
    one affine step: the composition of the ``fock._rhat`` of its
    factors, or None when the word vanishes on every state.  A word
    without the index 0 gives the same step on both lattices; one with it is compiled for the include-zero
    lattice, the only one whose windows hold 0."""
    step = _IDENTITY_STEP
    for p, q in reversed(word):
        if p == q and p < 0:
            # psi*_p psi_p - 1: -1 on states occupied at p, else 0
            bit = 1 << (-1 - p)
            factors = ((0, 0, bit, bit, 0, 0, 1, 0, 0),)
        else:
            factors = (_field_step(False, q), _field_step(True, p))
        for factor in factors:
            step = _then(step, factor)
            if step is None:
                return None
    return step


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
        if q >= 0:
            return 0, q
        if p < 0:
            return 1, -1 - p
    if spin_word:
        a, b = spin_word[-1]
        if a < 0:
            return 2, _mode_bit(b, a)
        step = _spin_step(spin_word, _shells((spin_word,)))
        needed = step and step[0] & step[1]
        if needed:
            return 2, (needed & -needed).bit_length() - 1
    return None


def _shells(spin_words) -> int:
    """The largest |index| in any of ``spin_words``, 0 when they hold
    none: their modes all lie on that many first shells of the grid."""
    return max(map(abs, chain.from_iterable(chain.from_iterable(spin_words))), default=0)


def _spin_step(spin_word, shells: int):
    """A spin word compiled at the shell count ``shells`` S, at least its
    own (``_shells``), to one affine parity step ``(req, val, xs, odd,
    flips)``, or None when the word vanishes on every mask.

    The word acts on a grid mask s when s & req == val, sends it to
    s ^ flips, and has the sign (-1)^(odd + #(``_folded(s, S)`` & xs)).
    Each unit (m, l), in acting order, crosses the modes below it
    (``_mode_masks``) on s ^ F, where F holds the bits the earlier units
    flipped; as #((a ^ b) & c) = #(a & c) + #(b & c) mod 2, that is
    #(s & lower) + #(F & lower).  So below bit S^2, xs is the XOR of the
    units' lower masks at width S^2, and odd is the sum of their
    #(F & lower), F being below S^2.  Every shell past S adds its first m
    bits to the lower set of (m, l); ``_folded`` sums those shells into
    one at [S^2, S^2 + S), where xs holds the XOR of (1 << m) - 1 over
    the units.  The step is thus exact on masks of any width.
    """
    width = shells * shells
    req = val = xs = odd = flips = tail = 0
    for a, b in reversed(spin_word):
        m, l = (a, b) if a > 0 else (b, a)
        # uncached: at a large table's width each mask is S^2 bits, and
        # the cache is for the exact unit's narrow ones
        bit, lower = _mode_masks.__wrapped__(m, l, width)
        # u_ab creates the mode (a, b) when a > 0, else removes (b, a)
        need = (0 if a > 0 else bit) ^ (flips & bit)
        if req & bit and val & bit != need:
            return None
        req |= bit
        val |= need
        xs ^= lower
        odd += (flips & lower).bit_count()
        tail ^= (1 << m) - 1
        flips ^= bit
    return req, val, xs | tail << width, odd & 1, flips


def _folded(spin: int, shells: int) -> int:
    """The grid mask ``spin`` as the spin steps compiled at ``shells`` S
    read it (``_spin_step``): its first S^2 bits, and at [S^2, S^2 + S)
    the XOR of the first S bits of each shell past S."""
    low = (1 << shells) - 1
    fold = 0
    # shell s + 1 starts at bit s^2
    s = shells
    while spin >> s * s:
        fold ^= spin >> s * s & low
        s += 1
    width = shells * shells
    return spin & (1 << width) - 1 | fold << width


def _compiled(groups, shells: int) -> tuple:
    """Raw groups ``((fock_word, ((weight, spin_word), ...)), ...)``
    compiled to ``(*fock_step, ((weight, *spin_step), ...))``, the spin
    steps at ``shells``, without the words that vanish on every state."""
    out = []
    for fock_word, words in groups:
        step = _rhat_step(fock_word)
        if step is not None:
            spins = tuple(
                (w, *t) for w, spin_word in words if (t := _spin_step(spin_word, shells)) is not None
            )
            if spins:
                out.append((*step, spins))
    return tuple(out)


class _Bucket(dict):
    """The compiled groups of one trigger kind, by position; the raw
    groups of a position are compiled on its first lookup."""

    __slots__ = ("raw", "shells")

    def __init__(self, raw: dict, shells: int):
        super().__init__()
        self.raw = raw
        self.shells = shells

    def __missing__(self, position: int) -> tuple:
        groups = self[position] = _compiled(self.raw.pop(position, ()), self.shells)
        return groups


def _raw_table(words_of, *args) -> tuple:
    """The words ``(weight, fock_word, spin_word)`` of ``words_of(*args)``,
    indexed by trigger: ``(size, shells, always, by_plus, by_minus,
    by_mode)``.  ``size`` counts the words given, ``shells`` is the
    largest |index| of their spin words (``_shells``), and ``always`` and
    each value of the three ``position -> groups`` maps are groups
    ``((fock_word, ((weight, spin_word), ...)), ...)`` that hold each
    (Fock word, spin word) once, with its weights summed and none 0."""
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

    def merged(words: list) -> tuple:
        # most groups hold one word, kept as it came
        if len(words) == 1:
            return tuple(words) if words[0][0] else ()
        weights: dict = {}
        for w, spin_word in words:
            weights[spin_word] = weights.get(spin_word, 0) + w
        return tuple((w, spin_word) for spin_word, w in weights.items() if w)

    def frozen(groups: dict) -> tuple:
        return tuple((fock_word, ws) for fock_word, words in groups.items() if (ws := merged(words)))

    every = (always, *(g for b in buckets for g in b.values()))
    shells = _shells(spin_word for groups in every for words in groups.values() for _, spin_word in words)
    frozen_buckets = ({pos: frozen(g) for pos, g in b.items()} for b in buckets)
    return (size, shells, frozen(always), *frozen_buckets)


def _new_table(words_of, *args) -> tuple:
    """``_raw_table`` with its groups compiled, as ``(size, (shells,
    always, by_plus, by_minus, by_mode))``: the always group at once, and
    the groups of each trigger position in a ``_Bucket``, on the first
    visit of that position."""
    size, shells, always, *buckets = _raw_table(words_of, *args)
    return size, (shells, _compiled(always, shells), *(_Bucket(b, shells) for b in buckets))


# The most words the cached tables hold together, about 42 MiB of D_N
# tables.  The D_N table at N = 300 alone holds 180,000 words in about
# 58 MiB; the 83 tables that one pass of the 12 verify suites builds (at
# the defaults, with ``--max-index 2`` for clifford, cocycle, k-family
# and casimir) hold 3,920, most of them K-family tables of a few words
# each.
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


def _table_images(words_of, *args):
    """The images function of the word sum ``words_of(*args)``: the kernel
    (``_images``) on its compiled table."""
    return partial(_images, _word_table(words_of, *args))


# ---------------------------------------------------------------------------
# The kernel, and the one way from vectors to images and back


def _images(table, key) -> dict:
    """The images of the state with mask key ``key`` under a table's word
    sum: integer weights, some of them 0, on mask keys.

    Each word that acts costs its Fock step and its spin step, the spin
    parity read on the key's grid mask folded once at the table's shells
    (``_folded``; the mask itself when it has no bit past them)."""
    pm, mm, zero_ok, spin = key
    shells, always, *buckets = table
    visit = [always]
    for bits, bucket in zip((pm, mm, spin), buckets):
        while bits:
            low = bits & -bits
            groups = bucket[low.bit_length() - 1]
            if groups:
                visit.append(groups)
            bits ^= low
    folded = _folded(spin, shells) if shells and spin >> shells * shells else spin
    images: dict = {}
    for groups in visit:
        for rp, vp, rm, vm, xp, xm, odd, fp, fm, words in groups:
            if pm & rp == vp and mm & rm == vm:
                odd += (pm & xp).bit_count() + (mm & xm).bit_count()
                pm1, mm1 = pm ^ fp, mm ^ fm
                for w, req, val, xs, odd_s, flips in words:
                    if spin & req == val:
                        key = (pm1, mm1, zero_ok, spin ^ flips)
                        crossings = odd + odd_s + (folded & xs).bit_count()
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
    canonical scalar are built only for each key that survives; when no
    key comes out, the scale is never read."""
    if not v.terms:
        return v
    den, acc_a, acc_b = _collect(v, images)
    if not acc_a:
        return _vec({})
    state = type(next(iter(v.terms))).from_mask_key
    m, ((p, q),) = _numerators((scale,))
    den *= m
    out = {}
    for key, a in acc_a.items():
        b = acc_b.get(key, 0)
        if a or b:
            # (p + q sqrt2)(a + b sqrt2) = (pa + 2qb) + (qa + pb) sqrt2
            out[state(*key)] = _from_numerators(p * a + 2 * q * b, q * a + p * b, den)
    return _vec(out)


# what a memo holds for each key without images (a third of the keys
# the k-family suite meets): one read-only mapping, not an empty dict each
_NONE = MappingProxyType({})


class _Memo(dict):
    """Mask key -> the images of an images function, each computed on the
    key's first lookup."""

    def __init__(self, images):
        super().__init__()
        self.images = images

    def __missing__(self, key):
        out = self[key] = self.images(key) or _NONE
        return out


def _memo(images):
    """``images`` computing each key once: the dict of a key's first call
    is returned again on every later one, so its callers must only read
    it.  The memo lives as long as the function returned."""
    return _Memo(images).__getitem__


def _compose(terms):
    """The images function of sum w * f_1 f_2 ... f_k over ``terms``,
    pairs ``(w, (f_1, ..., f_k))`` of an int weight and images functions,
    f_k acting first; an empty product is the identity.  The factors'
    dicts are only read, so a factor may be a ``_memo``.

    Each product is walked one factor at a time from the input key, its
    middle factors through one merged layer of integer weights; the
    weight multiplies the layer feeding the last factor, which adds
    straight into the sum.
    """
    # (w, first, middle, last) in acting order; first is None for a
    # single factor, last None for the identity
    steps = []
    for w, fs in terms:
        if w:
            fs = fs[::-1]
            steps.append((w, fs[0] if len(fs) > 1 else None, fs[1:-1], fs[-1] if fs else None))

    def images(key) -> dict:
        acc: dict = {}
        for w, first, middle, last in steps:
            if last is None:
                acc[key] = acc.get(key, 0) + w
                continue
            layer = ((key, 1),) if first is None else first(key).items()
            for f in middle:
                merged: dict = {}
                for k, c in layer:
                    if c:
                        for k2, c2 in f(k).items():
                            merged[k2] = merged.get(k2, 0) + c * c2
                layer = merged.items()
            for k, c in layer:
                if c:
                    c *= w
                    for k2, c2 in last(k).items():
                        acc[k2] = acc.get(k2, 0) + c * c2
        return acc

    return images


def _residual(v: Vec, images, scale: Scalar) -> Scalar:
    """The largest |coefficient| of ``scale`` times ``images`` applied to
    ``v``, in integers.

    On a one-term vector c s this is |scale c| times the largest |weight|
    of ``images(s)``.  Otherwise the images are collected as integer
    numerators over one denominator (``_collect``); the largest
    |a + b sqrt2| among them is found by exact sign tests, or as the
    largest |a| when no sqrt2 part arose, and only a nonzero one becomes
    a scalar, scaled once.
    """
    if len(v.terms) == 1:
        ((s, c),) = v.terms.items()
        top = max(map(abs, images(s.mask_key).values()), default=0)
        return abs(scale * c) * top if top else ZERO
    den, acc_a, acc_b = _collect(v, images)
    best_a = best_b = 0
    if not acc_b:
        best_a = max(map(abs, acc_a.values()), default=0)
    else:
        for key, a in acc_a.items():
            b = acc_b.get(key, 0)
            if _sign(a, b) < 0:
                a, b = -a, -b
            if _sign(a - best_a, b - best_b) > 0:
                best_a, best_b = a, b
    if not best_a and not best_b:
        return ZERO
    return abs(scale * _from_numerators(best_a, best_b, den))
