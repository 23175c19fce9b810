"""Sparse vectors, exact matrices and nullspaces over Q(sqrt2).

The vectors are finite maps from totally ordered basis keys to nonzero
scalars; the matrices keep sparse rows and are reduced by exact Gaussian
elimination (Q(sqrt2) is a field, so no rounding ever occurs and the
returned basis is deterministic).

``add_to`` is the one accumulate-and-drop step of the vector sums.  The
operators of the package are not extended to vectors here: each is an
images function on basis-state mask keys, which ``words._apply``
extends linearly in integers.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from .scalar import ONE, ZERO, RatLike, Scalar, _coerce

Key = Hashable


def set_bits(mask: int) -> list[int]:
    """Positions of the set bits of an occupation mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _key_order(k):
    sk = getattr(k, "sort_key", None)
    return sk() if callable(sk) else k


class Vec:
    """Finite formal linear combination of basis keys with Scalar coefficients.

    Canonical form: no stored zero coefficients.  Instances are treated
    as immutable; all operations return fresh vectors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict = {}
        if terms:
            for k, c in terms.items():
                c = _coerce(c)
                if c:
                    clean[k] = c
        self.terms = clean

    @staticmethod
    def basis(key: Key, coeff: Scalar | RatLike = ONE) -> "Vec":
        return Vec({key: _coerce(coeff)})

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[Key, Scalar]]:
        return iter(sorted(self.terms.items(), key=lambda kv: _key_order(kv[0])))

    def support(self) -> list:
        return sorted(self.terms, key=_key_order)

    def coeff(self, key: Key) -> Scalar:
        return self.terms.get(key, ZERO)

    def __add__(self, other: "Vec") -> "Vec":
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_to(out, k, c)
        return _vec(out)

    def __sub__(self, other: "Vec") -> "Vec":
        return self + (-other)

    def __neg__(self) -> "Vec":
        return _vec({k: -c for k, c in self.terms.items()})

    def scaled(self, c: Scalar | RatLike) -> "Vec":
        c = _coerce(c)
        if not c:
            return Vec()
        return _vec({k: x * c for k, x in self.terms.items()})

    def __rmul__(self, c: Scalar | RatLike) -> "Vec":
        return self.scaled(c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vec) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Vec(0)"
        parts = [f"({c})*{k!r}" for k, c in self.items()]
        return "Vec(" + " + ".join(parts) + ")"

    def inner(self, other: "Vec") -> Scalar:
        """Inner product for an orthonormal basis; bilinear (real scalars)."""
        if len(other.terms) < len(self.terms):
            self, other = other, self
        acc = ZERO
        for k, c in self.terms.items():
            d = other.terms.get(k)
            if d is not None:
                acc = acc + c * d
        return acc

    def max_abs(self) -> Scalar:
        best = ZERO
        for c in self.terms.values():
            a = abs(c)
            if best < a:
                best = a
        return best


_new = object.__new__


def _vec(terms: dict) -> Vec:
    """Trusted constructor: ``terms`` already holds no zero coefficient."""
    v = _new(Vec)
    v.terms = terms
    return v


def add_to(out: dict, key: Key, c: Scalar) -> None:
    """Accumulate ``c`` at ``key``, dropping the key when the sum cancels."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def vec_sum(vs: Iterable[Vec]) -> Vec:
    """Sum of the vectors, accumulated into one dict in one pass."""
    out: dict = {}
    for v in vs:
        for k, c in v.terms.items():
            add_to(out, k, c)
    return _vec(out)


def adjoint_residual(a: Callable[[Vec], Vec], b: Callable[[Vec], Vec], vs: Iterable[Vec]) -> Scalar:
    """max over pairs (v, w) of |<a v, w> - <v, b w>|.

    Zero iff ``b`` acts as the adjoint of ``a`` on the span of the
    sample vectors.
    """
    vs = list(vs)
    avs = [a(v) for v in vs]
    bws = [b(w) for w in vs]
    best = ZERO
    for av, v in zip(avs, vs):
        for w, bw in zip(vs, bws):
            r = abs(av.inner(w) - v.inner(bw))
            if best < r:
                best = r
    return best


class ExactMatrix:
    """Rectangular matrix of scalars with sparse rows.

    Rank and nullspace are computed by exact Gauss-Jordan elimination;
    the pivot in each row is its first (smallest-index) nonzero entry,
    rows are consumed in their given order, so the result is
    deterministic.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[dict[int, Scalar]], ncols: int):
        self.rows = rows
        self.ncols = ncols

    def _reduce(self) -> dict[int, dict[int, Scalar]]:
        """Reduced row echelon form, as pivot column -> row.

        Each row has a leading 1 at its pivot column and no entry at any
        other pivot column; ``nullspace`` reads the kernel off that.
        """
        pivots: dict[int, dict[int, Scalar]] = {}
        for row in self.rows:
            r = dict(row)
            # the pivot rows are reduced, so clearing one pivot column
            # brings in no other
            for p in [j for j in r if j in pivots]:
                f = r.pop(p)
                for j, c in pivots[p].items():
                    if j != p:
                        add_to(r, j, -(f * c))
            if not r:
                continue
            lead = min(r)
            inv = r[lead].inverse()
            r = {j: c * inv for j, c in r.items()}
            for other in pivots.values():
                f = other.get(lead)
                if f is not None:
                    for j, c in r.items():
                        add_to(other, j, -(f * c))
            pivots[lead] = r
        return pivots

    def rank(self) -> int:
        return len(self._reduce())

    def nullspace(self) -> list[Vec]:
        """Exact basis of the right kernel, one vector per free column."""
        pivots = self._reduce()
        free = [j for j in range(self.ncols) if j not in pivots]
        basis = []
        for f in free:
            terms: dict[int, Scalar] = {f: ONE}
            for p, row in pivots.items():
                c = row.get(f)
                if c is not None:
                    terms[p] = -c
            basis.append(Vec(terms))
        return basis


def span_rank(vectors: list[Vec]) -> int:
    """Rank of the span of sparse vectors over an arbitrary key set."""
    keys = sorted({k for v in vectors for k in v.terms}, key=_key_order)
    index = {k: i for i, k in enumerate(keys)}
    rows = [{index[k]: c for k, c in v.terms.items()} for v in vectors]
    return ExactMatrix(rows, len(keys)).rank()


def spans_equal(a: list[Vec], b: list[Vec]) -> bool:
    ra = span_rank(a)
    rb = span_rank(b)
    return ra == rb == span_rank(a + b)
