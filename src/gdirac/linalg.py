"""Sparse vectors, exact matrices and nullspaces over Q(sqrt2).

The vectors are finite maps from totally ordered basis keys to nonzero
scalars; the matrices keep sparse rows and are reduced by exact Gaussian
elimination (Q(sqrt2) is a field, so no rounding ever occurs and the
returned basis is deterministic).

Every operator of the package is a signed basis-state map, or a sum of
them, extended linearly: ``lift`` and ``lift_sum`` do that extension,
and ``add_to`` is the one accumulate-and-drop step behind it.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .scalar import ONE, ZERO, RatLike, Scalar, _coerce

Key = Hashable


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


def lift_sum(v: Vec, state_map: Callable, arg_list: Sequence[tuple]) -> Vec:
    """sum over ``args`` in ``arg_list`` of ``state_map(*args, .)`` extended
    linearly to ``v``, in one pass.

    ``state_map(*args, state)`` returns ``(sign, state)`` with ``sign`` in
    {+1, -1}, or ``None`` when the image vanishes.
    """
    out: dict = {}
    for s, c in v.terms.items():
        for args in arg_list:
            t = state_map(*args, s)
            if t is not None:
                add_to(out, t[1], c if t[0] > 0 else -c)
    return _vec(out)


def lift(v: Vec, state_map: Callable, *args) -> Vec:
    """``state_map(*args, .)`` extended linearly to ``v``."""
    return lift_sum(v, state_map, (args,))


Operator = Callable[[Vec], Vec]


def adjoint_residual(a: Operator, b: Operator, vs: Iterable[Vec]) -> Scalar:
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

    @staticmethod
    def from_dense(rows: list[list[Scalar | RatLike]]) -> "ExactMatrix":
        ncols = len(rows[0]) if rows else 0
        out = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
            out.append({j: _coerce(x) for j, x in enumerate(row) if _coerce(x)})
        return ExactMatrix(out, ncols)

    def apply(self, xs: list[Scalar]) -> list[Scalar]:
        if len(xs) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = ZERO
            for j, c in row.items():
                acc = acc + c * xs[j]
            out.append(acc)
        return out

    def apply_vec(self, v: Vec) -> Vec:
        xs = [ZERO] * self.ncols
        for j, c in v.terms.items():
            if not (0 <= j < self.ncols):
                raise ValueError("dimension mismatch")
            xs[j] = c
        ys = self.apply(xs)
        return Vec({i: y for i, y in enumerate(ys)})

    def _reduce(self) -> dict[int, dict[int, Scalar]]:
        pivots: dict[int, dict[int, Scalar]] = {}
        for row in self.rows:
            r = dict(row)
            while r:
                lead = min(r)
                piv = pivots.get(lead)
                if piv is None:
                    inv = r[lead].inverse()
                    r = {j: c * inv for j, c in r.items()}
                    for other in pivots.values():
                        f = other.get(lead)
                        if f is not None:
                            for j, c in r.items():
                                add_to(other, j, -(f * c))
                    pivots[lead] = r
                    break
                f = r.pop(lead)
                for j, c in piv.items():
                    if j != lead:
                        add_to(r, j, -(f * c))
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
