"""Tracing of the gdirac layers from outside the library.

``Tracer.install`` replaces public names of the library with wrappers and
``Tracer.remove`` puts the originals back.  A name can be bound in several
modules (``dirac`` imports ``rhat_state`` and ``k_family_apply`` by name,
``cli`` imports ``run_suite`` and ``dumps``), so every module binding of the
original object is replaced, not only the one in its home module.

Two kinds of wrapper:

* spans, for vector operators and everything above them: one record
  ``(name, start, end, parent, item)`` per call, kept in memory;
* counters only, for the state maps, the constructors and the scalar
  operations, which run about a million times per pass.

``time_metrics`` and ``counter_metrics`` turn the spans and counters of one
pass into the per-layer metrics; ``PER_LAYER`` lists them with their units.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# Vector operators: span, call count, mean support in and out.
VECTOR_OPS = (
    ("dirac", "dirac_apply"),
    ("dirac", "dirac_cutoff_apply"),
    ("dirac", "rho_apply"),
    ("casimir", "casimir_apply"),
    ("spinor", "k_family_apply"),
    ("spinor", "gamma_apply"),
    ("fock", "rhat_apply"),
)
# Basis-state maps: call count and share of calls with a nonzero result.
STATE_MAPS = (
    ("fock", "field_state"),
    ("fock", "rhat_state"),
    ("spinor", "mode_state"),
    ("spinor", "gamma_unit_state"),
    ("spinor", "ktilde_state_terms"),
)
# Composite calls traced as spans: (module, name, metric of their time).
COMPOSITES = (
    ("dirac", "spectrum_report", "dirac.spectrum_s"),
    ("dirac", "invariant_basis", "dirac.invariant_basis_s"),
    ("dirac", "constraint_window_robust", "dirac.window_robust_s"),
    ("dirac", "square_identity_residual", "dirac.square_residual_s"),
    ("suites", "run_suite", None),
    ("serialize", "dumps", "serialize.s"),
)

# Counters that must repeat exactly for a fixed seed (see ``--check-repeat``).
DETERMINISTIC_UNITS = ("count", "ratio", "terms", "bytes")

PER_LAYER: list[tuple[str, str]] = [
    ("suites.self_s", "s"),
    ("serialize.s", "s"),
    ("serialize.bytes", "bytes"),
    ("dirac.spectrum_s", "s"),
    ("dirac.invariant_basis_s", "s"),
    ("dirac.window_robust_s", "s"),
    ("dirac.square_residual_s", "s"),
    ("dirac.block_states", "count"),
    ("linalg.nullspace_s", "s"),
    ("linalg.matrix_rows", "count"),
    ("linalg.matrix_cols", "count"),
    ("linalg.matrix_nnz", "count"),
    ("linalg.rank", "count"),
    ("linalg.vec_new", "count"),
    ("linalg.vec_add", "count"),
    ("linalg.vec_support_mean", "terms"),
]
for _mod, _op in VECTOR_OPS:
    PER_LAYER += [
        (f"{_mod}.{_op}.calls", "count"),
        (f"{_mod}.{_op}.s", "s"),
        (f"{_mod}.{_op}.support_in", "terms"),
        (f"{_mod}.{_op}.support_out", "terms"),
    ]
for _mod, _fn in STATE_MAPS:
    PER_LAYER += [(f"{_mod}.{_fn}.calls", "count"), (f"{_mod}.{_fn}.hit_ratio", "ratio")]
PER_LAYER += [
    ("fock.FockState.new", "count"),
    ("spinor.SpinState.new", "count"),
    ("scalar.add", "count"),
    ("scalar.mul", "count"),
    ("scalar.integer_share", "ratio"),
    ("scalar.irrational_share", "ratio"),
    ("sampling.random_vector_s", "s"),
    ("setup.import_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _operand_kind(x) -> int:
    """0 for an integer, 1 for another rational, 2 for a nonzero sqrt2 part."""
    if isinstance(x, int):
        return 0
    if isinstance(x, Fraction):
        return 0 if x.denominator == 1 else 1
    if x.b:
        return 2
    return 0 if x.a.denominator == 1 else 1


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self, g):
        self.g = g
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, orig, new) -> None:
        """Replace every module-level binding of ``orig`` in the package."""
        for name, mod in list(sys.modules.items()):
            if name != "gdirac" and not name.startswith("gdirac."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)

    def install(self) -> None:
        g = self.g
        for mod, op in VECTOR_OPS:
            fn = getattr(getattr(g, mod), op)
            self._rebind(fn, self._span(f"{mod}.{op}", fn, self._count_supports))
        for mod, name, _ in COMPOSITES:
            fn = getattr(getattr(g, mod), name)
            self._rebind(fn, self._span(f"{mod}.{name}", fn, self._count_bytes if name == "dumps" else None))
        for mod, name in STATE_MAPS:
            fn = getattr(getattr(g, mod), name)
            self._rebind(fn, self._count_hits(f"{mod}.{name}", fn))
        block_states = g.dirac._block_states
        self._rebind(block_states, self._count_len("dirac.block_states", block_states))
        matrix = g.linalg.ExactMatrix
        self._set(matrix, "nullspace", self._elimination(matrix.nullspace, nullspace=True))
        self._set(matrix, "rank", self._elimination(matrix.rank, nullspace=False))
        self._count_vec(g.linalg.Vec)
        for cls, key in ((g.fock.FockState, "fock.FockState.new"), (g.spinor.SpinState, "spinor.SpinState.new")):
            self._set(cls, "__post_init__", self._count_calls(key, cls.__post_init__))
        scalar = g.scalar.Scalar  # scalar.add counts subtractions too
        for attr, key in (("__add__", "scalar.add"), ("__radd__", "scalar.add"), ("__sub__", "scalar.add"),
                          ("__mul__", "scalar.mul"), ("__rmul__", "scalar.mul")):
            self._set(scalar, attr, self._count_scalar(key, getattr(scalar, attr)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- wrappers ---------------------------------------------------------

    def _count_supports(self, name: str, args, out) -> None:
        self.counts[name + ".calls"] += 1
        self.counts[name + ".support_in"] += len(args[-1])
        self.counts[name + ".support_out"] += len(out)

    def _count_bytes(self, name: str, args, out) -> None:
        self.counts["serialize.bytes"] += len(out.encode())

    def _span(self, name: str, fn, count=None):
        """Record a span per call; ``count(name, args, out)`` adds counters."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, t0, perf_counter(), parent, self.item)
            if count is not None:
                count(name, args, out)
            return out

        return traced

    def _count_hits(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            out = fn(*args)
            counts[key + ".calls"] += 1
            if out:
                counts[key + ".hits"] += 1
            return out

        return counted

    def _count_len(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            out = fn(*args)
            counts[key] += len(out)
            return out

        return counted

    def _count_calls(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _elimination(self, fn, nullspace: bool):
        counts = self.counts
        span = self._span("linalg.nullspace" if nullspace else "linalg.rank", fn)

        def counted(matrix):
            counts["linalg.matrix_rows"] += len(matrix.rows)
            counts["linalg.matrix_cols"] += matrix.ncols
            counts["linalg.matrix_nnz"] += sum(len(r) for r in matrix.rows)
            out = span(matrix)
            counts["linalg.rank"] += matrix.ncols - len(out) if nullspace else out
            return out

        return counted

    def _count_vec(self, vec) -> None:
        counts = self.counts

        def made(v):
            counts["linalg.vec_new"] += 1
            counts["linalg.vec_support"] += len(v.terms)
            return v

        init, add, neg, scaled = vec.__init__, vec.__add__, vec.__neg__, vec.scaled

        def vec_init(self, terms=None):
            init(self, terms)
            made(self)

        def vec_add(self, other):
            counts["linalg.vec_add"] += 1
            return made(add(self, other))

        self._set(vec, "__init__", vec_init)
        self._set(vec, "__add__", vec_add)
        self._set(vec, "__neg__", lambda v: made(neg(v)))
        self._set(vec, "scaled", lambda v, c: made(scaled(v, c)))

    def _count_scalar(self, key: str, fn):
        counts = self.counts

        def counted(x, y):
            counts[key] += 1
            kind = max(_operand_kind(x), _operand_kind(y))
            if kind == 0:
                counts["scalar.integer_ops"] += 1
            elif kind == 2:
                counts["scalar.irrational_ops"] += 1
            return fn(x, y)

        return counted

    # -- per pass ---------------------------------------------------------

    def take_pass(self) -> tuple[list, Counter]:
        """Hand over the spans and counters of the pass just run and reset."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def span_times(spans: list) -> tuple[dict, dict]:
    """Inclusive and self time per span name.

    Self time is a span's duration minus the time covered by its child
    spans.  Inclusive time counts only the outermost span of a name, so
    nested calls of one name are not counted twice.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    inclusive: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        self_time[name] += t1 - t0 - child[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += t1 - t0
    return inclusive, self_time


def counter_metrics(counts: Counter) -> dict:
    """The deterministic per-layer metrics of one pass."""

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {name: counts[name] for name in (
        "serialize.bytes", "dirac.block_states", "linalg.matrix_rows", "linalg.matrix_cols",
        "linalg.matrix_nnz", "linalg.rank", "linalg.vec_new", "linalg.vec_add",
        "fock.FockState.new", "spinor.SpinState.new", "scalar.add", "scalar.mul",
    )}
    out["linalg.vec_support_mean"] = ratio("linalg.vec_support", "linalg.vec_new")
    for mod, op in VECTOR_OPS:
        key = f"{mod}.{op}"
        out[key + ".calls"] = counts[key + ".calls"]
        out[key + ".support_in"] = ratio(key + ".support_in", key + ".calls")
        out[key + ".support_out"] = ratio(key + ".support_out", key + ".calls")
    for mod, fn in STATE_MAPS:
        key = f"{mod}.{fn}"
        out[key + ".calls"] = counts[key + ".calls"]
        out[key + ".hit_ratio"] = ratio(key + ".hits", key + ".calls")
    ops = counts["scalar.add"] + counts["scalar.mul"]
    out["scalar.integer_share"] = counts["scalar.integer_ops"] / ops if ops else 0.0
    out["scalar.irrational_share"] = counts["scalar.irrational_ops"] / ops if ops else 0.0
    return out


def time_metrics(spans: list) -> dict:
    """The per-layer times of one pass, from its spans."""
    inclusive, self_time = span_times(spans)
    out = {metric: inclusive.get(f"{mod}.{name}", 0.0) for mod, name, metric in COMPOSITES if metric}
    out["suites.self_s"] = self_time.get("suites.run_suite", 0.0)
    # every exact elimination: nullspace() and rank() alike
    out["linalg.nullspace_s"] = inclusive.get("linalg.nullspace", 0.0) + inclusive.get("linalg.rank", 0.0)
    for mod, op in VECTOR_OPS:
        out[f"{mod}.{op}.s"] = inclusive.get(f"{mod}.{op}", 0.0)
    return out


def median_of(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
