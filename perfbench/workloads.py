"""The benchmark's workloads: inputs made from a seed, timed items, checks.

A workload is built by ``make(g, seed)``, where ``g`` holds the imported
gdirac modules.  It returns a list of passes, each a list of ``Item``s.
All inputs (argument lists, seeded vectors, block orders) are generated
there, before any timing starts; an item's ``run`` only calls the library.

Every item is checked after it ran.  ``facts`` tests what holds for any
seed; ``canonical`` renders the output as text whose SHA-256 is compared
with ``expected.json`` whenever that table has the item's key.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from typing import Callable, NamedTuple


class Item(NamedTuple):
    key: str  # names every input of the item; the digest table is keyed by it
    run: Callable[[], object]
    facts: Callable[[object], bool]
    canonical: Callable[[object], str]


# -- verify-suites --------------------------------------------------------

# Every suite runs at its CLI defaults except these, whose cost grows
# fastest with --max-index (at 3 they take 1.3-3.1 s each, which would
# leave too few passes in a run).
VERIFY_MAX_INDEX = {"clifford": 2, "cocycle": 2, "k-family": 2, "casimir": 2}
# Suites whose report depends on --seed; the others run without the flag.
VERIFY_SEEDED = ("dirac-symmetry", "square-raw", "square-hk")


def _run_cli(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _suite_passed(out) -> bool:
    code, text = out
    report = json.loads(text)
    return code == 0 and report["failures"] == 0 and all(c["pass"] for c in report["checks"])


def verify_suites(g, seed: int) -> list[list[Item]]:
    items = []
    for name in g.suites.SUITES:
        argv = ["verify", name]
        if name in VERIFY_MAX_INDEX:
            argv += ["--max-index", str(VERIFY_MAX_INDEX[name])]
        if name in VERIFY_SEEDED:
            argv += ["--seed", str(seed)]
        items.append(Item(" ".join(argv), lambda a=argv: _run_cli(g.cli.main, a), _suite_passed, lambda out: out[1]))
    return [items]


# -- dirac-square -----------------------------------------------------------

SQUARE_BOUND = 4  # support bound of the input vectors, also the cut-off N
SQUARE_TERMS = 8
SQUARE_BATCH = 12  # vectors per pass
SQUARE_BATCHES = 16  # distinct passes; a run walks through them in order


def _square_chain(dr, n: int, v):
    d1 = dr.dirac_apply(v)
    d2 = dr.dirac_apply(d1)
    c1 = dr.dirac_cutoff_apply(n, v)
    c2 = dr.dirac_cutoff_apply(n, c1)
    raw = dr.square_identity_residual(n, "raw", v)
    hk = dr.square_identity_residual(n, "hk", v)
    return d1, d2, c1, c2, raw, hk


def _square_holds(out) -> bool:
    # N bounds v, so the cut-off operator equals the exact one on v and Dv.
    d1, d2, c1, c2, raw, hk = out
    return d1 == c1 and d2 == c2 and not raw and not hk


def dirac_square(g, seed: int) -> list[list[Item]]:
    dr, ser = g.dirac, g.serialize

    def text(out) -> str:
        d1, d2, _, _, raw, hk = out
        return ser.dumps({"D": ser.vec_to_json(d1), "D2": ser.vec_to_json(d2), "raw": str(raw), "hk": str(hk)})

    stream = g.rng.SplitMix64(seed)
    passes = []
    for _ in range(SQUARE_BATCHES):
        batch = []
        for _ in range(SQUARE_BATCH):
            vseed = stream.next_u64()
            v = g.sampling.random_vector("tensor", vseed, SQUARE_BOUND, terms=SQUARE_TERMS, nonzero=True)
            key = f"tensor bound={SQUARE_BOUND} terms={SQUARE_TERMS} seed={vseed}"
            batch.append(Item(key, lambda v=v: _square_chain(dr, SQUARE_BOUND, v), _square_holds, text))
        passes.append(batch)
    return passes


# -- invariant-spectrum -----------------------------------------------------

SPECTRUM_TRUNC = 3
SPECTRUM_DEGREE = 2


def invariant_spectrum(g, seed: int) -> list[list[Item]]:
    dr, ser = g.dirac, g.serialize
    n = SPECTRUM_TRUNC
    blocks = [(m, k) for m in range(SPECTRUM_DEGREE + 1) for k in range(SPECTRUM_DEGREE + 1)]
    # The seed only orders the blocks: each is computed on its own, so the
    # order must not change any output.
    stream = g.rng.SplitMix64(seed)
    for i in range(len(blocks) - 1, 0, -1):
        j = stream.pick(i + 1)
        blocks[i], blocks[j] = blocks[j], blocks[i]

    def kernel_is_vacuum(report) -> bool:
        return report["kernel_dim"] == 1 and len(report["blocks"]) == len(blocks)

    def block_holds(blk) -> bool:
        eig = Fraction(blk.pairs + blk.spin_length, 2)
        return blk.eigenvalue == eig and not any(dr.invariance_residual(v, n + 1) for v in blk.basis)

    def block_text(blk) -> str:
        basis = [ser.vec_to_json(v) for v in blk.basis]
        return ser.dumps({"M": blk.pairs, "k": blk.spin_length, "eig": str(blk.eigenvalue), "basis": basis})

    items = [Item(f"spectrum_report trunc={n} degree={SPECTRUM_DEGREE}",
                  lambda: dr.spectrum_report(n, SPECTRUM_DEGREE), kernel_is_vacuum, ser.dumps)]
    items += [Item(f"invariant_basis trunc={n} M={m} k={k}",
                   lambda m=m, k=k: dr.invariant_basis(n, m, k), block_holds, block_text) for m, k in blocks]
    items += [Item(f"constraint_window_robust trunc={n} M={m} k={k}",
                   lambda m=m, k=k: dr.constraint_window_robust(n, m, k), lambda ok: ok is True, str)
              for m, k in blocks]
    return [items]


WORKLOADS = {
    "verify-suites": verify_suites,
    "dirac-square": dirac_square,
    "invariant-spectrum": invariant_spectrum,
}
