"""Byte-identity gate: every ``verify`` report matches a recorded digest.

The digests are the SHA-256 of the JSON report of each suite, recorded
from the code before the integer fast path in ``Scalar`` and the trusted
state constructors went in.  Flags are those of the benchmark's
verify-suites workload: ``--max-index 2`` for the suites whose cost grows
fastest with it, ``--seed 1`` for the seeded ones, defaults otherwise.
A change that alters any report byte, even in a field's rendering, fails
here.

``REPORTS`` gates the invariant path beyond the trunc-2 ``kernel`` suite:
the ``spectrum`` and ``invariants`` reports at trunc 3 (and ``invariants``
at trunc 2), recorded before the constraint matrix was restricted to the
weight-zero states.
"""

import hashlib

import pytest

from gdirac.cli import main
from gdirac.suites import SUITES

GOLDEN = {
    "car": ([], "7fdf140bd7a060e735db0dee9765d500933e895f0749c66f1bb0305b27548b42"),
    "casimir": (["--max-index", "2"], "e43e8dee0d99990389e88ce824d6fdb304c7acdeac006f3eec65ffcb7d23ab52"),
    "clifford": (["--max-index", "2"], "9950779e7fe9a9774b609d6d0c898a3a0b0a068a4ad86fecfe93d1ab96373c5b"),
    "cocycle": (["--max-index", "2"], "aa5f99237a874c4cfd5d8c23ce3f423625f7f490b1337bc4d5cf0f0f749cdfd4"),
    "dirac-equivariance": ([], "cc4a40e8a6fb922c1b62a4b60d316ae912424aebf7672b88c5176f1dd478719e"),
    "dirac-symmetry": (["--seed", "1"], "3bb901defaffc20bfdaf8679c6bab383d802182c9893d1e057bd5880c1667029"),
    "heisenberg": ([], "b2fb2a5d068cf6c00da738e16b81184027e28424cc5d6b4f90b5eb0dc3f72cf8"),
    "k-family": (["--max-index", "2"], "c0a76b2539a152908963fa5b2a53cfe6ab81e78004521d2355107b4af2561e59"),
    "kernel": ([], "1bd9412024e28745e2af6e4f357fd63bf84c63dc216bc09b37d9cfac599ee6e3"),
    "square-final": ([], "2c8aed175e9f3d7be5451369436bf32b0802f8db62419f64030a2ed64790705e"),
    "square-hk": (["--seed", "1"], "ef74171c9de1b51c20ab81789e35808b2e20aa86c7063c8931c615421364b092"),
    "square-raw": (["--seed", "1"], "dedf4ba5b56bd9da868b0860ff86e601abb933227fe9dff375d84a9fc38089d1"),
}

REPORTS = {
    "spectrum trunc 3": (
        ["spectrum", "--trunc", "3", "--degree", "2"],
        "6603d3105966c5e083d100650e79b1aac674b0e34da2a357c2b2cf75ed603379",
    ),
    "invariants trunc 3": (
        ["invariants", "--trunc", "3", "--degree", "2"],
        "b16c8e016526c9a98cd241052d98686bc19a2334b78a73b041520e88ca8cd928",
    ),
    "invariants trunc 2": (
        ["invariants", "--trunc", "2", "--degree", "2"],
        "cee5d8bf123c814f7f24761841f86c9cf4e285ccf575a694ea52e95208b5796f",
    ),
}


def test_golden_covers_every_suite():
    assert set(GOLDEN) == set(SUITES)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_report_bytes(capsys, name):
    flags, digest = GOLDEN[name]
    assert main(["verify", name, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(capsys, name):
    args, digest = REPORTS[name]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
