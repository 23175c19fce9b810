"""Command line front end: verify / spectrum / invariants / dump-op.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Reports are byte-deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass

from . import dirac as dr
from . import fock as fk
from . import spinor as sp
from .linalg import Vec
from .serialize import dumps, scalar_to_csv, state_label, vec_to_json
from .suites import SUITES, run_suite

SCHEMA = "gdirac/1"

# Config-file keys: the RunConfig field each one sets and its type.
_CONFIG = {
    "max-index": ("max_index", int),
    "trunc": ("trunc", int),
    "degree": ("degree", int),
    "seed": ("seed", int),
    "format": ("fmt", str),
    "out": ("out", str),
    "suite": ("suite", str),
}

# Largest basis dump-op enumerates; its matrix is dense, N x N.
MAX_DUMP_STATES = 1024
_DUMP_BASES = {"fock": fk.fock_basis, "spin": sp.spin_basis, "tensor": dr.tensor_states}
# Most work one command may take, in the closed-form steps of
# ``block_work`` (spectrum, invariants, verify kernel) and of ``verify_work``.
MAX_WORK = 1 << 20


class UsageError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Resolved invocation parameters (flags win over the config file)."""

    suite: str | None = None
    max_index: int = 3
    trunc: int = 2
    degree: int = 2
    seed: int = 1
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.max_index < 1 or self.trunc < 1:
            raise UsageError("index and truncation bounds must be >= 1")
        if self.degree < 0:
            raise UsageError("degree bound must be >= 0")
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"unknown format {self.fmt!r}")


def _config_of(args, **defaults) -> RunConfig:
    """The given flags, over ``defaults``, over RunConfig's own defaults."""
    fields = dict(defaults)
    for name, _ in _CONFIG.values():
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    return RunConfig(**fields)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write(cfg: RunConfig, payload: dict, header: list[str], rows: list[list]) -> None:
    """Emit ``payload`` as a JSON report, or ``rows`` under ``header`` as CSV."""
    if cfg.fmt == "json":
        text = dumps({"schema": SCHEMA, **payload})
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, cfg.out)


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Apply config-file defaults; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    for key, value in _load_config(args.config).items():
        attr, conv = _CONFIG[key]
        if getattr(args, attr, None) is None and hasattr(args, attr):
            setattr(args, attr, conv(value))
    return args


def cmd_verify(args) -> int:
    if getattr(args, "suite_flag", None):
        args.suite = args.suite_flag
    name = args.suite
    if name is None:
        raise UsageError("no suite given (positional, --suite, or config file)")
    if name not in SUITES:
        raise UsageError(
            f"unknown suite {name!r}; valid: {', '.join(sorted(SUITES))}"
        )
    cfg = _config_of(args, trunc=3 if name.startswith("square") else 2)
    flags = f"--max-index {cfg.max_index} --trunc {cfg.trunc} --degree {cfg.degree}"
    _check_work(f"verify {name} at {flags}", verify_work(name, cfg))
    report = run_suite(name, max_index=cfg.max_index, trunc=cfg.trunc, degree=cfg.degree, seed=cfg.seed)
    rows = [[c["check"], c["inputs"], c["residual"], str(c["pass"]).lower()] for c in report["checks"]]
    _write(cfg, report, ["check", "inputs", "residual", "pass"], rows)
    return 0 if report["failures"] == 0 else 1


def block_work(trunc: int, degree: int) -> int:
    """Closed-form work of one pass over the invariant blocks (M, k),
    M, k <= degree, at truncation ``trunc``.

    The weight-zero generator visits C(trunc, M)^2 Fock states per block,
    and the vacuum, the only weight-zero column, meets 2 (trunc + 1)^2
    constraint operators.  A degree past trunc stops the pass at the block
    (0, trunc + 1).  The sum stops once it passes ``MAX_WORK``, so a huge
    trunc costs no huge binomial.
    """
    work = 2 * (trunc + 1) ** 2
    if degree > trunc:
        return work + trunc + 1
    c = 1  # C(trunc, M)
    for m in range(degree + 1):
        work += (degree + 1) * c * c
        if work > MAX_WORK:
            break
        c = c * (trunc - m) // (m + 1)
    return work


def verify_work(name: str, cfg: RunConfig) -> int:
    """Closed-form size of the largest loop of a ``verify`` suite, at
    K = --max-index and N = --trunc + 1: its domain (index tuples times
    basis states or seeded vectors) times the operator applications, or
    window terms of a windowed sum, that each point costs.

    Basis sizes are ``dump_basis_size`` at min(K, 21).  Every estimate
    grows with K and is past ``MAX_WORK`` at K = 21, so a larger K is
    refused without building a huge power.
    """
    k, n = cfg.max_index, cfg.trunc + 1
    fock, spin = (dump_basis_size(space, min(k, MAX_WORK.bit_length())) for space in ("fock", "spin"))
    return {
        # (2K)^2 index pairs x 4^K states x 12 field operators
        "car": 48 * k * k * fock,
        # (2K^2)^2 generator pairs x 2^(K^2) states x 2 products
        "clifford": 8 * k**4 * spin,
        # (2K)^4 unit pairs x 4^K states x 4 r-hats
        "cocycle": 64 * k**4 * fock,
        # (2K^2)^2 index pairs x 26 vectors x 4 terms x K+1 window terms
        "k-family": 416 * k**4 * (k + 1),
        # 2^(K^2) states x 2K K~ operators x 2K window terms
        "casimir": 4 * k * k * spin,
        # (2K)^2 shift pairs x 8 states x 4 shifts x 8K+1 window terms
        "heisenberg": 128 * k * k * (8 * k + 1),
        # 200 seeded vectors x 4 terms x 2K^2 index pairs
        "dirac-symmetry": 1600 * k * k,
        # 5 seeded vectors x 2K^2 pairs x 8K^2 image terms x K modes
        "dirac-equivariance": 80 * k**5,
        # 10 residuals x (2N^2)^2 window quadruples
        "square-raw": 40 * n**4,
        "square-hk": 40 * n**4,
        # cut-off fermion number: 2N K-sums x N terms on N^2-bit spin masks
        "square-final": 2 * n**3,
        # the spectrum pass, two more windows and the diagonal Casimir
        "kernel": 4 * block_work(cfg.trunc, cfg.degree),
    }[name]


def _check_work(command: str, work: int) -> None:
    """Refuse, before any state is enumerated, a command past MAX_WORK."""
    if work > MAX_WORK:
        raise UsageError(f"{command} needs at least {work} steps of work; the limit is {MAX_WORK}")


_BLOCK_COLUMNS = ["M", "k", "dim", "eig"]


def cmd_spectrum(args) -> int:
    cfg = _config_of(args)
    _check_work(f"spectrum at --trunc {cfg.trunc} --degree {cfg.degree}", block_work(cfg.trunc, cfg.degree))
    report = dr.spectrum_report(cfg.trunc, cfg.degree)
    _write(cfg, report, _BLOCK_COLUMNS, [[b[c] for c in _BLOCK_COLUMNS] for b in report["blocks"]])
    return 0


def cmd_invariants(args) -> int:
    cfg = _config_of(args)
    _check_work(f"invariants at --trunc {cfg.trunc} --degree {cfg.degree}", block_work(cfg.trunc, cfg.degree))
    blocks = []
    for pairs in range(cfg.degree + 1):
        for k in range(cfg.degree + 1):
            blk = dr.invariant_basis(cfg.trunc, pairs, k)
            blocks.append(
                {
                    "M": pairs,
                    "k": k,
                    "dim": blk.dim,
                    "eig": str(blk.eigenvalue),
                    "basis": [vec_to_json(v) for v in blk.basis],
                }
            )
    _write(cfg, {"trunc": cfg.trunc, "blocks": blocks}, _BLOCK_COLUMNS, [[b[c] for c in _BLOCK_COLUMNS] for b in blocks])
    return 0


def _parse_indices(text: str, arity: int) -> list[int]:
    parts = text.split(",")
    if len(parts) != arity:
        raise UsageError(f"expected {arity} comma-separated indices, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad index in {text!r}") from exc


def dump_basis_size(space: str, max_index: int) -> int:
    """Closed-form size of a dump-op basis: 4^K Fock states, 2^(K^2)
    spin states, C(2K, K) 2^(K^2) charge-0 tensor states."""
    if space == "fock":
        return 4**max_index
    spin = 2 ** (max_index * max_index)
    return spin if space == "spin" else math.comb(2 * max_index, max_index) * spin


def _dump_operator(descriptor: str):
    """Resolve a descriptor to (basis space, vector operator, window terms
    per basis state)."""
    if ":" in descriptor:
        head, rest = descriptor.split(":", 1)
    else:
        head, rest = descriptor, ""
    if head == "rhat":
        p, q = _parse_indices(rest, 2)
        return "fock", lambda v: fk.rhat_apply(p, q, v), 1
    if head == "gamma":
        i, j = _parse_indices(rest, 2)
        return "spin", lambda v: sp.gamma_apply(i, j, v), 1
    if head == "ktilde":
        i, j = _parse_indices(rest, 2)
        return "spin", lambda v: sp.ktilde_exact_apply(i, j, v), 1
    if head == "fermion-number":
        return "spin", sp.fermion_number_apply, 1
    if head in ("charge", "number"):
        return "fock", lambda v: fk.charge_number_apply(head, v), 1
    if head == "dirac":
        if not rest.startswith("N="):
            raise UsageError("dirac descriptor needs N=<cutoff>")
        n = int(rest[2:])
        if n < 0:
            raise UsageError("dirac cut-off N must be >= 0")
        return "tensor", lambda v: dr.dirac_cutoff_apply(n, v), 2 * n * n
    raise UsageError(f"unknown operator descriptor {descriptor!r}")


def cmd_dump_op(args) -> int:
    cfg = _config_of(args, max_index=2)
    space, op, terms = _dump_operator(args.descriptor)
    k = cfg.max_index
    # every basis has at least 2^K states, so a K past the limit's bit
    # length is refused before the closed form meets a huge exponent
    size = dump_basis_size(space, k) if k <= MAX_DUMP_STATES.bit_length() else None
    command = f"dump-op {args.descriptor} at --max-index {k}"
    if size is None or size > MAX_DUMP_STATES:
        shown = size if size is not None else f"more than 2^{k}"
        raise UsageError(f"{command} needs {shown} basis states; the limit is {MAX_DUMP_STATES}")
    _check_work(command, terms * size)
    basis = _DUMP_BASES[space](k)
    columns = []
    for state in basis:
        img = op(Vec.basis(state))
        columns.append([img.coeff(row) for row in basis])
    matrix = [[scalar_to_csv(columns[c][r]) for c in range(len(basis))] for r in range(len(basis))]
    if cfg.fmt == "json":
        payload = {
            "schema": SCHEMA,
            "op": args.descriptor,
            "max_index": cfg.max_index,
            "basis": [state_label(s) for s in basis],
            "matrix": matrix,
        }
        _emit(dumps(payload), cfg.out)
    else:
        lines = [
            f"# op={args.descriptor} max_index={cfg.max_index}",
            "# basis=" + ";".join(state_label(s) for s in basis),
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in matrix:
            writer.writerow(row)
        _emit("\n".join(lines) + "\n" + buf.getvalue(), cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdirac",
        description="Exact verification suites and reports for the fermionic "
        "operator algebra (field operators, Clifford quadratics, normal-ordered "
        "Casimirs, the Dirac-type operator and its square).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, trunc=False, degree=False, seed=False, max_index=False):
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--config", default=None, help="key=value config file; flags win")
        if max_index:
            p.add_argument("--max-index", dest="max_index", type=int, default=None)
        if trunc:
            p.add_argument("--trunc", type=int, default=None)
        if degree:
            p.add_argument("--degree", type=int, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser(
        "verify",
        help="run one named identity suite",
        description="Suites: "
        "car (field-operator anticommutators), clifford (spinor generators), "
        "cocycle (central extensions of the quadratic representations), "
        "k-family (cut-off isotropy quadratics), casimir (eigenvalue laws), "
        "heisenberg (shift operators), dirac-symmetry, dirac-equivariance, "
        "square-raw / square-hk / square-final (square identities), "
        "kernel (invariant blocks and spectrum).",
    )
    p.add_argument("suite", nargs="?", default=None, help="suite name")
    p.add_argument("--suite", dest="suite_flag", default=None, help="suite name (flag form)")
    common(p, trunc=True, degree=True, seed=True, max_index=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="block dimensions and exact eigenvalues")
    common(p, trunc=True, degree=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("invariants", help="invariant-sector bases per block")
    common(p, trunc=True, degree=True)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("dump-op", help="exact matrix of an operator on a bounded basis")
    p.add_argument(
        "descriptor",
        help="rhat:p,q | gamma:i,j | ktilde:i,j | fermion-number | charge | number | dirac:N=K",
    )
    common(p, max_index=True)
    p.set_defaults(fn=cmd_dump_op)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args = _resolve(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a failed spectrum certificate (spectrum, verify kernel)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
