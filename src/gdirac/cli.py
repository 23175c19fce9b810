"""Command line front end: verify / spectrum / invariants / bench / dump-op.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Reports are byte-deterministic for fixed flags and seed, except
for the wall-time column of `bench`, which is informational.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from dataclasses import dataclass

from . import casimir as cas
from . import dirac as dr
from . import fock as fk
from . import spinor as sp
from .linalg import Vec
from .sampling import random_vector
from .serialize import dumps, scalar_to_csv, state_label, vec_to_json
from .suites import SUITES, run_suite

SCHEMA = "gdirac/1"

_CONFIG_KEYS = {"max-index", "trunc", "degree", "seed", "format", "out", "suite"}

# Largest basis dump-op enumerates; its matrix is dense, N x N.
MAX_DUMP_STATES = 1024
_DUMP_BASES = {"fock": fk.fock_basis, "spin": sp.spin_basis, "tensor": dr.tensor_states}
# Most work one pass over the invariant blocks may take (``block_work``).
MAX_BLOCK_WORK = 1 << 20


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


def _config_of(args, **overrides) -> RunConfig:
    fields = {}
    for name in ("suite", "max_index", "trunc", "degree", "seed", "out", "fmt"):
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    fields.update(overrides)
    return RunConfig(**fields)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Apply config-file defaults; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    conf = _load_config(args.config)
    mapping = {
        "max-index": ("max_index", int),
        "trunc": ("trunc", int),
        "degree": ("degree", int),
        "seed": ("seed", int),
        "format": ("fmt", str),
        "out": ("out", str),
        "suite": ("suite", str),
    }
    for key, value in conf.items():
        attr, conv = mapping[key]
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
    cfg = _config_of(args, trunc=args.trunc if args.trunc is not None else (2 if name == "kernel" else 3))
    params = {"max_index": cfg.max_index, "seed": cfg.seed}
    if name in ("square-raw", "square-hk", "square-final"):
        params = {"trunc": cfg.trunc, "seed": cfg.seed}
    if name == "kernel":
        _check_block_work("verify kernel", cfg)
        params = {"trunc": cfg.trunc, "degree": cfg.degree}
    report = run_suite(name, **params)
    payload = {"schema": SCHEMA, **report}
    if cfg.fmt == "json":
        _emit(dumps(payload), cfg.out)
    else:
        rows = [[c["check"], c["inputs"], c["residual"], str(c["pass"]).lower()] for c in report["checks"]]
        _emit(_csv_text(["check", "inputs", "residual", "pass"], rows), cfg.out)
    return 0 if report["failures"] == 0 else 1


def block_work(trunc: int, degree: int) -> int:
    """Closed-form work of one pass over the invariant blocks (M, k),
    M, k <= degree, at truncation ``trunc``.

    The weight-zero generator visits C(trunc, M)^2 Fock states per block,
    and the vacuum, the only weight-zero column, meets 2 (trunc + 1)^2
    constraint operators.  A degree past trunc stops the pass at the block
    (0, trunc + 1).  The sum stops once it passes ``MAX_BLOCK_WORK``, so a
    huge trunc costs no huge binomial.
    """
    work = 2 * (trunc + 1) ** 2
    if degree > trunc:
        return work + trunc + 1
    c = 1  # C(trunc, M)
    for m in range(degree + 1):
        work += (degree + 1) * c * c
        if work > MAX_BLOCK_WORK:
            break
        c = c * (trunc - m) // (m + 1)
    return work


def _check_block_work(command: str, cfg: RunConfig) -> None:
    """Refuse, before any state is enumerated, a pass past MAX_BLOCK_WORK."""
    work = block_work(cfg.trunc, cfg.degree)
    if work > MAX_BLOCK_WORK:
        raise UsageError(
            f"{command} at --trunc {cfg.trunc} --degree {cfg.degree} needs at least {work} "
            f"Fock-state visits and constraint operators per pass over the blocks; the limit is {MAX_BLOCK_WORK}"
        )


def cmd_spectrum(args) -> int:
    cfg = _config_of(args)
    _check_block_work("spectrum", cfg)
    report = dr.spectrum_report(cfg.trunc, cfg.degree)
    payload = {"schema": SCHEMA, **report}
    if cfg.fmt == "json":
        _emit(dumps(payload), cfg.out)
    else:
        rows = [[b["M"], b["k"], b["dim"], b["eig"]] for b in report["blocks"]]
        _emit(_csv_text(["M", "k", "dim", "eig"], rows), cfg.out)
    return 0


def cmd_invariants(args) -> int:
    cfg = _config_of(args)
    _check_block_work("invariants", cfg)
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
    payload = {"schema": SCHEMA, "trunc": cfg.trunc, "blocks": blocks}
    if cfg.fmt == "json":
        _emit(dumps(payload), cfg.out)
    else:
        rows = [[b["M"], b["k"], b["dim"], b["eig"]] for b in blocks]
        _emit(_csv_text(["M", "k", "dim", "eig"], rows), cfg.out)
    return 0


def cmd_bench(args) -> int:
    cfg = _config_of(args, trunc=args.trunc if args.trunc is not None else 4)
    rows = []
    for n in range(1, cfg.trunc + 1):
        v = random_vector("tensor", cfg.seed, n, terms=2 + 2 * n, nonzero=True)
        t0 = time.perf_counter()
        out = dr.dirac_cutoff_apply(n, v)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append({"N": n, "op": "dirac_cutoff", "support_in": len(v), "support_out": len(out), "ms": round(ms, 3)})
        w = random_vector("fock-include0", cfg.seed + 1, n, terms=2 + 2 * n, nonzero=True)
        t0 = time.perf_counter()
        out2 = cas.casimir_apply(cas.CasimirVariant(cas.NORMAL_N, n), w)
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append({"N": n, "op": "casimir_normal", "support_in": len(w), "support_out": len(out2), "ms": round(ms, 3)})
    payload = {"schema": SCHEMA, "seed": cfg.seed, "rows": rows}
    if cfg.fmt == "json":
        _emit(dumps(payload), cfg.out)
    else:
        table = [[r["N"], r["op"], r["support_in"], r["support_out"], r["ms"]] for r in rows]
        _emit(_csv_text(["N", "op", "support_in", "support_out", "ms"], table), cfg.out)
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
    """Resolve a descriptor to (basis space, vector operator)."""
    if ":" in descriptor:
        head, rest = descriptor.split(":", 1)
    else:
        head, rest = descriptor, ""
    if head == "rhat":
        p, q = _parse_indices(rest, 2)
        return "fock", lambda v: fk.rhat_apply(p, q, v)
    if head == "gamma":
        i, j = _parse_indices(rest, 2)
        return "spin", lambda v: sp.gamma_apply(i, j, v)
    if head == "ktilde":
        i, j = _parse_indices(rest, 2)
        return "spin", lambda v: sp.ktilde_exact_apply(i, j, v)
    if head == "fermion-number":
        return "spin", sp.fermion_number_apply
    if head in ("charge", "number"):
        return "fock", lambda v: fk.charge_number_apply(head, v)
    if head == "dirac":
        if not rest.startswith("N="):
            raise UsageError("dirac descriptor needs N=<cutoff>")
        n = int(rest[2:])
        return "tensor", lambda v: dr.dirac_cutoff_apply(n, v)
    raise UsageError(f"unknown operator descriptor {descriptor!r}")


def cmd_dump_op(args) -> int:
    cfg = _config_of(args, max_index=args.max_index if args.max_index is not None else 2)
    space, op = _dump_operator(args.descriptor)
    k = cfg.max_index
    # every basis has at least 2^K states, so a K past the limit's bit
    # length is refused before the closed form meets a huge exponent
    size = dump_basis_size(space, k) if k <= MAX_DUMP_STATES.bit_length() else None
    if size is None or size > MAX_DUMP_STATES:
        shown = size if size is not None else f"more than 2^{k}"
        raise UsageError(
            f"dump-op {args.descriptor} at --max-index {k} needs {shown} basis states; "
            f"the limit is {MAX_DUMP_STATES}"
        )
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

    p = sub.add_parser("bench", help="timings and support growth (informational)")
    common(p, trunc=True, seed=True)
    p.set_defaults(fn=cmd_bench)

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
