"""Command-line integration: exit codes, determinism, report shapes."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gdirac import cli, dirac, words
from gdirac.cli import MAX_DUMP_STATES, MAX_WORK, RunConfig, block_work, dump_basis_size, main, verify_work
from gdirac.dirac import tensor_states
from gdirac.fock import fock_basis
from gdirac.spinor import spin_basis
from gdirac.suites import SUITES

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_success_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "car", "--max-index", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "gdirac/1"
    assert report["suite"] == "car"
    assert report["failures"] == 0
    assert all(set(c) == {"check", "inputs", "residual", "pass"} for c in report["checks"])


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_passes_at_the_smallest_bounds(capsys, name):
    code, out, err = run_cli(capsys, "verify", name, "--max-index", "1", "--trunc", "1", "--degree", "0")
    assert code == 0, err
    assert json.loads(out)["failures"] == 0


def test_unknown_suite_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_bad_flag_exit_two(capsys):
    assert main(["verify", "car", "--bogus"]) == 2


def test_bad_bounds_exit_two(capsys):
    assert main(["verify", "car", "--max-index", "0"]) == 2
    assert main(["spectrum", "--trunc", "0"]) == 2
    assert main(["verify", "car", "--format", "xml"]) == 2


def test_suite_flag_form(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "car", "--max-index", "1")
    assert code == 0
    assert json.loads(out)["suite"] == "car"


def test_verify_kernel_reports_kernel_dim(capsys):
    code, out, _ = run_cli(capsys, "verify", "kernel", "--trunc", "2", "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    checks = {c["check"]: c for c in report["checks"]}
    assert checks["kernel.dimension"]["pass"]


def test_verify_square_final(capsys):
    code, out, _ = run_cli(capsys, "verify", "square-final", "--trunc", "3")
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0
    (check,) = [c for c in report["checks"] if c["check"] == "square.final"]
    assert check["residual"] == "0"


def test_reports_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "cocycle", "--max-index", "2")
    _, out2, _ = run_cli(capsys, "verify", "cocycle", "--max-index", "2")
    assert out1 == out2
    _, s1, _ = run_cli(capsys, "spectrum", "--trunc", "2", "--degree", "1")
    _, s2, _ = run_cli(capsys, "spectrum", "--trunc", "2", "--degree", "1")
    assert s1 == s2


def test_spectrum_csv_kernel_row(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--trunc", "2", "--degree", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "M,k,dim,eig"
    assert lines[1] == "0,0,1,0"
    assert "1,1,0,1" in lines


def test_spectrum_json_schema(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--trunc", "2", "--degree", "2")
    report = json.loads(out)
    assert report["kernel_dim"] == 1
    assert {"M": 0, "k": 0, "dim": 1, "eig": "0"} in report["blocks"]


def test_invariants_report(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--trunc", "2", "--degree", "1")
    assert code == 0
    report = json.loads(out)
    blocks = {(b["M"], b["k"]): b for b in report["blocks"]}
    assert blocks[(0, 0)]["dim"] == 1
    [vec] = blocks[(0, 0)]["basis"]
    assert vec[0]["state"]["fock"] == {"plus": [], "minus": []}


def test_dump_op_rhat_diagonal(capsys):
    code, out, _ = run_cli(capsys, "dump-op", "rhat:1,1", "--max-index", "1", "--format", "csv")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    # diagonal 0/1 matrix marking occupancy of particle 1
    assert rows == ["0,0,0,0", "0,0,0,0", "0,0,1,0", "0,0,0,1"]


def test_dump_op_gamma_entries(capsys):
    code, out, _ = run_cli(capsys, "dump-op", "gamma:1,-1", "--max-index", "1", "--format", "csv")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    cells = {cell for row in rows for cell in row.split(",")}
    assert cells == {"0", "0+1√2"}


def test_dump_op_deterministic_file(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, "dump-op", "ktilde:1,1", "--max-index", "2", "--format", "csv", "--out", str(f1))[0] == 0
    assert run_cli(capsys, "dump-op", "ktilde:1,1", "--max-index", "2", "--format", "csv", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_dump_op_unknown_descriptor(capsys):
    code, _, err = run_cli(capsys, "dump-op", "bogus:1,1")
    assert code == 2
    assert "descriptor" in err


def test_dump_basis_size_closed_form():
    for k in (1, 2):
        assert dump_basis_size("fock", k) == len(fock_basis(k))
        assert dump_basis_size("spin", k) == len(spin_basis(k))
        assert dump_basis_size("tensor", k) == len(tensor_states(k))
    assert dump_basis_size("spin", 4) == 65536


@pytest.mark.parametrize(
    "descriptor, max_index, shown",
    [
        ("gamma:1,-1", "4", "65536"),
        ("rhat:1,1", "6", "4096"),
        ("dirac:N=3", "3", "10240"),
        ("gamma:1,-1", "1000000", "more than 2^1000000"),
    ],
)
def test_dump_op_oversized_basis_exit_two(capsys, descriptor, max_index, shown):
    # refused from the closed form, before any state is enumerated
    code, out, err = run_cli(capsys, "dump-op", descriptor, "--max-index", max_index)
    assert code == 2
    assert out == ""
    assert f"needs {shown} basis states" in err
    assert str(MAX_DUMP_STATES) in err


def _count_block_steps(monkeypatch) -> dict:
    """Count the weight-zero generator calls and the rho images functions
    built (``dirac._rho_images``, one per rho operator applied)."""
    calls = {"blocks": 0, "rho": 0}
    block_states, rho_images = dirac._block_states, dirac._rho_images

    def counted_block_states(n, pairs, spin_length):
        calls["blocks"] += 1
        return block_states(n, pairs, spin_length)

    def counted_rho(p, q):
        calls["rho"] += 1
        return rho_images(p, q)

    monkeypatch.setattr(dirac, "_block_states", counted_block_states)
    monkeypatch.setattr(dirac, "_rho_images", counted_rho)
    return calls


def test_block_work_counts_one_pass(monkeypatch):
    # one weight-zero generator call per block, and one rho images
    # function per constraint operator met by the vacuum, the one column
    calls = _count_block_steps(monkeypatch)
    for trunc in range(1, 5):
        for degree in range(trunc + 1):
            calls.update(blocks=0, rho=0)
            dirac.spectrum_report(trunc, degree)
            assert block_work(trunc, degree) == calls["blocks"] + calls["rho"], (trunc, degree)


def test_kernel_work_counts_every_pass(monkeypatch):
    # the spectrum, both robustness windows, the invariant bases again and
    # the diagonal Casimir on them: 10 (T+1)^2 + 2 (T+2)^2 rho images
    # functions
    calls = _count_block_steps(monkeypatch)
    for trunc in range(1, 6):
        for degree in range(trunc + 1):
            calls.update(blocks=0, rho=0)
            assert SUITES["kernel"](trunc=trunc, degree=degree)["failures"] == 0
            assert calls["rho"] == 10 * (trunc + 1) ** 2 + 2 * (trunc + 2) ** 2
            cfg = RunConfig(trunc=trunc, degree=degree)
            assert verify_work("kernel", cfg) == calls["blocks"] + calls["rho"], (trunc, degree)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--trunc", "1000000"],
    ["invariants", "--trunc", "1000000"],
    ["verify", "kernel", "--trunc", "1000000"],
    ["spectrum", "--trunc", "724", "--degree", "2"],
])
def test_trunc_past_the_block_work_limit_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert str(MAX_WORK) in err and "needs at least" in err


def test_block_work_caps():
    # the largest --trunc accepted at degree 2 and at degree = trunc, for
    # spectrum / invariants and for verify kernel (every pass it makes)
    assert block_work(723, 2) <= MAX_WORK < block_work(724, 2)
    assert block_work(590, 590) <= MAX_WORK < block_work(591, 591)

    def kernel(trunc, degree):
        return verify_work("kernel", RunConfig(trunc=trunc, degree=degree))

    assert kernel(294, 2) <= MAX_WORK < kernel(295, 2)
    assert kernel(254, 254) <= MAX_WORK < kernel(255, 255)


@pytest.mark.parametrize("argv", [["spectrum"], ["invariants"], ["verify", "kernel"]])
def test_degree_past_trunc_exits_two_before_any_block(capsys, monkeypatch, argv):
    def never(*_):
        raise AssertionError("built before the check")

    monkeypatch.setattr(dirac, "_block_states", never)
    monkeypatch.setattr(dirac, "rho_apply", never)
    monkeypatch.setattr(dirac, "_rho_images", never)
    code, out, err = run_cli(capsys, *argv, "--trunc", "3", "--degree", "4")
    assert code == 2 and out == ""
    assert err == "error: truncation too small for the requested block\n"


def test_trunc_cap_counts_only_the_generated_states(capsys):
    # trunc 8 would be 174M block states before the weight generator
    code, out, _ = run_cli(capsys, "spectrum", "--trunc", "8", "--degree", "2")
    assert code == 0 and json.loads(out)["kernel_dim"] == 1


@pytest.mark.parametrize("argv", [["spectrum"], ["verify", "kernel"]])
def test_spectrum_failure_exit_one(capsys, monkeypatch, argv):
    def failing(n, degree_bound):
        raise RuntimeError("kernel dimension 2 != 1")

    monkeypatch.setattr("gdirac.dirac.spectrum_report", failing)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: kernel dimension 2 != 1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "clifford", "--max-index", "4"],
    ["verify", "car", "--max-index", "1000000"],
    ["verify", "square-raw", "--trunc", "1000000"],
    ["verify", "heisenberg", "--max-index", "1000000"],
    ["verify", "dirac-symmetry", "--max-index", "1000000"],
])
def test_verify_past_the_work_limit_exits_two(capsys, argv):
    # refused from the closed-form estimate, before any state is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"verify {argv[1]} at" in err and "needs at least" in err and str(MAX_WORK) in err


def test_verify_defaults_within_the_work_limit():
    for name in SUITES:
        assert verify_work(name, RunConfig(trunc=3 if name.startswith("square") else 2)) <= MAX_WORK, name


def test_bench_is_gone(capsys):
    assert main(["bench"]) == 2


def test_every_suite_is_documented(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no line breaks inside suite names
    assert main(["verify", "--help"]) == 0
    help_text = capsys.readouterr().out
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"`([^`]+)`", re.search(r"Suites for `verify`:(.*?)\.", readme, re.S).group(1))
    assert sorted(listed) == sorted(SUITES)
    for name in SUITES:
        assert name in help_text, name


def test_config_file_flags_win(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("max-index=1\nformat=json\n")
    _, out, _ = run_cli(capsys, "verify", "car", "--config", str(conf))
    assert json.loads(out)["checks"][1]["inputs"].startswith("indices<= 1")
    _, out, _ = run_cli(capsys, "verify", "car", "--config", str(conf), "--max-index", "2")
    assert json.loads(out)["checks"][1]["inputs"].startswith("indices<= 2")


def test_config_file_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("wibble=1\n")
    code, _, err = run_cli(capsys, "verify", "car", "--config", str(conf))
    assert code == 2
    assert "unknown config key" in err


@pytest.mark.parametrize("suite", list(SUITES))
def test_every_suite_exits_zero(capsys, suite):
    argv = ["verify", suite, "--max-index", "2", "--seed", "3"]
    if suite.startswith("square") or suite == "kernel":
        argv += ["--trunc", "2", "--degree", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "car", "--max-index", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,inputs,residual,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_invariants_csv(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--trunc", "2", "--degree", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "M,k,dim,eig"
    assert "0,0,1,0" in out.splitlines()


def test_dump_op_dirac_cutoff(capsys):
    code, out, _ = run_cli(capsys, "dump-op", "dirac:N=2", "--max-index", "1")
    assert code == 0
    report = json.loads(out)
    # 2 charge-0 fock states x 2 spin states, entries 0 or +-(1/2)sqrt2
    assert len(report["basis"]) == 4
    cells = {c for row in report["matrix"] for c in row}
    assert cells == {"0", "0+1/2√2"}


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("dirac:N=-3", "cut-off N must be >= 0"),
        ("dirac:N=1000", f"needs at least {2 * 1000**2 * 4} steps of work; the limit is {MAX_WORK}"),
    ],
)
def test_dump_op_dirac_cutoff_refused(monkeypatch, capsys, descriptor, message):
    # refused before any word table or basis is built
    def never(*_):
        raise AssertionError("built before the check")

    monkeypatch.setattr(words, "_word_table", never)
    monkeypatch.setitem(cli._DUMP_BASES, "tensor", never)
    code, out, err = run_cli(capsys, "dump-op", descriptor, "--max-index", "1")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("space, descriptor", [("fock", "rhat:{},1"), ("spin", "gamma:-1,{}"), ("spin", "ktilde:1,{}")])
@pytest.mark.parametrize("index", ["3", "99999999999999999999"])
def test_dump_op_index_past_the_bound_refused(monkeypatch, capsys, space, descriptor, index):
    # an index past --max-index has only a zero matrix on the basis; it is
    # refused before any basis is built, and before any mask is sized by it
    def never(*_):
        raise AssertionError("built before the check")

    monkeypatch.setitem(cli._DUMP_BASES, space, never)
    code, out, err = run_cli(capsys, "dump-op", descriptor.format(index), "--max-index", "2")
    assert code == 2
    assert out == ""
    assert f"index {index} in " in err and "exceeds --max-index 2" in err


@pytest.mark.parametrize("space, descriptor", [("fock", "charge:junk"), ("fock", "number:"), ("spin", "fermion-number:1,2")])
def test_dump_op_arguments_to_a_bare_descriptor_refused(monkeypatch, capsys, space, descriptor):
    # charge, number and fermion-number take no arguments: any are refused
    # before any basis is built, not dropped while the report keeps them
    def never(*_):
        raise AssertionError("built before the check")

    monkeypatch.setitem(cli._DUMP_BASES, space, never)
    code, out, err = run_cli(capsys, "dump-op", descriptor, "--max-index", "2")
    assert code == 2
    assert out == ""
    assert f"{descriptor.partition(':')[0]} takes no arguments, got {descriptor!r}" in err


def test_dump_op_dirac_cutoff_zero(capsys):
    # N = 0 is the empty window: D_0 = 0
    code, out, _ = run_cli(capsys, "dump-op", "dirac:N=0", "--max-index", "1")
    assert code == 0
    assert {c for row in json.loads(out)["matrix"] for c in row} == {"0"}


def test_module_entry_point():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gdirac", "verify", "car", "--max-index", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failures"] == 0
