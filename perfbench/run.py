"""Benchmark of gdirac: time from inputs to a checked certificate.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each
    python3 perfbench/run.py --workload all --check-repeat  # counters repeat per seed
    python3 perfbench/run.py --record                # rewrite expected.json

The library is driven from outside through its public functions, in this
one process, on one thread, as a closed loop with a single caller: the next
item starts when the previous one has returned.  Nothing is built; the
package is imported from ``src/`` of the checkout, and the run fails with
exit code 2 when it is not there.

Workloads (inputs come from ``--seed`` through ``SplitMix64`` and
``sampling.random_vector``; see ``workloads.py``)
-------------------------------------------------------------------------

verify-suites
    Each of the 12 ``verify`` suites through ``gdirac.cli.main``; one item
    is one suite report.  Chosen because it is what a user or CI runs.  It
    loads many tiny basis-state ``Vec``s and integer-valued scalars; the
    state maps are spinor-heavy in ``clifford`` and ``k-family`` and
    Fock-heavy in ``car`` and ``cocycle``; ``ExactMatrix`` is nearly idle
    (only ``kernel``).  Flags are the CLI defaults except ``--max-index 2``
    for clifford, cocycle, k-family and casimir: at the defaults one pass
    takes about 9 s on a 2-core x86 container, too long for the ten-sample
    tail below.  The seed is passed as ``--seed`` to the three suites that
    take one.

dirac-square
    Seeded charge-0 tensor vectors (8 terms at bound 4, N = 4) through
    ``dirac_apply``, D^2, ``dirac_cutoff_apply``, D_N^2 and the ``raw`` and
    ``hk`` square residuals; one item is one vector's chain.  Chosen as the
    other use of the same layers: few wide vectors (their images have
    dozens of terms), Fock-side state maps, coefficients with nonzero sqrt2
    parts from ``HALF_SQRT2``, and no ``ExactMatrix``.  A pass is a batch
    of 12 vectors; a run walks through 16 distinct batches, so its figures
    average over many vectors of the seed rather than over 12.  Inputs of
    dozens of terms at bound 5-6 would be closer to real use, but one such
    chain takes 1-2.5 s, so a run could not hold the 100 items its tail
    needs.

invariant-spectrum
    ``spectrum_report(3, 2)``, then ``invariant_basis`` for each of the 9
    (M, k) blocks, then ``constraint_window_robust`` for each, at trunc 3;
    one item is one of these 19 calls.  Chosen because it is the only
    workload that loads ``rho_apply``, ``ktilde_state_terms``, basis
    enumeration, constraint-matrix assembly and exact elimination.  The
    seed only orders the blocks.

Prediction table: layer metric -> end-to-end metric -> workload
-----------------------------------------------------------------

    suites.self_s, serialize.s, serialize.bytes     -> wall_s        -> verify-suites
    dirac.spectrum_s, dirac.invariant_basis_s,
      dirac.window_robust_s, dirac.block_states     -> wall_s, item_p50_ms -> invariant-spectrum
    dirac.square_residual_s                         -> wall_s, item_p50_ms -> invariant-spectrum,
                                                                              dirac-square
    linalg.nullspace_s, linalg.matrix_rows/_cols/_nnz, linalg.rank
                                                    -> wall_s        -> invariant-spectrum
    linalg.vec_new, linalg.vec_add, linalg.vec_support_mean
                                                    -> wall_s        -> verify-suites (many small
                                                                        vectors) against
                                                                        dirac-square (few large)
    <module>.<op>.calls/.s/.support_in/.support_out -> item_p50_ms   -> dirac-square
      (rho_apply: invariant-spectrum)
    <module>.<statemap>.calls/.hit_ratio,
      fock.FockState.new                            -> wall_s        -> dirac-square (Fock side)
      spinor.SpinState.new                          -> wall_s        -> verify-suites (spinor side)
    scalar.add, scalar.mul, scalar.integer_share,
      scalar.irrational_share                       -> wall_s        -> verify-suites and
                                                                        dirac-square, in opposite
                                                                        directions
    sampling.random_vector_s, setup.import_s        -> setup_s       -> every workload

For example, a weight-zero short-circuit in ``invariant_basis`` or
fraction-free elimination should move ``wall_s`` on invariant-spectrum
and leave dirac-square unchanged; an integer fast path in ``Scalar``
should help verify-suites more than dirac-square, whose coefficients
carry sqrt2 parts.

Metrics
-------

End to end (``--trace 0``), per run: ``setup_s`` is the median time to
import gdirac afresh and generate the inputs, over 5 set-ups before the
first pass and one more after each pass (outside the timed pass); ``wall_s``
the median pass time (the sum of its item latencies, checks excluded);
``item_p50_ms`` and ``item_p90_ms`` the item latencies, measured until at
least ``--seconds`` have passed and 100 items ran, so that ten samples lie
beyond p90; ``peak_rss_mb`` the process's peak resident set from
``resource.getrusage``.  The table also prints ``failed_ratio``, the share
of items whose check failed or that raised; it is not in the JSON metrics
because it is 0 on correct code, and the JSON's ``failed``/``attempted``
carry it.

The four times are reported at a nominal machine speed.  ``reference()``,
a fixed pure-Python kernel that calls no gdirac code, runs right before
and right after every item and every set-up, outside the timed regions.
Each item's and set-up's time is multiplied by ``REF_SECONDS`` over the
mean of the two kernel times around it, and ``wall_s`` sums the scaled
item times of a pass.  The table prints the scaled value next to the time
as measured.  Reason: on the 2-vCPU VM where the bounds in BENCHMARK.json
were set, the speed of the machine changes by up to a factor of two from
one second to the next, with almost no steal time reported; the same six
dirac-square items took anywhere from 0.8 to 1.5 s, in CPU time as in wall
time.  Over twelve 38 s runs of dirac-square (one seed each), the spread
of the p50 / p90 item latency was 0.16 / 0.09 unscaled, 0.18 / 0.34 when
every time of a run was scaled by the kernel's median over the whole run,
and 0.02 / 0.04 when every item was scaled by the kernel calls around it.
A run-wide factor fails because the tail of a run is made of the items
that ran in its slow spells.  Runs are as long as the time budget of three
workloads allows (38 s), and every time metric has the widest bound the
benchmark format allows, 0.25.

Per layer (``--trace 1``): the run alternates an untraced and a traced pass
over the first pass of the workload until ``--seconds`` have passed (at
least two pairs).  Times are medians over the traced passes, unscaled;
counters come from one traced pass and must be the same in every traced
pass.  Spans are kept in memory and written to ``.bench_out/`` when the run
ends.  ``trace.overhead_s`` is the traced minus the untraced median pass
time.

Limits
------

Only this process is measured: no system-wide tracer, no dropping of the
file cache, no pinning.  The scaling removes drift that slows the kernel
and the workload alike, not noise that hits one of them only.  Single
kernel calls are noisy and spells do not slow both by the same factor
(between slow and fast spells the kernel's time changed by 1.9x where pass
times changed by 1.7x), so one scaled item time is rough; the medians and
the p90 over a run's hundreds of items are what is steady.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import DETERMINISTIC_UNITS, PER_LAYER, Tracer, counter_metrics, median_of, time_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

MODULES = ("casimir", "cli", "dirac", "fock", "linalg", "rng", "sampling", "scalar", "serialize", "spinor", "suites")
SETUPS = 5  # before the first pass; one more follows every pass
MIN_ITEMS = 100  # ten samples beyond p90
MAX_SECONDS = 150.0  # a run ends by then whatever the item count
RECORD_SEED = 1
REF_SECONDS = 0.005  # nominal time of one reference() call

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


class SetupError(Exception):
    pass


def reference() -> float:
    """Time a fixed pure-Python kernel of the library's kind of work.

    Fraction sums, tuple slicing, dict updates and bisection, no gdirac code,
    so no change to the library moves it; only the machine's speed does.
    """
    t0 = perf_counter()
    acc, counts = Fraction(0), {}
    keys = tuple(range(0, 64, 3))
    for i in range(2500):
        k = (i * 7919) % 97
        t = keys[: k % 7] + (k,)
        counts[t] = counts.get(t, 0) + 1
        if bisect_left(keys, k) % 2:
            acc += Fraction(k, 3)
    return perf_counter() - t0


def load_gdirac() -> SimpleNamespace:
    """Import gdirac afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "gdirac" or m.startswith("gdirac.")]:
        del sys.modules[name]
    g = SimpleNamespace(**{m: importlib.import_module("gdirac." + m) for m in MODULES})
    if not Path(g.cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"gdirac was imported from {g.cli.__file__}, not from {SRC}")
    return g


def timed_setup(workload: str, seed: int):
    """Import gdirac afresh and generate the inputs, timing both."""
    t0 = perf_counter()
    g = load_gdirac()
    t1 = perf_counter()
    passes = WORKLOADS[workload](g, seed)
    t2 = perf_counter()
    return g, passes, (t2 - t0, t1 - t0, t2 - t1)


class Clock:
    """Set-up times of one run, as measured and scaled to nominal speed.

    Set-ups are sampled before the first pass and between passes: one takes
    40-150 ms, so samples taken only at the start of a run would all fall
    into whatever the machine was doing in that half second.
    """

    def __init__(self, workload: str, seed: int):
        if not (SRC / "gdirac" / "__init__.py").is_file():
            raise SetupError(f"no gdirac package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.workload, self.seed = workload, seed
        self.samples: list[tuple[float, float, float]] = []
        self.scaled: list[float] = []
        self.keys = None
        for _ in range(SETUPS):
            self.g, self.passes, times = self._sample()

    def _sample(self):
        before = reference()
        g, passes, times = timed_setup(self.workload, self.seed)
        self.scaled.append(times[0] * scale(before, reference()))
        keys = [item.key for items in passes for item in items]
        if self.keys is None:
            self.keys = keys
        elif keys != self.keys:
            raise SetupError("the same seed generated different inputs")
        self.samples.append(times)
        return g, passes, times

    def resample(self) -> None:
        """Time one more set-up, then put back the modules the run uses."""
        in_use = {m: mod for m, mod in sys.modules.items() if m == "gdirac" or m.startswith("gdirac.")}
        try:
            self._sample()
        finally:
            for name in [m for m in sys.modules if m == "gdirac" or m.startswith("gdirac.")]:
                del sys.modules[name]
            sys.modules.update(in_use)

    def stats(self) -> dict:
        totals, imports, gens = zip(*self.samples)
        return {
            "setup_s": statistics.median(totals),
            "setup.import_s": statistics.median(imports),
            "sampling.random_vector_s": statistics.median(gens),
        }


def scale(before: float, after: float) -> float:
    """Factor to nominal speed of a time taken between two reference() calls."""
    return 2 * REF_SECONDS / (before + after)


def run_items(items, tracer: Tracer | None = None) -> tuple[list[float], list[float], list]:
    """Run items in order; return their latencies, the latencies scaled to
    nominal speed, and their outputs.  ``reference()`` runs before the first
    item and after every item, so each item lies between two calls."""
    latencies, refs, outputs = [], [reference()], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # the item failed; the run goes on and counts it
            out = exc
        latencies.append(perf_counter() - t0)
        outputs.append(out)
        refs.append(reference())
    scaled = [x * scale(a, b) for x, a, b in zip(latencies, refs, refs[1:])]
    return latencies, scaled, outputs


def count_failed(items, outputs, digests: dict) -> int:
    failed = 0
    for item, out in zip(items, outputs):
        ok = False
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
        else:
            try:
                want = digests.get(item.key)
                ok = item.facts(out) and (
                    want is None or hashlib.sha256(item.canonical(out).encode()).hexdigest() == want
                )
            except Exception:  # a malformed output fails its check
                traceback.print_exc(file=sys.stderr)
        if not ok:
            print(f"check failed: {item.key}", file=sys.stderr)
            failed += 1
    return failed


def measure(clock: Clock, seconds: float, digests: dict) -> dict:
    passes = clock.passes
    walls, raw_walls, latencies, raw_latencies, failed = [], [], [], [], 0
    start = perf_counter()
    p = 0
    while True:
        items = passes[p % len(passes)]
        p += 1
        clock.resample()
        gc.collect()
        raw, lat, outs = run_items(items)
        failed += count_failed(items, outs, digests)
        walls.append(sum(lat))
        raw_walls.append(sum(raw))
        latencies += lat
        raw_latencies += raw
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_ITEMS) or elapsed >= MAX_SECONDS:
            break
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "walls": walls,
        "latencies": latencies,
        "failed": failed,
        "p50": statistics.median(latencies),
        "p90": p90,
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "raw_wall": statistics.median(raw_walls),
        "raw_p50": statistics.median(raw_latencies),
        "raw_p90": statistics.quantiles(raw_latencies, n=10)[-1],
    }


def measure_traced(clock: Clock, seconds: float, digests: dict) -> dict:
    tracer = Tracer(clock.g)
    items = clock.passes[0]
    plain, traced, times, counters = [], [], [], []
    spans = None
    failed = attempted = 0
    start = perf_counter()
    while True:
        clock.resample()
        gc.collect()
        lat, _, outs = run_items(items)
        plain.append(sum(lat))
        failed += count_failed(items, outs, digests)
        gc.collect()
        tracer.install()
        try:
            lat, _, outs = run_items(items, tracer)
        finally:
            tracer.remove()
        pass_spans, counts = tracer.take_pass()
        failed += count_failed(items, outs, digests)
        attempted += 2 * len(items)
        traced.append(sum(lat))
        times.append(time_metrics(pass_spans))
        counters.append(counter_metrics(counts))
        if spans is None:
            spans = pass_spans
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(traced) >= 2) or elapsed >= MAX_SECONDS:
            break
    metrics = {**median_of(times), **counters[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return {
        "metrics": metrics,
        "failed": failed,
        "attempted": attempted,
        "repeat_ok": all(row == counters[0] for row in counters),
        "passes": len(traced),
        "spans": spans,
    }


def write_spans(path: Path, spans: list) -> None:
    """One JSON array per span: name, start, end, parent index, item index."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, item in spans:
            fh.write(f'["{name}",{t0:.9f},{t1:.9f},{parent},{item}]\n')


def load_digests(workload: str) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def run_one(args) -> int:
    clock = Clock(args.workload, args.seed)
    digests = load_digests(args.workload)
    passes = clock.passes
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{sum(len(p) for p in passes)} inputs in {len(passes)} distinct passes")
    if args.trace:
        r = measure_traced(clock, args.seconds, digests)
        metrics = {**clock.stats(), **r["metrics"]}
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", r["spans"])
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            print(f"  {name:40s} {metrics[name]:>16.6f} {unit}")
        print(f"  traced passes {r['passes']}, counters repeat across them: {r['repeat_ok']}")
        correct = r["failed"] == 0 and r["repeat_ok"]
        print(result_line(correct, r["attempted"], r["failed"], metrics, units))
        return 0
    r = measure(clock, args.seconds, digests)
    n = len(r["latencies"])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(clock.scaled),
        "wall_s": statistics.median(r["walls"]),
        "item_p50_ms": r["p50"] * 1000.0,
        "item_p90_ms": r["p90"] * 1000.0,
        "peak_rss_mb": rss,
    }
    raw = {
        "setup_s": clock.stats()["setup_s"],
        "wall_s": r["raw_wall"],
        "item_p50_ms": r["raw_p50"] * 1000.0,
        "item_p90_ms": r["raw_p90"] * 1000.0,
        "peak_rss_mb": rss,
    }
    samples = {
        "setup_s": f"n={len(clock.samples)} set-ups",
        "wall_s": f"n={len(r['walls'])} passes",
        "item_p50_ms": f"n={n} items",
        "item_p90_ms": f"n={n} items, {r['beyond_p90']} beyond",
        "peak_rss_mb": "n=1 process",
    }
    print(f"  times are scaled to a reference kernel time of {REF_SECONDS * 1000:g} ms, item by item; "
          f"'as timed' is the same statistic unscaled")
    print(f"  {'metric':14s} {'value':>14s} {'unit':5s} {'as timed':>14s}")
    for name, unit in END_TO_END:
        print(f"  {name:14s} {metrics[name]:>14.6f} {unit:5s} {raw[name]:>14.6f} {samples[name]}")
    print(f"  {'failed_ratio':14s} {r['failed'] / n:>14.6f} {'ratio':5s} {'':>14s} n={n} items, {r['failed']} failed")
    print(result_line(r["failed"] == 0, n, r["failed"], metrics, dict(END_TO_END)))
    return 0


def child(workload: str, args, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=MAX_SECONDS + 60)


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    code = 0
    for workload in WORKLOADS:
        done = child(workload, args, args.trace)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        code = max(code, done.returncode)
    return code


def check_repeat(args) -> int:
    """Two traced runs per workload with one seed must give equal counters."""
    units = dict(PER_LAYER)
    code = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rows = []
        for _ in range(2):
            done = child(workload, args, 1)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            rows.append(json.loads(done.stdout.splitlines()[-1])["metrics"])
        diff = [name for name, unit in units.items() if unit in DETERMINISTIC_UNITS
                and rows[0][name]["value"] != rows[1][name]["value"]]
        print(f"{workload}: {'counters repeat' if not diff else 'counters differ: ' + ', '.join(diff)}")
        code = max(code, 1 if diff else 0)
    return code


def record(args) -> int:
    """Rewrite expected.json from one pass over every input at RECORD_SEED."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        clock = Clock(workload, RECORD_SEED)
        for items in clock.passes:
            _, _, outs = run_items(items)
            if count_failed(items, outs, {}):
                return 1
            for item, out in zip(items, outs):
                table[workload][item.key] = hashlib.sha256(item.canonical(out).encode()).hexdigest()
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=RECORD_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true", help="compare the counters of two traced runs")
    parser.add_argument("--record", action="store_true", help=f"rewrite {EXPECTED.name} at seed {RECORD_SEED}")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record(args)
        if args.check_repeat:
            return check_repeat(args)
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
