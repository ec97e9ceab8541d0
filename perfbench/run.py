"""Benchmark of the torsion engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from ./src.
One client in one process on one thread sends cases in a closed loop: each
case is a (curve spec, field spec) pair answered by `torsion_over_field(E, K)`
with its default validation.

A run's cases are fixed by the workload and the seed (`workloads.cases`).
--trace 0 measures the end-to-end metrics with nothing wrapped, over
round(S / PASS_S[workload]) passes of those cases, at least one, after one
unmeasured warm-up case.  The work of a run thus depends on S and the seed,
never on the speed of the host, so two commits measured with the same S run
the same cases.  Its times are in reference seconds (see `refclock`): the
reference units sampled during each stretch of at least SEGMENT_S wall
seconds of cases scale the case times of that stretch.  The wall-clock
figures are printed too, but not reported.  Set-up (import plus the
workload's fixed objects) is timed in SETUP_PROBES fresh interpreters
(`setup_probe.py`), in reference seconds, and reported as the median.

--trace 1 runs the seed's cases once untraced and once with
`layertrace.Tracer` installed (see `trace_passes`), and reports the per-layer
metrics of the traced pass and the tracing overhead.  The counts repeat
exactly for a seed.  The spans are written to perfbench/out/.

Every case is checked against the reduction bound of `oracle.py` (its order
must divide B), the known structure of a known_groups row, and the frozen
structure in pool.json of a sweep case.  A case that raises or runs longer
than CASE_LIMIT_S fails.  The last line of standard output is one JSON
object; the exit code is 1 if any case failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# Wall seconds of one pass over a seed's cases on a 2-core x86-64 VM with
# CPython 3.11; --seconds S runs round(S / PASS_S) passes.
PASS_S = {"known_groups": 25, "curve_sweep": 20, "field_sweep": 22}
SEGMENT_S = 1.0
# y^2 = x^3 - x over QQ(i), run once on fresh objects before timing, so that
# the engine's lazy module state is built before the first measured case
WARM_UP = ("0,0,0,-1,0", "-1")
P80_MIN_CASES = 50
# A case normally takes under 5 s.  Some curves make the engine's factorizer
# enumerate every subset of the modular factors, which takes minutes; the limit
# counts such a case as failed and keeps a run within its time budget.
CASE_LIMIT_S = 45

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402


def import_engine():
    """Import the package from ./src, never from anywhere else."""
    if not (SRC / "quartic_torsion" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import quartic_torsion
    from quartic_torsion import ellcurve, numfield, torsion

    if Path(quartic_torsion.__file__).resolve().parent != SRC / "quartic_torsion":
        raise SystemExit(f"error: imported {quartic_torsion.__file__}, not the checkout's")
    return ellcurve, numfield, torsion


class Workload:
    """A workload's fixed objects, built in set-up."""

    def __init__(self, name: str):
        ellcurve, numfield, torsion = import_engine()
        self.name = name
        self._curve = ellcurve.Curve.from_str
        self._field = numfield.parse_field_spec
        # looked up per call, so that an installed tracer wraps the entry point
        self._torsion_module = torsion
        self.fields = {}
        self.curves = {}
        if name == "known_groups":
            field_specs = {f for _, f, _, _ in workloads.KNOWN_GROUPS}
        elif name == "curve_sweep":
            field_specs = set(workloads.SWEEP_FIELDS)
        else:
            field_specs = set()
            self.curves = {c: self._curve(c) for _, c in workloads.SWEEP_CURVES}
        for spec in sorted(field_specs):
            K = self._field(spec)
            K.galois_type  # classification is part of set-up
            self.fields[spec] = K

    def run_case(self, curve: str, field: str, tracer=None) -> tuple[int, int]:
        if self.name == "field_sweep":
            E = self.curves[curve]
            with tracer.span("bench.field_setup") if tracer else nullcontext():
                K = self._field(field)
                K.galois_type
        else:
            E = self._curve(curve)
            K = self.fields[field]
        return tuple(self._torsion_module.torsion_over_field(E, K).structure)

    def warm_up(self) -> None:
        curve, field = WARM_UP
        self._torsion_module.torsion_over_field(self._curve(curve), self._field(field))


class CaseTimeout(Exception):
    pass


def _case_timeout(signum, frame):
    raise CaseTimeout("exceeded the per-case time limit")


def run_cases(wl: Workload, cases, tracer=None, limit_s=CASE_LIMIT_S):
    """Closed loop over `cases`.  A case that raises or runs longer than
    limit_s is stopped and counted as failed.  Returns (results, wall
    seconds), a result being (curve, field, structure or None, seconds, error
    or None)."""
    results = []
    previous = signal.signal(signal.SIGALRM, _case_timeout)
    start = time.perf_counter()
    try:
        for curve, field in cases:
            t = time.perf_counter()
            structure, error = None, None
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                if tracer is None:
                    structure = wl.run_case(curve, field)
                else:
                    with tracer.case():
                        structure = wl.run_case(curve, field, tracer)
            except Exception:  # a failing case is counted, and the loop goes on
                error = traceback.format_exc(limit=3)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            results.append((curve, field, structure, time.perf_counter() - t, error))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return results, time.perf_counter() - start


def scaled_run(wl: Workload, cases):
    """`run_cases` under a `refclock.Sampler`.  Returns (results, wall
    seconds, each case's time in reference seconds).  A case's time leaves
    out the samples taken during it; the samples of each stretch of at least
    SEGMENT_S wall seconds of cases scale the times of that stretch."""
    results, scaled, pending = [], [], []
    wall, n, unit_s = 0.0, 0, 0.0
    with refclock.Sampler() as sampler:
        for k, case in enumerate(cases):
            res, w = run_cases(wl, [case])
            dn, du, spent = sampler.take()
            curve, field, structure, t, error = res[0]
            results.append((curve, field, structure, t - spent, error))
            wall += w - spent
            pending.append(t - spent)
            n, unit_s = n + dn, unit_s + du
            if sum(pending) >= SEGMENT_S or k == len(cases) - 1:
                if n == 0:
                    n, unit_s = 1, refclock.reference_unit()
                factor = refclock.scale(n, unit_s)
                scaled += [t * factor for t in pending]
                pending, n, unit_s = [], 0, 0.0
    return results, wall, scaled


def trace_passes(workload: str, cases):
    """Run every case once untraced and once traced, each pass on its own
    fixed objects.  The two runs of a case are adjacent and their order
    alternates, so drift in machine speed falls on both passes alike; the
    engine's lazy state is built by a warm-up case first.  The tracer is
    installed only around traced cases."""
    from layertrace import Tracer

    wls = {False: Workload(workload), True: Workload(workload)}
    wls[False].warm_up()
    results = {False: [], True: []}
    wall = {False: 0.0, True: 0.0}
    tracer = Tracer()
    for i, case in enumerate(cases):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                res, w = run_cases(wls[traced], [case], tracer if traced else None)
            finally:
                tracer.uninstall()
            results[traced] += res
            wall[traced] += w
    return results[False], results[True], wall[False], wall[True], tracer


def check(results) -> list[tuple[int, str]]:
    """(result index, message) per failed case: it raised, or contradicts the
    oracle, the known table or the frozen structure of the pool."""
    pool = workloads.load_pool()
    expected = {(c, f): st for name in workloads.RUN_PER_GROUP for c, f, st, _ in pool[name]}
    bounds: dict[tuple[str, str], int] = {}
    failures = []
    for i, (curve, field, structure, _, error) in enumerate(results):
        where = f"curve {curve} over field {field}"
        if error is not None:
            failures.append((i, f"{where}: raised {error.strip().splitlines()[-1]}"))
            continue
        d1, d2 = structure
        if (curve, field) not in bounds:
            bounds[curve, field] = oracle.torsion_order_bound(curve, field)[0]
        B = bounds[curve, field]
        known = workloads.known_structure(curve, field)
        frozen = expected.get((curve, field))
        if d1 < 1 or d2 % d1 or B % (d1 * d2):
            failures.append((i, f"{where}: structure {structure} does not divide the bound {B}"))
        elif known is not None and structure != known:
            failures.append((i, f"{where}: structure {structure}, known {known}"))
        elif frozen is not None and list(structure) != frozen:
            failures.append((i, f"{where}: structure {structure}, frozen {frozen}"))
    return failures


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times in SETUP_PROBES fresh interpreters: (wall seconds,
    reference seconds)."""
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(probe["wall_s"])
        scaled.append(probe["scaled_s"])
    return wall, scaled


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.trace:
        cases = workloads.cases(args.workload, args.seed)
        plain, traced, plain_wall, traced_wall, tracer = trace_passes(args.workload, cases)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        results = plain + traced
        failures = check(results)
        failures += [(len(plain) + i, f"curve {a[0]} over field {a[1]}: traced {b[2]}, "
                                      f"untraced {a[2]}")
                     for i, (a, b) in enumerate(zip(plain, traced)) if a[2] != b[2]]
        metrics = tracer.metrics()
        plain_cps = len(plain) / plain_wall
        traced_cps = len(traced) / traced_wall
        metrics["trace.cases"] = (len(traced), "count")
        metrics["trace.untraced_cases_per_s"] = (plain_cps, "1/s")
        metrics["trace.traced_cases_per_s"] = (traced_cps, "1/s")
        metrics["trace.overhead_cases_per_s"] = (plain_cps - traced_cps, "1/s")
    else:
        cases = workloads.cases(args.workload, args.seed)
        wl = Workload(args.workload)
        wall_setups, setups = setup_seconds(args.workload)
        wl.warm_up()
        passes = max(1, round(args.seconds / PASS_S[args.workload]))
        results, wall, times = scaled_run(wl, cases * passes)
        # read before check(), whose oracle and pool.json are not the engine's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = check(results)
        metrics = {
            "cases_per_s": (len(results) / sum(times), "1/s"),
            "case_p50_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = len(results)
    failed = len({i for i, _ in failures})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  cases {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        if attempted >= P80_MIN_CASES:
            print(f"  {'case_p80_s':40s} {percentile(times, 80):.6g} s")
        else:
            print(f"  {'case_p80_s':40s} n/a ({attempted} cases, needs {P80_MIN_CASES})")
        print(f"  {'failed_frac':40s} {failed / attempted:.6g} ({failed} of {attempted})")
        print("  times above are in reference seconds (refclock); wall clock:")
        print(f"  {'wall.cases_per_s':40s} {attempted / wall:.6g} 1/s")
        print(f"  {'wall.case_p50_s':40s} {statistics.median(r[3] for r in results):.6g} s")
        print(f"  {'wall.setup_s':40s} {statistics.median(wall_setups):.6g} s")
    for _, msg in failures:
        print(f"FAILED {msg}")
    for r in results:
        if r[4] is not None:
            print(f"curve {r[0]} over field {r[1]}:\n{r[4]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
