"""Workload definitions: every case is a frozen (curve spec, field spec) pair.

A curve spec is the comma-separated a-invariants "a1,a2,a3,a4,a6" read by
`Curve.from_str`; a field spec is a string read by `parse_field_spec`.  The
engine only ever sees these strings, so nothing here calls into the package's
catalog: a later fix to a catalog family cannot change what is measured.

Workloads and why each one exists:

- known_groups: a fixed table of pairwise distinct (E, K) with large known
  groups.  Dominated by successful lifting, the group law and assembly.
- curve_sweep: seeded random curves over a fixed set of fields built in
  set-up.  Most cases have trivial torsion, so `factor_bounded` on the
  division polynomials dominates and the group law barely runs.
- field_sweep: a few curves with rational torsion over many seeded fields
  built inside the timed case.  Loads field construction, Galois
  classification and the lift loop, where most lifts find nothing.

The sweeps' cases come from seeded generators (`case_stream`).  A run does not
take a stream's head directly: it draws from a frozen pool (pool.json, see
`cases`), so that every seed runs the same mix of cheap and costly cases.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import islice
from math import gcd
from pathlib import Path

from sympy import factorint

WORKLOADS = ("known_groups", "curve_sweep", "field_sweep")

# (curve spec, field spec, expected (d1, d2), note).  The families are frozen
# at the parameters named in the note; the Hesse (6,6) rows use
# a6 = 54(mu^6 - 20 mu^3 - 8) with mu = (2t^3 + 1)/(3t^2).  t = 3 would repeat
# the t = 2 case in both the Fujita and the 4x8 family: t and (t+1)/(t-1)
# give isomorphic curves over one field.
KNOWN_GROUPS = (
    ("0,-1,1,-10,-20", "1,1,1,1", (5, 5), "11a1 over QQ(zeta5)"),
    ("1,1,1,-10,-10", "-1,5", (4, 8), "15a1 over QQ(i, sqrt5)"),
    ("0,0,0,-1,0", "-1,2", (4, 4), "y^2 = x^3 - x over QQ(i, sqrt2)"),
    ("0,0,1,-1,0", "5;5;2", (1, 1), "37a1 over a cyclic quartic"),
    ("0,337,0,20736,0", "6,105", (2, 16), "Fujita family, t = 2"),
    ("0,54721,0,207360000,0", "15,5865", (2, 16), "Fujita family, t = 4"),
    ("1,36/625,36/625,0,0", "-1,-7", (4, 8), "JKL 4x8 family, t = 2"),
    ("1,3600/83521,3600/83521,0,0", "-1,161", (4, 8), "JKL 4x8 family, t = 4"),
    ("0,0,0,-318529/768,-169543583/55296", "-3,65", (6, 6), "Hesse 6x6 family, t = 2"),
    ("0,0,0,-17811145/19683,-81827811574/14348907", "-3,217", (6, 6),
     "Hesse 6x6 family, t = 3"),
)

# Fields of curve_sweep: two cyclic quartic, three biquadratic, two quadratic
# and QQ.  Each block of len(SWEEP_FIELDS) cases uses every field once, so the
# field mix of a run does not depend on the seed.
SWEEP_FIELDS = ("1,1,1,1", "13;13;3", "-1,2", "-1,-3", "2,5", "-1", "-3", "q")
SWEEP_COEFF_RANGE = 6

# Curves of field_sweep: Cremona labels with their a-invariants.  All but
# 37a1 have nontrivial rational torsion, so the lift loop runs on most cases.
SWEEP_CURVES = (
    ("11a1", "0,-1,1,-10,-20"),
    ("14a1", "1,0,1,4,-6"),
    ("15a1", "1,1,1,-10,-10"),
    ("17a1", "1,-1,1,-1,-14"),
    ("19a1", "0,1,1,-9,-15"),
    ("26b1", "1,-1,1,-3,3"),
    ("37a1", "0,0,1,-1,0"),
    ("32a2", "0,0,0,-1,0"),
)

# Cyclic quartic fields QQ(sqrt(A (D + B sqrt D))) with D = B^2 + C^2
# squarefree, B, C > 0, A odd squarefree and prime to D.  This form names each
# cyclic quartic field once.
_CYCLIC_BC = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 4), (4, 1), (1, 6),
              (6, 1), (2, 5), (5, 2), (4, 5), (5, 4))
_CYCLIC_A = (1, -1, 3, -3, 5, -5, 7, -7, 11, -11, 15, -15)
_BIQUAD_RANGE = 30


def _squarefree_int(n: int) -> int:
    """Squarefree part of a nonzero integer, sign kept."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out *= p
        p += 1
    return sign * out * n


def _is_squarefree(n: int) -> bool:
    return n != 0 and _squarefree_int(n) == n


def _power_class(q: Fraction, k: int) -> tuple:
    """A canonical name of the class of q != 0 modulo k-th powers of
    rationals, for even k."""
    exps: dict[int, int] = {}
    for p, e in factorint(q.numerator).items():
        exps[p] = e % k
    for p, e in factorint(q.denominator).items():
        exps[p] = (-e) % k
    return (q > 0, tuple(sorted((p, e) for p, e in exps.items() if e and p > 0)))


def curve_invariants(spec: str) -> tuple[Fraction, Fraction]:
    """(c4, c6) of the curve with a-invariants spec."""
    a1, a2, a3, a4, a6 = (Fraction(t) for t in spec.split(","))
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    return c4, c6


def curve_key(spec: str) -> tuple:
    """Key equal for two curve specs exactly when the curves are isomorphic
    over QQ.  Curves with c4, c6 and c4', c6' are isomorphic iff
    c4' = u^4 c4 and c6' = u^6 c6 for a rational u."""
    c4, c6 = curve_invariants(spec)
    if c4 == 0:
        return ("j=0", _power_class(c6, 6))
    if c6 == 0:
        return ("j=1728", _power_class(c4, 4))
    return ("j", c4 ** 3 / (c4 ** 3 - c6 ** 2), _power_class(c6 / c4, 2))


def is_nonsingular(spec: str) -> bool:
    c4, c6 = curve_invariants(spec)
    return c4 ** 3 != c6 ** 2


# ---------------------------------------------------------------------------
# generated workloads
# ---------------------------------------------------------------------------


def _curve_sweep_stream(seed: int):
    rng = random.Random(f"curve_sweep:{seed}")
    r = SWEEP_COEFF_RANGE
    seen: set[tuple] = set()
    while True:
        block = list(SWEEP_FIELDS)
        rng.shuffle(block)
        for field in block:
            while True:
                spec = ",".join(str(rng.randint(-r, r)) for _ in range(5))
                if not is_nonsingular(spec):
                    continue
                key = (curve_key(spec), field)
                if key not in seen:
                    seen.add(key)
                    break
            yield spec, field


def _random_field(rng: random.Random) -> tuple[str, tuple]:
    """A seeded field spec and a key naming the field up to isomorphism."""
    if rng.random() < 0.5:
        while True:
            m = rng.randint(-_BIQUAD_RANGE, _BIQUAD_RANGE)
            n = rng.randint(-_BIQUAD_RANGE, _BIQUAD_RANGE)
            if _is_squarefree(m) and _is_squarefree(n) and 1 not in (m, n) and m != n:
                return f"{m},{n}", ("biquadratic", frozenset({m, n, _squarefree_int(m * n)}))
    while True:
        b, c = rng.choice(_CYCLIC_BC)
        a = rng.choice(_CYCLIC_A)
        d = b * b + c * c
        if _is_squarefree(d) and gcd(a, d) == 1:
            return f"{d};{a * d};{a * b}", ("cyclic", a, b, d)


def _field_sweep_stream(seed: int):
    rng = random.Random(f"field_sweep:{seed}")
    seen: set[tuple] = set()
    while True:
        block = list(SWEEP_CURVES)
        rng.shuffle(block)
        for _, curve in block:
            while True:
                field, key = _random_field(rng)
                if (curve, key) not in seen:
                    seen.add((curve, key))
                    break
            yield curve, field


# ---------------------------------------------------------------------------
# the cases of a run
# ---------------------------------------------------------------------------

# The sweeps draw a run's cases from a frozen pool: the first cases of the
# seed-POOL_SEED stream, POOL_PER_GROUP per curve_sweep field or field_sweep
# curve, with the engine's structure and the reference seconds (refclock) each
# took when the pool was frozen.  freeze.py builds pool.json and names the
# stream cases it left out because they ran past its time cap.
POOL = Path(__file__).resolve().parent / "pool.json"
POOL_SEED = 0
# A run takes RUN_PER_GROUP[workload] cases of each group: the group's
# costliest pool case, which the costs of the other cases are far below (on
# curve_sweep one case costs 5x the next), and one case drawn from the seed
# out of each stratum of CHOICES cases of the rest, sorted by frozen cost.  So
# every seed runs the same number of cases per field or curve and nearly the
# same total work, and no seed can draw a case the pool left out.
RUN_PER_GROUP = {"curve_sweep": 12, "field_sweep": 4}
CHOICES = 4
POOL_PER_GROUP = {name: 1 + (n - 1) * CHOICES for name, n in RUN_PER_GROUP.items()}
GROUPS = {"curve_sweep": SWEEP_FIELDS, "field_sweep": tuple(c for _, c in SWEEP_CURVES)}


def group_of(workload: str, curve: str, field: str) -> str:
    """The field of a curve_sweep case, the curve of a field_sweep case."""
    return field if workload == "curve_sweep" else curve


def _known_groups_stream(seed: int):
    rng = random.Random(f"known_groups:{seed}")
    while True:
        rows = [(c, f) for c, f, _, _ in KNOWN_GROUPS]
        rng.shuffle(rows)
        yield from rows


def case_stream(workload: str, seed: int):
    """The endless (curve spec, field spec) sequence of a workload and seed.

    Every block of len(KNOWN_GROUPS), len(SWEEP_FIELDS) or len(SWEEP_CURVES)
    consecutive cases holds each known_groups row, each curve_sweep field or
    each field_sweep curve exactly once, in an order drawn from the seed.  The
    sweeps never repeat a case."""
    streams = {"known_groups": _known_groups_stream, "curve_sweep": _curve_sweep_stream,
               "field_sweep": _field_sweep_stream}
    if workload not in streams:
        raise ValueError(f"unknown workload {workload!r}")
    return streams[workload](seed)


def load_pool() -> dict:
    """pool.json: per sweep, [curve, field, [d1, d2], cost] rows."""
    return json.loads(POOL.read_text())


def cases(workload: str, seed: int, pool: dict | None = None) -> list[tuple[str, str]]:
    """The cases of a run: the known_groups table in an order drawn from the
    seed, or the pool cases chosen as RUN_PER_GROUP says, shuffled."""
    if workload == "known_groups":
        return list(islice(case_stream(workload, seed), len(KNOWN_GROUPS)))
    if workload not in RUN_PER_GROUP:
        raise ValueError(f"unknown workload {workload!r}")
    rows = (pool or load_pool())[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for group in GROUPS[workload]:
        ranked = sorted((cost, curve, field) for curve, field, _, cost in rows
                        if group_of(workload, curve, field) == group)
        if len(ranked) != POOL_PER_GROUP[workload]:
            raise ValueError(f"pool.json holds {len(ranked)} {workload} cases of "
                             f"{group}, not {POOL_PER_GROUP[workload]}")
        out.append(ranked[-1][1:])
        for k in range(RUN_PER_GROUP[workload] - 1):
            _, curve, field = rng.choice(ranked[k * CHOICES:(k + 1) * CHOICES])
            out.append((curve, field))
    rng.shuffle(out)
    return out


def known_structure(curve: str, field: str) -> tuple[int, int] | None:
    for c, f, st, _ in KNOWN_GROUPS:
        if (c, f) == (curve, field):
            return st
    return None
