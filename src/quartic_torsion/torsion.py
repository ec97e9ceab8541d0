"""The torsion engine: E(K)_tors for E/QQ and K of degree 1, 2, or 4 Galois.

Each curve first gets its own bound B (`reduction_bound`).  For a prime p >= 5
at which E has good reduction and p does not divide disc f, every prime v of K
above p has ramification index 1 < p - 1, so E(K)_tors injects into the
points of the reduction over the residue field k_v = F_(p^f), f the residue
degree (Silverman, The Arithmetic of Elliptic Curves, VII.3.1 with IV.6.1;
Katz 1981).  B, the gcd of #E~(F_(p^f)) over the first BOUND_PRIMES such
primes, is thus a multiple of #E(K)_tors, and it alone decides the search:
exactly the primes dividing B are searched, and the lift for a prime p stops
as soon as one more level would exceed the p-part of B.  An order that does
not divide B aborts the run.

The computation is per prime.  The points of order p come from the roots in K
of the 2-division cubic (p = 2) or of the division polynomial psi_p (odd p),
with y recovered by a square root in K.  The cubic is solved in closed form
(`roots_in_field`): its rational roots, and when there is exactly one, the
roots of the quadratic cofactor by one square root in K; with none it is
irreducible and, 3 not dividing [K:QQ], has no root in K.  psi_p is factored
over QQ once per curve and [K:QQ], and its factors solved.  Points of order
p^k come from one lift loop for every p, which takes the preimages under [p]
of each point P of order p^(k-1), by one rule for each kind of prime.  For
p = 2, P is halved by Knapp's criterion (`halves`): its halves are read off
square roots in K, given the x of one point of order 2, and it has none if
one of them is not in K.  For odd p the loop solves phi_p(x) = x_P psi_p^2(x)
over K, and above each root the y of the preimage follows from y_P by the
formula for [p] (`m_preimages`).

E(K)_tors is computed once; everything else is derived from its points.
Each point's order is the lift level at which it appeared (p^k for a point of
the p-primary part) times the coprime orders of the other primes' summands.
Each lift also records [p]Q for every preimage Q, so a point Q of order p^k
reaches [p^(k-1)]Q, its ancestor of order p, by k - 1 lookups.  The
generators are chosen by comparing those ancestors (`_choose_generators`),
with no multiples of the candidates listed.
Each affine point is mapped once to the smallest subfield of K holding its
coordinates (`smallest_subfield`); the definition degrees, the order-7 check
and the growth chain all read that map.  -P = (x, -y - a1 x - a3) lies in
every subfield holding P, so one point of each pair {P, -P} is placed.  A
coordinate e is placed by its own square: an irrational e lies in a quadratic
subfield iff e^2 = a + b*e with a, b rational, and then in QQ(sqrt(b^2 + 4a)).
So no square root of a quadratic subfield is taken, and the only square roots
in K are those of the search above.  For a subfield F of K, E(F)_tors =
E(K)_tors meet E(F): the points whose smallest subfield lies in F.

The classification tables do not steer the search; they only validate its
result.  Every run checks what the curve, the field and the points decide:
membership of E(K)_tors in the table of K's type (`classification_table`,
which also rejects a non-Galois quartic K before any work), full 5-torsion
only over a field containing zeta5, 2-torsion rigidity, points of order 7
defined over a quadratic subfield of a quartic K, and quadratic growth-chain
consistency.  The tables' other structural constraints (the full-level
restriction, the Landau bound, the rational isogeny degrees and the excluded
orders and subgroups) hold for every table member, so membership implies
them; `tests/test_grouptables.py` pins that implication.  A violation aborts
the computation: the engine never returns a best guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import gcd, lcm

from . import grouptables as gt
from ._intpoly import _prime_stream, factor_int
from .errors import InconsistentCountsError, InvariantViolationError, UnsupportedFieldError
from .exactmath import RatPoly, rat_to_str
from .ellcurve import Curve, Point, curve_points_y, halves, m_preimages
from .numfield import (
    GaloisType,
    NumberField,
    roots_in_field,
    smallest_subfield,
)

CYCLOTOMIC5 = RatPoly([1, 1, 1, 1, 1])


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def structure_of_orders(orders) -> tuple[int, int]:
    """The pair (d1, d2) of a finite group Z/d1 + Z/d2, given the orders of
    all its elements: d2 is their lcm and d1 the group order over d2.  Raises
    InconsistentCountsError unless d1 | d2 and, for every n | d2, exactly
    gcd(n, d1) * gcd(n, d2) of the orders divide n, as in Z/d1 + Z/d2."""
    orders = list(orders)
    d2 = lcm(*orders)
    d1, rem = divmod(len(orders), d2)
    if rem or d2 % d1:
        raise InconsistentCountsError(f"{len(orders)} points of exponent {d2} form no group "
                                      f"Z/d1+Z/{d2}: orders {sorted(orders)}")
    for n in _divisors(d2):
        if sum(1 for m in orders if n % m == 0) != gcd(n, d1) * gcd(n, d2):
            raise InconsistentCountsError(f"orders {sorted(orders)} are not those of "
                                          f"Z/{d1}+Z/{d2} at n = {n}")
    return d1, d2


# ---------------------------------------------------------------------------
# the classification tables
# ---------------------------------------------------------------------------


def classification_table(g: GaloisType) -> frozenset[tuple[int, int]]:
    """Every possible E(K)_tors, E over QQ, for K of Galois type g."""
    if g is GaloisType.NonGaloisQuartic:
        raise UnsupportedFieldError(
            "torsion over non-Galois quartic fields is outside the engine's scope")
    return {
        GaloisType.Rational: gt.MAZUR,
        GaloisType.Quadratic: gt.NAJMAN_QUAD_RAT,
        GaloisType.CyclicQuartic: gt.THM_CYCLIC_QUARTIC,
        GaloisType.Biquadratic: gt.THM_BIQUADRATIC,
    }[g]


# ---------------------------------------------------------------------------
# per-prime computation
# ---------------------------------------------------------------------------


def _lift_once(frontier, preimages) -> dict[Point, Point]:
    """{Q: [p]Q} for the preimages Q of a +-symmetric set of affine points,
    from `preimages(P)` for one point P of each pair {P, -P}: [p](-Q) = -P."""
    out: dict[Point, Point] = {}
    done: set[Point] = set()
    for P in frontier:
        if P in done:
            continue
        neg = -P
        done.add(P)
        done.add(neg)
        pre = preimages(P)
        out.update(dict.fromkeys(pre, P))
        out.update((-Q, neg) for Q in pre)
    return out


BOUND_PRIMES = 12


def reduction_bound(E: Curve, K: NumberField) -> int:
    """B, a multiple of #E(K)_tors: the gcd of #E~(F_(p^f)) over the first
    BOUND_PRIMES primes p >= 5 at which E has good reduction and p does not
    divide `K.disc`, f the residue degree at p (see the module docstring).
    Stops early once B = 1.  B's primes come from `_intpoly.factor_int`,
    exact below 10^12; a larger B could hide two primes above 10^6 in one
    factor, but psi_l of such a prime l has degree above 10^11 anyway."""
    bound = used = 0
    for p in _prime_stream(4):
        f = K.residue_degree(p)
        n = None if f is None else E.reduction_order(p, f)
        if n is None:
            continue
        bound = gcd(bound, n)
        used += 1
        if bound == 1 or used == BOUND_PRIMES:
            return bound


def p_primary_part(E: Curve, K: NumberField, p: int,
                   bound: int) -> tuple[tuple[int, int], dict[Point, int], dict[Point, Point]]:
    """Exact p-primary subgroup of E(K)_tors: its structure, its points as
    {point: order}, identity included, and the lift tree {Q: [p]Q} of every
    point of order p^2 or more, given `bound`, a power of p that the order of
    that subgroup divides (the p-part of `reduction_bound`).  The lift from
    E(K)[p^k] stops once |E(K)[p^k]| * p exceeds `bound`: a point of order
    p^(k+1) would multiply the group's order by at least p.  The frontier starts as the
    points of order p: those above the roots of `x_division_poly(p)`.  For
    p = 2 that is the 2-division cubic, on whose roots the discriminant in y
    vanishes, so each root gives one point.  Over K != QQ the cubic is
    solved in closed form and never factored, and the roots of psi_p come
    from the curve's own factors of it (`Curve.x_division_factors`),
    factored once per [K:QQ].  A point found at lift level k has order
    exactly p^k: the frontier at level k-1 holds every point of order
    p^(k-1), and a preimage under [p] of such a point has order p^k.  p
    alone picks the rule: for p = 2 the halves come from square roots in K
    (`halves`), given the x's of the points of order 2, one or three; for odd
    p the preimages come from `m_preimages`.  Walking the tree from a point
    of order p^k up to one of order p gives its ancestor [p^(k-1)]Q, with no
    group law (`_choose_generators`)."""
    xs = roots_in_field(E.x_division_poly(p), K, partial(E.x_division_factors, p))
    frontier = {P for x in xs for P in curve_points_y(E, x, K)}
    if p == 2:
        es = [P.x for P in frontier]
        preimages = lambda P: halves(E, P, K, es)
    else:
        preimages = lambda P: m_preimages(E, P, K, p)
    pts = {Point.infinity(E, K): 1} | dict.fromkeys(frontier, p)
    parents: dict[Point, Point] = {}
    q = p * p
    while frontier and len(pts) * p <= bound:
        frontier = _lift_once(frontier, preimages)
        parents.update(frontier)
        pts.update(dict.fromkeys(frontier, q))
        q *= p
    return structure_of_orders(pts.values()), pts, parents


# ---------------------------------------------------------------------------
# assembly and validation
# ---------------------------------------------------------------------------


@dataclass
class TorsionReport:
    curve: Curve
    field_: NumberField
    galois_type: GaloisType
    structure: tuple[int, int]
    generators: list[Point]
    per_prime: dict[int, tuple[int, int]]
    point_definition_degrees: dict[int, int]
    checks: list[tuple[str, bool]]
    # every point of E(K)_tors with its order; not part of the JSON record
    points: dict[Point, int] = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "curve": [rat_to_str(a) for a in self.curve.a_invariants],
            "field": {
                "poly": [int(c) for c in self.field_.defining_poly.coeffs],
                "galois_type": self.galois_type.value,
            },
            "structure": list(self.structure),
            "generators": [
                [[rat_to_str(c) for c in P.x.coeffs], [rat_to_str(c) for c in P.y.coeffs]]
                for P in self.generators
            ],
            "per_prime": {str(p): list(v) for p, v in sorted(self.per_prime.items())},
            "point_definition_degrees": {str(k): v for k, v in sorted(self.point_definition_degrees.items())},
            "checks": [{"name": n, "passed": ok} for n, ok in self.checks],
        }
        if self.curve.label:
            out["label"] = self.curve.label
        return out


def _point_order(m: int, n: int) -> int:
    """Order of P + Q for points P, Q of coprime orders m and n."""
    return m * n


def _enumerate_group(parts: dict[int, dict[Point, int]], E: Curve,
                     K: NumberField) -> dict[Point, tuple[int, tuple[Point, ...]]]:
    """Every sum of one point from each p-primary part, with its order and
    its components, one per part in the order of `parts`.  Both sets are
    closed under negation and (-a) + (-b) = -(a + b), so one addition serves
    each pair {(a, b), (-a, -b)}: b runs over every point for one a of each
    pair {a, -a} with a != -a, and over one b of each pair {b, -b} for
    a = -a."""
    pts = {Point.infinity(E, K): (1, ())}
    for ppts in parts.values():
        reps = {}  # one b of each pair {b, -b}
        for b, n in ppts.items():
            if -b not in reps:
                reps[b] = n
        out, done = {}, set()
        for a, (m, cs) in pts.items():
            if a in done:
                continue
            na = -a
            done.add(na)
            ncs = pts[na][1]
            for b, n in (reps if na == a else ppts).items():
                order = _point_order(m, n)
                s = a + b
                out[s] = (order, cs + (b,))
                out[-s] = (order, ncs + (-b,))
        pts = out
    return pts


def subfield_torsion(points: dict[Point, int], homes: dict[Point, int], m: int) -> tuple[int, int]:
    """E(F)_tors = E(K)_tors meet E(F) for F = QQ (m = 1) or QQ(sqrt m) inside
    K, from E(K)_tors given as {point: order} and each affine point's smallest
    subfield as `smallest_subfield` gives it."""
    return structure_of_orders(n for P, n in points.items()
                               if P.is_infinity() or homes[P] in (1, m))


def _sort_keys(points) -> dict[Point, tuple[int, ...]]:
    """{P: key} with keys that order the points exactly as the Fraction tuples
    (x coordinates, then y coordinates) do, the identity first: each
    coordinate is written over one common denominator of all the points, Lx
    for the x's and Ly for the y's, and key = (1, Lx x, Ly y) in integers."""
    affine = [P.xy for P in points if not P.is_infinity()]
    Lx = lcm(*(x.den for x, _ in affine))
    Ly = lcm(*(y.den for _, y in affine))
    keys = {}
    for P in points:
        if P.is_infinity():
            keys[P] = (0,)
        else:
            x, y = P.xy
            keys[P] = (1, *(c * (Lx // x.den) for c in x.num), *(c * (Ly // y.den) for c in y.num))
    return keys


def _choose_generators(group: dict[Point, tuple[int, tuple[Point, ...]]], d1: int, d2: int,
                       trees: list[tuple[int, dict[Point, Point]]]) -> list[Point]:
    """The first point of order d2 in sort order, and for Z/d1+Z/d2 the first
    point of order d1 whose cyclic group meets that of the first only in O.
    `group` is `_enumerate_group`'s, and trees[i] = (l, {Q: [l]Q}) is the lift
    tree of the l-primary part that gave each point's i-th component.

    With d1 | d2, <g1> and <g2> meet only in O iff for no prime l | d1 they
    share their subgroup of order l.  That of <g> is generated by
    [l^(k-1)]g_l, g_l of order l^k the l-component of g, which is the
    ancestor of g_l of order l in its lift tree.  So g1 is rejected iff for
    some l | d1 its ancestor R1 lies in <R2>, R2 that of g2.  The nonzero
    points of <R2> are +-R2, ..., +-[(l-1)/2]R2: R2 itself for l = 2, +-R2
    for l = 3, and (l-3)/2 additions for l >= 5, once per report."""
    if d2 == 1:
        return []
    # only the points of orders d1 and d2 are read, so only they are sorted
    keys = _sort_keys([P for P, (n, _) in group.items() if n in (d1, d2)])
    ordered = sorted(keys, key=keys.__getitem__)
    g2 = next(P for P in ordered if group[P][0] == d2)
    if d1 == 1:
        return [g2]

    def ancestor(P, i):
        R, tree = group[P][1][i], trees[i][1]
        while R in tree:
            R = tree[R]
        return R

    spans = []
    for i, (l, _) in enumerate(trees):
        if d1 % l == 0:
            R = M = ancestor(g2, i)
            span = {R, -R}
            for _ in range((l - 3) // 2):
                M = M + R
                span |= {M, -M}
            spans.append((i, span))
    for g1 in ordered:
        if group[g1][0] == d1 and all(ancestor(g1, i) not in span for i, span in spans):
            return [g1, g2]
    raise InvariantViolationError("no generating pair found for computed structure")


def torsion_over_field(E: Curve, K: NumberField) -> TorsionReport:
    """E(K)_tors with generators, per-prime parts and validated invariants."""
    g = K.galois_type
    table = classification_table(g)
    bound = reduction_bound(E, K)
    parts = {p: p_primary_part(E, K, p, p**e) for p, e in factor_int(bound)}
    d1 = d2 = 1
    for (e1, e2), _, _ in parts.values():
        d1 *= e1
        d2 *= e2
    order = d1 * d2
    nontrivial = {p: part for p, part in parts.items() if len(part[1]) > 1}
    group = _enumerate_group({p: pts for p, (_, pts, _) in nontrivial.items()}, E, K)
    points = {P: n for P, (n, _) in group.items()}
    if len(points) != order:
        raise InvariantViolationError(
            f"assembled group has {len(points)} points, structure says {order}")
    if bound % order:
        raise InvariantViolationError(
            f"order {order} of Z/{d1}+Z/{d2} does not divide the reduction bound {bound}")
    generators = _choose_generators(group, d1, d2,
                                    [(p, tree) for p, (_, _, tree) in nontrivial.items()])
    # -P = (x, -y - a1 x - a3) lies in every subfield that holds P
    homes: dict[Point, int] = {}
    for P in points:
        if not P.is_infinity() and P not in homes:
            homes[P] = homes[-P] = smallest_subfield(P.xy, K)
    defdeg: dict[int, int] = {}
    for P, h in homes.items():
        n = points[P]
        defdeg[n] = min(defdeg.get(n, K.degree), 1 if h == 1 else 2 if h else K.degree)
    checks = _validate_report(E, K, table, (d1, d2), points, homes)
    return TorsionReport(
        curve=E,
        field_=K,
        galois_type=g,
        structure=(d1, d2),
        generators=generators,
        per_prime={p: stp for p, (stp, _, _) in parts.items() if stp != (1, 1)},
        point_definition_degrees=defdeg,
        checks=checks,
        points=points,
    )


def _validate_report(E: Curve, K: NumberField, table: frozenset[tuple[int, int]],
                     st: tuple[int, int], points: dict[Point, int],
                     homes: dict[Point, int]) -> list[tuple[str, bool]]:
    """Check E(K)_tors, given as {point: order} and each affine point's
    smallest subfield, for membership in `table` and against what the curve,
    the field and the points decide."""
    checks: list[tuple[str, bool]] = []
    d1, d2 = st

    def record(name, ok, msg=""):
        checks.append((name, ok))
        if not ok:
            msg = msg or f"{E!r} over {K!r}: structure Z/{d1}+Z/{d2}"
            raise InvariantViolationError(f"{name}: {msg}")

    # full 5-torsion needs zeta5 in K (Weil pairing)
    if d1 % 5 == 0:
        # Phi_5 is irreducible over QQ, so it is its own factor
        record("full_five_needs_zeta5", bool(roots_in_field(CYCLOTOMIC5, K, lambda d: (CYCLOTOMIC5,))))
    # 2-torsion rigidity: an irreducible 2-division cubic has no root in a
    # field of degree prime to 3, so nontrivial E(K)[2] needs a rational root,
    # the x of a point of order 2 defined over QQ, which the search found
    if d2 % 2 == 0:
        record("two_torsion_rigidity", any(n == 2 and homes[P] == 1 for P, n in points.items()))
    # points of order 7 = 3 mod 4 over a quartic field are defined over a
    # quadratic subfield
    if K.degree == 4:
        for P, n in points.items():
            if n == 7:
                record("order_p_defined_in_quadratic", homes[P] != 0,
                       f"order-{n} point defined only over the full quartic")
    record("classification_membership", st in table)
    # quadratic growth chain; E(F)_tors = E(K)_tors meet E(F) for F inside K
    if K.degree == 4:
        # a row for each group of Mazur's list; a group without one fails the check
        gq = subfield_torsion(points, homes, 1)
        row = gt.GROWTH_QUADRATIC.get(gq, frozenset())
        for m in sorted(K.quadratic_subfields()):
            gf = subfield_torsion(points, homes, m)
            record("growth_chain", gf in row, f"E(QQ)={gq} grows to E(QQ(sqrt {m}))={gf}")
    return checks
