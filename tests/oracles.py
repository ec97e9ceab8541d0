"""Independent oracles the tests check the engine against.  None of them is on
the engine's path from (E, K) to the report, and each computes its answer by
a route the engine does not take; only `knapp_preimages` shares a criterion
with the engine:

- `lutz_nagell_torsion`: E(QQ)_tors by Lutz-Nagell on an integral short
  model, against `torsion.torsion_over_field` over QQ.
- `knapp_preimages`: halving by the square criterion on the three roots of
  the 2-division cubic, against `ellcurve.halves`, which shares the
  criterion, so only the route differs: the oracle needs E(K)[2] full, works
  on a rescaled cubic, takes each half's y by a square root and keeps the
  candidates that [2] maps to P, where `halves` needs one root and reads x
  and y off square roots in closed form.
- `two_torsion`: E(K)[2] from the roots of the 2-division cubic, the
  preimages of infinity for `knapp_preimages` and the starting points of the
  halving chains in `tests/test_ellcurve.py`.
- `count_torsion_in_field`: |E(K)[n]| for odd n from the roots of psi_n and
  square roots in K, against the points of `torsion.torsion_over_field`,
  which come from the lift loop.
- `point_order`: the order of a point by repeated addition, against the orders
  `torsion.torsion_over_field` reads off the lift levels.
- `multiples_generators`: the generators by the rule of
  `torsion._choose_generators`, with each cyclic subgroup listed by repeated
  addition, where the engine compares the ancestors of order l in its lift
  trees.  It sorts by `point_sort_key`, the coordinates as Fractions, where
  the engine sorts by integer keys (`torsion._sort_keys`).
- `all_pairs_group`: every sum of one point from each p-primary part by one
  addition per pair, against `torsion._enumerate_group`, which adds once per
  pair {(a, b), (-a, -b)}.
- `sqrt_reference_preimages`: the m-th preimages of a point from the roots of
  phi_m - x_P psi_m^2 and square roots in K, against `ellcurve.m_preimages`,
  which solves the same polynomial but takes y from the formula for [m], and
  against `ellcurve.halves`, which solves no polynomial, with one root of the
  2-division cubic or all three.
- `c_invariants` and `j_invariant`: c4, c6 and j from the b-invariants, which
  the model and twist oracles below are built on.
- `short_model`, `change_model` and `quadratic_twist`: other curves over QQ
  for the model-invariance and twist-decomposition tests of
  `torsion.torsion_over_field`.
- `tower_galois_type`: the Galois type of QQ(sqrt(a + b sqrt m)) from the
  norm a^2 - m b^2, against `NumberField.galois_type` of
  `numfield.tower_field`, which reads it off the resolvent cubic.
- `_residue_degree`: the residue degree at p from the Frobenius powers
  x^(p^k) mod (f, p), against `NumberField.residue_degree`, which reads it
  off Legendre symbols of the quadratic subfields.
- `span_subfield`: the smallest subfield of K holding some elements, from
  sqrt m in K for each quadratic subfield QQ(sqrt m) and a span test, against
  `numfield.smallest_subfield`, which reads it off each element's square.
- `charpoly`: the characteristic polynomial of an element of K by
  Faddeev-LeVerrier, which presents K by another defining polynomial for the
  presentation-invariance tests of `torsion.torsion_over_field`.
- `sqrt_against_norm_method`: square roots by the norm method
  (`numfield._trager_roots` on y^2 - beta, which factors a norm over QQ),
  against `numfield.sqrt_in_field`, which takes them by norm and trace down
  the quadratic tower of K.  Its betas come from `tower_involution`, the
  tower's own sigma, so that beta in F and sigma(beta) = -beta both occur.
"""

import random
from contextlib import nullcontext
from fractions import Fraction

from sympy import factorint

from quartic_torsion import _intpoly as zp
from quartic_torsion.ellcurve import Curve, Point, curve_points_y
from quartic_torsion.exactmath import RatPoly, is_rational_square, squarefree_part_rational
from quartic_torsion.numfield import (FieldElement, GaloisType, KPoly, NumberField, _trager_roots,
                                      rational_field, rational_roots, roots_in_field, sqrt_in_field)
from quartic_torsion.torsion import structure_of_orders


def point_order(P: Point, bound: int) -> int | None:
    """The exact order of P if it is at most bound, else None."""
    acc = P
    for k in range(1, bound + 1):
        if acc.is_infinity():
            return k
        acc = acc + P
    return None


def _multiples(P: Point, n: int) -> list[Point]:
    """[0]P, [1]P, ..., [n-1]P."""
    out = [Point.infinity(P.curve, P.field)]
    for _ in range(n - 1):
        out.append(out[-1] + P)
    return out


def point_sort_key(P: Point) -> tuple:
    """The identity first, then the affine points by their x coordinates and
    then their y coordinates, as Fractions."""
    return (0,) if P.is_infinity() else (1, P.x.coeffs, P.y.coeffs)


def multiples_generators(points: dict[Point, int], d1: int, d2: int,
                         key=point_sort_key) -> list[Point] | None:
    """Generators of Z/d1 + Z/d2, given as {point: order}: the first point g2
    of order d2 in the order of `key`, and for d1 > 1 the first point g1 of
    order d1 such that no nonzero multiple of g1 is a multiple of g2.  None if
    there is no such g1."""
    if d2 == 1:
        return []
    ordered = sorted(points, key=key)
    g2 = next(P for P in ordered if points[P] == d2)
    if d1 == 1:
        return [g2]
    span2 = set(_multiples(g2, d2))
    for g1 in ordered:
        if points[g1] == d1 and not span2.intersection(_multiples(g1, d1)[1:]):
            return [g1, g2]
    return None


def all_pairs_group(parts, E: Curve, K: NumberField) -> dict:
    """{a + b: (order, components)} over all pairs, one part at a time, as
    `torsion._enumerate_group` gives it; orders of coprime parts multiply."""
    pts = {Point.infinity(E, K): (1, ())}
    for ppts in parts.values():
        pts = {a + b: (m * n, cs + (b,)) for a, (m, cs) in pts.items() for b, n in ppts.items()}
    return pts


def two_torsion(E: Curve, K: NumberField) -> set[Point]:
    """E(K)[2] including the identity."""
    pts = {Point.infinity(E, K)}
    for x in roots_in_field(E.two_division_poly(), K):
        # y = -(a1 x + a3)/2 makes the point its own negative
        pts.add(Point(E, K, (x, -(x * E.a1 + E.a3) * Fraction(1, 2))))
    return pts


def knapp_preimages(E: Curve, P: Point, K: NumberField) -> set[Point]:
    """Halving via the square criterion on y^2 = (x-r1)(x-r2)(x-r3).

    Requires the 2-division cubic of E to split over K.  The curve is
    rescaled to Y^2 = X^3 + b2 X^2 + 8 b4 X + 16 b6 with X = 4x,
    Y = 8y + 4(a1 x + a3), whose cubic has the same splitting behaviour.
    """
    if P.is_infinity():
        return two_torsion(E, K)
    cubic = RatPoly([16 * E.b6, 8 * E.b4, E.b2, 1])
    rs = sorted(roots_in_field(cubic, K), key=lambda r: r.coeffs)
    if len(rs) != 3:
        raise ValueError("Knapp halving needs full 2-torsion over K")
    X = P.x * 4
    sq = []
    for r in rs:
        s = sqrt_in_field(X - r, K)
        if s is None:
            return set()
        sq.append(s)
    s1, s2, s3 = sq
    out = set()
    for e2 in (1, -1):
        for e1 in (1, -1):
            # the printed x' candidates, signs taken simultaneously
            Xp = s1 * s2 * e1 + s1 * s3 * e2 + s2 * s3 * (e1 * e2) + X
            for Q in curve_points_y(E, Xp * Fraction(1, 4), K):
                if Q.scalar_mul(2) == P:
                    out.add(Q)
    return out


def sqrt_reference_preimages(E: Curve, P: Point, K: NumberField, m: int) -> set[Point]:
    """All Q in E(K) with [m]Q = P, found the slow way: each root x of
    phi_m - x_P psi_m^2 gets its y by a square root in K, and [m] decides
    which of the points above x maps to P."""
    phi, psi_sq = E.mult_by_m_xmap(m)
    h = KPoly(K, phi.coeffs) - KPoly(K, psi_sq.coeffs).scale(P.x)
    return {Q for x in roots_in_field(h, K) for Q in curve_points_y(E, x, K)
            if Q.scalar_mul(m) == P}


def c_invariants(E: Curve) -> tuple[Fraction, Fraction]:
    """(c4, c6) of E."""
    c4 = E.b2**2 - 24 * E.b4
    c6 = -E.b2**3 + 36 * E.b2 * E.b4 - 216 * E.b6
    return c4, c6


def j_invariant(E: Curve) -> Fraction:
    return c_invariants(E)[0] ** 3 / E.disc


def short_model(E: Curve) -> Curve:
    """y^2 = x^3 - 27 c4 x - 54 c6, isomorphic to E over QQ."""
    c4, c6 = c_invariants(E)
    return Curve([0, 0, 0, -27 * c4, -54 * c6])


def change_model(E: Curve, u, r, s, t) -> Curve:
    """The model of E in x', y' with x = u^2 x' + r, y = u^3 y' + u^2 s x' + t,
    u != 0, isomorphic to E over QQ (Silverman, The Arithmetic of Elliptic
    Curves, III.1)."""
    a1, a2, a3, a4, a6 = E.a_invariants
    u, r, s, t = (Fraction(v) for v in (u, r, s, t))
    return Curve([(a1 + 2 * s) / u,
                  (a2 - s * a1 + 3 * r - s * s) / u**2,
                  (a3 + r * a1 + 2 * t) / u**3,
                  (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
                  (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6])


def quadratic_twist(E: Curve, d: int) -> Curve:
    """Twist by squarefree d != 0 of the short-normalized model."""
    d = int(d)
    if d == 0:
        raise ValueError("twist by 0")
    if squarefree_part_rational(Fraction(d)) != d:
        raise ValueError("twist parameter must be squarefree")
    c4, c6 = c_invariants(E)
    return Curve([0, 0, 0, -27 * c4 * d * d, -54 * c6 * d**3])


def count_torsion_in_field(E: Curve, K: NumberField, n: int) -> int:
    """|E(K)[n]| for odd n: x-roots of the division polynomial with y in K,
    counted without the lift loop."""
    if n == 1:
        return 1
    if n % 2 == 0:
        raise ValueError("odd n only")
    s = short_model(E)
    count = 1
    for x in roots_in_field(s.division_polynomial(n), K):
        if sqrt_in_field(x * x * x + x * s.a4 + s.a6, K) is not None:
            count += 2
    return count


def _square_divisors(n: int) -> list[int]:
    """All y >= 0 with y^2 | n (n != 0)."""
    ys = [1]
    for p, e in factorint(abs(n)).items():
        half = e // 2
        if half:
            ys = [y * p**k for y in ys for k in range(half + 1)]
    return sorted({0} | set(ys))


def lutz_nagell_torsion(E: Curve):
    """E(QQ)_tors with its points, by Lutz-Nagell on an integral model.

    Returns (structure, points) where structure is the pair (d1, d2) of
    invariant factors and points is the full set of rational torsion points
    on E itself.  Candidate points on Y^2 = X^3 - 27 c4 X - 54 c6 satisfy
    Y = 0 or Y^2 | disc; anything failing to die under multiplication by
    n <= 12 (Mazur) is of infinite order and discarded.
    """
    Q = rational_field()
    c4, c6 = c_invariants(E)
    A, B = -27 * c4, -54 * c6
    # scale to integral short coefficients: x -> u^2 x, y -> u^3 y
    den = A.denominator * B.denominator
    u = 1
    while (A * u**4).denominator != 1 or (B * u**6).denominator != 1:
        u *= den
    Ai, Bi = int(A * u**4), int(B * u**6)
    Es = Curve([0, 0, 0, Ai, Bi])
    cubic = RatPoly([Bi, Ai, 0, 1])
    torsion = {Point.infinity(E, Q): 1}
    for y in _square_divisors(int(Es.disc)):
        for x in rational_roots(cubic - RatPoly([y * y])):
            if x.denominator != 1:
                continue
            for yy in {Fraction(y), Fraction(-y)}:
                n = point_order(Point(Es, Q, (x, yy)), 12)
                if n is not None:
                    # undo the scaling and the short normalization
                    xe = (x / (u * u) - 3 * E.b2) / 36
                    ye = (yy / u**3 - 108 * (E.a1 * xe + E.a3)) / 216
                    torsion[Point(E, Q, (xe, ye))] = n
    return structure_of_orders(torsion.values()), set(torsion)


def tower_galois_type(m, a, b) -> GaloisType:
    """The Galois type of QQ(sqrt(a + b sqrt m)), a quartic field, read off
    the norm t = a^2 - m b^2 of a + b sqrt m: t/m a nonzero rational square
    gives a cyclic quartic, t a rational square a biquadratic field, and
    anything else is not Galois."""
    t = Fraction(a) ** 2 - Fraction(m) * Fraction(b) ** 2
    if is_rational_square(t / m):
        return GaloisType.CyclicQuartic
    if is_rational_square(t):
        return GaloisType.Biquadratic
    return GaloisType.NonGaloisQuartic


def _residue_degree(f, p: int) -> int:
    """The least k with x^(p^k) = x mod (f, p), f monic integral and p not
    dividing disc f: the lcm of the degrees of the irreducible factors of f
    mod p, which is squarefree.  As p does not divide the index of Z[theta]
    either, those factors give the primes above p and their residue degrees
    (Dedekind); in a Galois K all are equal, and k is the residue degree.
    Frobenius is a ring map of F_p[x]/(f), so x^(p^(k+1)) = xp(x^(p^k)) with
    xp = x^p: one power, then compositions.  For deg f <= 4 that lcm is at
    most deg f, so a larger k means f is not squarefree mod p, where x^(p^k)
    never comes back to x; it raises ValueError."""
    fp = zp.gf_from_zz(f, p)
    x = zp.gf_rem([0, 1], fp, p)
    xp = xq = zp.gf_pow_mod(x, p, fp, p)
    mulmod = zp.gf_mulmod(fp, p)
    k = 1
    while xq != x:
        if k == len(fp) - 1:
            raise ValueError(f"{f} is not squarefree mod {p}")
        composed: list[int] = []
        for c in reversed(xp):
            composed = zp.gf_sub(mulmod(composed, xq), [-c % p], p)
        xq, k = composed, k + 1
    return k


def span_subfield(elements, K: NumberField) -> int:
    """The smallest subfield of K holding every element: 1 for QQ, m for
    QQ(sqrt m) and 0 for K itself.  For each quadratic subfield, sqrt m is
    lifted in K, and e lies in QQ + QQ*sqrt m iff its theta-coordinates are
    proportional to those of sqrt m."""
    if all(e.is_rational() for e in elements):
        return 1
    for m in sorted(K.quadratic_subfields()) if K.degree == 4 else ():
        w = sqrt_in_field(K.element(m), K)
        if w is None:
            raise ValueError(f"QQ(sqrt {m}) is listed for {K!r}, which has no sqrt {m}")
        if all(_in_span(e, w) for e in elements):
            return m
    return 0


def _in_span(e, w) -> bool:
    """Is e in QQ + QQ*w, w irrational?  The rational coordinate is free, so
    the theta-coordinates of e must be proportional to those of w."""
    es, ws = e.num[1:], w.num[1:]
    k = next(i for i, c in enumerate(ws) if c)
    return all(ei * ws[k] == es[k] * wi for ei, wi in zip(es, ws))


def charpoly(alpha) -> RatPoly:
    """det(x - M), M the matrix of multiplication by alpha in the power basis
    of its field, by Faddeev-LeVerrier: with N_0 = 0 and c_n = 1,
    N_k = M N_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(M N_k) / k."""
    K = alpha.field
    n = K.degree
    theta = K.gen()
    M = list(zip(*((alpha * theta**j).coeffs for j in range(n))))
    c = [Fraction(0)] * n + [Fraction(1)]
    N = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        N = [[sum(M[i][t] * N[t][j] for t in range(n)) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        c[n - k] = -sum(M[i][t] * N[t][i] for i in range(n) for t in range(n)) / k
    return RatPoly(c)


def tower_involution(K: NumberField):
    """beta -> sigma(beta) for the involution sigma of the quadratic tower that
    K keeps from its first square root on (`numfield._field_tower`): sigma
    negates the omega coordinates, the second half of the tower basis."""
    if K._tower is None:
        sqrt_in_field(K.one(), K)
    P, pd, Q, qd, _, _ = K._tower
    h = K.degree // 2

    def sigma(beta):
        t = [sum(a * c for a, c in zip(row, beta.num)) for row in P]
        t[h:] = [-c for c in t[h:]]
        return FieldElement(K, [sum(a * c for a, c in zip(row, t)) for row in Q], pd * qd * beta.den)

    return sigma


# representatives of square classes of QQ, beside the quadratic subfields of K
SQUARE_CLASSES = (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, -7, 10, -10, 15, -15, 30)


def sqrt_against_norm_method(K: NumberField, rng: random.Random, classes: int = 1,
                             guard=nullcontext) -> set:
    """Compare `sqrt_in_field(beta, K)` with the roots of y^2 - beta by the
    norm method, for beta = 0, m r^2 for `classes` random square classes m
    of QQ and for m = 1 and the m of each quadratic subfield, a random
    square, a random element and, for [K:QQ] > 1, x + sigma(x) in F,
    x - sigma(x) with sigma(beta) = -beta, and the squares of both.  Each
    square root is taken inside the context guard().  Returns the set of
    (kind, has a root) met."""
    def element(dens=(1, 2, 3)):
        x = K.zero()
        while x.is_zero():
            x = K.element([Fraction(rng.randrange(-9, 10), rng.choice(dens)) for _ in range(K.degree)])
        return x

    ms = set(rng.sample(SQUARE_CLASSES, classes)) | {1}
    ms |= K.quadratic_subfields() if K.degree == 4 else {K.disc} if K.degree == 2 else set()
    cases = [("rational", K.element(m * Fraction(rng.randrange(1, 30), rng.randrange(1, 30)) ** 2))
             for m in sorted(ms)]
    y = element()
    cases += [("square", y * y), ("any", element((1, 5)))]
    if K.degree > 1:
        sigma, x = tower_involution(K), element()
        fixed, anti = x + sigma(x), x - sigma(x)
        assert sigma(fixed) == fixed and sigma(anti) == -anti and not anti.is_zero()
        cases += [("fixed", fixed), ("fixed square", fixed * fixed),
                  ("anti", anti), ("anti square", anti * anti)]
    with guard():
        assert sqrt_in_field(K.zero(), K) == K.zero()
    found = set()
    for kind, beta in cases:
        if beta.is_zero():
            continue
        with guard():
            root = sqrt_in_field(beta, K)
        expected = _trager_roots(KPoly(K, [-beta, 0, 1]), K)
        assert expected == (set() if root is None else {root, -root}), (K, kind, beta)
        assert root is None or root == root.canonical_sign()
        found.add((kind, root is not None))
    return found
