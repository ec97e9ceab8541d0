import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from oracles import (
    c_invariants,
    change_model,
    j_invariant,
    knapp_preimages,
    lutz_nagell_torsion,
    point_order,
    quadratic_twist,
    short_model,
    sqrt_reference_preimages,
    two_torsion,
)
import quartic_torsion
from quartic_torsion import ellcurve
from quartic_torsion.errors import InvariantViolationError, SingularCurveError
from quartic_torsion.exactmath import RatPoly, factor_bounded, poly_gcd, squarefree_part_rational
from quartic_torsion.ellcurve import Curve, Point, curve_points_y, halves, m_preimages
from quartic_torsion.numfield import (
    GaloisType,
    KPoly,
    biquadratic_field,
    parse_field_spec,
    quadratic_field,
    rational_field,
    rational_roots,
)
from quartic_torsion.torsion import torsion_over_field

Q = rational_field()
E_X3_1 = Curve([0, 0, 0, 0, 1])      # y^2 = x^3 + 1
E_X3_X = Curve([0, 0, 0, -1, 0])     # y^2 = x^3 - x
E11A1 = Curve([0, -1, 1, -10, -20], label="11a1")


class TestInvariants:
    def test_family_member(self):
        E = Curve([0, 10, 0, 5, 0])
        d, j = E.disc, j_invariant(E)
        assert j == 78608
        assert d == 32000
        assert c_invariants(E)[0] == 1360

    def test_1728(self):
        E = Curve([0, 0, 0, 1, 0])
        d, j = E.disc, j_invariant(E)
        assert (d, j) == (-64, 1728)

    def test_singular(self):
        with pytest.raises(SingularCurveError):
            Curve([0, 0, 0, 0, 0])

    def test_integer_path_equals_the_fraction_path(self, monkeypatch):
        # seeded integral and rational models: integral a-invariants take the
        # integer path, the others the Fraction path, with the same values
        rng = random.Random(22)
        invariants, types = ellcurve._invariants, set()
        monkeypatch.setattr(ellcurve, "_invariants",
                            lambda *a: types.add(type(a[0])) or invariants(*a))
        built = {False: 0, True: 0}
        for rational in (False, True) * 30:
            a = [Fraction(rng.randrange(-99, 100), rng.choice((2, 3, 7, 36)) if rational else 1)
                 for _ in range(5)]
            try:
                E = Curve(a)
            except SingularCurveError:
                continue
            got = (E.b2, E.b4, E.b6, E.b8, E.disc)
            assert got == invariants(*a) and all(type(v) is Fraction for v in got), a
            c4, c6 = c_invariants(E)
            assert 4 * E.b8 == E.b2 * E.b6 - E.b4**2 and 1728 * E.disc == c4**3 - c6**2
            built[all(c.denominator == 1 for c in a)] += 1
        assert min(built.values()) >= 20 and types == {int, Fraction}

    def test_b8_identity(self):
        rng = random.Random(21)
        for _ in range(20):
            try:
                E = Curve([rng.randrange(-4, 5) for _ in range(5)])
            except SingularCurveError:
                continue
            assert 4 * E.b8 == E.b2 * E.b6 - E.b4**2
            assert j_invariant(E) * E.disc == c_invariants(E)[0] ** 3


class TestGroupLaw:
    def test_identity(self):
        P = Point(E_X3_1, Q, (2, 3))
        O = Point.infinity(E_X3_1, Q)
        assert P + O == P and O + P == P

    def test_doubling(self):
        P = Point(E_X3_1, Q, (2, 3))
        assert P + P == Point(E_X3_1, Q, (0, 1))

    def test_inverse_points(self):
        P = Point(E_X3_1, Q, (0, 1))
        Pm = Point(E_X3_1, Q, (0, -1))
        assert (P + Pm).is_infinity()
        assert -P == Pm

    def test_associativity_random(self):
        E = Curve([0, 0, 0, 0, 17])
        pts = [Point(E, Q, xy) for xy in [(-2, 3), (-1, 4), (2, 5), (4, 9), (8, 23)]]
        rng = random.Random(22)
        for _ in range(15):
            P, R, S = (rng.choice(pts) for _ in range(3))
            assert (P + R) + S == P + (R + S)

    def test_scalar_distributes(self):
        P = Point(E_X3_1, Q, (2, 3))
        for m in range(0, 7):
            for n in range(0, 7):
                assert P.scalar_mul(m + n) == P.scalar_mul(m) + P.scalar_mul(n)

    def test_off_curve_point_raises(self):
        with pytest.raises(ValueError):
            Point(E_X3_1, Q, (2, 4))
        K = quadratic_field(-1)
        with pytest.raises(ValueError):
            Point(E_X3_X, K, (K.gen(), K.one()))

    def test_points_on_two_curves_differ(self):
        # the hash reads only the coordinates; equality also compares curves
        P = Point(E_X3_X, Q, (0, 0))
        R = Point(Curve([0, 0, 0, 1, 0]), Q, (0, 0))
        assert P != R and len({P, R}) == 2

    def test_long_form_arithmetic(self):
        # 11a1 has a rational 5-torsion point (5, 5)
        P = Point(E11A1, Q, (5, 5))
        assert P.scalar_mul(5).is_infinity()
        assert not P.scalar_mul(2).is_infinity()
        assert point_order(P, 5) == 5


class TestNegation:
    @pytest.mark.parametrize("curve, field, order", [("0,0,0,-1,0", "-1,2", 16),
                                                     ("1,1,1,-10,-10", "-1,5", 32)])
    def test_negative_is_kept_on_both_points(self, curve, field, order):
        # with a1 = a3 = 0 and with a1 = a3 = 1: -P is (x, -y - a1 x - a3),
        # and -(-P) is P itself
        E, K = Curve.from_str(curve), parse_field_spec(field)
        O = Point.infinity(E, K)
        assert -O is O
        points = [Point(E, K, P.xy) for P in torsion_over_field(E, K).points if not P.is_infinity()]
        assert len(points) == order - 1
        for P in points:
            x, y = P.xy
            N = -P
            assert N == Point(E, K, (x, -y - x * E.a1 - E.a3))
            assert -N is P and -P is N and N + P == O


class TestPointHash:
    """A point's hash is computed once and kept; equal points hash alike
    however they were built."""

    @pytest.mark.parametrize("curve, field, P, R", [
        # (-2, 3) + (2, 5) on y^2 = x^3 + 17 has x = 1/4: Fraction coordinates
        (Curve([0, 0, 0, 0, 17]), Q, (-2, 3), (2, 5)),
        # (i, 1 - i) on y^2 = x^3 - x over QQ(i), and (0, 0)
        (E_X3_X, quadratic_field(-1), ([0, 1], [1, -1]), (0, 0)),
        # 11a1 over QQ(zeta5), a1 = 0 but a3 != 0: -P is not (x, -y)
        (E11A1, parse_field_spec("1,1,1,1"), (5, 5), (16, -61)),
    ])
    def test_equal_points_hash_alike(self, curve, field, P, R):
        P, R = Point(curve, field, P), Point(curve, field, R)
        S = P + R
        x, y = S.xy
        built = [S, Point(curve, field, (x, y)), Point._on_curve(curve, field, x, y),
                 -(-S), (S + P) + (-P), (S + S) + (-S)]
        assert all(T == S for T in built)
        assert {hash(T) for T in built} == {hash(S.xy)}
        assert all(T._hash == hash(S.xy) for T in built)
        assert len(set(built)) == 1

    def test_hash_is_computed_once(self, monkeypatch):
        P = Point(E_X3_X, quadratic_field(-1), ([0, 1], [1, -1]))
        first = hash(P)
        monkeypatch.setattr(type(P.x), "__hash__", lambda self: 0 / 0)
        assert hash(P) == first and P in {P}


class TestDivisionPolynomials:
    def test_psi2_squared(self):
        E = E11A1
        assert E.two_division_poly() == RatPoly([E.b6, 2 * E.b4, E.b2, 4])

    def test_psi3(self):
        assert E_X3_1.division_polynomial(3) == RatPoly([0, 12, 0, 0, 3])
        # root x = 0 matches the order-3 point (0, 1)
        assert point_order(Point(E_X3_1, Q, (0, 1)), 3) == 3

    def test_degrees(self):
        E = E11A1
        for n in (3, 5, 7, 9, 13):
            assert E.division_polynomial(n).degree == (n * n - 1) // 2
        for n in (2, 4, 6, 8):
            assert E.division_polynomial(n).degree == (n * n - 4) // 2

    def test_psi3_divides_psi9(self):
        # 3-torsion inside 9-torsion: psi_3 | psi_9; oracle = exact division
        E = E_X3_1
        g3, g9 = E.division_polynomial(3), E.division_polynomial(9)
        assert poly_gcd(g3, g9) == g3.monic()
        q, r = g9.divmod(g3)
        assert r.is_zero() and q * g3 == g9

    def test_roots_are_torsion_x(self):
        # rational roots of the exact-order-n part are x-coordinates of points
        # of exact order n; y itself may need a quadratic extension
        from quartic_torsion.exactmath import squarefree_part_rational

        curves = [E_X3_1, E_X3_X, E11A1, Curve([1, 1, 1, 0, 0]), Curve([0, 0, 1, 0, 0])]
        for E in curves:
            parts = {}
            for n in range(2, 10):
                h = E.x_division_poly(n)
                for d, e in parts.items():
                    if n % d == 0:
                        h = h.divmod(e)[0]
                parts[n] = h
                for x in rational_roots(h):
                    pts = curve_points_y(E, Q.element(x), Q)
                    if not pts:
                        # the discriminant of y^2 + (a1 x + a3) y - (x^3 + ...)
                        ydisc = (E.a1 * x + E.a3) ** 2 + 4 * (x**3 + E.a2 * x**2 + E.a4 * x + E.a6)
                        K = quadratic_field(squarefree_part_rational(ydisc))
                        pts = curve_points_y(E, K.element(x), K)
                    assert pts, (E, n, x)
                    assert point_order(pts[0], n) == n, (E, n, x)


class TestMultByM:
    def test_m1(self):
        phi, psi2 = E_X3_1.mult_by_m_xmap(1)
        assert phi == RatPoly([0, 1]) and psi2 == RatPoly([1])

    def test_phi2(self):
        phi, _ = E_X3_1.mult_by_m_xmap(2)
        assert phi == RatPoly([0, -8, 0, 0, 1])

    def test_cross_oracle_point_add(self):
        rng = random.Random(24)
        for E, P in [(E_X3_1, Point(E_X3_1, Q, (2, 3))),
                     (E11A1, Point(E11A1, Q, (5, 5)))]:
            for m in (2, 3, 5):
                phi, psi2 = E.mult_by_m_xmap(m)
                mP = P.scalar_mul(m)
                if mP.is_infinity():
                    assert psi2(P.x.rational_value()) == 0
                else:
                    xP = P.x.rational_value()
                    assert mP.x.rational_value() == phi(xP) / psi2(xP)


class TestQuadraticTwist:
    def test_twist_by_one(self):
        E = E11A1
        Et = quadratic_twist(E, 1)
        assert j_invariant(Et) == j_invariant(E)

    def test_short_twist(self):
        E = Curve([0, 0, 0, 1, 0])
        Et = quadratic_twist(E, 2)
        # E is already short: A -> 4A, B -> 8B after normalizing constants
        s = short_model(E)
        assert Et.a4 == 4 * s.a4 and Et.a6 == 8 * s.a6

    def test_j_invariant_preserved(self):
        rng = random.Random(25)
        for _ in range(20):
            try:
                E = Curve([rng.randrange(-3, 4) for _ in range(5)])
            except SingularCurveError:
                continue
            d = rng.choice([-1, 2, -2, 3, 5, -5, 6, 7, 10])
            assert j_invariant(quadratic_twist(E, d)) == j_invariant(E)

    def test_twist_involution(self):
        E = E11A1
        s = short_model(E)
        for d in (-1, 2, 5, -6):
            Ett = quadratic_twist(quadratic_twist(E, d), d)
            assert j_invariant(Ett) == j_invariant(E)
            # each twist pass renormalizes to the short model (a u = 6
            # rescaling), so the double twist is the u = 6d rescaling of it
            assert Ett.disc == (6 * d) ** 12 * s.disc


class TestTwoPreimages:
    def test_knapp_fails_over_q(self):
        # P = (0,0) on y^2 = x^3 - x: x - alpha values {0, 1, -1}; -1 not a square
        P = Point(E_X3_X, Q, (0, 0))
        assert halves(E_X3_X, P, Q, _es(E_X3_X, Q)) == set()
        assert knapp_preimages(E_X3_X, P, Q) == set()

    def test_preimages_of_infinity(self):
        O = Point.infinity(E_X3_X, Q)
        pre = two_torsion(E_X3_X, Q)
        assert len(pre) == 4
        assert all(R.scalar_mul(2) == O for R in pre)

    def test_halving_over_q(self):
        # on y^2 = x^3 + 1: [2](2,3) = (0,1), so (0,1) halves to (2,+-3) etc.;
        # E(QQ)[2] = Z/2, so halves gets the one x of order 2
        P = Point(E_X3_1, Q, (0, 1))
        es = _es(E_X3_1, Q)
        assert es == [-1]
        pre = halves(E_X3_1, P, Q, es)
        assert Point(E_X3_1, Q, (2, 3)) in pre
        for R in pre:
            assert R.scalar_mul(2) == P

    def test_cross_path_agreement(self):
        # curves with full rational 2-torsion: Knapp's oracle == halves
        K = quadratic_field(6)
        for E in (E_X3_X, Curve([0, 1, 0, -2, 0])):
            for P in two_torsion(E, K) - {Point.infinity(E, K)}:
                assert halves(E, P, K, _es(E, K)) == knapp_preimages(E, P, K)

    def test_cross_path_agreement_off_two_torsion(self):
        # halving points of order 4, where P != -P: of the two points above
        # an x-root, either one may be the half of P, and the lift of
        # m_preimages(., 2) finds the same halves
        E = Curve([0, -47, 0, 4096, 0])
        K = biquadratic_field(-7, -15)
        es = _es(E, K)
        fours = {P for T in two_torsion(E, K) if not T.is_infinity() for P in halves(E, T, K, es)}
        assert fours
        for P in fours:
            assert halves(E, P, K, es) == m_preimages(E, P, K, 2) == knapp_preimages(E, P, K)

    def test_fujita_halving_chain(self):
        # y^2 = x(x^2 - 47x + 4096) over QQ(sqrt(-7), sqrt(-15)) has a point
        # of order 16 reachable by repeated halving from the 2-torsion
        E = Curve([0, -47, 0, 4096, 0])
        K = biquadratic_field(-7, -15)
        lvl = two_torsion(E, K)
        assert len(lvl) == 4
        es = _es(E, K)
        pts = set(lvl)
        order = 2
        for _ in range(3):
            nxt = set()
            for P in pts:
                if P.is_infinity():
                    continue
                nxt |= halves(E, P, K, es)
            assert nxt, f"halving chain stopped at order {order}"
            pts = nxt
            order *= 2
        R = next(iter(pts))
        assert R.scalar_mul(8).is_infinity() is False
        assert R.scalar_mul(16).is_infinity()


PINNED_REPORTS = json.loads((Path(__file__).parent / "data" / "known_groups_reports.json").read_text())


def _es(E, K):
    return [T.x for T in two_torsion(E, K) if not T.is_infinity()]


def _seeded_halving_cases(seed, n):
    """(E, K, R, points) with E(K)[2] full: a seeded model of y^2 = (x - e1)(x -
    e2)(x - e3) with a1, a3 != 0 in general, a quadratic or biquadratic K
    over which a point R above a seeded rational x lies, and R, [2]R, R + T
    for T in E(K)[2] and the points of order 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        e1, e2, e3 = rng.sample(range(-9, 10), 3)
        E0 = Curve([0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3])
        u, r, s, t = (rng.choice([1, -1, 2, Fraction(1, 2)]), rng.randrange(-3, 4),
                      rng.randrange(-2, 3), rng.randrange(-3, 4))
        E = change_model(E0, u, r, s, t)
        x0 = Fraction(rng.randrange(-20, 21), rng.randrange(1, 4))
        v = E.two_division_poly()(x0)
        if v == 0:
            continue
        d, m = squarefree_part_rational(v), rng.choice([-7, -3, -2, -1, 2, 3, 5, 6])
        if d == 1:
            K = quadratic_field(m)
        elif rng.random() < 0.5 or m == d:
            K = quadratic_field(d)
        else:
            K = biquadratic_field(d, m)
        R = curve_points_y(E, K.element(x0), K)[0]
        torsion2 = two_torsion(E, K)
        points = {R, R + R} | {R + T for T in torsion2} | torsion2
        out.append((E, K, R, {P for P in points if not P.is_infinity()}))
    return out


# 14a1, 17a1 and a curve with E(QQ) = Z/8: E(QQ)[2] = Z/2, and rank 0
ONE_ROOT_CURVES = ("1,0,1,4,-6", "1,-1,1,-1,-14", "1,1,1,35,-28")


def _seeded_one_root_cases(seed):
    """(E, K, R, points) for each curve of ONE_ROOT_CURVES and each kind of
    K (quadratic, cyclic quartic, biquadratic) with E(K)[2] = Z/2: R lies
    above a seeded rational x at which T(x) is not a rational square, so R
    is not a point over QQ, where the curves have only torsion, and points
    are R, [2]R, R + T and T, the point of order 2."""
    rng = random.Random(seed)
    out = []
    for spec in ONE_ROOT_CURVES:
        E = Curve.from_str(spec)
        for kind in ("quadratic", "cyclic", "biquadratic"):
            K = None
            while K is None or len(_es(E, K)) != 1:
                x0 = Fraction(rng.randrange(-20, 21), rng.randrange(1, 4))
                v = E.two_division_poly()(x0)
                d = squarefree_part_rational(v) if v else 1
                # the cyclic quartic d;d;u holds QQ(sqrt d) when d - u^2 is a square
                us = [u for u in range(1, isqrt(max(d, 0)) + 1)
                      if u * u < d and isqrt(d - u * u) ** 2 == d - u * u]
                m = rng.choice([m for m in (-7, -3, -2, -1, 2, 3, 5, 6) if m != d])
                if d == 1 or (kind == "cyclic" and not us):
                    K = None
                elif kind == "quadratic":
                    K = quadratic_field(d)
                elif kind == "cyclic":
                    K = parse_field_spec(f"{d};{d};{rng.choice(us)}")
                else:
                    K = biquadratic_field(d, m)
            R = curve_points_y(E, K.element(x0), K)[0]
            (T,) = two_torsion(E, K) - {Point.infinity(E, K)}
            out.append((E, K, R, {R, R + R, R + T, T}))
    return out


def _one_root_points_over_q():
    """(E, QQ, points) for each curve of ONE_ROOT_CURVES: its affine points
    over QQ, all of them torsion."""
    return [(E, Q, {P for P in lutz_nagell_torsion(E)[1] if not P.is_infinity()})
            for E in map(Curve.from_str, ONE_ROOT_CURVES)]


class TestHalves:
    """Knapp's halving from one root of the 2-division cubic or from all
    three, against the square-root reference."""

    @pytest.mark.parametrize("row", [row for row in PINNED_REPORTS if row["report"]["structure"][0] % 2 == 0],
                             ids=lambda row: f"{row['curve']}@{row['field']}")
    def test_every_point_of_the_pinned_rows(self, row):
        E, K = Curve.from_str(row["curve"]), parse_field_spec(row["field"])
        es = _es(E, K)
        assert len(es) == 3
        for P in torsion_over_field(E, K).points:
            if not P.is_infinity():
                assert halves(E, P, K, es) == halves(E, P, K, es[:1]) == sqrt_reference_preimages(E, P, K, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_points_of_infinite_order(self, seed):
        for E, K, R, points in _seeded_halving_cases(seed, 4):
            es = _es(E, K)
            for P in points:
                assert halves(E, P, K, es) == halves(E, P, K, es[:1]) == sqrt_reference_preimages(E, P, K, 2)
            assert R in halves(E, R + R, K, es)

    def test_cases_reach_both_answers(self):
        # the seeded points include some that halve and some that do not
        sizes = {len(halves(E, P, K, _es(E, K)))
                 for seed in (0, 1, 2) for E, K, _, points in _seeded_halving_cases(seed, 4) for P in points}
        assert sizes == {0, 4}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_root_on_seeded_points(self, seed):
        # E(K)[2] = Z/2 over quadratic, cyclic and biquadratic K, a1, a3 != 0
        cases = _seeded_one_root_cases(seed)
        assert {K.galois_type for E, K, _, _ in cases} == {
            GaloisType.Quadratic, GaloisType.CyclicQuartic, GaloisType.Biquadratic}
        for E, K, R, points in cases:
            es = _es(E, K)
            for P in points:
                assert halves(E, P, K, es) == sqrt_reference_preimages(E, P, K, 2), (E, K, P)
            assert R in halves(E, R + R, K, es)

    def test_one_root_over_q(self):
        for E, K, points in _one_root_points_over_q():
            es = _es(E, K)
            assert len(es) == 1
            for P in points:
                assert halves(E, P, K, es) == sqrt_reference_preimages(E, P, K, 2), (E, P)

    def test_one_root_cases_reach_every_answer(self):
        # no half and two halves, each for a point of order 2 and for P != -P
        cases = [(E, K, points) for seed in (0, 1) for E, K, _, points in _seeded_one_root_cases(seed)]
        seen = {(P == -P, len(halves(E, P, K, _es(E, K))))
                for E, K, points in cases + _one_root_points_over_q() for P in points}
        assert seen == {(True, 0), (True, 2), (False, 0), (False, 2)}

    def test_second_t_by_a_division(self, monkeypatch):
        # with all three e's, t2 = (e3 - e2) / t1: two square roots per point,
        # r and t1, and a third for s when x_P = e1; one e takes t2 by a
        # square root as well, and both give the same halves
        E, K = E_X3_X, parse_field_spec("-1,2")
        es = _es(E, K)
        sqrt, taken = ellcurve.sqrt_in_field, []
        monkeypatch.setattr(ellcurve, "sqrt_in_field", lambda b, K: taken.append(b) or sqrt(b, K))
        report = torsion_over_field(E, K)
        counts = {}
        for P in report.points:
            if not P.is_infinity():
                most = 3 if P.x == es[0] else 2
                got = []
                for extra, e in ((0, es), (1, es[:1])):
                    taken.clear()
                    got.append(halves(E, P, K, e))
                    roots = len(taken)
                    assert roots == most + extra if got[-1] else roots <= most + extra, P
                assert got[0] == got[1] == sqrt_reference_preimages(E, P, K, 2)
                counts[most, len(got[0])] = roots
        assert counts.keys() >= {(2, 4), (3, 4)}

    def test_wrong_root_raises(self, monkeypatch):
        # a root r with r^2 != x_P - e puts the half off the curve
        E, K = E_X3_X, parse_field_spec("-1,2")
        P = Point(E, K, (0, 0))
        sqrt = ellcurve.sqrt_in_field
        monkeypatch.setattr(ellcurve, "sqrt_in_field", lambda b, K: sqrt(b, K) * 2)
        with pytest.raises(InvariantViolationError):
            halves(E, P, K, _es(E, K))

    def test_wrong_root_raises_without_asserts(self):
        # the same for a wrong e2, with asserts stripped: e2 and e3 enter
        # only through t2 = (e3 - e2) / t1, so only the curve check can see
        # that the second pair of halves is wrong
        code = (
            "from quartic_torsion.ellcurve import Curve, Point, halves\n"
            "from quartic_torsion.errors import InvariantViolationError\n"
            "from quartic_torsion.numfield import parse_field_spec\n"
            "E, K = Curve([0, 0, 0, -1, 0]), parse_field_spec('-1,2')\n"
            "P = Point(E, K, (0, 0))\n"
            "assert False, 'asserts run'\n"
            "try:\n"
            "    halves(E, P, K, [K.element(0), K.element(-4), K.element(-1)])\n"
            "except InvariantViolationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        src = str(Path(quartic_torsion.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env=env, timeout=300)
        assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("curve, field", [
    ("1,-1,1,-1,-14", "13;13;2"),   # 17a1: E(K)[2] = Z/2, halved to Z/4
    ("1,1,1,35,-28", "1,1,1,1"),    # Z/8, E(K)[2] = Z/2
    ("0,0,0,-1,0", "-1,2"),         # E(K)[2] full
    ("0,-47,0,4096,0", "-7,-15"),   # E(K)[2] full, halving chain to Z/16
    ("0,0,0,-1,0", "QQ"),           # no half over QQ
])
def test_order_two_halving_lifts_no_polynomial(monkeypatch, curve, field):
    # the halves of a point of order 2, and theirs, come from square roots:
    # no lift of the degree-4 phi_2 - x_P psi_2^2, and no squarefree part
    E, K = Curve.from_str(curve), parse_field_spec(field)
    es = _es(E, K)
    order_two = [T for T in two_torsion(E, K) if not T.is_infinity()]
    expected = [sqrt_reference_preimages(E, T, K, 2) for T in order_two]
    fours = {P for pre in expected for P in pre}
    expected_halves = {P: sqrt_reference_preimages(E, P, K, 2) for P in fours}

    def forbidden(*args):
        raise AssertionError("halving lifted a polynomial")

    monkeypatch.setattr(KPoly, "squarefree", forbidden)
    monkeypatch.setattr(ellcurve, "roots_in_field", forbidden)
    assert [halves(E, T, K, es) for T in order_two] == expected
    assert {P: halves(E, P, K, es) for P in fours} == expected_halves
    assert any(expected) == (field != "QQ")


def test_order_two_halving_end_to_end_takes_no_squarefree_part(monkeypatch):
    # 17a1 over a cyclic quartic: Z/4 from one point of order 2
    monkeypatch.setattr(KPoly, "squarefree", lambda h: pytest.fail(f"squarefree part of {h!r}"))
    report = torsion_over_field(Curve.from_str("1,-1,1,-1,-14"), parse_field_spec("13;13;2"))
    assert report.structure == (1, 4)


class TestPreimagesByFormula:
    """m_preimages recovers y from [m]; the square-root search is the reference."""

    @pytest.mark.parametrize("field", ["QQ", "5;5;2", "-1,2", "1,1,1,1"])
    @pytest.mark.parametrize("curve", ["0,0,1,-1,0", "1,0,1,-3,0"], ids=["37a1", "a1_a3"])
    @pytest.mark.parametrize("m", [2, 3, 5, 7])
    def test_point_of_infinite_order(self, m, curve, field):
        # R = (0, 0) has infinite order on both curves; the second has a1, a3 != 0
        E, K = Curve.from_str(curve), parse_field_spec(field)
        R = Point(E, K, (0, 0))
        P = R.scalar_mul(m)
        pre = m_preimages(E, P, K, m)
        assert R in pre
        assert pre == sqrt_reference_preimages(E, P, K, m)

    def test_psi_2m_never_expanded(self):
        E, K = Curve.from_str("0,0,1,-1,0"), parse_field_spec("5;5;2")
        R = Point(E, K, (0, 0))
        assert R in m_preimages(E, R.scalar_mul(7), K, 7)
        assert 14 not in E._psi_cache

    def test_m_below_two_rejected(self):
        P = Point(E_X3_1, Q, (2, 3))
        with pytest.raises(ValueError):
            m_preimages(E_X3_1, P, Q, 1)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("curve", ["0,0,0,0,1", "1,-1,1,-1,-14"], ids=["x3+1", "17a1"])
    def test_point_of_order_two_rejected(self, curve, m):
        # P = -P is halved by `halves`; the lift of m_preimages refuses it
        E = Curve.from_str(curve)
        (P,) = two_torsion(E, Q) - {Point.infinity(E, Q)}
        assert P == -P
        with pytest.raises(ValueError):
            m_preimages(E, P, Q, m)


class TestLutzNagell:
    def test_z6(self):
        st, pts = lutz_nagell_torsion(E_X3_1)
        assert st == (1, 6)
        got = {(p.x.rational_value(), p.y.rational_value()) for p in pts if not p.is_infinity()}
        assert got == {(2, 3), (2, -3), (0, 1), (0, -1), (-1, 0)}

    def test_full_two(self):
        st, _ = lutz_nagell_torsion(E_X3_X)
        assert st == (2, 2)

    def test_11a1(self):
        st, _ = lutz_nagell_torsion(E11A1)
        assert st == (1, 5)

    def test_mazur_membership(self):
        allowed = {(1, n) for n in list(range(1, 11)) + [12]} | {(2, 2 * n) for n in range(1, 5)}
        for E in _random_curves():
            st, _ = lutz_nagell_torsion(E)
            assert st in allowed, (E, st)

    def test_engine_agrees_over_q(self):
        # Lutz-Nagell is the oracle for the engine's lift loop over QQ
        for E in _random_curves():
            assert lutz_nagell_torsion(E)[0] == torsion_over_field(E, Q).structure, E


def _random_curves():
    """The nonsingular curves among 25 seeded draws of small a-invariants."""
    rng = random.Random(26)
    out = []
    for _ in range(25):
        try:
            out.append(Curve([rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(-2, 3),
                              rng.randrange(-6, 7), rng.randrange(-6, 7)]))
        except SingularCurveError:
            continue
    return out


def _count_fp2(E, p, n):
    """#E~(F_(p^2)), F_(p^2) = F_p[t]/(t^2 - n) for a nonsquare n, by trying
    every affine (x, y) in the long Weierstrass equation."""
    a1, a2, a3, a4, a6 = (int(a) % p for a in E.a_invariants)

    def mul(u, v):
        return ((u[0] * v[0] + n * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)

    def add(*us):
        return (sum(u[0] for u in us) % p, sum(u[1] for u in us) % p)

    def lin(c, u):
        return (c * u[0] % p, c * u[1] % p)

    field = [(a, b) for a in range(p) for b in range(p)]
    count = 1
    for x in field:
        x2 = mul(x, x)
        rhs = add(mul(x2, x), lin(a2, x2), lin(a4, x), (a6, 0))
        c = add(lin(a1, x), (a3, 0))
        count += sum(1 for y in field if add(mul(y, y), mul(c, y)) == rhs)
    return count


class TestReductionOrder:
    """#E~(F_(p^f)) from a_p and the Frobenius recurrence, against counting."""

    CURVES = {"11a1": E11A1, "37a1": Curve([0, 0, 1, -1, 0]), "x^3-x": E_X3_X}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("name", sorted(CURVES))
    def test_against_brute_force(self, name, p):
        E = self.CURVES[name]
        if name == "11a1" and p == 11:
            assert E.reduction_order(p, 1) is None
            return
        a1, a2, a3, a4, a6 = (int(a) for a in E.a_invariants)
        over_fp = 1 + sum(1 for x in range(p) for y in range(p)
                          if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0)
        assert E.reduction_order(p, 1) == over_fp
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        assert E.reduction_order(p, 2) == _count_fp2(E, p, n)

    def test_bad_primes(self):
        E = Curve([Fraction(1, 5), 0, 0, 1, 0])
        assert E.reduction_order(5, 1) is None
        assert E.reduction_order(7, 1) is not None


class TestCurveCaches:
    """What a Curve keeps for the fields it is searched over: filled on first
    use, keyed by integers only, equal to what a fresh curve computes."""

    SPEC = "1,0,1,4,-6,14a1"

    def test_from_str_starts_empty(self):
        E = Curve.from_str(self.SPEC)
        assert (E._psi_cache, E._factor_cache) == ({}, {})

    def test_kept_values_match_a_fresh_curve(self):
        E = Curve.from_str(self.SPEC)
        for _ in range(2):
            for n, d in ((2, 4), (3, 2), (3, 4)):
                fresh = Curve.from_str(self.SPEC)
                assert E.x_division_factors(n, d) == factor_bounded(fresh.x_division_poly(n), d)
            for p, f in ((5, 1), (5, 2), (7, 4), (13, 2)):
                assert E.reduction_order(p, f) == Curve.from_str(self.SPEC).reduction_order(p, f)
        assert sorted(E._factor_cache) == [(2, 4), (3, 2), (3, 4)]

    def test_a_p_is_counted_once_per_prime(self, monkeypatch):
        # 14a1 has bad reduction at 7, which is kept as None
        E = Curve.from_str(self.SPEC)
        asked = [(p, f) for p in (5, 7, 13, 5) for f in (1, 2, 4)]
        expected = [Curve.from_str(self.SPEC).reduction_order(p, f) for p, f in asked]
        trace, counted = Curve._frobenius_trace, []
        monkeypatch.setattr(Curve, "_frobenius_trace", lambda E, p: counted.append(p) or trace(E, p))
        assert [E.reduction_order(p, f) for p, f in asked] == expected
        assert counted == [5, 7, 13] and expected[3:6] == [None] * 3
        assert E._ap_cache == {5: 5 + 1 - expected[0], 7: None, 13: 13 + 1 - expected[6]}

    def test_two_division_poly_is_built_once(self, monkeypatch):
        # T is built on first use, kept, and read by every later caller
        E = Curve.from_str(self.SPEC)
        assert E._two_division is None
        T = E.two_division_poly()
        assert T == RatPoly([E.b6, 2 * E.b4, E.b2, 4])
        built = []
        monkeypatch.setattr(ellcurve, "RatPoly", lambda *args: built.append(args) or RatPoly(*args))
        torsion_over_field(E, parse_field_spec("5;35;7"))
        assert E.two_division_poly() is T and E.x_division_poly(2) == T
        assert [args for args in built if args == ([E.b6, 2 * E.b4, E.b2, 4],)] == []

    def test_a_search_keys_nothing_by_field(self):
        E = Curve.from_str(self.SPEC)
        torsion_over_field(E, parse_field_spec("5;35;7"))
        assert E._factor_cache
        assert all(isinstance(n, int) and isinstance(d, int) for n, d in E._factor_cache)
