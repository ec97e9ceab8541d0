import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from sympy import QQ, Poly, Rational, symbols

from quartic_torsion import _intpoly
from quartic_torsion.ellcurve import Curve
from quartic_torsion.exactmath import (
    RatPoly,
    factor_bounded,
    is_rational_square,
    poly_gcd,
    poly_xgcd,
    rat_from_str,
    rat_to_str,
    resultant,
    squarefree_part_rational,
)
from quartic_torsion.numfield import parse_field_spec

X = RatPoly([0, 1])
ONE = RatPoly([1])


def rand_poly(rng, deg, span=9):
    cs = [Fraction(rng.randrange(-span, span + 1)) for _ in range(deg)]
    cs.append(Fraction(rng.randrange(1, span + 1)))
    return RatPoly(cs)


def divides(d: RatPoly, f: RatPoly) -> bool:
    return f.divmod(d)[1].is_zero()


class TestRationalText:
    def test_roundtrip(self):
        for s in ["3", "-3", "5/7", "-12/35", "0"]:
            assert rat_to_str(rat_from_str(s)) == s

    def test_lowest_terms(self):
        assert rat_from_str("4/6") == Fraction(2, 3)


class TestPolyBasics:
    def test_zero_degree_sentinel(self):
        assert RatPoly([]).degree is None
        assert RatPoly([0, 0]).degree is None
        assert RatPoly([5]).degree == 0

    def test_text_roundtrip(self):
        p = RatPoly([5, 0, -10, 0, 1])
        assert p.to_str() == "5,0,-10,0,1"
        assert RatPoly([rat_from_str(t) for t in p.to_str().split(",")]) == p

    def test_divmod_recomposes(self):
        rng = random.Random(1)
        for _ in range(40):
            a = rand_poly(rng, rng.randrange(0, 9))
            b = rand_poly(rng, rng.randrange(0, 5))
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree

    def test_product_is_the_convolution(self):
        rng = random.Random(2)
        for _ in range(60):
            a, b = (RatPoly([Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 6, 35]))
                             for _ in range(rng.randrange(0, 6))]) for _ in range(2))
            conv = [sum((x * b.coeffs[k - i] for i, x in enumerate(a.coeffs)
                         if 0 <= k - i < len(b.coeffs)), Fraction(0))
                    for k in range(len(a.coeffs) + len(b.coeffs) - 1)]
            assert a * b == RatPoly(conv)


class TestPolyGcd:
    def test_shared_root(self):
        # gcd(x^2-1, x-1) = x-1
        f = RatPoly([-1, 0, 1])
        g = RatPoly([-1, 1])
        assert poly_gcd(f, g) == g

    def test_gcd_with_zero(self):
        f = RatPoly([2, 4])
        assert poly_gcd(f, RatPoly([])) == f.monic()
        assert poly_gcd(RatPoly([]), f) == f.monic()

    def test_divides_both_and_scaling(self):
        rng = random.Random(2)
        for _ in range(30):
            f = rand_poly(rng, rng.randrange(1, 5))
            g = rand_poly(rng, rng.randrange(1, 5))
            h = rand_poly(rng, rng.randrange(1, 4))
            d = poly_gcd(f, g)
            assert divides(d, f) and divides(d, g)
            # gcd(f h, g h) = monic(h) * gcd(f, g)
            assert poly_gcd(f * h, g * h) == (h.monic() * d)

    def test_many_primes_before_the_gcd_is_found(self):
        # a cubic gcd with 200-digit coefficients: its CRT image is the gcd
        # only after more than 64 primes from 61 up
        rng = random.Random(200)
        g = RatPoly([rng.choice((-1, 1)) * rng.randrange(10**199, 10**200) for _ in range(4)])
        f1, f2 = g * RatPoly([1, 0, 1]), g * RatPoly([-2, 3, 5])
        d = poly_gcd(f1, f2)
        assert divides(d, f1) and divides(d, f2)
        assert d == g.monic()

    def test_xgcd_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            f = rand_poly(rng, rng.randrange(1, 5))
            g = rand_poly(rng, rng.randrange(1, 5))
            d, u, v = poly_xgcd(f, g)
            assert u * f + v * g == d
            assert d == poly_gcd(f, g)


class TestResultant:
    def test_linear_pair(self):
        # Res(x-2, x-3) = g evaluated at 2 = -1
        assert resultant(RatPoly([-2, 1]), RatPoly([-3, 1])) == -1

    def test_common_roots(self):
        f = RatPoly([-5, 0, 1])
        assert resultant(f, f) == 0

    def test_norm_of_linear_form(self):
        # Res_theta(theta^2 - 5, x - theta) as a function of x is x^2 - 5:
        # check at sample values of x, each a univariate resultant
        f = RatPoly([-5, 0, 1])
        for x0 in range(-3, 4):
            g = RatPoly([x0, -1])  # x0 - theta as polynomial in theta
            assert resultant(f, g) == x0 * x0 - 5

    def test_vanishes_iff_gcd_nonconstant(self):
        rng = random.Random(4)
        for _ in range(40):
            f = rand_poly(rng, rng.randrange(1, 9, 1))
            g = rand_poly(rng, rng.randrange(1, 9, 1))
            r = resultant(f, g)
            d = poly_gcd(f, g)
            assert (r == 0) == (d.degree > 0)

    def test_multiplicativity(self):
        rng = random.Random(5)
        for _ in range(20):
            f = rand_poly(rng, rng.randrange(1, 4))
            g = rand_poly(rng, rng.randrange(1, 4))
            h = rand_poly(rng, rng.randrange(1, 4))
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


class TestFactorBounded:
    def test_x4_minus_1(self):
        facs = factor_bounded(RatPoly([-1, 0, 0, 0, 1]), 4)
        assert facs == {RatPoly([-1, 1]), RatPoly([1, 1]), RatPoly([1, 0, 1])}

    def test_quartic_field_poly_irreducible(self):
        f = RatPoly([5, 0, -10, 0, 1])
        assert factor_bounded(f, 4) == {f}

    def test_multiplicities(self):
        # x^6 + x^3 = x^3 (x+1)(x^2-x+1): each factor once, whatever its
        # multiplicity
        facs = factor_bounded(RatPoly([0, 0, 0, 1, 0, 0, 1]), 4)
        assert facs == {RatPoly([0, 1]), RatPoly([1, 1]), RatPoly([1, -1, 1])}

    def test_degree_cap_excludes_big_factors(self):
        big = RatPoly([3, 1, 0, 0, 0, 0, 1])  # irreducible sextic x^6+x+3
        f = RatPoly([1, 0, 1]) * big
        facs = factor_bounded(f, 4)
        assert facs == {RatPoly([1, 0, 1])}

    def test_reassembly(self):
        rng = random.Random(8)
        for _ in range(15):
            f = ONE
            for _ in range(rng.randrange(1, 4)):
                f = f * rand_poly(rng, rng.randrange(1, 4)) ** rng.randrange(1, 3)
            facs = factor_bounded(f, 4)
            prod = ONE
            for g in facs:
                prod = prod * g
            # cofactor of degree > dmax: divide out and confirm exactness
            q, r = f.divmod(prod)
            assert r.is_zero()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_bounded(RatPoly([]), 4)


DATA = Path(__file__).parent / "data"
KNOWN_GROUP_CURVES = [row["curve"] for row in json.loads((DATA / "known_groups_reports.json").read_text())]
SEED0_FIELDS = sorted({row["field"] for row in json.loads((DATA / "seed0_report_digests.json").read_text())})


def sympy_factors(h: RatPoly, dmax: int) -> frozenset[RatPoly]:
    """The distinct monic irreducible factors of h over QQ of degree <= dmax,
    from sympy's factorization."""
    coeffs = [Rational(c.numerator, c.denominator) for c in reversed(h.coeffs)]
    _, factors = Poly(coeffs, symbols("x"), domain=QQ).factor_list()
    return frozenset(RatPoly([Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())])
                     for g, _ in factors if g.degree() <= dmax)


class TestFactorBoundedAgainstSympy:
    """factor_bounded against sympy's factor_list, at the default prime floor
    and at the old floor of 1000: the primes differ, the factors may not."""

    @staticmethod
    def check(h, dmaxes, monkeypatch):
        factors = sympy_factors(h, max(dmaxes))
        expected = {d: frozenset(g for g in factors if g.degree <= d) for d in dmaxes}
        assert {d: factor_bounded(h, d) for d in dmaxes} == expected
        monkeypatch.setattr(_intpoly, "PRIME_FLOOR", 1000)
        assert {d: factor_bounded(h, d) for d in dmaxes} == expected

    @pytest.mark.parametrize("n", (3, 5, 7))
    @pytest.mark.parametrize("curve", KNOWN_GROUP_CURVES)
    def test_division_polynomials_of_known_groups_curves(self, curve, n, monkeypatch):
        self.check(Curve.from_str(curve).division_polynomial(n), (1, 2, 4), monkeypatch)

    @pytest.mark.parametrize("n", (11, 13))
    def test_division_polynomials_of_the_z13_witness(self, n, monkeypatch):
        # psi_13 has degree 84 and three quadratic factors
        self.check(Curve.from_str("0,0,0,-2227,59534").division_polynomial(n), (1, 2, 4), monkeypatch)

    @pytest.mark.parametrize("field", SEED0_FIELDS)
    def test_seed0_field_polynomials(self, field, monkeypatch):
        f = parse_field_spec(field).defining_poly
        self.check(f, range(1, f.degree + 1), monkeypatch)


class TestFactorBoundedRepeatedFactors:
    """x^k g^m, k >= 1, m in {2, 3}, times a rational != 1, against sympy's
    distinct factors for every dmax from 1 to 4.  Neither psi_l nor the
    2-division cubic of a nonsingular curve has a repeated factor, so only
    such inputs reach the squarefree step, and only those with h(0) = 0 meet
    the factorizer with a zero constant term."""

    def test_against_sympy(self):
        rng = random.Random(11)
        linear_gcd = 0
        for deg, k, m, _ in product((1, 2, 3), (1, 2, 3), (2, 3), range(4)):
            h = X**k * rand_poly(rng, deg) ** m
            h = h.scale(Fraction(rng.choice((-7, -2, 2, 3, 5)), rng.choice((1, 4, 9))))
            linear_gcd += poly_gcd(h, h.derivative()).degree == 1
            for dmax in range(1, 5):
                assert factor_bounded(h, dmax) == sympy_factors(h, dmax), (h, dmax)
        # gcd(h, h') of degree 1 (h = c x g^2, g linear) is the case that a
        # test of deg gcd > 1 instead of deg gcd > 0 would miss
        assert linear_gcd >= 3


class TestSquarefreeIntegers:
    def test_rational_squarefree_part(self):
        assert squarefree_part_rational(Fraction(8)) == 2
        assert squarefree_part_rational(Fraction(-45)) == -5
        assert squarefree_part_rational(Fraction(4, 9)) == 1
        assert squarefree_part_rational(Fraction(80, 1)) == 5

    def test_numerator_and_denominator_factored_apart(self):
        # two primes near 10^10: each is far below the limit of trial
        # division, their product of about 10^20 is not
        p, q = 10000000019, 10000000033
        assert squarefree_part_rational(Fraction(-p, 4 * q)) == -p * q

    def test_is_rational_square(self):
        assert is_rational_square(Fraction(4, 9))
        assert not is_rational_square(Fraction(8))
        assert not is_rational_square(Fraction(-4))
