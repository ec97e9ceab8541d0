"""Published families of curves and fields, with the groups they are known to
reach, run through the engine as lower bounds known before any search.

The families of Fujita and of Jeon, Kim and Lee realize (2, 16), (4, 8) and
(6, 6) over biquadratic fields.  Kubert's Tate normal forms put (0, 0) at
exact order N over QQ, so E(K)_tors has a point of order N over every K.
"""

import random
from fractions import Fraction

import pytest

from oracles import point_order
from quartic_torsion.ellcurve import Curve, Point
from quartic_torsion.errors import SingularCurveError
from quartic_torsion.exactmath import squarefree_part_rational
from quartic_torsion.numfield import biquadratic_field, parse_field_spec, quadratic_field, rational_roots
from quartic_torsion.torsion import torsion_over_field


def family_fujita(t: int):
    """y^2 = x (x + (t^2-1)^4)(x + (2t)^4) over
    QQ(sqrt(t(t^2-1)), sqrt((t^2-1)(t^2+1)(t^2+2t-1))), expecting (2, 16).
    Returns (curve, field, expected group)."""
    t = int(t)
    if t <= 1:
        raise ValueError("parameter must be an integer > 1")
    u = (t * t - 1) ** 4
    v = (2 * t) ** 4
    E = Curve([0, u + v, 0, u * v, 0])
    m1 = squarefree_part_rational(Fraction(t * (t * t - 1)))
    m2 = squarefree_part_rational(Fraction((t * t - 1) * (t * t + 1) * (t * t + 2 * t - 1)))
    return E, biquadratic_field(m1, m2), (2, 16)


def family_jkl(variant: str, t):
    """The two biquadratic families expecting (4, 8) and (6, 6).  Returns
    (curve, field, expected group), the field None where the parameter
    collapses it to a quadratic field.

    For the 4x8 family the printed source equation repeats the x^3 term; the
    model used reads the second of those terms as x^2."""
    t = Fraction(t)
    if variant == "4x8":
        if t in (0, 1, -1):
            raise ValueError("parameter t must avoid 0, +-1")
        nu = (t**4 - 6 * t**2 + 1) / (4 * (t**2 + 1) ** 2)
        c = nu * nu - Fraction(1, 16)
        E = Curve([1, -c, -c, 0, 0])
        m2 = squarefree_part_rational(t**4 - 6 * t**2 + 1)
        return E, None if m2 == -1 else biquadratic_field(-1, m2), (4, 8)
    if variant == "6x6":
        if t in (0, 1, Fraction(-1, 2)):
            raise ValueError("parameter t must avoid 0, 1, -1/2")
        mu = (2 * t**3 + 1) / (3 * t**2)
        E = Curve([0, 0, 0, -27 * mu * (mu**3 + 8), 54 * (mu**6 - 20 * mu**3 - 8)])
        m2 = squarefree_part_rational(8 * t**3 + 1)
        return E, None if m2 == -3 else biquadratic_field(-3, m2), (6, 6)
    raise ValueError(f"unknown family variant {variant!r}")


# Kubert's (b, c) of the Tate normal form y^2 + (1 - c) xy - by = x^3 - bx^2
# with (0, 0) of order N (Kubert, Proc. London Math. Soc. 33, 1976)
KUBERT = {
    4: lambda t: (t, 0),
    5: lambda t: (t, t),
    6: lambda t: (t + t * t, t),
    7: lambda t: (t**3 - t * t, t * t - t),
    8: lambda t: ((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
    9: lambda t: (t * t * (t - 1) * (t * t - t + 1), t * t * (t - 1)),
    10: lambda t: (t**3 * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1) ** 2,
                   -t * (t - 1) * (2 * t - 1) / (t * t - 3 * t + 1)),
    12: lambda t: (t * (2 * t - 1) * (2 * t * t - 2 * t + 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 4,
                   -t * (2 * t - 1) * (3 * t * t - 3 * t + 1) / (t - 1) ** 3),
}


class TestHesseFamily:
    # a-invariants of the (6,6) family at t = 2 and t = 3, with a6 =
    # 54 (mu^6 - 20 mu^3 - 8), mu = (2t^3 + 1) / (3t^2)
    EXPECTED = {
        2: (Fraction(-318529, 768), Fraction(-169543583, 55296)),
        3: (Fraction(-17811145, 19683), Fraction(-81827811574, 14348907)),
    }

    def test_a_invariants(self):
        for t, (a4, a6) in self.EXPECTED.items():
            assert family_jkl("6x6", t)[0].a_invariants == (0, 0, 0, a4, a6)

    def test_two_division_cubic_has_a_rational_root(self):
        # full 2-torsion over a quartic field needs a rational root: an
        # irreducible cubic splits only over fields of degree divisible by 3
        for t in self.EXPECTED:
            assert rational_roots(family_jkl("6x6", t)[0].two_division_poly())


class TestFamiliesThroughEngine:
    # the first engine witnesses for (2,16), (4,8) and (6,6) of THM_BIQUADRATIC
    @pytest.mark.parametrize("fp", [family_fujita(2), family_jkl("4x8", 2), family_jkl("6x6", 2)],
                             ids=["fujita_2", "jkl_4x8_2", "jkl_6x6_2"])
    def test_reproduces_expected_group(self, fp):
        E, K, expected = fp
        assert K.degree == 4
        assert torsion_over_field(E, K).structure == expected


@pytest.mark.parametrize("field", ["q", "-1", "5;5;2", "-1,2", "1,1,1,1"])
@pytest.mark.parametrize("t", [Fraction(3), Fraction(-2, 5)], ids=["3", "-2/5"])
@pytest.mark.parametrize("N", sorted(KUBERT))
def test_tate_normal_form_lower_bound(N, t, field):
    # (0, 0) has order N by repeated addition, so N divides the exponent d2
    b, c = KUBERT[N](t)
    E, K = Curve([1 - c, -b, -b, 0, 0]), parse_field_spec(field)
    assert point_order(Point(E, K, (0, 0)), N) == N
    assert torsion_over_field(E, K).structure[1] % N == 0


@pytest.mark.parametrize("N", (10, 12))
def test_tate_normal_form_grows_full_two_torsion(N):
    # E(QQ) = Z/N, N = 10 or 12, has one rational 2-torsion point, and the
    # other two roots of the 2-division cubic generate QQ(sqrt(Delta)), so
    # there E(K)_tors = Z/2 x Z/N, the only row of GROWTH_QUADRATIC[(1, N)]
    # with full 2-torsion; seeded parameters, singular ones skipped
    rng = random.Random(f"growth:{N}")
    cases = 0
    while cases < 6:
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        try:
            b, c = KUBERT[N](t)
            E = Curve([1 - c, -b, -b, 0, 0])
        except (ZeroDivisionError, SingularCurveError):
            continue
        if squarefree_part_rational(E.disc) == 1:
            continue
        assert torsion_over_field(E, quadratic_field(E.disc)).structure == (2, N), t
        cases += 1
