from fractions import Fraction

import pytest

from quartic_torsion.catalog import family_fujita, family_jkl
from quartic_torsion.numfield import rational_roots
from quartic_torsion.torsion import torsion_over_field


class TestHesseFamily:
    # a-invariants of the (6,6) family at t = 2 and t = 3, with a6 =
    # 54 (mu^6 - 20 mu^3 - 8), mu = (2t^3 + 1) / (3t^2)
    EXPECTED = {
        2: (Fraction(-318529, 768), Fraction(-169543583, 55296)),
        3: (Fraction(-17811145, 19683), Fraction(-81827811574, 14348907)),
    }

    def test_a_invariants(self):
        for t, (a4, a6) in self.EXPECTED.items():
            assert family_jkl("6x6", t).curve.a_invariants == (0, 0, 0, a4, a6)

    def test_two_division_cubic_has_a_rational_root(self):
        # full 2-torsion over a quartic field needs a rational root: an
        # irreducible cubic splits only over fields of degree divisible by 3
        for t in self.EXPECTED:
            assert rational_roots(family_jkl("6x6", t).curve.two_division_poly())


class TestFamiliesThroughEngine:
    # the first engine witnesses for (2,16), (4,8) and (6,6) of THM_BIQUADRATIC
    @pytest.mark.parametrize("fp", [family_fujita(2), family_jkl("4x8", 2), family_jkl("6x6", 2)],
                             ids=["fujita_2", "jkl_4x8_2", "jkl_6x6_2"])
    def test_reproduces_expected_group(self, fp):
        assert fp.field_.degree == 4
        assert torsion_over_field(fp.curve, fp.field_).structure == fp.expected
