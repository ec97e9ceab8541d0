"""The classification tables, which the engine uses only to validate.

The engine's search is driven by the per-curve bound B, so the tables decide
no prime and no lift depth; they decide the `classification_membership`
check.  Each table is compared with a literal copy of its published list, so a
transcription error shows up here rather than as a failing check.  The
structural constraints that membership in a table implies (full level, Landau
bound, rational isogeny degrees, excluded orders and subgroups) are written
out here as literal predicates, and every table member must pass them: the
engine checks only membership.
"""

from math import gcd

import pytest
from sympy import divisors, primefactors

from quartic_torsion import grouptables as gt
from quartic_torsion.errors import UnsupportedFieldError
from quartic_torsion.numfield import GaloisType
from quartic_torsion.torsion import classification_table


def _cyclic(*ns):
    return {(1, n) for n in ns}


def _times(d, *ns):
    return {(d, d * n) for n in ns}


# Mazur: Z/N for N = 1..10, 12; Z/2 x Z/2N for N = 1..4
MAZUR = _cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12) | _times(2, 1, 2, 3, 4)
# Najman, rational curves over quadratic fields: Z/N for N = 1..10, 12, 15, 16;
# Z/2 x Z/2N for N = 1..6; Z/3 x Z/3N for N = 1, 2; Z/4 x Z/4
NAJMAN = (_cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16) | _times(2, 1, 2, 3, 4, 5, 6)
          | _times(3, 1, 2) | _times(4, 1))
# cyclic quartic: Z/N for N = 1..10, 12, 13, 15, 16; Z/2 x Z/2N for
# N = 1..6, 8; Z/5 x Z/5
CYCLIC_QUARTIC = (_cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16)
                  | _times(2, 1, 2, 3, 4, 5, 6, 8) | _times(5, 1))
# biquadratic: Z/N for N = 1..10, 12, 15, 16; Z/2 x Z/2N for N = 1..6, 8;
# Z/3 x Z/3N for N = 1, 2; Z/4 x Z/4N for N = 1, 2; Z/6 x Z/6
BIQUADRATIC = (_cyclic(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16)
               | _times(2, 1, 2, 3, 4, 5, 6, 8) | _times(3, 1, 2) | _times(4, 1, 2)
               | _times(6, 1))


@pytest.mark.parametrize("table, expected, size", [
    (gt.MAZUR, MAZUR, 15),
    (gt.NAJMAN_QUAD_RAT, NAJMAN, 22),
    (gt.THM_CYCLIC_QUARTIC, CYCLIC_QUARTIC, 22),
    (gt.THM_BIQUADRATIC, BIQUADRATIC, 25),
], ids=["mazur", "najman", "cyclic_quartic", "biquadratic"])
def test_table_is_the_published_list(table, expected, size):
    assert len(expected) == size
    assert set(table) == expected


# González-Jiménez and Tornero 2014, Thm 2: for each E(QQ)_tors, every
# E(K)_tors over a quadratic field K
GROWTH_QUADRATIC = {
    (1, 1): {(1, 1), (1, 3), (1, 5), (1, 7), (1, 9)},
    (1, 2): {(1, 2), (1, 4), (1, 6), (1, 8), (1, 10), (1, 12), (1, 16),
             (2, 2), (2, 6), (2, 10)},
    (1, 3): {(1, 3), (1, 15), (3, 3)},
    (1, 4): {(1, 4), (1, 8), (1, 12), (2, 4), (2, 8), (2, 12), (4, 4)},
    (1, 5): {(1, 5), (1, 15)},
    (1, 6): {(1, 6), (1, 12), (2, 6), (3, 6)},
    (1, 7): {(1, 7)},
    (1, 8): {(1, 8), (1, 16), (2, 8)},
    (1, 9): {(1, 9)},
    (1, 10): {(1, 10), (2, 10)},
    (1, 12): {(1, 12), (2, 12)},
    (2, 2): {(2, 2), (2, 4), (2, 6), (2, 8), (2, 12)},
    (2, 4): {(2, 4), (2, 8), (4, 4)},
    (2, 6): {(2, 6), (2, 12)},
    (2, 8): {(2, 8)},
}


def test_growth_table_is_the_published_table():
    assert {g: set(row) for g, row in gt.GROWTH_QUADRATIC.items()} == GROWTH_QUADRATIC


def test_growth_table_is_consistent_with_the_classifications():
    for (a, b), row in gt.GROWTH_QUADRATIC.items():
        assert (a, b) in gt.MAZUR
        assert (a, b) in row
        for c, d in row:
            assert (c, d) in gt.NAJMAN_QUAD_RAT
            # E(QQ)_tors is a subgroup of E(K)_tors
            assert c % a == 0 and d % b == 0, ((a, b), (c, d))


def test_non_galois_quartic_has_no_table():
    with pytest.raises(UnsupportedFieldError):
        classification_table(GaloisType.NonGaloisQuartic)


# levels n at which full n-torsion can be defined over a field of each type
FULL_LEVELS = {
    GaloisType.Rational: {1, 2},
    GaloisType.Quadratic: {1, 2, 3, 4},
    GaloisType.Biquadratic: {1, 2, 3, 4, 6},
    GaloisType.CyclicQuartic: {1, 2, 5, 10},
}
DEGREE = {GaloisType.Rational: 1, GaloisType.Quadratic: 2,
          GaloisType.Biquadratic: 4, GaloisType.CyclicQuartic: 4}
# Landau's function g(n), the largest order of an element of S_n: full
# p-torsion over a field of degree n needs p - 1 <= g(n)
LANDAU_G = {1: 1, 2: 2, 4: 4}
# degrees of cyclic rational isogenies: n <= 19 or one of the sporadic values
ISOGENY_DEGREES = set(range(1, 20)) | {21, 25, 27, 37, 43, 67, 163}
# orders of no point of E(K), E over QQ, K cyclic quartic
EXCLUDED_ORDERS_CYCLIC_QUARTIC = (11, 14, 18, 20, 21, 22, 24)
# groups that never embed in E(K) for K quartic (any E over K)
BN_EXCLUDED_QUARTIC = {
    (3, 12), (3, 18), (3, 27), (3, 33), (3, 39),
    (4, 12), (4, 16), (4, 28), (4, 44), (4, 52), (4, 68),
    (8, 8),
}


def _two_part(n):
    return n & -n


def _violations(g, d1, d2):
    """Names of the structural constraints that Z/d1 + Z/d2 over a field of
    type g breaks."""
    out = set()
    if d1 not in FULL_LEVELS[g]:
        out.add("full_level")
    for p in primefactors(d1):
        if p - 1 > LANDAU_G[DEGREE[g]]:
            out.add("landau_bound")
        if g is GaloisType.CyclicQuartic and p not in (2, 5):
            out.add("full_p_cyclic_quartic")
    for n in divisors(d2)[1:]:
        # the cyclic layers are Galois stable, so they are rational isogenies
        if gcd(n, d1) == 1 and n not in ISOGENY_DEGREES:
            out.add("cyclic_layer_isogeny")
        if g is GaloisType.CyclicQuartic and n % 2 and n % 5 and n not in ISOGENY_DEGREES:
            out.add("odd_layer_isogeny_cyclic")
    if _two_part(d1) == 2 and _two_part(d2) >= 4 and _two_part(d2) // 2 not in ISOGENY_DEGREES:
        out.add("two_power_isogeny")
    if g is GaloisType.CyclicQuartic and any(d2 % n == 0 for n in EXCLUDED_ORDERS_CYCLIC_QUARTIC):
        out.add("excluded_order")
    if DEGREE[g] == 4 and (d1, d2) in BN_EXCLUDED_QUARTIC:
        out.add("not_bn_excluded")
    return out


@pytest.mark.parametrize("g", list(FULL_LEVELS), ids=lambda g: g.value)
def test_members_pass_the_structural_constraints(g):
    broken = {group: v for group in classification_table(g) if (v := _violations(g, *group))}
    assert not broken


@pytest.mark.parametrize("g, group, name", [
    (GaloisType.Biquadratic, (5, 5), "full_level"),
    (GaloisType.Biquadratic, (7, 7), "landau_bound"),
    (GaloisType.CyclicQuartic, (3, 3), "full_p_cyclic_quartic"),
    (GaloisType.Quadratic, (1, 23), "cyclic_layer_isogeny"),
    (GaloisType.Biquadratic, (2, 64), "two_power_isogeny"),
    (GaloisType.CyclicQuartic, (5, 115), "odd_layer_isogeny_cyclic"),
    (GaloisType.CyclicQuartic, (1, 11), "excluded_order"),
    (GaloisType.Biquadratic, (4, 16), "not_bn_excluded"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_each_constraint_excludes_a_group(g, group, name):
    assert name in _violations(g, *group)
