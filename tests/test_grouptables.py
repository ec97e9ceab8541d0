"""The classification tables and the search caps and primes derived from them.

Each table is compared with a literal copy of its published list, and the
derived caps and primes with the values the engine searched with when they
were written by hand.  A change to a table therefore shows up here before it
changes what the engine searches.
"""

import pytest

from quartic_torsion import grouptables as gt
from quartic_torsion.errors import UnsupportedFieldError
from quartic_torsion.numfield import GaloisType
from quartic_torsion.torsion import TorsionStructure, p_primary_bound, search_primes


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


# the per-prime caps as they were written by hand before being derived
CAPS = {
    GaloisType.CyclicQuartic: {2: (2, 16), 3: (1, 9), 5: (5, 5), 7: (1, 7), 13: (1, 13)},
    GaloisType.Biquadratic: {2: (4, 16), 3: (3, 9), 5: (1, 5), 7: (1, 7), 13: (1, 1)},
    GaloisType.Quadratic: {2: (4, 16), 3: (3, 9), 5: (1, 5), 7: (1, 7), 13: (1, 1)},
    GaloisType.Rational: {2: (2, 8), 3: (1, 9), 5: (1, 5), 7: (1, 7), 13: (1, 1)},
}


@pytest.mark.parametrize("g", list(CAPS), ids=lambda g: g.value)
@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_p_primary_bound(g, p):
    assert p_primary_bound(p, g) == TorsionStructure(*CAPS[g][p])


@pytest.mark.parametrize("g, primes", [
    (GaloisType.Rational, (2, 3, 5, 7)),
    (GaloisType.Quadratic, (2, 3, 5, 7)),
    (GaloisType.Biquadratic, (2, 3, 5, 7)),
    (GaloisType.CyclicQuartic, (2, 3, 5, 7, 13)),
], ids=lambda v: v.value if isinstance(v, GaloisType) else None)
def test_search_primes(g, primes):
    assert search_primes(g) == primes


def test_non_galois_quartic_has_no_table():
    with pytest.raises(UnsupportedFieldError):
        search_primes(GaloisType.NonGaloisQuartic)
    with pytest.raises(UnsupportedFieldError):
        p_primary_bound(2, GaloisType.NonGaloisQuartic)
