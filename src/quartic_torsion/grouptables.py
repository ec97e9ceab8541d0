"""The classification lists as plain data, against which every result is
validated.

Groups are pairs (d1, d2) with d1 | d2 meaning Z/d1 + Z/d2; (1, 1) is the
trivial group.  Each table is hard-coded to match its published list line by
line; nothing here is derived from another table.  The engine searches the
primes and lift depths that its per-curve bound B allows
(`torsion.reduction_bound`), never a table; a table only decides the
`classification_membership` and `growth_chain` checks of a report.
`tests/test_grouptables.py` pins the four classification tables and the
growth table to literal copies, so a transcription error there fails a test
rather than a report.
"""

from __future__ import annotations


def _cyclic(ns):
    return frozenset((1, n) for n in ns)


def _family(d, ns):
    return frozenset((d, d * n) for n in ns)


# torsion of elliptic curves over QQ: 15 groups
MAZUR = _cyclic(list(range(1, 11)) + [12]) | _family(2, range(1, 5))

# rational curves over a quadratic field
NAJMAN_QUAD_RAT = (_cyclic(list(range(1, 11)) + [12, 15, 16])
                   | _family(2, range(1, 7)) | _family(3, (1, 2)) | _family(4, (1,)))

# rational curves over a cyclic quartic field
THM_CYCLIC_QUARTIC = (_cyclic([*range(1, 11), 12, 13, 15, 16])
                      | _family(2, (1, 2, 3, 4, 5, 6, 8))
                      | frozenset({(5, 5)}))

# rational curves over a biquadratic field
THM_BIQUADRATIC = (_cyclic([*range(1, 11), 12, 15, 16])
                   | _family(2, (1, 2, 3, 4, 5, 6, 8))
                   | _family(3, (1, 2)) | _family(4, (1, 2))
                   | frozenset({(6, 6)}))

# how rational torsion can grow in one quadratic step: the printed table,
# one row for each group of MAZUR (González-Jiménez and Tornero 2014, Thm 2)
GROWTH_QUADRATIC: dict[tuple[int, int], frozenset[tuple[int, int]]] = {
    (1, 1): _cyclic((1, 3, 5, 7, 9)),
    (1, 2): _cyclic((2, 4, 6, 8, 10, 12, 16)) | frozenset({(2, 2), (2, 6), (2, 10)}),
    (1, 3): _cyclic((3, 15)) | frozenset({(3, 3)}),
    (1, 4): _cyclic((4, 8, 12)) | frozenset({(2, 4), (2, 8), (2, 12), (4, 4)}),
    (1, 5): _cyclic((5, 15)),
    (1, 6): _cyclic((6, 12)) | frozenset({(2, 6), (3, 6)}),
    (1, 7): _cyclic((7,)),
    (1, 8): _cyclic((8, 16)) | frozenset({(2, 8)}),
    (1, 9): _cyclic((9,)),
    (1, 10): _cyclic((10,)) | frozenset({(2, 10)}),
    (1, 12): _cyclic((12,)) | frozenset({(2, 12)}),
    (2, 2): frozenset({(2, 2), (2, 4), (2, 6), (2, 8), (2, 12)}),
    (2, 4): frozenset({(2, 4), (2, 8), (4, 4)}),
    (2, 6): frozenset({(2, 6), (2, 12)}),
    (2, 8): frozenset({(2, 8)}),
}
