"""Rational isogeny admissibility: the allowed-degree table and the cyclic
layers of a torsion structure whose Galois stability forces an isogeny.

The degree table is an exact membership set; no divisibility closure is ever
assumed.  CM status is unknown to the engine, so the table includes the CM
degrees, which can only under-report violations, never fabricate one.
"""

from __future__ import annotations

from math import gcd

# degrees of cyclic rational isogenies: n <= 19 or one of the sporadic values
ISOGENY_DEGREES_ALL = frozenset(range(1, 20)) | {21, 25, 27, 37, 43, 67, 163}


def allowed_rational_isogeny_degree(n: int) -> bool:
    """Can some rational elliptic curve admit a cyclic n-isogeny over QQ?"""
    if n < 1:
        raise ValueError("degree must be positive")
    return n in ISOGENY_DEGREES_ALL


def cyclic_layer_degrees(d1: int, d2: int) -> list[int]:
    """All n with E(K)[n] cyclic of order n > 1, given structure (d1, d2)."""
    return [n for n in range(2, d2 + 1) if d2 % n == 0 and gcd(n, d1) == 1]
