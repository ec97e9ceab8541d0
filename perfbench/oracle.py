"""An upper bound on #E(K)_tors that shares no code with the engine.

For a prime p >= 5 where every a-invariant is p-integral, p does not divide
disc(E), and the defining polynomial f of K has [K:QQ] distinct roots mod p,
p splits completely in K and E has good reduction at every prime above p.
Then E(K)_tors injects into E~(F_p) (the ramification index 1 is below
p - 1), so the order of E(K)_tors divides
B = gcd over such p of #E~(F_p).  Each #E~(F_p) is an integer Legendre sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

ORACLE_PRIMES = 12
_MAX_PRIME = 20000


def _primes_from(start: int):
    p = start
    while True:
        if p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1)):
            yield p
        p += 1


def field_polynomial(spec: str) -> list[Fraction]:
    """Coefficients, constant term first, of a defining polynomial of the
    field named by a field spec (any polynomial generating the same field)."""
    spec = spec.strip()
    if spec.lower() in ("q", "qq", "1"):
        return [Fraction(0), Fraction(1)]
    if ";" in spec:
        m, a, b = (Fraction(t) for t in spec.split(";"))
        # sqrt(a + b sqrt m) is a root of x^4 - 2a x^2 + (a^2 - b^2 m)
        return [a * a - b * b * m, Fraction(0), -2 * a, Fraction(0), Fraction(1)]
    parts = [Fraction(t) for t in spec.split(",")]
    if len(parts) == 1:
        return [-parts[0], Fraction(0), Fraction(1)]
    if len(parts) == 2:
        m, n = parts
        # sqrt m + sqrt n is a root of x^4 - 2(m+n) x^2 + (m-n)^2
        return [(m - n) ** 2, Fraction(0), -2 * (m + n), Fraction(0), Fraction(1)]
    if len(parts) == 4:
        return parts + [Fraction(1)]
    if len(parts) == 5:
        return parts
    raise ValueError(f"cannot read field spec {spec!r}")


def _integral(coeffs: list[Fraction]) -> list[int]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in coeffs]


def _splits_completely(f: list[int], p: int) -> bool:
    """Does f have deg(f) distinct roots mod p?"""
    deg = len(f) - 1
    if f[-1] % p == 0:
        return False
    roots = 0
    for x in range(p):
        v = 0
        for c in reversed(f):
            v = (v * x + c) % p
        if v == 0:
            roots += 1
    return roots == deg


def _mod(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def _point_count(b: tuple[int, int, int], p: int) -> int:
    """#E~(F_p) for odd p, on (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    b2, b4, b6 = b
    half = (p - 1) // 2
    total = p + 1
    for x in range(p):
        v = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if v:
            total += 1 if pow(v, half, p) == 1 else -1
    return total


def torsion_order_bound(curve: str, field: str) -> tuple[int, list[int]]:
    """(B, primes used) for the curve with a-invariants `curve` over the field
    named by `field`."""
    a1, a2, a3, a4, a6 = (Fraction(t) for t in curve.split(","))
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise ValueError(f"singular curve {curve!r}")
    den = 1
    for a in (a1, a2, a3, a4, a6):
        den = den * a.denominator // gcd(den, a.denominator)
    f = _integral(field_polynomial(field))
    bound = 0
    used: list[int] = []
    for p in _primes_from(5):
        if p > _MAX_PRIME:
            raise RuntimeError(f"fewer than {ORACLE_PRIMES} usable primes below {_MAX_PRIME}")
        if den % p == 0 or disc.numerator % p == 0 or not _splits_completely(f, p):
            continue
        bound = gcd(bound, _point_count(tuple(_mod(q, p) for q in (b2, b4, b6)), p))
        used.append(p)
        if len(used) == ORACLE_PRIMES:
            return bound, used
