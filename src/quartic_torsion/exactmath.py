"""Exact rational arithmetic and univariate polynomial algebra over QQ.

Rationals are fractions.Fraction (always lowest terms, positive denominator).
`DensePoly` holds the dense polynomial arithmetic over any field, constant
term first: sum, difference, scaling, division with remainder, derivative,
Horner evaluation and the monic form, with a schoolbook product.  RatPoly is
its immutable subclass over Fraction, multiplying through ZZ[x]; the other
subclass is `numfield.KPoly`, over a number field.
On top of the ring operations this module provides the nontrivial
primitives everything else consumes: monic gcd, resultant, and the distinct
irreducible factors of degree <= dmax, found from the squarefree part
h / gcd(h, h').
Rational roots are not found here: `numfield.rational_roots` finds them as the
roots in the degree-1 field, with the one root solver of the package.  Nor is
irreducibility: `NumberField` decides it for its defining polynomial from the
rational roots of that polynomial and of its resolvent cubic.

All arithmetic is exact; equality of values is decidable and used freely.
Every value is immutable, so everything here is safe to share between
threads or processes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod

from . import _intpoly as zp
from .errors import DataFormatError


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p": once the surrounding whitespace is stripped, the
    text must match `-?[0-9]+(/[0-9]+)?` (ASCII digits, a minus only in
    front) with q != 0; anything else raises DataFormatError."""
    num, slash, den = s.strip().partition("/")
    try:
        if ((num + den).isascii() and num.removeprefix("-").isdecimal()
                and (den.isdecimal() or not slash)):
            return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        pass
    raise DataFormatError(f"not a rational number: {s!r}")


def rat_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def squarefree_part_rational(q: Fraction) -> int:
    """Squarefree integer m with q = m * (rational square), sign kept, read off
    `_intpoly.factor_int` of |num| and of den apart (DataFormatError past its
    limit); an unsplit p*q has odd exponent, as p and q do."""
    if q == 0:
        raise ValueError("squarefree part of 0")
    return (-1 if q < 0 else 1) * prod(p for n in (abs(q.numerator), q.denominator)
                                       for p, e in zp.factor_int(n) if e % 2)


class DensePoly:
    """Dense univariate polynomial over a field, constant term first: the
    arithmetic that `RatPoly` (over QQ) and `numfield.KPoly` (over a number
    field) share, written once.

    coeffs[i] is the coefficient of x**i.  A subclass builds every result
    with `_new`, which coerces and trims trailing zeros, so the leading
    coefficient is nonzero unless the polynomial is zero.  The degree of the
    zero polynomial is the sentinel None, never an integer.  The algorithms
    use only +, -, * and / of the coefficients, which must also take ints.
    """

    __slots__ = ()

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out)

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return self._new(out)

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __mul__(self, other):
        """Schoolbook product; any other factor is a scalar."""
        if not isinstance(other, DensePoly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x != 0:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._new(out)

    __rmul__ = __mul__

    def scale(self, c):
        return self._new([c * x for x in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem, b = list(self.coeffs), other.coeffs
        if len(rem) < len(b):
            return self._new([]), self
        inv = 1 / b[-1]
        q = [0] * (len(rem) - len(b) + 1)
        for k in range(len(q) - 1, -1, -1):
            t = q[k] = rem[k + len(b) - 1] * inv
            if t != 0:
                for j, y in enumerate(b):
                    rem[k + j] -= t * y
        return self._new(q), self._new(rem[: len(b) - 1])

    def derivative(self):
        return self._new([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def __call__(self, x):
        """Evaluate via Horner.  Works for Fraction and for any ring element
        supporting + and * with the coefficients (e.g. field elements).  The
        zero polynomial gives Fraction(0) at a rational x, else x * 0."""
        if not self.coeffs:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        v = None
        for c in reversed(self.coeffs):
            v = c if v is None else v * x + c
        return v

    def monic(self):
        return self.scale(1 / self.lc) if self.coeffs else self


class RatPoly(DensePoly):
    """Dense univariate polynomial over QQ, immutable; coefficients are
    Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("RatPoly is immutable")

    def _new(self, coeffs) -> "RatPoly":
        return RatPoly(coeffs)

    def to_str(self) -> str:
        return ",".join(rat_to_str(c) for c in self.coeffs) if self.coeffs else "0"

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "RatPoly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_to_str(c))
            else:
                cs = "" if c == 1 else ("-" if c == -1 else rat_to_str(c) + "*")
                terms.append(f"{cs}x^{i}" if i > 1 else f"{cs}x")
        return "RatPoly(" + " + ".join(terms).replace("+ -", "- ") + ")"

    def __mul__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            return self.scale(other)
        da, fa = self.cleared()
        db, fb = other.cleared()
        d = da * db
        return RatPoly([Fraction(c, d) for c in zp.zz_mul(fa, fb)])

    def __pow__(self, n: int) -> "RatPoly":
        out = RatPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- integer form ------------------------------------------------------

    def cleared(self) -> tuple[int, list[int]]:
        """Return (d, P) with self = P / d, P in ZZ[x], d the lcm of the
        denominators."""
        d = lcm(*(c.denominator for c in self.coeffs))
        return d, [c.numerator * (d // c.denominator) for c in self.coeffs]

    def to_int_poly(self) -> tuple[Fraction, list[int]]:
        """Return (c, P) with self = c * P, P primitive in ZZ[x], lc(P) > 0."""
        if self.is_zero():
            return Fraction(0), []
        den, ints = self.cleared()
        cont, prim = zp.zz_primitive(ints)
        return Fraction(cont, den), prim


# ---------------------------------------------------------------------------
# the exactmath operations
# ---------------------------------------------------------------------------


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over QQ; gcd(f, 0) = monic(f)."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    _, fi = f.to_int_poly()
    _, gi = g.to_int_poly()
    return RatPoly(zp.zz_gcd(fi, gi)).monic()


def poly_xgcd(f: RatPoly, g: RatPoly) -> tuple[RatPoly, RatPoly, RatPoly]:
    """Extended gcd over QQ: returns (d, u, v), d monic, u*f + v*g = d.

    The engine does not run it.  The tests use it as the independent oracle
    for `FieldElement.inverse` (u = 1/a mod f when d = 1), and it stays in
    src/ only because the benchmark's tracer binds it."""
    r0, r1 = f, g
    s0, s1 = RatPoly([1]), RatPoly([])
    t0, t1 = RatPoly([]), RatPoly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = 1 / r0.lc
    return r0.scale(c), s0.scale(c), t0.scale(c)


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g); zero iff f and g share a root."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant requires nonzero polynomials")
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    cf, fi = f.to_int_poly()
    cg, gi = g.to_int_poly()
    r = zp.zz_resultant(fi, gi)
    return cf**g.degree * cg**f.degree * r


def factor_bounded(h: RatPoly, dmax: int) -> frozenset[RatPoly]:
    """The distinct monic irreducible factors of h over QQ of degree <= dmax.
    Factors of degree > dmax are not returned (and their irreducibility is
    never certified)."""
    if h.is_zero():
        raise ValueError("factor_bounded of zero polynomial")
    _, hi = h.to_int_poly()
    return frozenset(RatPoly(f).monic() for f in zp.zz_factor_bounded(hi, dmax))

