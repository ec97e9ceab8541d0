"""Number fields QQ[theta]/(f) of degree 1, 2, and 4.

The defining polynomial is normalized to a monic integral form f at
construction (via x -> x/c), where disc f is computed once (`NumberField.disc`).
An element is stored as one integer vector over Z[theta] and one denominator
(Cohen, A Course in Computational Algebraic Number Theory, 4.2): num in the
power basis 1, theta, ..., theta^(d-1) and den > 0 with gcd(den, *num) = 1, so
each element has exactly one (num, den).  Sums and products are integer
arithmetic.  A product is written out in closed form for each degree 1, 2 and
4, reduced modulo the monic integral f (`_mul_mod_f`, the multiply that the
root lift, `rat_eval` and `smallest_subfield` use too).  The inverse is
den / num_0 for a rational element in every K and den times the conjugate
over the norm for d = 2; for d = 4 it solves M X = D e_0, M the integer
matrix of multiplication by num and D = +-det M, by the fraction-free
elimination of `_quadtower.solve`, so the inverse is den * X / D with no
fraction on the way.  `rat_eval` evaluates a rational
polynomial at an element by Horner's rule over Z[theta], normalized once.
`FieldElement.coeffs` gives the coordinates as Fractions for reports and the
tests; nothing sorts by them (`torsion._sort_keys` orders points in integers).
A polynomial over K is a `KPoly`: its ring operations, division with
remainder, derivative and evaluation are those of `exactmath.DensePoly`, the
dense base it shares with `RatPoly`, and only `gcd` and `squarefree` are its
own.

Set-up decides the rest from the rational roots of f and of its resolvent
cubic, searched in QQ, never in K: whether f is irreducible, a quartic
field's Galois type and quadratic subfields (`_galois_structure`), and the
least rational resolvent root, kept for the square roots below.

Square roots take no prime.  A field of degree 2 or 4 is a tower of two
quadratic steps QQ < F < K at most, and keeps it from its first square root
on, never from construction (`_field_tower`): an involution sigma of K, its
fixed field F = QQ(u) with u^2 = delta rational (F = QQ when d = 2), and
omega = theta - sigma(theta), with omega^2 in F.  A square root in K is
taken by norm and trace down that tower (`sqrt_in_field`, with the integer
kernels of `_quadtower`): nu = +-sqrt(beta sigma(beta)) and
T = sqrt(beta + sigma(beta) + 2 nu) in F give gamma = (beta + nu)/T, and
every square root of beta in K arises so, or lies in F or omega F when beta
is in F.  So a missing root is proved by algebra, and a square root in F is
two integer square roots.  Over QQ it is one isqrt.  A rational polynomial
whose roots have degree <= 2 over QQ takes the same closed form in
`roots_in_field`, in every K, QQ included: a quadratic factor has the roots
(-b +- sqrt delta)/2a, and a cubic has its rational roots and those of one
quadratic cofactor.

Every other root search works at completely split primes.
`NumberField.iter_split_primes` lists, on first use and never at
construction, the primes p > 58 at which f has d = deg f distinct roots r
mod p (so p does not divide disc f).  Each r gives a ring map from the
p-integral elements of K onto F_p, theta -> r.  `NumberField.residue_degree`
gives, also lazily, the residue degree at any odd prime p not dividing
disc f, and None at the primes that divide it.  K is Galois, so that degree
is the order of Frobenius at p, and the Legendre symbols (m | p) of the
quadratic subfields QQ(sqrt m) of K fix it: 1 if every m is a square mod p,
else 2, except that a cyclic quartic K has degree 4 when its one m is not,
and one test x^p = x mod (f, p) tells 1 from 2 when it is.

Most lifted searches of the engine find nothing, and they end at the one
prime the lift below works at: each root of h in K maps to a root of every
image h~_i mod p of the scaled h~ defined there, so an image with no root mod
p proves h rootless in K, and nothing is lifted.  There is no other modular
test.  Each image is scanned over the p residues, and the scan stops at the
first image with no root.

Roots that do exist are found by lifting them at a split prime (Belabas, J.
Symb. Comp. 37, 2004; Cohen, A Course in Computational Algebraic Number Theory,
3.6).  A squarefree h of degree n is made monic and scaled: h~(y) =
D^n h(y/D), D the lcm of its coordinate denominators, is monic over Z[theta],
so its roots beta = D*alpha are algebraic integers, and Delta*beta lies in
Z[theta] for Delta = |K.disc| (the index [O_K : Z[theta]] divides disc f).  At
the first split prime p at which every image h~_i = h~(theta -> r_i) mod p is
squarefree, each root of h~_i mod p lifts to exactly one root in Z/p^N, and
each r_i to a root rho_i of f.  A root beta of h~ maps to one root of every
h~_i; the Vandermonde system in the rho_i turns those images into its
coordinates c_j mod p^N, and Delta*c_j is their symmetric residue once
p^N > 2L, where

    L = d * M * B * F^(d-1),   R = 1 + max_k |f_k|,   ||g|| = sum_j |g_j| R^j,
    M = 1 + max_k ||a_k||  (a_k the coefficients of h~),
    B = max_j ||b_j||      (f(x)/(x - theta) = sum_j b_j(theta) x^j),
    F = ||f'||.

Proof: every conjugate of theta has absolute value <= R and every conjugate of
beta <= M (Cauchy's bound); c_j = Tr(beta * b_j(theta) / f'(theta)) (Euler's
dual basis); and |f'(theta_i)| >= |disc f| / F^(d-1), because disc f is
+-prod_i f'(theta_i).  So |c_j| <= L / Delta.  Every matching of one root per
image is tried; two extra p-adic digits keep wrong matchings from passing the
bound, and a candidate is kept only if it passes exact substitution.  The
bound makes the search complete, so there is no other method to fall back on.

QQ = QQ[theta]/(theta) is the degree-1 case of the lift, with no path of its
own: f = x, every prime p > 58 splits with the root 0, R = B = F = Delta = 1,
and L = M is Cauchy's bound on the roots of the monic integral h~.
`rational_roots` searches one such field, built at import.  A RatPoly of
degree >= 3 over QQ is lifted directly, with no factorization: its one image
leaves no matchings to prune.  The factorizer serves only [K:QQ] > 1, where
a rational h of degree 4 or more is factored over QQ first: factors of
degree <= 2 take the closed form, and a quartic one is lifted over a quartic
K; a caller that meets one h over many fields may hand its factors in
(`roots_in_field`).

The rho_i and the Lagrange weights of that system depend on K, p and p^N only,
so each field keeps them per split prime at the highest precision any search
has needed so far (`_split_prime_lift`), built on first use and never at
construction.  A search that needs a q dividing that precision reduces them mod
q, which is exact: rho_i mod q is the one root of f mod q above r_i, since a
simple root mod p has exactly one lift mod q (Hensel's lemma).  A search that
needs more continues the Newton iteration from the stored rho_i.  Each lift
carries the inverse of the derivative by its own Newton step, so it takes one
modular inverse in all (`_lift_root`).

The norm method (Trager: factor Norm_{K/QQ} h(x - s*theta) over QQ and take a
gcd over K per factor) is the independent oracle the tests compare the lift
and the square roots against; the engine never runs it.  It stays in this
module, and not with the tests' other oracles, only because the benchmark's
tracer binds it.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm, prod

from . import _intpoly as zp
from . import _quadtower as zt
from .errors import DataFormatError, DegenerateTowerError, InvariantViolationError, UnsupportedFieldError
from .exactmath import (
    DensePoly,
    RatPoly,
    factor_bounded,
    is_rational_square,
    poly_gcd,
    rat_from_str,
    resultant,
    squarefree_part_rational,
)


class GaloisType(enum.Enum):
    Rational = "Rational"
    Quadratic = "Quadratic"
    CyclicQuartic = "CyclicQuartic"
    Biquadratic = "Biquadratic"
    NonGaloisQuartic = "NonGaloisQuartic"


def _integral_scale(poly: RatPoly) -> int:
    """Smallest c >= 1 such that poly(x/c) * c^deg is integral (poly monic):
    the lcm over the coefficients a_i of the least c_i with den(a_i) | c_i^k,
    k = deg - i, the product of q^ceil(e/k) over `_intpoly.factor_int` of
    den(a_i) (DataFormatError past its limit), which takes an unsplit p*q
    (e = 1) as it would take p and q."""
    d = poly.degree
    return lcm(*(prod(q ** -(-e // (d - i)) for q, e in zp.factor_int(a.denominator))
                 for i, a in enumerate(poly.coeffs[:-1])))


class NumberField:
    """QQ[theta]/(f) with f monic integral irreducible of degree 1, 2, or 4."""

    __slots__ = ("defining_poly", "degree", "disc", "galois_type", "_f_int", "_quadratics",
                 "_resolvent_root", "_tower", "_split_primes", "_split_stream", "_split_lifts",
                 "_residue_degrees")

    def __init__(self, poly: RatPoly):
        """f = poly made monic integral.  f of degree 2 or 4 is reducible iff
        it has a rational root or `_galois_structure` finds a quadratic pair."""
        if poly.is_zero() or poly.degree not in (1, 2, 4):
            raise UnsupportedFieldError(f"defining polynomial must have degree 1, 2 or 4: {poly!r}")
        poly = poly.monic()
        c = _integral_scale(poly)
        if c != 1:
            poly = RatPoly([poly.coeffs[i] * c ** (poly.degree - i)
                            for i in range(poly.degree + 1)])
        self.defining_poly = poly
        self.degree = d = poly.degree
        self._f_int = tuple(int(c) for c in poly.coeffs)
        self.disc = (-1) ** (d * (d - 1) // 2) * int(resultant(poly, poly.derivative()))  # monic f
        if d > 1 and rational_roots(poly):
            raise UnsupportedFieldError(f"defining polynomial is reducible: {poly!r}")
        self._resolvent_root = None
        if d == 4:
            self.galois_type, self._quadratics, self._resolvent_root = _galois_structure(poly, self.disc)
        else:
            self.galois_type = GaloisType.Rational if d == 1 else GaloisType.Quadratic
            self._quadratics = None
        # (P, pd, Q, qd, w, delta), filled by `_field_tower` on the first square root
        self._tower = None
        self._split_primes: list[tuple[int, tuple[int, ...]]] = []
        self._split_stream: Iterator[tuple[int, tuple[int, ...]]] | None = None
        # p -> (p^N, rho, weights) at the highest p^N lifted so far; filled by
        # `_split_prime_lift`
        self._split_lifts = {}
        self._residue_degrees: dict[int, int | None] = {}

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.defining_poly == other.defining_poly

    def __hash__(self):
        return hash(self.defining_poly)

    def __repr__(self):
        return f"NumberField({self.defining_poly.to_str()})"

    # -- elements ------------------------------------------------------------

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError("element of a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return FieldElement(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)
        coeffs = [Fraction(v) for v in value]
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coordinates")
        den = lcm(*(c.denominator for c in coeffs))
        return FieldElement(self, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            # theta = root of x, i.e. 0
            return self.zero()
        return self.element([0, 1] + [0] * (self.degree - 2))

    # -- structure -------------------------------------------------------------

    def quadratic_subfields(self) -> frozenset[int]:
        """Squarefree m != 1 with QQ(sqrt m) inside the quartic field."""
        if self._quadratics is None:
            raise UnsupportedFieldError("quadratic subfields computed for quartic fields only")
        return self._quadratics

    def iter_split_primes(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(p, (r_1, ..., r_d)) for every prime p > `_intpoly.PRIME_FLOOR` at which
        f has d = [K:QQ] distinct roots r_i mod p, in increasing order.  Found
        on first use and cached, never at construction."""
        i = 0
        while True:
            if i == len(self._split_primes):
                if self._split_stream is None:
                    self._split_stream = _split_prime_stream(self.defining_poly)
                self._split_primes.append(next(self._split_stream))
            yield self._split_primes[i]
            i += 1

    def residue_degree(self, p: int) -> int | None:
        """The residue degree of the primes of K above the odd prime p, or None
        when p divides disc f.  Computed on first use for each p and cached.

        K is Galois, so the degree is the order of the Frobenius element at p
        in Gal(K/QQ).  The Legendre symbols (m | p) = m^((p-1)/2) mod p of the
        quadratic subfields QQ(sqrt m) (QQ(sqrt disc f) when [K:QQ] <= 2) fix
        it; p does not divide m, as the discriminant of QQ(sqrt m) divides
        disc f.  Frobenius fixes every sqrt m iff every (m | p) = 1, and then it
        is 1, except in a cyclic quartic K, where it may be the element of
        order 2 and is 1 iff x^p = x mod (f, p).  Otherwise its order is 2, or
        4 in a cyclic quartic K, whose one subfield only the element of order
        2 fixes.  A non-Galois quartic K raises, and so does p = 2, where
        Euler's criterion says nothing."""
        if p not in self._residue_degrees:
            if self.galois_type is GaloisType.NonGaloisQuartic:
                raise UnsupportedFieldError(f"residue degrees of a non-Galois field: {self!r}")
            if p == 2:
                raise ValueError("residue degrees at odd primes only")
            cyclic = self.galois_type is GaloisType.CyclicQuartic
            if self.disc % p == 0:
                k = None
            elif not all(pow(m, (p - 1) // 2, p) == 1 for m in self._quadratics or (self.disc,)):
                k = 4 if cyclic else 2
            elif cyclic and zp.gf_pow_mod([0, 1], p, zp.gf_from_zz(self._f_int, p), p) != [0, 1]:
                k = 2
            else:
                k = 1
            self._residue_degrees[p] = k
        return self._residue_degrees[p]


class FieldElement:
    """num / den, num a tuple of ints in the power basis and den > 0 an int
    with gcd(den, *num) = 1, so that each element has one (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den: int = 1):
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den
        if len(self.num) != field.degree:
            raise InvariantViolationError(
                f"{len(self.num)} coordinates for a field of degree {field.degree}")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            return other if other.field is self.field or other.field == self.field else None
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return FieldElement(self.field, [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        return FieldElement(self.field, [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, [a * other.numerator for a in self.num],
                                self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, _mul_mod_f(self.num, o.num, self.field._f_int),
                            self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        out, base = self.field.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """den / num_0 for a rational element, in every K.  Otherwise
        den * num' / Norm(num) for d = 2, with the conjugate
        num' = num_0 - num_1 f_1 - num_1 theta, and den * X / D for d = 4,
        where M X = D e_0 (`_quadtower.solve`) and M is the integer matrix of
        multiplication by num."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field._f_int
        d = len(f) - 1
        if self.is_rational():
            return FieldElement(self.field, (self.den,) + (0,) * (d - 1), self.num[0])
        if d == 2:
            a0, a1 = self.num
            c = a0 - a1 * f[1]
            return FieldElement(self.field, (self.den * c, -self.den * a1), a0 * c + a1 * a1 * f[0])
        # column j of M is num * theta^j
        cols = [self.num]
        for _ in range(d - 1):
            c = cols[-1]
            cols.append([-c[-1] * f[0]] + [c[i - 1] - c[-1] * f[i] for i in range(1, d)])
        (x,), D = zt.solve(list(zip(*cols)), [(1, 0, 0, 0)])
        return FieldElement(self.field, [self.den * c for c in x], D)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return ((other.field is self.field or other.field == self.field)
                    and other.num == self.num and other.den == self.den)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and self.is_rational())
        return False

    def __hash__(self):
        # a rational element hashes as its value, because it equals it
        if self.is_rational():
            return hash(self.num[0] if self.den == 1 else Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __repr__(self):
        return f"FieldElement{self.coeffs}"

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def norm(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return resultant(self.field.defining_poly, RatPoly(self.coeffs))

    def canonical_sign(self) -> "FieldElement":
        """Among {self, -self} the one whose first nonzero coordinate is > 0."""
        for c in self.num:
            if c > 0:
                return self
            if c < 0:
                return -self
        return self


# ---------------------------------------------------------------------------
# polynomials with coefficients in a field
# ---------------------------------------------------------------------------


class KPoly(DensePoly):
    """Dense polynomial over a NumberField, constant term first; the
    arithmetic is `DensePoly`'s."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        cs = [c if isinstance(c, FieldElement) else field.element(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def _new(self, coeffs) -> "KPoly":
        return KPoly(self.field, coeffs)

    def __eq__(self, other):
        return (isinstance(other, KPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field.defining_poly.coeffs, tuple(self.coeffs)))

    def __repr__(self):
        return f"KPoly(deg={self.degree}, field={self.field.defining_poly.to_str()})"

    def gcd(self, other: "KPoly") -> "KPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def squarefree(self) -> "KPoly":
        return self.divmod(self.gcd(self.derivative()))[0].monic()


# ---------------------------------------------------------------------------
# root-finding inside the field
# ---------------------------------------------------------------------------


# The norm method.  The engine does not run it; the tests use it as the oracle
# for `_hensel_roots`.  It stays in src/ only because the benchmark's tracer
# binds `_trager_roots` and `_norm_poly_shifted`.


def _interpolate(points: list[tuple[int, Fraction]]) -> RatPoly:
    """Newton interpolation through distinct integer sample points."""
    xs = [Fraction(x) for x, _ in points]
    coef = [y for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = RatPoly([])  # the Newton form, by Horner's rule
    for i in reversed(range(n)):
        poly = poly * RatPoly([-xs[i], 1]) + RatPoly([coef[i]])
    return poly


def _norm_poly_shifted(h: KPoly, s: int) -> RatPoly:
    """N(x) = Norm_{K/QQ}(h(x - s*theta)) computed by interpolation."""
    K = h.field
    dN = K.degree * h.degree
    theta = K.gen()
    pts = []
    x0 = 0
    while len(pts) < dN + 1:
        arg = K.element(x0) - theta * s
        val = h(arg)
        pts.append((x0, val.norm()))
        x0 = -x0 + (0 if x0 > 0 else 1)
    return _interpolate(pts)


def _shifted_ratpoly(p: RatPoly, s: int, K: NumberField) -> KPoly:
    """p(x + s*theta) as a polynomial over K, by Horner's rule."""
    lin, out = KPoly(K, [K.gen() * s, 1]), KPoly(K, [])
    for c in reversed(p.coeffs):
        out = out * lin + KPoly(K, [c])
    return out


def _trager_roots(h: KPoly, K: NumberField) -> set[FieldElement]:
    """Roots in K of a squarefree h in K[x], by the norm method."""
    if h.degree == 0:
        return set()
    for s in (0, 1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11, -11, 13, -13):
        N = _norm_poly_shifted(h, s)
        if N.degree == h.degree * K.degree and poly_gcd(N, N.derivative()).degree == 0:
            break
    else:
        raise InvariantViolationError(f"no squarefree norm shift found for {h!r}")
    roots: set[FieldElement] = set()
    for Ni in factor_bounded(N, K.degree):
        if K.degree % Ni.degree != 0:
            continue
        g = h.gcd(_shifted_ratpoly(Ni, s, K))
        if g.degree == 1:
            roots.add(-g.coeffs[0])
    return roots


def _split_prime_stream(f: RatPoly) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(p, (r_1, ..., r_d)) for each prime p > `_intpoly.PRIME_FLOOR`, in increasing
    order, at which f has d = deg f distinct roots r_i mod p."""
    fi = [int(c) for c in f.coeffs]
    for p in zp._prime_stream(zp.PRIME_FLOOR):
        roots = tuple(r for r in range(p) if _eval_mod(fi, r, p) == 0)
        if len(roots) == f.degree:
            yield p, roots


def _eval_mod(g: list[int], x: int, m: int) -> int:
    """g(x) mod m, g in Z[x]."""
    v = 0
    for c in reversed(g):
        v = (v * x + c) % m
    return v


# Roots by lifting at a split prime (see the module docstring).  Polynomials
# over Z[theta] are lists of coordinate vectors, constant term first.


def _weighted_norm(g: list[int], R: int) -> int:
    """||g|| = sum_j |g_j| R^j, a bound on |g(z)| for |z| <= R."""
    return sum(abs(c) * R**j for j, c in enumerate(g))


def _scaled_monic(h: KPoly) -> tuple[int, list[list[int]]]:
    """(D, h~): D is the lcm of the coordinate denominators of monic h, and
    h~(y) = D^n h(y/D) is monic with coefficients in Z[theta]."""
    if h.lc != 1:
        h = h.monic()
    n = h.degree
    D = lcm(*(a.den for a in h.coeffs))
    return D, [[c * (D ** (n - k) // a.den) for c in a.num] for k, a in enumerate(h.coeffs)]


def _coordinate_bound(K: NumberField, ht: list[list[int]]) -> int:
    """L with |Delta * c_j| <= L for each coordinate c_j of each root of h~."""
    f = K._f_int
    R = 1 + max(abs(c) for c in f[:-1])
    B = max(_weighted_norm(f[j + 1:], R) for j in range(K.degree))
    F = _weighted_norm([k * f[k] for k in range(1, len(f))], R)
    M = 1 + max(_weighted_norm(a, R) for a in ht[:-1])
    return K.degree * M * B * F ** (K.degree - 1)


def _lift_root(g: Sequence[int], x: int, m: int, q: int) -> int:
    """The root mod q of g in Z[x] above x, where x is a root of g mod m with
    g'(x) a unit, and m | q are powers of one prime p.  For a simple root that
    lift is unique (Hensel), so starting from a root mod some p^k gives the
    same root mod q as starting from its residue mod p.

    Each quadratic Newton step doubles the precision of x and of s, the
    inverse of g'(x), which is carried by its own Newton step s <- s(2 - g'(x)s)
    (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 9): if g'(x)s = 1
    mod m, then g'(x')s' = 1 mod m^2 for x' = x mod m.  So one call takes one
    modular inverse, mod m."""
    dg = [k * c for k, c in enumerate(g)][1:]
    s = pow(_eval_mod(dg, x, m), -1, m)
    while m < q:
        m = min(m * m, q)
        x = (x - _eval_mod(g, x, m) * s) % m
        if m < q:
            s = s * (2 - _eval_mod(dg, x, m) * s) % m
    return x


def _split_prime_lift(K: NumberField, p: int, rs: tuple[int, ...],
                      q: int) -> tuple[list[int], list[list[int]]]:
    """(rho, weights) mod q, a power of the split prime p at which f has the
    roots rs mod p: rho_i is the root of f mod q above r_i, and weights[i]
    holds the coefficients of Delta * l_i(x), l_i = prod_(k != i) (x - rho_k) /
    (rho_i - rho_k) the Lagrange basis at the rho.  Since f = prod_k (x - rho_k)
    mod q, l_i = (f(x) / (x - rho_i)) / f'(rho_i): one synthetic division and
    one inverse per root.

    Both are kept on K per p, at the highest precision p^N asked for so far,
    and a q dividing p^N gets them reduced mod q.  That is exact: rho_i mod q
    is the one root of f mod q above r_i (Hensel), and the weights are
    polynomials in the rho_k and in inverses of units.  A larger q continues
    the Newton iteration from the stored rho_i, not from the r_i."""
    have, rho, weights = K._split_lifts.get(p, (p, rs, None))
    if have < q or weights is None:
        rho = [_lift_root(K._f_int, r, have, q) for r in rho]
        Delta, weights = abs(K.disc), []
        for r in rho:
            g = [1]  # f / (x - r) by synthetic division, leading term first
            for c in K._f_int[-2:0:-1]:
                g.append((c + r * g[-1]) % q)
            g.reverse()
            w = Delta * pow(_eval_mod(g, r, q), -1, q)
            weights.append([w * c % q for c in g])
        K._split_lifts[p] = have, rho, weights = q, rho, weights
    return [r % q for r in rho], [[c % q for c in w] for w in weights]


def _mul_mod_f(a: Sequence[int], b: Sequence[int], f: Sequence[int]) -> list[int]:
    """a * b in Z[theta], f monic of degree 1, 2 or 4: the product of the
    two polynomials with theta^k, k >= d, reduced by theta^d = -sum f_i
    theta^i from the top down, written out for each degree."""
    if len(a) == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        f0, f1, f2, f3, _ = f
        c6 = a3 * b3
        c5 = a2 * b3 + a3 * b2 - c6 * f3
        c4 = a1 * b3 + a2 * b2 + a3 * b1 - c6 * f2 - c5 * f3
        return [a0 * b0 - c4 * f0,
                a0 * b1 + a1 * b0 - c5 * f0 - c4 * f1,
                a0 * b2 + a1 * b1 + a2 * b0 - c6 * f0 - c5 * f1 - c4 * f2,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c6 * f1 - c5 * f2 - c4 * f3]
    if len(a) == 2:
        a0, a1 = a
        b0, b1 = b
        c2 = a1 * b1
        return [a0 * b0 - c2 * f[0], a0 * b1 + a1 * b0 - c2 * f[1]]
    return [a[0] * b[0]]


def rat_eval(h: RatPoly, x: FieldElement) -> FieldElement:
    """h(x) for h in QQ[y] and x = num/den in K, equal to `DensePoly.__call__`
    but with one normalization: Horner's rule over Z[theta] gives
    D den^n h(x) = sum_k (D h_k) num^k den^(n-k), n = deg h and D the lcm of
    the denominators of h, and the one FieldElement divides it back."""
    K = x.field
    if h.is_zero():
        return K.zero()
    D, cs = h.cleared()
    num, den, f = x.num, x.den, K._f_int
    v = [cs[-1]] + [0] * (K.degree - 1)
    power = 1
    for c in reversed(cs[:-1]):
        power *= den
        v = _mul_mod_f(v, num, f)
        v[0] += c * power
    return FieldElement(K, v, D * power)


def _vanishes_at(ht: list[list[int]], gamma: list[int], Delta: int, f: list[int]) -> bool:
    """Is h~(gamma / Delta) = 0?  Exact: Horner on Delta^n h~(gamma / Delta)
    over Z[theta]."""
    v = ht[-1]
    scale = 1
    for a in reversed(ht[:-1]):
        scale *= Delta
        v = [x + scale * c for x, c in zip(_mul_mod_f(v, gamma, f), a)]
    return not any(v)


def _lifted_roots(K: NumberField, ht: list[list[int]], p: int, rs: tuple[int, ...],
                  root_lists: list[list[int]]) -> list[list[int]]:
    """Delta * beta in Z[theta] for the roots beta of the monic h~ in K, from
    root_lists[i], the roots mod p of the squarefree image at theta -> rs[i]:
    each is lifted mod q = p^N > 2 L p^2, and the matchings of one lifted
    root per image are recombined.  A matching within the bound L is kept
    only if h~ vanishes at it exactly (`_vanishes_at`)."""
    L = _coordinate_bound(K, ht)
    q = p
    while q <= 2 * L * p * p:
        q *= p
    rho, weights = _split_prime_lift(K, p, rs, q)
    # vecs[i][k]: (k-th root of h~_i mod q) * Delta * l_i, so that summing
    # one per i gives Delta * c mod q
    vecs = []
    for rho_i, weight, rts in zip(rho, weights, root_lists):
        hi = [_eval_mod(a, rho_i, q) for a in ht]
        vecs.append([[b * c % q for c in weight] for b in (_lift_root(hi, x, p, q) for x in rts)])
    Delta = abs(K.disc)
    gammas = []
    half = q // 2
    for choice in product(*vecs):
        gamma = []
        for j in range(K.degree):
            v = sum(vec[j] for vec in choice) % q
            v = v - q if v > half else v
            if abs(v) > L:
                break
            gamma.append(v)
        else:
            if _vanishes_at(ht, gamma, Delta, K._f_int):
                gammas.append(gamma)
    return gammas


def _hensel_roots(h: KPoly, K: NumberField) -> set[FieldElement]:
    """Roots in K of h in K[x], lifted at a split prime.  Every root returned
    has passed exact substitution.  The images at each split prime p are
    scanned for their roots mod p in turn (`_image_roots`), and the first
    image with no root ends the search: a root in K would map to one, so
    there is none, at any split prime.

    One squarefree image proves h squarefree: if h = g^2 k with deg g > 0, the
    monic g~ has algebraic-integer roots, so its coefficients are p-integral
    (p does not divide disc f), and g~(theta -> r)^2 divides every image.
    So h is reduced to its squarefree part only at a split prime where no
    image is squarefree.

    The roots rho_i of f mod q and the Lagrange weights come from the field's
    lift context (`_split_prime_lift`), lifted once per field and prime to the
    highest precision needed so far; only the roots of the images are lifted
    here, each from its residue mod p (`_lifted_roots`).  It serves a KPoly,
    a RatPoly of degree >= 3 over QQ, and a rational factor of degree 4 over
    a quartic K; square roots and rational polynomials of degree <= 2 take
    no lift (`sqrt_in_field`, `roots_in_field`)."""
    if h.degree == 0:
        return set()
    D, ht = _scaled_monic(h)
    # h squarefree: only the finitely many p dividing Norm(disc h~) fail; the
    # images read ht when they are taken, so a squarefree part serves the
    # primes after it
    for p, rs in K.iter_split_primes():
        root_lists = []
        for r in rs:
            rts = _image_roots([_eval_mod(a, r, p) for a in ht], p)
            if rts == []:
                return set()
            root_lists.append(rts)
        if None not in root_lists:
            break
        if all(rts is None for rts in root_lists):
            h = h.squarefree()
            D, ht = _scaled_monic(h)
    Delta = abs(K.disc)
    return {FieldElement(K, gamma, Delta * D) for gamma in _lifted_roots(K, ht, p, rs, root_lists)}


def _image_roots(img: list[int], p: int) -> list[int] | None:
    """The roots mod p of the monic image img, in increasing order, from a
    scan over all p residues, or None when img is not squarefree mod p."""
    if not zp.gf_is_squarefree(img, p):
        return None
    return [x for x in range(p) if _eval_mod(img, x, p) == 0]


def roots_in_field(h, K: NumberField, factors=None) -> set[FieldElement]:
    """Exactly the roots of h lying in K, verified by exact substitution.  The
    one root solver of the package, for every degree of K, QQ included.

    h may be a RatPoly (rational coefficients) or a KPoly over K.  A KPoly is
    lifted as it is.  A RatPoly of degree <= 2 takes a closed form in every
    K, QQ included, with no lift: ax^2 + bx + c has the roots
    (-b +- sqrt(b^2 - 4ac))/2a, one `sqrt_in_field`.  Any other RatPoly over
    QQ is lifted as it is: there is one image, so there are no matchings for
    a factorization to prune (`_hensel_roots`).  Over a K != QQ, a cubic h
    has its rational roots (`rational_roots`) and, if it has exactly one, r,
    the roots of the quadratic h/(x - r); a cubic with no rational root is
    irreducible, and 3 does not divide [K:QQ], so it has no root in K and is
    not factored.  Any other h is factored over QQ: its factors of degree
    <= 2 take the closed form, and one of degree 4 is lifted when [K:QQ] = 4.
    `factors`, if given, is a function d -> factor_bounded(h, d) for a caller
    that keeps them (`Curve.x_division_factors`); it is called only there,
    with d = [K:QQ].
    """
    if h.is_zero():
        raise ValueError("roots of zero polynomial")
    if isinstance(h, KPoly) and h.field != K:
        raise ValueError("polynomial over a different field")
    if isinstance(h, RatPoly) and h.degree <= 2:
        roots = _quadratic_roots(h, K)
    elif isinstance(h, KPoly) or K.degree == 1:
        roots = _hensel_roots(h if isinstance(h, KPoly) else KPoly(K, h.coeffs), K)
    elif h.degree == 3:
        rs = rational_roots(h)
        roots = {K.element(r) for r in rs}
        if len(rs) == 1:
            roots |= _quadratic_roots(h.divmod(RatPoly([-rs.pop(), 1]))[0], K)
    else:
        roots = set()
        for q in (factors or partial(factor_bounded, h))(K.degree):
            if q.degree <= 2:
                roots |= _quadratic_roots(q, K)
            elif K.degree % q.degree == 0:
                roots |= _hensel_roots(KPoly(K, q.coeffs), K)
    for r in roots:
        if not (h(r) if isinstance(h, KPoly) else rat_eval(h, r)).is_zero():
            raise InvariantViolationError(f"root verification failed: {r!r} is not a root")
    return roots


def _quadratic_roots(q: RatPoly, K: NumberField) -> set[FieldElement]:
    """The roots in K of q in QQ[x] of degree <= 2: none, -c/b, or
    (-b +- sqrt(b^2 - 4ac))/2a from one square root in K."""
    if q.degree < 2:
        return {K.element(-q.coeffs[0] / q.coeffs[1])} if q.degree else set()
    c, b, a = q.coeffs
    s = sqrt_in_field(b * b - 4 * a * c, K)
    return set() if s is None else {(s - b) * (1 / (2 * a)), (-s - b) * (1 / (2 * a))}


def rational_roots(h: RatPoly) -> set[Fraction]:
    """Exactly the rational roots of a nonzero h, each once: its roots in the
    degree-1 field `_QQ`, which keeps its split primes and lifts like any
    other field."""
    return {r.rational_value() for r in roots_in_field(h, _QQ)}


def _field_tower(K: NumberField, y: int | None = None) -> tuple:
    """(P, pd, Q, qd, w, delta): K as a quadratic tower, for `sqrt_in_field`.

    sigma is an involution of K and omega = theta - sigma(theta), so that
    sigma(omega) = -omega.  For d = 2, sigma(theta) = -f_1 - theta, the tower
    is QQ < K, and w = omega^2 = f_1^2 - 4 f_0.  For d = 4, f = x^4 + px^3 +
    qx^2 + rx + s, y is a rational root of its resolvent cubic, which pairs
    the roots of f as the two factors x^2 + ax + b and x^2 + a'x + b' with
    b + b' = y over the fixed field F of sigma = the swap within each factor
    (`_galois_structure`).  With d1 = y^2 - 4s, d2 = p^2 - 4q + 4y and
    c = py - 2r, alpha = a - a' and alpha' = b - b' have alpha^2 = d2,
    alpha'^2 = d1 and alpha alpha' = c, and 2 theta^2 + p theta + y =
    -(alpha theta + alpha'), so

        alpha = -(d2 theta + c) / (2 theta^2 + p theta + y),
        alpha' = -(2 theta^2 + (p + alpha) theta + y),
        sigma(theta) = -(p + alpha)/2 - theta.

    F = QQ(u) for u, whichever of alpha (delta = d2) and alpha' (delta = d1)
    is irrational; not both are rational, or f would factor over QQ.  These
    are checked exactly, once: alpha^2 = d2, alpha'^2 = d1, f(sigma(theta)) =
    0, sigma(theta) != theta, and that w = omega^2 lies in F.

    The basis 1, omega (d = 2) or 1, u, omega, u omega (d = 4) has the power
    coordinates Q / qd, column by column, and P / pd = (Q / qd)^-1 maps power
    coordinates to it.  For d = 2, w is the delta of `_quadtower.quad_sqrt`
    with u = omega; for d = 4 it is the triple (w0, w1, we),
    w = (w0 + w1 u)/we.  A quartic with no rational resolvent root has no
    quadratic subfield and raises."""
    th, f = K.gen(), K._f_int
    if K.degree == 2:
        basis, w, delta = [K.one(), th * 2 + f[1]], f[1] * f[1] - 4 * f[0], None
    else:
        if y is None:
            raise UnsupportedFieldError(f"no quadratic subfield to take square roots down: {K!r}")
        s, r, q, p = f[:4]
        d1, d2 = y * y - 4 * s, p * p - 4 * q + 4 * y
        g = th * th * 2 + th * p + y
        alpha = -(th * d2 + (p * y - 2 * r)) / g
        alpha1 = -(g + th * alpha)
        sigma_th = (alpha + p) * Fraction(-1, 2) - th
        if (alpha * alpha != d2 or alpha1 * alpha1 != d1 or sigma_th == th
                or not rat_eval(K.defining_poly, sigma_th).is_zero()):
            raise InvariantViolationError(f"resolvent root {y} gives no involution of {K!r}")
        u, delta = (alpha1, d1) if alpha.is_rational() else (alpha, d2)
        omega = th - sigma_th
        basis = [K.one(), u, omega, u * omega]
    P, pd, Q, qd = zt.tower_basis([(b.num, b.den) for b in basis])
    if K.degree == 4:
        w2 = basis[2] * basis[2]
        w = zt.mat_vec(P, w2.num)
        if w[2] or w[3]:
            raise InvariantViolationError(f"omega^2 is not in the subfield QQ(sqrt {delta}) of {K!r}")
        w = (w[0], w[1], pd * w2.den)
    return P, pd, Q, qd, w, delta


def sqrt_in_field(beta, K: NumberField):
    """Some gamma in K with gamma^2 = beta, or None; deterministic choice
    (first nonzero power-basis coordinate positive).  The roots of y^2 - beta
    are +-gamma, which have the same canonical sign.

    Over QQ, beta = n/m has the root sqrt(n m)/m if n m is a square.  Over a
    K of degree 2 or 4 the root is taken by norm and trace down the quadratic
    tower that K keeps from its first square root on (`_field_tower`, never
    built at construction): beta's power coordinates go to the tower basis
    by P, the root is taken there by integer square roots
    (`_quadtower.tower_sqrt`: over QQ for d = 2, over F for d = 4), and its
    coordinates come back by Q.  A None is proved by
    that algebra, with no prime; a returned gamma passes gamma^2 = beta
    exactly before its canonical sign is taken."""
    beta = K.element(beta)
    if K.degree == 1:
        s = zt.exact_isqrt(beta.num[0] * beta.den)
        return None if s is None else FieldElement(K, (s,), beta.den)
    if K._tower is None:
        K._tower = _field_tower(K, K._resolvent_root)
    P, pd, Q, qd, w, delta = K._tower
    r = zt.tower_sqrt(zt.mat_vec(P, beta.num), pd * beta.den, w, delta)
    if r is None:
        return None
    gamma = FieldElement(K, zt.mat_vec(Q, r[:-1]), qd * r[-1])
    if gamma * gamma != beta:
        raise InvariantViolationError(f"{gamma!r} squared is not {beta!r}")
    return gamma.canonical_sign()


# ---------------------------------------------------------------------------
# Galois classification
# ---------------------------------------------------------------------------


def _galois_structure(f: RatPoly, disc: int) -> tuple[GaloisType, frozenset[int], int | None]:
    """Galois type, quadratic subfields and least rational resolvent root of
    QQ[x]/(f), f = x^4 + px^3 + qx^2 + rx + s monic integral with no rational
    root, from the rational roots y of its resolvent cubic (Kappe and Warren,
    Amer. Math. Monthly 96, 1989).  Each y, an integer, gives d1 = y^2 - 4s
    and d2 = p^2 - 4q + 4y.  f = (x^2 + ax + b) * (x^2 + cx + d) over QQ iff
    some y = b + d has both d's rational squares: {b, d} = (y +- sqrt d1)/2,
    {a, c} = (p +- sqrt d2)/2, the signs paired by d1 d2 = (py - 2r)^2.  Such
    an f is rejected.  Otherwise the nonsquare d's give the subfields.  Three
    roots: biquadratic.  One: cyclic quartic iff both its d's are squares in
    QQ(sqrt disc), else D4.  None: A4 or S4.  The least y, None when there is
    none, is the one `_field_tower` builds the involution of K from."""
    p, q, r, s = f.coeffs[3], f.coeffs[2], f.coeffs[1], f.coeffs[0]
    res_cubic = RatPoly([-(p * p * s - 4 * q * s + r * r), p * r - 4 * s, -q, 1])
    ys = sorted(rational_roots(res_cubic))
    deltas = [(y * y - 4 * s, p * p - 4 * q + 4 * y) for y in ys]
    if any(is_rational_square(d1) and is_rational_square(d2) for d1, d2 in deltas):
        raise UnsupportedFieldError(f"defining polynomial is reducible: {f!r}")
    subfields = frozenset(squarefree_part_rational(D) for pair in deltas for D in pair
                          if not is_rational_square(D))
    y = int(ys[0]) if ys else None
    if len(deltas) == 3:
        return GaloisType.Biquadratic, subfields, y
    if len(deltas) == 1:
        if all(is_rational_square(D) or is_rational_square(D * disc) for D in deltas[0]):
            return GaloisType.CyclicQuartic, subfields, y
    return GaloisType.NonGaloisQuartic, subfields, y


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------


def rational_field() -> NumberField:
    return NumberField(RatPoly([0, 1]))


_QQ = rational_field()


def quadratic_field(m) -> NumberField:
    m = Fraction(m)
    if m == 0:
        raise UnsupportedFieldError("QQ(sqrt(0)) is not a quadratic field")
    msf = squarefree_part_rational(m)
    if msf == 1:
        raise UnsupportedFieldError("QQ(sqrt(m)) with m square is just QQ")
    return NumberField(RatPoly([-msf, 0, 1]))


def biquadratic_field(m: int, n: int) -> NumberField:
    """QQ(sqrt(m), sqrt(n)) via the minimal polynomial of sqrt(m) + sqrt(n)."""
    if m == 0 or n == 0:
        raise UnsupportedFieldError(f"({m},{n}) does not define a biquadratic field")
    m = squarefree_part_rational(Fraction(m))
    n = squarefree_part_rational(Fraction(n))
    if m == 1 or n == 1 or m == n:
        raise UnsupportedFieldError(f"({m},{n}) does not define a biquadratic field")
    return NumberField(RatPoly([(m - n) ** 2, 0, -2 * (m + n), 0, 1]))


def tower_field(m, a, b) -> NumberField:
    """K = QQ(sqrt(a + b*sqrt(m))), classified like any quartic field.

    The tower is degenerate exactly when alpha = a + b*sqrt(m) is a square in
    QQ(sqrt(m)): for b != 0 that is when x^4 - 2a x^2 + (a^2 - m b^2) is
    reducible, and for b = 0 when a is 0, a square, or m times a square.
    """
    m, a, b = Fraction(m), Fraction(a), Fraction(b)
    if m == 0 or is_rational_square(m):
        raise DegenerateTowerError("m must be a nonsquare")
    if squarefree_part_rational(m) != m:
        raise DegenerateTowerError("m must be a squarefree integer")
    degenerate = "alpha is a square in QQ(sqrt(m)); the tower is not quartic"
    if a == b == 0:
        raise DegenerateTowerError(degenerate)
    try:
        if b == 0:
            return biquadratic_field(int(m), squarefree_part_rational(a))
        return NumberField(RatPoly([a * a - b * b * m, 0, -2 * a, 0, 1]))
    except UnsupportedFieldError:
        raise DegenerateTowerError(degenerate) from None


def parse_field_spec(spec: str) -> NumberField:
    """Parse a field given as one of:
    "q"                 the rationals
    "m"                 QQ(sqrt(m))
    "m;a;b"             QQ(sqrt(a + b*sqrt(m)))
    "m,n"               QQ(sqrt(m), sqrt(n))
    "c0,c1,c2,c3"       monic quartic x^4 + c3 x^3 + c2 x^2 + c1 x + c0
    "c0,...,c4"         quartic with explicit leading coefficient
    """
    spec = spec.strip()
    if spec.lower() in ("q", "qq", "1"):
        return rational_field()
    if ";" in spec:
        parts = spec.split(";")
        if len(parts) != 3:
            raise DataFormatError(f"tower spec needs m;a;b: {spec!r}")
        return tower_field(*(rat_from_str(t) for t in parts))
    parts = spec.split(",")
    if len(parts) == 1:
        return quadratic_field(rat_from_str(parts[0]))
    if len(parts) == 2:
        m, n = (rat_from_str(t) for t in parts)
        if m.denominator != 1 or n.denominator != 1:
            raise DataFormatError(f"biquadratic spec needs integers m,n: {spec!r}")
        return biquadratic_field(int(m), int(n))
    if len(parts) == 4:
        cs = [rat_from_str(t) for t in parts]
        return NumberField(RatPoly(cs + [Fraction(1)]))
    if len(parts) == 5:
        return NumberField(RatPoly([rat_from_str(t) for t in parts]))
    raise DataFormatError(f"cannot parse field spec: {spec!r}")


# ---------------------------------------------------------------------------
# subfield membership
# ---------------------------------------------------------------------------


def smallest_subfield(elements, K: NumberField) -> int:
    """The smallest subfield of K holding every element: 1 for QQ, m for
    QQ(sqrt m) with m in `K.quadratic_subfields()`, and 0 for K itself.

    Each element e = c/den is placed by its own square s/den^2, with no
    square root taken and in integers only.  An irrational e lies in a
    quadratic subfield iff e^2 = a + b*e with a, b rational: the
    theta-coordinates of s are then b*den times those of c, which are not all
    0, so s_i c_k = s_k c_i for every i >= 1, k the first i with c_i != 0.
    As e = (b +- sqrt delta)/2, delta = b^2 + 4a, QQ(e) = QQ(sqrt delta), and
    delta = N / (c_k den)^2 with N = s_k^2 + 4 c_k (s_0 c_k - s_k c_0).  So
    QQ(e) = QQ(sqrt m) for the one squarefree m with N m a square.  In a K of
    degree <= 2 an irrational e generates K, and so do two elements of
    different quadratic subfields.  An e in a quadratic subfield that set-up
    did not list raises InvariantViolationError, which quotes delta."""
    homes = set()
    for e in elements:
        if e.is_rational():
            continue
        if K.degree <= 2:
            return 0
        c, s = e.num, _mul_mod_f(e.num, e.num, K._f_int)
        k = next(i for i in range(1, K.degree) if c[i])
        if any(s[i] * c[k] != s[k] * c[i] for i in range(1, K.degree)):
            return 0
        N = s[k] * s[k] + 4 * c[k] * (s[0] * c[k] - s[k] * c[0])
        m = next((m for m in K.quadratic_subfields() if is_rational_square(N * m)), None)
        if m is None:
            raise InvariantViolationError(f"{e!r} lies in QQ(sqrt {Fraction(N, (c[k] * e.den) ** 2)}), "
                                          f"which is not a listed quadratic subfield of {K!r}")
        homes.add(m)
    if len(homes) > 1:
        return 0
    return homes.pop() if homes else 1
