"""Elliptic curves over QQ in long Weierstrass form.

Curves carry their b-invariants and discriminant from construction.  Points
live on a curve with coordinates in a designated NumberField; the
chord-tangent group law, division polynomials (stored y-free),
multiplication-by-m x-maps and m-th preimages are all exact.  A preimage
under [m] of a point P != -P takes its y from the formula for [m], not from a
square root.  Halving lifts no polynomial: `halves` reads the halves of any
affine P off square roots in K, given one rational root e1 of the 2-division
cubic (Knapp's criterion), and takes a division in place of the second square
root when E(K)[2] is full.

Division polynomials use the y-free convention: psi_n is a polynomial in x
alone for odd n, and for even n the stored polynomial is psi_n / psi_2, with
psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 carried separately.  The roots of the
order-n primitive part are precisely the x-coordinates of points of exact
order n.

A Curve keeps, each filled on first use and never at construction, what the
engine asks of it again for every field it is searched over: the 2-division
cubic T = `two_division_poly`, which every point above an x, every halving,
every [m]-preimage and every even psi_n reads; the division polynomials psi_n
by n; the factors over QQ of `x_division_poly(n)` of degree <= d by (n, d),
d = [K:QQ], for odd n only, since `numfield.roots_in_field` solves the cubic
T in closed form and never factors it; and a_p by p, which `reduction_order`
counts from p residues and every field's reduction bound asks for at the same
small primes.  Nothing is keyed by a field, so a curve keeps no field alive,
and every value is a function of the a-invariants alone.  The rational roots
of the 2-division cubic are not kept: they are found once per report.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DataFormatError, InvariantViolationError, SingularCurveError
from .exactmath import RatPoly, factor_bounded, rat_from_str, rat_to_str
from .numfield import FieldElement, KPoly, NumberField, rat_eval, roots_in_field, sqrt_in_field


def _invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, disc) of the a-invariants, in the type of the
    a-invariants: ints for an integral model, Fractions otherwise."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8, -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


class Curve:
    """E: y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over QQ."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8",
                 "disc", "label", "_two_division", "_psi_cache", "_factor_cache", "_ap_cache")

    def __init__(self, a_invariants, label: str | None = None):
        a = tuple(Fraction(a) for a in a_invariants)
        self.a1, self.a2, self.a3, self.a4, self.a6 = a
        if all(c.denominator == 1 for c in a):
            # the values of the Fraction path, without a gcd per operation
            self.b2, self.b4, self.b6, self.b8, self.disc = map(
                Fraction, _invariants(*(c.numerator for c in a)))
        else:
            self.b2, self.b4, self.b6, self.b8, self.disc = _invariants(*a)
        if self.disc == 0:
            raise SingularCurveError(f"singular curve {list(map(rat_to_str, a))}")
        self.label = label
        self._two_division: RatPoly | None = None
        self._psi_cache: dict[int, RatPoly] = {}
        self._factor_cache: dict[tuple[int, int], frozenset[RatPoly]] = {}
        self._ap_cache: dict[int, int | None] = {}

    @property
    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other):
        return isinstance(other, Curve) and self.a_invariants == other.a_invariants

    def __hash__(self):
        return hash(self.a_invariants)

    def __repr__(self):
        s = ",".join(rat_to_str(a) for a in self.a_invariants)
        return f"Curve([{s}])" + (f" {self.label}" if self.label else "")

    @classmethod
    def from_str(cls, spec: str) -> "Curve":
        parts = [t.strip() for t in spec.split(",")]
        if len(parts) == 6:
            return cls([rat_from_str(t) for t in parts[:5]], label=parts[5])
        if len(parts) != 5:
            raise DataFormatError(f"curve spec needs a1,a2,a3,a4,a6[,label]: {spec!r}")
        return cls([rat_from_str(t) for t in parts])

    # -- x-line polynomials --------------------------------------------------

    def two_division_poly(self) -> RatPoly:
        """psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6; roots are the 2-torsion x's.
        Built on first use and kept."""
        if self._two_division is None:
            self._two_division = RatPoly([self.b6, 2 * self.b4, self.b2, 4])
        return self._two_division

    def division_polynomial(self, n: int) -> RatPoly:
        """y-free psi_n: for odd n this is psi_n itself; for even n it is
        psi_n / psi_2 (use two_division_poly for the psi_2^2 part)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self._psi(n)

    def _psi(self, n: int) -> RatPoly:
        cache = self._psi_cache
        if n in cache:
            return cache[n]
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        if n == 0:
            g = RatPoly([])
        elif n in (1, 2):
            g = RatPoly([1])
        elif n == 3:
            g = RatPoly([b8, 3 * b6, 3 * b4, b2, 3])
        elif n == 4:
            g = RatPoly([b4 * b8 - b6 * b6, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2])
        else:
            T = self.two_division_poly()
            m, rem = divmod(n, 2)
            if rem:
                a, b = self._psi(m + 2) * self._psi(m) ** 3, self._psi(m - 1) * self._psi(m + 1) ** 3
                g = (T * T * a - b) if m % 2 == 0 else (a - T * T * b)
            else:
                g = self._psi(m) * (self._psi(m + 2) * self._psi(m - 1) ** 2
                                    - self._psi(m - 2) * self._psi(m + 1) ** 2)
        cache[n] = g
        return g

    def x_division_poly(self, n: int) -> RatPoly:
        """Polynomial whose roots are x-coordinates of affine points killed by n."""
        g = self.division_polynomial(n)
        return g if n % 2 else g * self.two_division_poly()

    def x_division_factors(self, n: int, d: int) -> frozenset[RatPoly]:
        """factor_bounded(x_division_poly(n), d), factored on first use for
        each (n, d) and kept."""
        if (n, d) not in self._factor_cache:
            self._factor_cache[n, d] = factor_bounded(self.x_division_poly(n), d)
        return self._factor_cache[n, d]

    # -- reduction -------------------------------------------------------------

    def reduction_order(self, p: int, f: int) -> int | None:
        """#E~(F_q), q = p^f, for an odd prime p at which this model has good
        reduction (every a-invariant p-integral and p not dividing disc);
        None at any other p.  The affine points over F_p are counted on
        (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 from a table of the
        squares mod p, which gives a_p = p + 1 - #E~(F_p).  Then
        #E~(F_q) = q + 1 - s_f with s_0 = 2, s_1 = a_p and
        s_k = a_p s_(k-1) - p s_(k-2), the power sums of Frobenius.  a_p is
        counted on the first call for each p and kept."""
        if p not in self._ap_cache:
            self._ap_cache[p] = self._frobenius_trace(p)
        ap = self._ap_cache[p]
        if ap is None:
            return None
        s_prev, s = 2, ap
        for _ in range(f - 1):
            s_prev, s = s, ap * s - p * s_prev
        return p**f + 1 - s

    def _frobenius_trace(self, p: int) -> int | None:
        """a_p = p + 1 - #E~(F_p), or None at a bad p (see `reduction_order`)."""
        if any(a.denominator % p == 0 for a in self.a_invariants) or self.disc.numerator % p == 0:
            return None
        b2, b4, b6 = (b.numerator * pow(b.denominator, -1, p) % p
                      for b in (self.b2, self.b4, self.b6))
        # chi[v] = (number of square roots of v mod p) - 1
        chi = [-1] * p
        chi[0] = 0
        for y in range(1, (p + 1) // 2):
            chi[y * y % p] = 1
        return -sum(chi[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))

    def mult_by_m_xmap(self, m: int) -> tuple[RatPoly, RatPoly]:
        """(phi_m, psi_m^2) with x([m]P) = phi_m(x)/psi_m^2(x)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if m == 1:
            return RatPoly([0, 1]), RatPoly([1])
        T = self.two_division_poly()
        gm, gm1, gp1 = self._psi(m), self._psi(m - 1), self._psi(m + 1)
        x = RatPoly([0, 1])
        if m % 2:
            psi_sq = gm * gm
            phi = x * psi_sq - gp1 * gm1 * T
        else:
            psi_sq = gm * gm * T
            phi = x * psi_sq - gp1 * gm1
        return phi, psi_sq


class Point:
    """Point on E with coordinates in a designated field (None = infinity).
    The constructor checks the curve equation; the sums and negatives of the
    group law lie on the curve by construction and skip it.  A point is not
    changed once built, so its hash is computed on first use and kept in
    `_hash`, and its negative is built on first use and kept in `_neg` on
    both points, so that -(-P) is P."""

    __slots__ = ("curve", "field", "xy", "_hash", "_neg")

    def __init__(self, curve: Curve, field: NumberField, xy=None):
        self.curve = curve
        self.field = field
        if xy is not None:
            x, y = xy
            x, y = field.element(x), field.element(y)
            lhs = y * y + x * y * curve.a1 + y * curve.a3
            rhs = x * x * x + x * x * curve.a2 + x * curve.a4 + curve.a6
            if lhs != rhs:
                raise ValueError("point not on curve")
            self.xy = (x, y)
        else:
            self.xy = None

    @classmethod
    def infinity(cls, curve: Curve, field: NumberField) -> "Point":
        return cls(curve, field, None)

    @classmethod
    def _on_curve(cls, curve: Curve, field: NumberField, x: FieldElement, y: FieldElement) -> "Point":
        """The affine point (x, y), elements of field known to lie on curve."""
        P = cls.__new__(cls)
        P.curve, P.field, P.xy = curve, field, (x, y)
        return P

    def is_infinity(self) -> bool:
        return self.xy is None

    @property
    def x(self) -> FieldElement:
        return self.xy[0]

    @property
    def y(self) -> FieldElement:
        return self.xy[1]

    def __eq__(self, other):
        return (isinstance(other, Point) and self.curve == other.curve
                and self.field == other.field and self.xy == other.xy)

    def __hash__(self):
        # the points of one search share a curve and a field; == still compares them
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(self.xy)
            return h

    def __repr__(self):
        if self.is_infinity():
            return "Point(O)"
        return f"Point({self.x.coeffs}, {self.y.coeffs})"

    def __neg__(self) -> "Point":
        """(x, -y - a1 x - a3), which is (x, -y) when a1 = a3 = 0."""
        try:
            return self._neg
        except AttributeError:
            pass
        if self.is_infinity():
            return self
        x, y = self.xy
        E = self.curve
        y = -y - x * E.a1 - E.a3 if E.a1 or E.a3 else -y
        self._neg = neg = Point._on_curve(E, self.field, x, y)
        neg._neg = self
        return neg

    def __add__(self, other: "Point") -> "Point":
        if self.curve != other.curve or self.field != other.field:
            raise ValueError("points on different curves/fields")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        E = self.curve
        x1, y1 = self.xy
        x2, y2 = other.xy
        if x1 == x2:
            if y2 == (-self).xy[1]:
                return Point.infinity(E, self.field)
            # doubling
            den = y1 + y1 + x1 * E.a1 + E.a3
            num = x1 * x1 * 3 + x1 * (2 * E.a2) + E.a4 - y1 * E.a1
            lam = num / den
        else:
            lam = (y2 - y1) / (x2 - x1)
        # x3 = lam^2 + a1 lam - a2 - x1 - x2, y3 = lam (x1 - x3) - y1 - a1 x3 - a3
        x3 = lam * lam - x1 - x2
        if E.a1 or E.a2:
            x3 = x3 + lam * E.a1 - E.a2
        y3 = lam * (x1 - x3) - y1
        if E.a1 or E.a3:
            y3 = y3 - x3 * E.a1 - E.a3
        return Point._on_curve(E, self.field, x3, y3)

    def scalar_mul(self, n: int) -> "Point":
        """[n]P by doubling and adding.  The engine does not call it; it stays
        in src/ only because the benchmark's tracer binds it."""
        if n < 0:
            return (-self).scalar_mul(-n)
        out = Point.infinity(self.curve, self.field)
        base = self
        while n:
            if n & 1:
                out = out + base
            base = base + base
            n >>= 1
        return out


def _eta_shift(E: Curve, x: FieldElement, t: FieldElement, sign: int) -> FieldElement:
    """t + sign (a1 x + a3)/2: eta = y + (a1 x + a3)/2 from y for sign 1, and
    y from eta for sign -1.  t itself when a1 = a3 = 0."""
    if not (E.a1 or E.a3):
        return t
    return t + (x * E.a1 + E.a3) * Fraction(sign, 2)


def curve_points_y(E: Curve, x: FieldElement, K: NumberField) -> list[Point]:
    """All points of E(K) above a given x-coordinate: y = (-B +- sqrt T(x))/2.
    The curve equation is y^2 + By + C = 0 with B = a1 x + a3, and its
    discriminant B^2 - 4C is exactly T(x), T = `two_division_poly` (the
    4 eta^2 = T(x) of `m_preimages`).  So each y is a root, and the points are
    built without a second check of the curve equation."""
    g = sqrt_in_field(rat_eval(E.two_division_poly(), x), K)
    if g is None:
        return []
    # y = eta - B/2 for the two eta = +-g/2
    eta = g * Fraction(1, 2)
    y1 = _eta_shift(E, x, eta, -1)
    if g.is_zero():
        return [Point._on_curve(E, K, x, y1)]
    return [Point._on_curve(E, K, x, y1), Point._on_curve(E, K, x, _eta_shift(E, x, -eta, -1))]


def m_preimages(E: Curve, P: Point, K: NumberField, m: int) -> set[Point]:
    """All Q in E(K) with [m]Q = P, for affine P != -P and m >= 2.

    x_Q runs over the roots in K of phi_m - x_P psi_m^2, and y_Q comes from
    the formula for [m], not from a square root in K.  Put
    eta = y + (a1 x + a3)/2, so that 4 eta^2 = T(x) with T =
    `two_division_poly`, and -Q has -eta.  With g_n the y-free
    `division_polynomial(n)` and e = 2 for even m, e = 0 for odd m,

        eta([m]Q) = eta_Q g_2m(x_Q) / (g_m(x_Q)^4 T(x_Q)^e)

    (Silverman, AEC, Ex. 3.7; Washington, Elliptic Curves, Thm 3.6).  Above a
    root x_Q lie Q and -Q in E(K-bar), and [m] maps one of them to P; neither
    g_2m nor g_m T^e vanishes at x_Q, or [m]Q = +-P would be O or of order 2.
    So the preimage has eta_Q = eta_P g_m^4 T^e / g_2m at x_Q, an element of
    K, as eta_P != 0; the curve equation 4 eta_Q^2 = T(x_Q) is checked
    exactly.  g_2m(x_Q) comes from g_(m-2)(x_Q), ..., g_(m+2)(x_Q) by the
    even step of the recurrence in `Curve._psi` (for m = 2, g_0 = 0 leaves
    the base case g_4), so psi_2m is never expanded.  P = -P raises
    ValueError: the search lifts such a point only for p = 2, by `halves`."""
    if P.is_infinity():
        raise ValueError("use the m-torsion kernel for P at infinity")
    if m < 2:
        raise ValueError("m must be >= 2")
    eta_P = _eta_shift(E, P.x, P.y, 1)
    if eta_P.is_zero():
        raise ValueError("P = -P: halve a point of order 2 with `halves`")
    phi, psi_sq = E.mult_by_m_xmap(m)
    h = KPoly(K, phi.coeffs) - KPoly(K, psi_sq.coeffs).scale(P.x)
    T = E.two_division_poly()
    gs = [E._psi(n) for n in range(m - 2, m + 3)]
    out = set()
    for x in roots_in_field(h, K):
        g_lo2, g_lo1, g_m, g_hi1, g_hi2 = (rat_eval(g, x) for g in gs)
        t = rat_eval(T, x)
        g_2m = g_m * (g_hi2 * g_lo1 * g_lo1 - g_lo2 * g_hi1 * g_hi1)
        g_m2 = g_m * g_m
        scale = g_m2 * g_m2 * (t * t if m % 2 == 0 else 1)
        eta = eta_P * scale / g_2m
        if eta * eta * 4 != t:
            raise InvariantViolationError(f"no point of E(K) above the root {x!r} of [{m}]x = x_P")
        out.add(Point._on_curve(E, K, x, _eta_shift(E, x, eta, -1)))
    return out


def halves(E: Curve, P: Point, K: NumberField, es) -> set[Point]:
    """All Q in E(K) with [2]Q = P, for affine P, given es, the x's of the
    points of order 2 of E(K): one of them or all three.  In
    eta = y + (a1 x + a3)/2 the curve is eta^2 = (x - e1)(x - e2)(x - e3),
    e1 = es[0], with e2, e3 in K-bar.  By Knapp's criterion (Elliptic Curves,
    1992, Thm 4.2) the halves of P in E(K-bar) have

        x = x_P + ab + ac + bc,    eta = (a + b)(a + c)(b + c)

    for a^2 = x_P - e1, b^2 = x_P - e2, c^2 = x_P - e3 and abc = eta_P,
    since x - e1 = (a + b)(a + c) and likewise for e2, e3.  With s = bc and
    t = b + c this reads x = x_P + at + s, eta = (x - e1) t, and, as
    e1 + e2 + e3 = -b2/4,

        t^2 = b^2 + c^2 + 2s = 2 x_P + e1 + b2/4 + 2s.

    So only e1 is needed.  A half Q in E(K) has t = eta_Q / (x_Q - e1) in K,
    and a = +-r in K, r = sqrt(x_P - e1), since x([2]Q) - e1 is a square in
    K (the easy half of the criterion).  If r != 0 then s = eta_P / a; if
    r = 0 then P = (e1, .) has order 2, and s^2 = (e1 - e2)(e1 - e3) =
    T'(e1)/4 = 3 e1^2 + (b2/2) e1 + b4/2, T = `two_division_poly`.  Either
    way (a, s) runs over (r, s) and (-r, -s), and t over the square roots of
    t^2 in K.
    Each such (a, s, t) is a half: the roots b, c of z^2 - tz + s have
    {b^2, c^2} = {x_P - e2, x_P - e3} and abc = eta_P.  If the pair (r, s)
    has (b, c), the pair (-r, -s) has (b, -c), so t1 t2 = b^2 - c^2 =
    +-(e3 - e2), which is not 0 as E is nonsingular.  So with all three e's
    in K, t2 is in K iff t1 is, and t2 = (e3 - e2) / t1 up to its sign: a
    division in place of a square root.  The curve equation 4 eta^2 = T(x)
    is checked exactly for every half, as in `m_preimages`."""
    e1 = es[0]
    r = sqrt_in_field(P.x - e1, K)
    if r is None:
        return set()
    if r.is_zero():
        s = sqrt_in_field(e1 * e1 * 3 + e1 * (E.b2 / 2) + E.b4 / 2, K)
        if s is None:
            return set()
    else:
        s = _eta_shift(E, P.x, P.y, 1) / r
    c = P.x * 2 + e1 + E.b2 / 4
    t1 = sqrt_in_field(c + s * 2, K)
    if len(es) == 1:
        t2 = sqrt_in_field(c - s * 2, K)
    else:
        t2 = None if t1 is None else (es[2] - es[1]) / t1
    T = E.two_division_poly()
    out = set()
    for a, s, t in ((r, s, t1), (-r, -s, t2)):
        if t is None:
            continue
        for t in (t, -t):
            x = P.x + a * t + s
            eta = (x - e1) * t
            if eta * eta * 4 != rat_eval(T, x):
                raise InvariantViolationError(f"the half above {x!r} of {P!r} is not on the curve")
            out.add(Point._on_curve(E, K, x, _eta_shift(E, x, eta, -1)))
    return out
