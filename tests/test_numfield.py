import json
import random
from fractions import Fraction
from itertools import islice, product
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from sympy import QQ, Poly, Rational, symbols

import oracles
from oracles import tower_galois_type
from quartic_torsion import _intpoly as zp
from quartic_torsion import exactmath, numfield
from quartic_torsion._intpoly import gf_is_squarefree
from quartic_torsion.ellcurve import Curve
from quartic_torsion.errors import (
    DataFormatError,
    DegenerateTowerError,
    InvariantViolationError,
    UnsupportedFieldError,
)
from quartic_torsion.exactmath import (
    RatPoly,
    factor_bounded,
    is_rational_square,
    poly_xgcd,
    resultant,
    squarefree_part_rational,
)
from quartic_torsion.numfield import (
    GaloisType,
    KPoly,
    NumberField,
    biquadratic_field,
    parse_field_spec,
    quadratic_field,
    rat_eval,
    rational_field,
    rational_roots,
    roots_in_field,
    smallest_subfield,
    sqrt_in_field,
    tower_field,
)

ZETA5 = NumberField(RatPoly([1, 1, 1, 1, 1]))
SQRT5 = quadratic_field(5)
F_10_5 = NumberField(RatPoly([5, 0, -10, 0, 1]))


class TestElementArithmetic:
    def test_inverse_in_cyclotomic(self):
        theta = ZETA5.gen()
        inv = theta.inverse()
        assert inv == ZETA5.element([-1, -1, -1, -1])
        # oracle: multiply back and reduce to 1
        assert theta * inv == ZETA5.one()

    def test_power_reduction(self):
        # theta^2 * theta^3 = theta^5 = 10 theta^3 - 5 theta  (theta^4 = 10theta^2 - 5)
        th = F_10_5.gen()
        assert th**2 * th**3 == F_10_5.element([0, -5, 0, 10])

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZETA5.zero().inverse()

    def test_division_roundtrip(self):
        rng = random.Random(11)
        for _ in range(30):
            x = ZETA5.element([rng.randrange(-5, 6) for _ in range(4)])
            y = ZETA5.element([rng.randrange(-5, 6) for _ in range(4)])
            if y.is_zero():
                continue
            assert (x / y) * y == x

    def test_norm_multiplicative(self):
        rng = random.Random(12)
        for _ in range(20):
            x = F_10_5.element([rng.randrange(-4, 5) for _ in range(4)])
            y = F_10_5.element([rng.randrange(-4, 5) for _ in range(4)])
            assert (x * y).norm() == x.norm() * y.norm()


def _reference_mul(a, b, f):
    """a * b for Fraction coordinate vectors a, b modulo the monic f: the
    schoolbook product, then theta^k for k >= d replaced from a table of
    Fraction vectors."""
    d, fc = f.degree, f.coeffs
    table = [[-c for c in fc[:-1]]]  # theta^d, theta^(d+1), ..., theta^(2d-2)
    for _ in range(d - 2):
        prev = table[-1]
        table.append([x - prev[-1] * c for x, c in zip([0] + prev[:-1], fc)])
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = prod[:d]
    for k in range(d, 2 * d - 1):
        out = [o + prod[k] * t for o, t in zip(out, table[k - d])]
    return tuple(out)


def _reference_inverse(a, f):
    """1/a from u*a + v*f = 1 (`poly_xgcd` over QQ), reduced mod f."""
    g, u, _ = poly_xgcd(RatPoly(a), f)
    assert g == RatPoly([1])
    u = list(u.divmod(f)[1].coeffs)
    return tuple(u + [Fraction(0)] * (f.degree - len(u)))


def _reference_pow(a, n, f):
    if n < 0:
        a, n = _reference_inverse(a, f), -n
    out = (Fraction(1),) + (Fraction(0),) * (f.degree - 1)
    for _ in range(n):
        out = _reference_mul(out, a, f)
    return out


def _is_canonical(x):
    return (all(type(c) is int for c in x.num) and type(x.den) is int and x.den > 0
            and gcd(x.den, *x.num) == 1)


class TestFieldElementArithmetic:
    """Elements as (num, den) over Z[theta] against Fraction coordinate
    vectors, and the inverse against the extended gcd over QQ."""

    SPECS = ("q", "-3", "1,1,1,1", "-1,5", "5;5;2", "-2,0,0,0")

    @pytest.mark.parametrize("spec", SPECS)
    def test_against_fraction_vectors(self, spec):
        K = parse_field_spec(spec)
        f = K.defining_poly
        rng = random.Random(41)
        for _ in range(40):
            x, y = (_random_element(K, rng, (1, 2, 3, 4, 9, 10)) for _ in range(2))
            a, b = x.coeffs, y.coeffs
            results = {
                "+": (x + y, tuple(s + t for s, t in zip(a, b))),
                "-": (x - y, tuple(s - t for s, t in zip(a, b))),
                "*": (x * y, _reference_mul(a, b, f)),
                "**": (x ** 3, _reference_pow(a, 3, f)),
            }
            if not y.is_zero():
                results["/"] = (x / y, _reference_mul(a, _reference_inverse(b, f), f))
                results["inverse"] = (y.inverse(), _reference_inverse(b, f))
                results["**-2"] = (y ** -2, _reference_pow(b, -2, f))
            for op, (got, want) in results.items():
                assert got.coeffs == want, (op, a, b)
                assert _is_canonical(got), (op, got.num, got.den)
                assert got == K.element(want) and hash(got) == hash(K.element(want))

    def test_closed_forms_on_every_workload_field(self, benchmark_cases):
        # the product written out per degree, the inverse of a rational
        # element (den / num_0 in every K) and of any other element (closed
        # for d = 2, `_quadtower.solve` for d = 4), with coordinates past
        # 2^200 over large denominators, on every field of seeds 0-2 of the
        # three workloads
        rng = random.Random(61)
        degrees = set()
        for K in sorted(_workload_fields(benchmark_cases, range(3)), key=repr):
            f = K.defining_poly
            degrees.add(K.degree)
            for _ in range(3):
                x, y = (K.element([Fraction(rng.randrange(-2**230, 2**230), rng.randrange(1, 2**70))
                                   for _ in range(K.degree)]) for _ in range(2))
                r = K.element(Fraction(rng.randrange(2**210, 2**230), rng.randrange(1, 2**70)))
                assert max(map(abs, x.num + y.num)) > 2**200
                a, b = x.coeffs, y.coeffs
                for got, want in ((x * y, _reference_mul(a, b, f)), (x * x, _reference_mul(a, a, f)),
                                  (x.inverse(), _reference_inverse(a, f)),
                                  (r.inverse(), _reference_inverse(r.coeffs, f))):
                    assert got.coeffs == want, (K, a, b)
                    assert _is_canonical(got)
        assert degrees == {1, 2, 4}

    @pytest.mark.parametrize("spec", SPECS)
    def test_rat_eval_is_horner_in_field_elements(self, spec):
        # D den^n h(num/den) over Z[theta] with one normalization equals
        # Horner's rule over FieldElements, for the zero polynomial, constants
        # and rational x among the rest
        K = parse_field_spec(spec)
        rng = random.Random(62)
        polys = [RatPoly([]), RatPoly([Fraction(-3, 7)])] + [
            RatPoly([Fraction(rng.randrange(-50, 51), rng.randrange(1, 30)) for _ in range(n + 1)])
            for n in range(1, 9)]
        xs = [K.zero(), K.one(), K.element(Fraction(-5, 6))] + [
            _random_element(K, rng, (1, 2, 3, 7, 10**12)) for _ in range(6)]
        for h in polys:
            for x in xs:
                got = rat_eval(h, x)
                assert got == h(x) and _is_canonical(got), (h, x)
                if x.is_rational():
                    assert got == h(x.rational_value())
        assert rat_eval(RatPoly([]), xs[-1]) == K.zero()

    @pytest.mark.parametrize("spec", SPECS[1:])
    def test_inverse_of_theta_swaps_pivot(self, spec):
        # the first column of the multiplication matrix of theta is e_1, so
        # elimination must swap rows before its first step
        K = parse_field_spec(spec)
        theta = K.gen()
        assert theta.num[0] == 0
        inv = theta.inverse()
        assert inv.coeffs == _reference_inverse(theta.coeffs, K.defining_poly)
        assert theta * inv == 1 and _is_canonical(inv)

    @pytest.mark.parametrize("spec", SPECS)
    def test_inverse_of_zero_raises(self, spec):
        with pytest.raises(ZeroDivisionError):
            parse_field_spec(spec).zero().inverse()

    @pytest.mark.parametrize("value", (0, 3, Fraction(-1, 2)))
    def test_rational_element_hashes_as_its_value(self, value):
        x = parse_field_spec("-1,5").element(value)
        assert x == value and hash(x) == hash(value)
        assert x in {value} and value in {x}

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        rng = random.Random(43)
        fields = [parse_field_spec(s) for s in ("1,1,1,1", "-1,5", "5;5;2")]
        elements = [[_random_element(K, rng, (1, 2, 3, 7)) for _ in range(6)] for K in fields]
        built = []
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        ops = 0
        for _ in range(25):
            x, y = rng.sample(rng.choice(elements), 2)
            x * y, x + y, x - y
            if not x.is_zero():
                x.inverse()
            ops += 4
        assert ops == 100 and built == []
        fields[0].gen().coeffs  # the counter sees a Fraction when one is built
        assert built


class TestRootsInField:
    def test_sqrt5_roots(self):
        roots = roots_in_field(RatPoly([-5, 0, 1]), SQRT5)
        th = SQRT5.gen()
        assert roots == {th, -th}

    def test_cyclotomic_splits(self):
        f = RatPoly([1, 1, 1, 1, 1])
        roots = roots_in_field(f, ZETA5)
        th = ZETA5.gen()
        assert roots == {th, th**2, th**3, ZETA5.element([-1, -1, -1, -1])}
        # oracle: every claimed root reduces the polynomial to 0
        for r in roots:
            assert KPoly(ZETA5, f.coeffs)(r).is_zero()

    def test_totally_real_excludes_i(self):
        assert roots_in_field(RatPoly([1, 0, 1]), SQRT5) == set()

    def test_rational_field(self):
        Q = rational_field()
        roots = roots_in_field(RatPoly([-1, 0, 1]), Q)
        assert roots == {Q.element(1), Q.element(-1)}

    def test_kpoly_coefficients(self):
        # x^2 - theta has root theta in QQ[theta]/(theta^4 - 10theta^2 + 5)?
        # theta = sqrt(5 + 2*sqrt(5)) is not a square there generically; but
        # x^2 - theta^2 certainly has roots +-theta.
        th = F_10_5.gen()
        h = KPoly(F_10_5, [-(th * th), F_10_5.zero(), F_10_5.one()])
        assert roots_in_field(h, F_10_5) == {th, -th}


SPLIT_PRIME_SPECS = ("1,1,1,1", "-1,5", "5;5;2", "-3", "q")


def first_split_primes(K):
    """The first three (p, roots of f mod p) of `K.iter_split_primes`, the
    primes at which the tests plant denominators and repeated roots."""
    return tuple(islice(K.iter_split_primes(), 3))


class TestSplitPrimeCertificate:
    """Reduction of K at completely split primes: the table of those primes,
    and the lift's one modular exit, an image with no root mod p."""

    @pytest.mark.parametrize("spec", SPLIT_PRIME_SPECS + ("-2,0,0,0",))
    def test_split_prime_table(self, spec):
        # iter_split_primes yields every prime above the floor at which f has
        # [K:QQ] distinct roots, in increasing order, and no other
        K = parse_field_spec(spec)
        f = K.defining_poly
        disc = resultant(f, f.derivative()) if K.degree > 1 else 1
        table = first_split_primes(K)
        assert len(table) == 3
        for p, roots in table:
            assert p > zp.PRIME_FLOOR and disc % p != 0
            assert len(set(roots)) == len(roots) == K.degree
            assert all(f(r) % p == 0 for r in roots)
        primes = [p for p, _ in table]
        assert primes == sorted(set(primes))
        for p in range(zp.PRIME_FLOOR + 1, primes[-1]):
            if p not in primes and all(p % k for k in range(2, p)):
                assert sum(numfield._eval_mod(K._f_int, r, p) == 0 for r in range(p)) < K.degree, p

    def test_table_not_built_at_construction(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("split-prime table built during field set-up")

        # setting up a quartic field searches its resolvent cubic in the one
        # QQ field of `rational_roots`, which builds its own table on first
        # use; a quadratic takes its closed form there and builds none
        rational_roots(RatPoly([-2, 0, 0, 1]))
        monkeypatch.setattr(numfield, "_split_prime_stream", forbidden)
        for spec in SPLIT_PRIME_SPECS + ("13;13;3", "-7,-15"):
            parse_field_spec(spec)

    @pytest.mark.parametrize("spec", SPLIT_PRIME_SPECS)
    def test_planted_roots_are_found(self, spec):
        # h = (x - alpha) * g for random alpha and g, some with a split prime
        # in a denominator of alpha or g, or in the leading coefficient
        K = parse_field_spec(spec)
        primes = [p for p, _ in first_split_primes(K)]
        rng = random.Random(19)
        for _ in range(12):
            den = rng.choice(primes + [1, 1])
            alpha = K.element([Fraction(rng.randrange(-9, 10), rng.choice((1, den)))
                               for _ in range(K.degree)])
            g = KPoly(K, [K.element([Fraction(rng.randrange(-5, 6), rng.choice((1, den)))
                                     for _ in range(K.degree)])
                          for _ in range(rng.randrange(1, 4))] + [rng.choice((1, den))])
            h = KPoly(K, [-alpha, 1]) * g
            assert alpha in roots_in_field(h, K)

    @pytest.mark.parametrize("spec", SPLIT_PRIME_SPECS)
    def test_root_with_split_prime_denominator(self, spec):
        K = parse_field_spec(spec)
        for p, _ in first_split_primes(K):
            root = K.element(Fraction(1, p))
            # (x - 1/p)(x + p*k) = x^2 + (p*k - 1/p) x - k: dropping the
            # x-coefficient would leave x^2 - k, which has no root mod p
            k = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)
            for h, roots in ((RatPoly([-1, p]), {root}),
                             (RatPoly([-Fraction(1, p), 1]), {root}),
                             (RatPoly([-Fraction(1, p), 1]) * RatPoly([p * k, 1]),
                              {root, K.element(-p * k)})):
                assert roots_in_field(h, K) == roots
                assert roots_in_field(KPoly(K, h.coeffs), K) == roots

    def test_rootless_search_ends_at_the_lift_prime(self, monkeypatch):
        # x^2 - (theta + 2) and x^2 - 2 theta have squarefree images at 61, the
        # first split prime of QQ(zeta5), and one image with no root mod 61:
        # the lift stops there and lifts nothing.  x^2 - 3 has a root mod 61
        # at every image (3 is a square mod 61), so it is lifted, and only the
        # bound and exact substitution show that sqrt3 is not in QQ(zeta5).
        th = ZETA5.gen()
        p, rs = next(ZETA5.iter_split_primes())
        assert p == 61
        for h in (KPoly(ZETA5, [-(th + 2), 0, 1]), KPoly(ZETA5, [-2 * th, 0, 1])):
            images = [[numfield._eval_mod(a, r, p) for a in numfield._scaled_monic(h)[1]] for r in rs]
            assert all(gf_is_squarefree(img, p) for img in images)
            assert not all(any(numfield._eval_mod(img, x, p) == 0 for x in range(p))
                           for img in images)

        def forbidden(*args):
            raise AssertionError("a search settled at the lift prime went on")

        monkeypatch.setattr(numfield, "_trager_roots", forbidden)
        split_prime_lift, lifted = numfield._split_prime_lift, []
        monkeypatch.setattr(numfield, "_split_prime_lift",
                            lambda K, *args: lifted.append(K) or split_prime_lift(K, *args))
        assert roots_in_field(KPoly(ZETA5, [-3, 0, 1]), ZETA5) == set()
        assert lifted == [ZETA5]
        monkeypatch.setattr(numfield, "_split_prime_lift", forbidden)
        monkeypatch.setattr(numfield, "factor_bounded", forbidden)
        assert roots_in_field(KPoly(ZETA5, [-(th + 2), 0, 1]), ZETA5) == set()
        assert numfield._hensel_roots(KPoly(ZETA5, [-2 * th, 0, 1]), ZETA5) == set()
        assert sqrt_in_field(th * 2, ZETA5) is None


# (w, Tr w) for an algebraic integer w of degree 2 outside Z[theta]: its
# power-basis coordinates have denominators, and (x - w)(x - Tr w + w) is in ZZ[x].
OUTSIDE_Z_THETA = {
    "-1,5": ([Fraction(1, 2), Fraction(7, 12), 0, Fraction(-1, 24)], 1),  # (1 + sqrt5)/2
    "5;5;2": ([Fraction(-3, 4), 0, Fraction(1, 4), 0], 1),                # (1 + sqrt5)/2
    "-3": ([Fraction(-1, 2), Fraction(1, 2)], -1),                        # (-1 + sqrt-3)/2
}


def _random_element(K, rng, dens=(1,)):
    return K.element([Fraction(rng.randrange(-9, 10), rng.choice(dens)) for _ in range(K.degree)])


def _planted(K, roots, cofactor):
    h = cofactor
    for alpha in roots:
        h = h * KPoly(K, [-alpha, 1])
    return h


@pytest.mark.parametrize("spec", ("1,1,1,1", "-1,5"))
def test_dense_poly_arithmetic_over_qq_and_k(spec):
    """`exactmath.DensePoly` holds the arithmetic of RatPoly and KPoly alike:
    on rational input KPoly matches RatPoly coefficient by coefficient, and
    over K division recomposes."""
    K = parse_field_spec(spec)
    rng = random.Random(27)

    def rand():
        return RatPoly([Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 7)))
                        for _ in range(rng.randrange(0, 7))])

    def lift(p):
        return KPoly(K, p.coeffs)

    for _ in range(40):
        a, b = rand(), rand()
        A, B = lift(a), lift(b)
        c = Fraction(rng.randrange(-9, 10), rng.choice((1, 4, 5)))
        x = Fraction(rng.randrange(-9, 10), rng.choice((1, 3)))
        t = _random_element(K, rng, (1, 2))
        assert (A.degree, A.is_zero()) == (a.degree, a.is_zero())
        assert A + B == lift(a + b) and A - B == lift(a - b) and -A == lift(-a)
        assert A * B == lift(a * b) and A.scale(c) == lift(a.scale(c))
        assert A.derivative() == lift(a.derivative()) and A.monic() == lift(a.monic())
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                A.divmod(B)
        else:
            assert A.divmod(B) == tuple(lift(p) for p in a.divmod(b))
        assert A(x) == a(x) and A(t) == a(t)

        g, h = (KPoly(K, [_random_element(K, rng, (1, 3)) for _ in range(rng.randrange(1, 7))])
                for _ in range(2))
        if not h.is_zero():
            q, r = g.divmod(h)
            assert g == q * h + r and (r.is_zero() or r.degree < h.degree)
            assert h.monic().lc == 1
    assert RatPoly([])(3) == 0 and type(RatPoly([])(3)) is Fraction
    assert KPoly(K, [])(K.gen()) == K.zero() and type(KPoly(K, [])(K.gen())) is type(K.zero())


class TestHenselRoots:
    """The lift at a split prime against the norm method as oracle."""

    @pytest.mark.parametrize("spec", ("1,1,1,1", "-1,5", "5;5;2", "-3", "-2,0,0,0"))
    def test_agrees_with_norm_method(self, spec):
        K = parse_field_spec(spec)
        primes = [p for p, _ in first_split_primes(K)]
        rng = random.Random(29)
        sizes = []
        for kind in ("integral", "split_denominators", "not_monic", "random") * 2:
            dens = (1, 2, 3) + tuple(primes) if kind != "integral" else (1,)
            if kind == "random":
                h = KPoly(K, [_random_element(K, rng, dens) for _ in range(rng.randrange(3, 5))])
                planted = []
            else:
                cofactor = KPoly(K, [_random_element(K, rng, dens) for _ in range(rng.randrange(1, 3))]
                             + [_random_element(K, rng, dens) if kind == "not_monic" else 1])
                planted = [_random_element(K, rng, dens)]
                if kind == "integral" and spec in OUTSIDE_Z_THETA:
                    coords, trace = OUTSIDE_Z_THETA[spec]
                    w = K.element(coords)
                    planted = [w, trace - w]
                h = _planted(K, planted, cofactor)
                if kind == "integral":
                    assert numfield._scaled_monic(h)[0] == 1
            if h.gcd(h.derivative()).degree != 0:
                continue
            got = numfield._hensel_roots(h, K)
            assert got == numfield._trager_roots(h, K), (kind, h.coeffs)
            assert set(planted) <= got
            sizes.append(len(got))
        assert 0 in sizes and max(sizes) >= 2

    def test_root_outside_z_theta_needs_disc(self):
        # x^2 - x - 1 is monic integral (D = 1), and its roots have power-basis
        # denominators 24 over QQ(i, sqrt5)
        K = parse_field_spec("-1,5")
        phi = K.element(OUTSIDE_Z_THETA["-1,5"][0])
        h = KPoly(K, [-1, -1, 1])
        assert numfield._scaled_monic(h)[0] == 1
        assert numfield._hensel_roots(h, K) == {phi, 1 - phi} == numfield._trager_roots(h, K)

    @pytest.mark.parametrize("spec", ("-1,5", "6,105", "1,1,1,1"))
    def test_coordinate_bound(self, spec):
        # |Delta * c_j| <= L for the coordinates c_j of each root beta = D * alpha
        K = parse_field_spec(spec)
        f = K.defining_poly
        Delta = abs(K.disc)
        assert Delta == abs(resultant(f, f.derivative()))
        conjugates = list(numfield._trager_roots(KPoly(K, f.coeffs), K))
        assert len(conjugates) == 4
        rng = random.Random(31)
        for _ in range(12):
            roots = {rng.choice(conjugates) * rng.choice((1, Fraction(1, 2), -3))
                     + _random_element(K, rng, (1, 2, 3, 7)) * rng.randrange(2)
                     for _ in range(rng.randrange(1, 4))}
            h = _planted(K, roots, KPoly(K, [rng.choice((1, 5, Fraction(1, 3)))]))
            D, ht = numfield._scaled_monic(h)
            L = numfield._coordinate_bound(K, ht)
            for alpha in roots:
                for c in (alpha * D).coeffs:
                    assert (Delta * c).denominator == 1 and abs(Delta * c) <= L, (alpha, L)

    @pytest.mark.parametrize("spec", ("1,1,1,1", "-1,5", "-3"))
    def test_walks_past_the_table_primes(self, spec):
        # (x - theta)(x - theta - P) has a double root mod every table prime
        K = parse_field_spec(spec)
        table = first_split_primes(K)
        P = 1
        for p, _ in table:
            P *= p
        th = K.gen()
        h = _planted(K, [th, th + P], KPoly(K, [1]))
        for p, rs in table:
            for r in rs:
                image = [sum(int(x) * r**j for j, x in enumerate(c.coeffs)) % p for c in h.coeffs]
                assert not gf_is_squarefree(image, p)
        assert numfield._hensel_roots(h, K) == {th, th + P}
        assert roots_in_field(h, K) == {th, th + P}
        assert len(K._split_primes) > len(table)


class TestQuadraticImages:
    """A quadratic image y^2 + a1 y + a0 mod p, scanned over the p residues
    like any image, has the roots its discriminant delta = a1^2 - 4 a0 says,
    and is not squarefree exactly when delta = 0."""

    @pytest.mark.parametrize("p", (7, 13, 61))
    def test_every_monic_quadratic(self, p):
        # the sorted roots by brute force, and None exactly when delta = 0
        nones = rootless = 0
        for a0, a1 in product(range(p), repeat=2):
            img = [a0, a1, 1]
            got = numfield._image_roots(img, p)
            if (a1 * a1 - 4 * a0) % p == 0:
                assert got is None, img
                nones += 1
            else:
                assert got == [x for x in range(p) if (x * x + a1 * x + a0) % p == 0], img
                rootless += not got
        assert nones == p and rootless == p * (p - 1) // 2

    @pytest.mark.parametrize("spec", SPLIT_PRIME_SPECS)
    def test_discriminant_zero_at_the_first_split_prime(self, spec):
        # y^2 - p0 m has delta = 0 mod p0, the first split prime, at every
        # image, so the lift goes on to the next split prime.  sqrt p0 is not
        # in K (p0 is unramified); p0 sqrt m is, for m = 1 and for each
        # quadratic subfield QQ(sqrt m)
        K = parse_field_spec(spec)
        p0, rs = next(K.iter_split_primes())
        # quadratic_field(m) is set up from x^2 - m
        subfields = (K.quadratic_subfields() if K.degree == 4
                     else {-K._f_int[0]} if K.degree == 2 else set())
        for beta in [p0] + [p0 * p0 * m for m in {1, -1, 2, 5} | subfields]:
            h = KPoly(K, [-beta, 0, 1])
            ht = numfield._scaled_monic(h)[1]
            assert all(numfield._image_roots([numfield._eval_mod(a, r, p0) for a in ht], p0) is None
                       for r in rs)
            root, expected = sqrt_in_field(K.element(beta), K), numfield._trager_roots(h, K)
            assert expected == (set() if root is None else {root, -root}), beta
            assert (root is not None) == (beta in {p0 * p0 * m for m in {1} | subfields}), beta


KNOWN_GROUP_CURVES = [row["curve"] for row in json.loads(
    (Path(__file__).parent / "data" / "known_groups_reports.json").read_text())]


def _rand_ratpoly(rng, deg, span=9):
    cs = [Fraction(rng.randrange(-span, span + 1)) for _ in range(deg)]
    return RatPoly(cs + [Fraction(rng.randrange(1, span + 1))])


def _linear_factor_roots(h):
    """The rational roots of h read off its linear factors over QQ (Zassenhaus
    in `factor_bounded`), the oracle for the lift in the degree-1 field."""
    return {-g.coeffs[0] for g in factor_bounded(h, 1)}


def _resolvent_cubic(f):
    """The resolvent cubic of the monic quartic f, whose rational roots
    classify QQ[x]/(f)."""
    p, q, r, s = f.coeffs[3::-1]
    return RatPoly([-(p * p * s - 4 * q * s + r * r), p * r - 4 * s, -q, 1])


class TestDegreeOneLift:
    """QQ = QQ[theta]/(theta) takes the same lift as every other field: f = x,
    every split prime has the root 0, and L is Cauchy's bound."""

    @staticmethod
    def check(h):
        Q = rational_field()
        expected = _linear_factor_roots(h)
        hK = KPoly(Q, h.coeffs)
        assert {r.rational_value() for r in numfield._hensel_roots(hK, Q)} == expected
        assert roots_in_field(hK, Q) == roots_in_field(h, Q) == {Q.element(r) for r in expected}
        assert rational_roots(h) == expected
        return expected

    def test_disc_and_coordinate_bound(self):
        Q = rational_field()
        assert Q.disc == 1
        assert all(rs == (0,) for _, rs in first_split_primes(Q))
        # L is Cauchy's bound 1 + max |a_k| of the monic integral h~
        assert numfield._coordinate_bound(Q, [[-12], [7], [1]]) == 13

    def test_planted_roots_with_denominators(self):
        rng = random.Random(41)
        found = 0
        for _ in range(40):
            roots = {Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**5))
                     for _ in range(rng.randrange(1, 4))}
            h = _rand_ratpoly(rng, rng.randrange(0, 3))
            for r in roots:
                h = h * RatPoly([-r.numerator, r.denominator])
            assert roots <= self.check(h)
            found += len(roots)
        assert found > 40

    def test_repeated_roots_take_the_squarefree_part(self, monkeypatch):
        calls = []
        squarefree = KPoly.squarefree
        monkeypatch.setattr(KPoly, "squarefree", lambda h: calls.append(h) or squarefree(h))
        rng = random.Random(43)
        for _ in range(12):
            r = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 100))
            s = Fraction(rng.randrange(-99, 100), rng.randrange(1, 9))
            h = RatPoly([-r, 1]) ** rng.randrange(2, 4) * RatPoly([-s, 1]) * _rand_ratpoly(rng, 1)
            assert {r, s} <= self.check(h)
        assert len(calls) >= 12

    @pytest.mark.parametrize("root", (10**15, -10**15, 2, -2, Fraction(10**9 + 7, 3),
                                      Fraction(-10**12, 99991)))
    def test_root_at_cauchy_bound(self, root):
        # root = a/b: for x - a/b and (x - a/b)(x + sign(a)/b), h~ is y - a and
        # y^2 + (sign(a) - a) y - |a|, so the root a of h~ is 1 below
        # L = 1 + |a|, Cauchy's bound
        a, b = root.as_integer_ratio()
        other = Fraction(-1 if a > 0 else 1, b)
        assert self.check(RatPoly([-root, 1])) == {root}
        assert self.check(RatPoly([-root, 1]) * RatPoly([-other, 1])) == {root, other}

    def test_degree_zero(self):
        assert self.check(RatPoly([Fraction(-7, 3)])) == set()
        assert numfield._hensel_roots(KPoly(rational_field(), [5]), rational_field()) == set()

    @pytest.mark.parametrize("curve", KNOWN_GROUP_CURVES)
    def test_division_polynomials_of_known_groups_curves(self, curve):
        E = Curve.from_str(curve)
        for h in (E.division_polynomial(3), E.division_polynomial(5),
                  E.division_polynomial(7), E.two_division_poly()):
            self.check(h)

    # `rational_roots` lifts these cubics directly, without factoring them:
    # every case's 2-division cubic, for `two_torsion_rigidity`, and every
    # field_sweep field's resolvent cubic, at set-up

    def test_two_division_cubics_of_seed0_curves(self, benchmark_cases):
        curves = {c for w in ("known_groups", "curve_sweep", "field_sweep")
                  for c, _ in benchmark_cases(w, 0)}
        found = 0
        for curve in sorted(curves):
            found += len(self.check(Curve.from_str(curve).two_division_poly()))
        assert len(curves) > 100 and found > 20

    def test_resolvent_cubics_of_field_sweep_seed0_fields(self, benchmark_cases):
        fields = {f for _, f in benchmark_cases("field_sweep", 0)}
        found = 0
        for field in sorted(fields):
            found += len(self.check(_resolvent_cubic(parse_field_spec(field).defining_poly)))
        # a Galois quartic has at least one rational resolvent root
        assert len(fields) > 25 and found >= len(fields)


class TestRationalRoots:
    def test_pm_one(self):
        assert rational_roots(RatPoly([-1, 0, 1])) == {1, -1}

    def test_cubic_with_x_factor(self):
        # 3x^4 + 12x = 3x(x^3 + 4); x^3+4 has no rational root
        assert rational_roots(RatPoly([0, 12, 0, 0, 3])) == {0}

    def test_fractional_roots(self):
        # (2x-1)(3x+5)
        f = RatPoly([-1, 2]) * RatPoly([5, 3])
        assert rational_roots(f) == {Fraction(1, 2), Fraction(-5, 3)}

    def test_every_root_verifies(self):
        rng = random.Random(7)
        for _ in range(20):
            f = _rand_ratpoly(rng, rng.randrange(1, 7))
            for r in rational_roots(f):
                assert f(r) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rational_roots(RatPoly([]))

    @pytest.mark.parametrize("h", [
        RatPoly([-2, 0, 1]),                          # 2 is no square mod 59
        RatPoly([Fraction(-1, 3), 0, 0, 59]),         # 59 | lc, so 59 is skipped
        RatPoly([1, 59]),                             # 59 | lc: mod 59 a nonzero constant
        RatPoly([-1, 2]) * RatPoly([5, 3]) * RatPoly([-2, 0, 1]),
        RatPoly([0, 12, 0, 0, 3]),
    ])
    def test_agrees_with_linear_factors(self, h):
        roots = _linear_factor_roots(h)
        assert rational_roots(h) == roots

    def test_modular_check_settles_only_rootless(self):
        rng = random.Random(8)
        for _ in range(20):
            r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
            h = RatPoly([-r, 1]) * _rand_ratpoly(rng, rng.randrange(0, 4))
            assert rational_roots(h) == _linear_factor_roots(h)


def _reference_lift_root(g, x, p, q):
    """The Newton lift with a fresh modular inverse of g'(x) at every step."""
    dg = [k * c for k, c in enumerate(g)][1:]
    m = p
    while m < q:
        m = min(m * m, q)
        x = (x - numfield._eval_mod(g, x, m) * pow(numfield._eval_mod(dg, x, m), -1, m)) % m
    return x


class TestSplitPrimeLift:
    """The roots of f and the Lagrange weights kept on the field per split
    prime, at the highest precision asked for so far."""

    def test_context_not_built_at_construction(self, monkeypatch):
        # set-up lifts the resolvent cubic's roots in QQ (`_QQ`), and builds no
        # lift context for K; `_lift_root` is reached only through these two
        lifted = []
        split_prime_lift, hensel_roots = numfield._split_prime_lift, numfield._hensel_roots

        def qq_only(K):
            if K is not numfield._QQ:
                raise AssertionError("split-prime lift built during field set-up")
            lifted.append(K)

        monkeypatch.setattr(numfield, "_split_prime_lift",
                            lambda K, *args: qq_only(K) or split_prime_lift(K, *args))
        monkeypatch.setattr(numfield, "_hensel_roots",
                            lambda h, K: qq_only(K) or hensel_roots(h, K))
        for spec in SPLIT_PRIME_SPECS + ("13;13;3", "-7,-15"):
            assert parse_field_spec(spec)._split_lifts == {}
        assert lifted and all(K is numfield._QQ for K in lifted)

    @pytest.mark.parametrize("spec", SPLIT_PRIME_SPECS)
    def test_served_roots_and_weights(self, spec, monkeypatch):
        # precisions up and down, with exponents that are not powers of 2; each
        # answer must be that of a field that lifts to q alone, and only a q
        # above the stored precision lifts again, from the stored roots
        K = parse_field_spec(spec)
        f, Delta = K._f_int, abs(K.disc)
        starts = []
        lift_root = numfield._lift_root
        monkeypatch.setattr(numfield, "_lift_root",
                            lambda g, x, m, q: starts.append(m) or lift_root(g, x, m, q))
        for p, rs in first_split_primes(K)[:2]:
            top = p
            for N in (2, 7, 3, 7, 12, 5, 1, 13):
                q = p**N
                del starts[:]
                rho, weights = numfield._split_prime_lift(K, p, rs, q)
                assert starts == ([top] * K.degree if q > top else [])
                top = max(top, q)
                have, stored, _ = K._split_lifts[p]
                assert have == top
                assert all(s % p == r and numfield._eval_mod(f, s, have) == 0
                           for s, r in zip(stored, rs))
                for i, (rho_i, r) in enumerate(zip(rho, rs)):
                    assert 0 <= rho_i < q and rho_i % p == r
                    assert numfield._eval_mod(f, rho_i, q) == 0
                    for k, rho_k in enumerate(rho):
                        assert numfield._eval_mod(weights[i], rho_k, q) == Delta * (i == k) % q
                cold = parse_field_spec(spec)
                assert numfield._split_prime_lift(cold, p, rs, q) == (rho, weights), (p, N)

    def test_small_then_large_then_small_precision(self, monkeypatch):
        # the coordinate bound of h~ sets q: planted roots with small, large
        # and again small coordinates lift at one split prime to a small, a
        # large and again a small power of it.  Roots alpha and alpha + 1 stay
        # distinct modulo every split prime, so every image is squarefree at
        # the first one
        K = parse_field_spec("1,1,1,1")
        served = []
        lift = numfield._split_prime_lift

        def spy(K, p, rs, q):
            served.append((p, q))
            return lift(K, p, rs, q)

        monkeypatch.setattr(numfield, "_split_prime_lift", spy)
        rng = random.Random(43)
        for size in (9, 10**40, 9, 10**40, 9):
            alpha = K.element([rng.randrange(-size, size + 1) for _ in range(4)])
            h = _planted(K, [alpha, alpha + 1], KPoly(K, [1]))
            got = numfield._hensel_roots(h, K)
            assert got == {alpha, alpha + 1} == numfield._trager_roots(h, K)
        (p, q0), (_, q1), (_, q2), (_, q3), (_, q4) = served
        assert {p for p, _ in served} == {p}
        assert q0 < q1 and q2 < q1 and q3 == q1 and q4 < q3
        assert K._split_lifts[p][0] == q1

    @pytest.mark.parametrize("p", (3, 5, 61, 1009))
    def test_lift_root_matches_inverse_per_step(self, p):
        rng = random.Random(f"lift:{p}")
        checked = 0
        for _ in range(40):
            g = [rng.randrange(-50, 51) for _ in range(rng.randrange(2, 7))] + [rng.choice((1, 1, 3))]
            dg = [k * c for k, c in enumerate(g)][1:]
            for x in range(min(p, 200)):
                if numfield._eval_mod(g, x, p) or not numfield._eval_mod(dg, x, p):
                    continue
                for N in (1, 2, 3, 5, 6, 9, 16, 17):
                    want = _reference_lift_root(g, x, p, p**N)
                    assert numfield._lift_root(g, x, p, p**N) == want, (g, x, N)
                    # resumed from the root mod p^k
                    k = rng.randrange(1, N + 1)
                    assert numfield._lift_root(g, want % p**k, p**k, p**N) == want, (g, x, k, N)
                checked += 1
        assert checked >= 10


class TestSquarefreeOnDemand:
    """The lift takes the squarefree part of h only when the images of h at a
    split prime are not all squarefree."""

    @pytest.mark.parametrize("spec", ("1,1,1,1", "-1,5", "-3"))
    def test_sqrt_takes_no_squarefree_part(self, monkeypatch, spec):
        # x^2 - beta has a squarefree image at each split prime p > 58 unless
        # beta = 0 mod p, and these small betas are not
        def forbidden(h):
            raise AssertionError(f"squarefree part taken of {h!r}")

        monkeypatch.setattr(KPoly, "squarefree", forbidden)
        K = parse_field_spec(spec)
        rng = random.Random(37)
        for _ in range(6):
            x = _random_element(K, rng, (1, 2, 3))
            g = sqrt_in_field(x * x, K)
            assert g is not None and g * g == x * x
            beta = _random_element(K, rng, (1, 2, 3))
            got = sqrt_in_field(beta, K)
            if got is None:
                h = KPoly(K, [-beta, K.zero(), K.one()])
                assert numfield._trager_roots(h, K) == set()
            else:
                assert got * got == beta

    def test_double_root(self, monkeypatch):
        # (x - theta)^2 (x + 1) over QQ(zeta5)
        squarefree = KPoly.squarefree
        calls = []

        def counted(h):
            calls.append(h)
            return squarefree(h)

        monkeypatch.setattr(KPoly, "squarefree", counted)
        th = ZETA5.gen()
        h = _planted(ZETA5, [th, th, ZETA5.element(-1)], KPoly(ZETA5, [1]))
        assert roots_in_field(h, ZETA5) == {th, ZETA5.element(-1)}
        assert calls == [h]


class TestSqrtInField:
    def test_sqrt_of_5(self):
        assert sqrt_in_field(5, SQRT5) == SQRT5.gen()

    def test_no_sqrt_of_minus_one(self):
        assert sqrt_in_field(-1, SQRT5) is None

    def test_sqrt_of_theta_squared(self):
        th = F_10_5.gen()
        assert sqrt_in_field(th * th, F_10_5) == th

    def test_square_roundtrip_and_absence(self):
        rng = random.Random(13)
        for _ in range(15):
            x = SQRT5.element([rng.randrange(-6, 7), rng.randrange(-6, 7)])
            g = sqrt_in_field(x * x, SQRT5)
            assert g is not None and g * g == x * x
            beta = SQRT5.element([rng.randrange(-6, 7), rng.randrange(-6, 7)])
            got = sqrt_in_field(beta, SQRT5)
            if got is None:
                h = KPoly(SQRT5, [-beta, SQRT5.zero(), SQRT5.one()])
                assert roots_in_field(h, SQRT5) == set()
            else:
                assert got * got == beta


def _isqrt_reference(q):
    """The nonnegative rational square root of q, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


class TestSqrtOverRationals:
    """A square root in QQ is one isqrt: no split prime is walked and nothing
    is lifted."""

    def cases(self):
        rng = random.Random(41)
        # roots with 15-digit parts give squares with about 30-digit parts
        roots = [Fraction(rng.randrange(10**14, 10**15), rng.randrange(10**14, 10**15))
                 for _ in range(5)]
        small = [Fraction(n, d) for n, d in ((1, 1), (-1, 1), (-4, 9), (2, 1), (3, 4), (12, 5), (49, 36))]
        big = [Fraction(rng.randrange(10**29, 10**30), rng.randrange(10**29, 10**30)) for _ in range(3)]
        return ([Fraction(0)] + small + big + [r * r for r in roots] + [-r * r for r in roots]
                + [2 * r * r for r in roots] + [r * r + 1 for r in roots])

    def test_matches_isqrt(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a square root walked the split primes")

        monkeypatch.setattr(NumberField, "iter_split_primes", forbidden)
        Q = rational_field()
        cases = self.cases()
        for beta in cases:
            got, expected = sqrt_in_field(beta, Q), _isqrt_reference(beta)
            if expected is None:
                assert got is None, beta
            else:
                assert got == Q.element(expected) and got.rational_value() >= 0, beta
        assert Q._split_primes == [] and Q._split_stream is None


class TestGaloisType:
    def test_cyclotomic_is_cyclic(self):
        assert ZETA5.galois_type is GaloisType.CyclicQuartic

    def test_table_field_is_cyclic(self):
        assert F_10_5.galois_type is GaloisType.CyclicQuartic

    def test_x4_plus_1_biquadratic(self):
        K = NumberField(RatPoly([1, 0, 0, 0, 1]))
        assert K.galois_type is GaloisType.Biquadratic
        # discriminant-square oracle
        f = K.defining_poly
        assert is_rational_square(resultant(f, f.derivative()))

    def test_x4_minus_2_not_galois(self):
        K = NumberField(RatPoly([-2, 0, 0, 0, 1]))
        assert K.galois_type is GaloisType.NonGaloisQuartic

    def test_splitting_consistency(self):
        for K in (ZETA5, F_10_5, NumberField(RatPoly([1, 0, 0, 0, 1])),
                  NumberField(RatPoly([-2, 0, 0, 0, 1]))):
            nroots = len(roots_in_field(K.defining_poly, K))
            galois = K.galois_type in (GaloisType.CyclicQuartic, GaloisType.Biquadratic)
            assert galois == (nroots == 4)

    def test_splitting_consistency_random(self):
        # K is Galois iff f has all four roots in K, counted by roots_in_field.
        # Random quartics are nearly all non-Galois; the Galois side is drawn
        # in TestPresentationInvariance.test_random_generators_of_galois_fields.
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            f = RatPoly([rng.randrange(-9, 10) for _ in range(4)] + [1])
            try:
                K = NumberField(f)
            except UnsupportedFieldError:
                continue
            galois = K.galois_type in (GaloisType.CyclicQuartic, GaloisType.Biquadratic)
            assert galois == (len(roots_in_field(K.defining_poly, K)) == 4), f
            checked += 1

    # Each input catches one wrong rule in the resolvent-cubic classifier.
    @pytest.mark.parametrize("coeffs, galois_type, subfields", [
        ([12, 8, 0, 0, 1], GaloisType.NonGaloisQuartic, set()),   # A4: no resolvent root
        ([1, 1, 0, 0, 1], GaloisType.NonGaloisQuartic, set()),    # S4: no resolvent root
        # D4 x^4-5x^3-x^2-5x+1: resolvent root 2, (d1, d2) = (0, 37), only d2 fails
        ([1, -5, -1, -5, 1], GaloisType.NonGaloisQuartic, {37}),
        # C4 x^4-4x^2+2: d1 = 8 is no square, only disc(f) times one
        ([2, 0, -4, 0, 1], GaloisType.CyclicQuartic, {2}),
    ], ids=["A4", "S4", "D4", "C4"])
    def test_resolvent_rule(self, coeffs, galois_type, subfields):
        K = NumberField(RatPoly(coeffs))
        assert (K.galois_type, K.quadratic_subfields()) == (galois_type, subfields)

    def test_setup_runs_no_root_finding(self, monkeypatch):
        # set-up searches QQ for the roots of f, then for those of its
        # resolvent cubic, and K for none; it factors nothing
        def forbidden(*args):
            raise AssertionError("root finding or factoring during field set-up")

        searched_in_qq = []

        def qq_only(h, K):
            if K.degree > 1:
                forbidden()
            searched_in_qq.append(h)
            return roots_in_field(h, K)

        # both searches lift in `_QQ`, never in K
        lifted = []
        hensel_roots = numfield._hensel_roots

        def hensel_in_qq(h, K):
            if K is not numfield._QQ:
                forbidden()
            lifted.append(K)
            return hensel_roots(h, K)

        monkeypatch.setattr(numfield, "roots_in_field", qq_only)
        monkeypatch.setattr(numfield, "_trager_roots", forbidden)
        monkeypatch.setattr(numfield, "_hensel_roots", hensel_in_qq)
        monkeypatch.setattr(numfield, "factor_bounded", forbidden)
        monkeypatch.setattr(exactmath, "factor_bounded", forbidden)
        expected = {"1,1,1,1": (GaloisType.CyclicQuartic, {5}),
                    "-1,5": (GaloisType.Biquadratic, {-5, -1, 5}),
                    "-2,0,0,0": (GaloisType.NonGaloisQuartic, {2}),
                    "5;5;2": (GaloisType.CyclicQuartic, {5}),
                    "13;13;3": (GaloisType.CyclicQuartic, {13})}
        for spec, (gt, subfields) in expected.items():
            searched_in_qq.clear()
            lifted.clear()
            K = parse_field_spec(spec)
            assert (K.galois_type, K.quadratic_subfields()) == (gt, subfields)
            f = K.defining_poly
            assert searched_in_qq == [f, _resolvent_cubic(f)], spec
            assert len(lifted) == 2 and all(L is numfield._QQ for L in lifted), spec
            assert K._split_lifts == {}

    def test_subfields_need_a_quartic(self):
        with pytest.raises(UnsupportedFieldError):
            SQRT5.quadratic_subfields()


class TestTowerField:
    def test_direct_instance(self):
        K = tower_field(5, 5, 2)
        assert K.galois_type is tower_galois_type(5, 5, 2) is GaloisType.CyclicQuartic
        assert K.defining_poly == RatPoly([5, 0, -10, 0, 1])

    def test_b_zero_biquadratic(self):
        K = tower_field(5, 3, 0)
        assert K.galois_type is tower_galois_type(5, 3, 0) is GaloisType.Biquadratic

    def test_a_zero_pure_quartic(self):
        K = tower_field(2, 0, 1)
        assert K.galois_type is tower_galois_type(2, 0, 1) is GaloisType.NonGaloisQuartic

    def test_negative_m_never_cyclic(self):
        rng = random.Random(14)
        for _ in range(25):
            a = Fraction(rng.randrange(-9, 10))
            b = Fraction(rng.randrange(-9, 10))
            try:
                K = tower_field(-5, a, b)
            except DegenerateTowerError:
                continue
            assert K.galois_type is not GaloisType.CyclicQuartic
            assert tower_galois_type(-5, a, b) is not GaloisType.CyclicQuartic

    def test_degenerate_tower_rejected(self):
        # alpha = 3 + 2*sqrt(2) = (1 + sqrt(2))^2
        with pytest.raises(DegenerateTowerError):
            tower_field(2, 3, 2)

    def test_square_m_rejected(self):
        with pytest.raises(DegenerateTowerError):
            tower_field(4, 1, 1)

    def test_agreement_with_classifier(self):
        # the resolvent cubic of the field against the norm a^2 - m b^2
        rng = random.Random(15)
        checked = 0
        while checked < 40:
            m = rng.choice([-1, 2, 3, 5, -2, -3, 6, 7, 10, -5, 13])
            a = Fraction(rng.randrange(-12, 13))
            b = Fraction(rng.randrange(-12, 13))
            try:
                K = tower_field(m, a, b)
            except DegenerateTowerError:
                continue
            gt = tower_galois_type(m, a, b)
            assert K.galois_type is gt, (m, a, b, gt, K.galois_type)
            checked += 1


def _workload_fields(benchmark_cases, seeds):
    """The distinct fields of the cases of every workload at the seeds."""
    return {parse_field_spec(f) for w in ("known_groups", "curve_sweep", "field_sweep")
            for seed in seeds for _, f in benchmark_cases(w, seed)}


class TestSqrtAgainstNormMethod:
    """`sqrt_in_field` (norm and trace down the tower) and the lift of
    y^2 - beta (`_hensel_roots`) give the roots the norm method gives
    y^2 - beta."""

    def test_every_workload_field(self, benchmark_cases, monkeypatch):
        # squares, nonsquares and 0, over every field of seeds 0-2; p0^2 x^2
        # and p0 x^2 vanish at every image mod the first split prime p0, so
        # the lift of y^2 - beta goes on to a later prime, where only the
        # first is a square
        lifted_at = []
        lifted_roots = numfield._lifted_roots
        monkeypatch.setattr(numfield, "_lifted_roots",
                            lambda K, ht, p, *args, **kw: lifted_at.append(p)
                            or lifted_roots(K, ht, p, *args, **kw))
        rng = random.Random(53)
        fields = sorted(_workload_fields(benchmark_cases, range(3)), key=repr)
        found = set()
        for K in fields:
            p0, _ = next(K.iter_split_primes())
            assert sqrt_in_field(K.zero(), K) == K.zero()
            assert numfield._trager_roots(KPoly(K, [0, 1]), K) == {K.zero()}
            x = _random_element(K, rng, (1, 2, 3))
            while x.is_zero():
                x = _random_element(K, rng, (1, 2, 3))
            for kind, beta in (("square", x * x), ("any", _random_element(K, rng, (1, 5))),
                               ("vanishing square", x * x * (p0 * p0)),
                               ("vanishing nonsquare", x * x * p0)):
                if beta.is_zero():
                    continue
                root = sqrt_in_field(beta, K)
                expected = numfield._trager_roots(KPoly(K, [-beta, 0, 1]), K)
                assert expected == (set() if root is None else {root, -root}), (K, beta)
                assert root is None or root == root.canonical_sign()
                lifted_at.clear()
                assert numfield._hensel_roots(KPoly(K, [-beta, 0, 1]), K) == expected, (K, beta)
                if kind.startswith("vanishing"):
                    assert all(p > p0 for p in lifted_at), (K, beta)
                    assert lifted_at or root is None, (K, beta)
                    assert (root is not None) == (kind == "vanishing square"), (K, beta)
                    found.add(kind)
                found.add((kind, root is None))
        assert len(fields) > 70
        assert {("square", False), ("any", True)} <= found
        assert {"vanishing square", "vanishing nonsquare"} <= found


class TestQuadraticSubfields:
    def test_cyclotomic(self):
        assert ZETA5.quadratic_subfields() == {5}
        # cross-check: sqrt(5) really lies in the field
        assert sqrt_in_field(ZETA5.element(5), ZETA5) is not None

    def test_x4_plus_1(self):
        K = NumberField(RatPoly([1, 0, 0, 0, 1]))
        assert K.quadratic_subfields() == {-1, 2, -2}
        for m in (-1, 2, -2):
            assert sqrt_in_field(K.element(m), K) is not None

    def test_every_workload_field_holds_its_square_roots(self, benchmark_cases):
        # the engine places points by their squares and takes no sqrt m, so
        # nothing on its path checks that K holds sqrt m for each listed
        # QQ(sqrt m): check it on the quartic fields of seeds 0-5
        quartics = [K for K in _workload_fields(benchmark_cases, range(6)) if K.degree == 4]
        for K in quartics:
            for m in K.quadratic_subfields():
                assert sqrt_in_field(K.element(m), K) is not None, (K, m)
        assert len(quartics) > 80

    def test_table_field(self):
        assert F_10_5.quadratic_subfields() == {5}

    def test_cyclic_subfield_totally_real(self):
        # for every cyclic quartic built from the tower, the subfield is m > 0
        rng = random.Random(16)
        found = 0
        while found < 8:
            m = rng.choice([2, 3, 5, 10, 13])
            a = Fraction(rng.randrange(1, 15))
            b = Fraction(rng.randrange(1, 15))
            try:
                K = tower_field(m, a, b)
            except DegenerateTowerError:
                continue
            if tower_galois_type(m, a, b) is not GaloisType.CyclicQuartic:
                continue
            assert K.galois_type is GaloisType.CyclicQuartic
            subs = K.quadratic_subfields()
            assert len(subs) == 1 and next(iter(subs)) > 0
            found += 1

    def test_biquadratic_has_three(self):
        K = biquadratic_field(2, 3)
        assert K.quadratic_subfields() == {2, 3, 6}

    def test_disc_square_iff_three_subfields(self):
        for K in (ZETA5, F_10_5, biquadratic_field(-7, -15), NumberField(RatPoly([1, 0, 0, 0, 1]))):
            f = K.defining_poly
            disc_sq = is_rational_square(resultant(f, f.derivative()))
            assert disc_sq == (len(K.quadratic_subfields()) == 3)
            assert disc_sq == (K.galois_type is GaloisType.Biquadratic)


def _sympy_factor_list(f: RatPoly, p: int | None = None):
    """sympy's factors of f with their multiplicities, over QQ or mod p."""
    coeffs = [Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    x = symbols("x")
    poly = Poly(coeffs, x, modulus=p) if p else Poly(coeffs, x, domain=QQ)
    return poly.factor_list()[1]


def _sympy_reducible(f: RatPoly) -> bool:
    factors = _sympy_factor_list(f)
    return len(factors) > 1 or any(e > 1 for _, e in factors)


class TestResidueDegree:
    def test_against_sympy_mod_p(self, benchmark_cases):
        # every field of the seed-0 cases, at every prime from 5 to 199: the
        # lcm of the degrees of the factors of f mod p, or None when f is not
        # squarefree mod p
        fields = _workload_fields(benchmark_cases, range(1))
        primes = [p for p in range(5, 200) if all(p % q for q in range(2, isqrt(p) + 1))]
        nones = 0
        for K in fields:
            for p in primes:
                factors = _sympy_factor_list(K.defining_poly, p)
                if any(e > 1 for _, e in factors):
                    expected = None
                else:
                    expected = lcm(*(g.degree() for g, _ in factors))
                assert K.residue_degree(p) == expected, (K, p)
                nones += expected is None
        assert len(fields) > 40 and nones > 20

    def test_against_frobenius_oracle(self, benchmark_cases):
        # every field of every workload at seeds 0-5, at every prime from 5 to
        # 2000 that does not divide disc f: the Legendre-symbol rule against
        # the least k with x^(p^k) = x mod (f, p)
        fields = _workload_fields(benchmark_cases, range(6))
        primes = [p for p in range(5, 2000) if all(p % q for q in range(2, isqrt(p) + 1))]
        seen = set()
        for K in fields:
            for p in primes:
                if K.disc % p:
                    k = oracles._residue_degree(K._f_int, p)
                    assert K.residue_degree(p) == k, (K, p)
                    seen.add((K.galois_type, k))
        assert len(fields) > 90
        assert {(GaloisType.CyclicQuartic, k) for k in (1, 2, 4)} <= seen
        assert {(GaloisType.Biquadratic, k) for k in (1, 2)} <= seen

    def test_non_monic_quadratic(self):
        # 3x^2 + 5x + 7 is set up as x^2 + 5x + 21, of discriminant -59
        K = NumberField(RatPoly([7, 5, 3]))
        assert K._f_int == (21, 5, 1) and K.disc == -59
        assert K.residue_degree(59) is None
        primes = [p for p in range(5, 2000) if p != 59 and all(p % q for q in range(2, isqrt(p) + 1))]
        degrees = [K.residue_degree(p) for p in primes]
        assert degrees == [oracles._residue_degree(K._f_int, p) for p in primes]
        assert set(degrees) == {1, 2}

    def test_non_galois_quartic_raises(self):
        K = NumberField(RatPoly([1, 1, 0, 0, 1]))
        assert K.galois_type is GaloisType.NonGaloisQuartic
        with pytest.raises(UnsupportedFieldError):
            K.residue_degree(5)

    def test_two_raises(self):
        # 2 is inert in QQ(sqrt -3) (x^2 + x + 1 is irreducible mod 2), but
        # a^((2-1)/2) = 1 for every a: Euler's criterion cannot see it
        K = NumberField(RatPoly([1, 1, 1]))
        assert oracles._residue_degree(K._f_int, 2) == 2
        with pytest.raises(ValueError):
            K.residue_degree(2)

    def test_biquadratic_takes_no_frobenius_power(self, monkeypatch):
        # only a cyclic quartic field with (d | p) = 1 raises x to the p-th
        # power mod (f, p); a biquadratic one reads Legendre symbols alone
        calls = []
        pow_mod = zp.gf_pow_mod
        monkeypatch.setattr(zp, "gf_pow_mod", lambda *args: calls.append(args) or pow_mod(*args))
        primes = [p for p in range(5, 200) if all(p % q for q in range(2, isqrt(p) + 1))]
        K = biquadratic_field(-7, -15)
        assert {K.residue_degree(p) for p in primes} == {None, 1, 2}
        assert calls == []
        cyclic = parse_field_spec("5;5;2")
        assert {cyclic.residue_degree(p) for p in primes} == {None, 1, 2, 4}
        assert calls

    def test_oracle_refuses_a_repeated_factor(self):
        # x^2 + 3 = x^2 mod 3: x^(3^k) mod (x^2, 3) is 0 for every k, never x
        with pytest.raises(ValueError):
            oracles._residue_degree([3, 0, 1], 3)


class TestFieldConstruction:
    def test_non_monic_normalization(self):
        # 13x^4 - 26x^2 + 4, scaled monic-integral via y = 13x
        K = NumberField(RatPoly([4, 0, -26, 0, 13]).monic())
        assert K.defining_poly == RatPoly([8788, 0, -338, 0, 1])

    def test_reducible_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            NumberField(RatPoly([-1, 0, 0, 0, 1]))

    @pytest.mark.parametrize("spec", ["1,0,2,0", "0,0,2,0", "6,0,5,0"])
    def test_repeated_or_x_factor_rejected(self, spec):
        # (x^2 + 1)^2 and x^2 (x^2 + 2): reducible with a repeated factor;
        # (x^2 + 2)(x^2 + 3) has no rational root, and only its resolvent
        # cubic's root y = 5 shows the quadratic pair
        with pytest.raises(UnsupportedFieldError):
            parse_field_spec(spec)

    def test_reducibility_against_sympy(self):
        # the constructor rejects f exactly when sympy's factorization over QQ
        # shows more than one factor or a repeated one; seeded f of degree 2
        # and 4 in every shape the rule must catch, each scaled by a rational
        # != 1: random, a square, quadratic x quadratic, linear x cubic,
        # linear^2 x quadratic and x * cubic, random ones twice as often
        rng = random.Random(23)
        X = RatPoly([0, 1])
        shapes = (
            lambda: _rand_ratpoly(rng, 2),
            lambda: _rand_ratpoly(rng, 4),
            lambda: _rand_ratpoly(rng, 2),
            lambda: _rand_ratpoly(rng, 4),
            lambda: _rand_ratpoly(rng, 1) ** 2,
            lambda: _rand_ratpoly(rng, 1) * _rand_ratpoly(rng, 1),
            lambda: _rand_ratpoly(rng, 2) ** 2,
            lambda: _rand_ratpoly(rng, 2) * _rand_ratpoly(rng, 2),
            lambda: _rand_ratpoly(rng, 1) * _rand_ratpoly(rng, 3),
            lambda: _rand_ratpoly(rng, 1) ** 2 * _rand_ratpoly(rng, 2),
            lambda: X * _rand_ratpoly(rng, 3),
        )
        seen = {True: 0, False: 0}
        for i in range(1100):
            f = shapes[i % len(shapes)]()
            f = f.scale(Fraction(rng.choice((-7, -2, 2, 3, 5)), rng.choice((1, 4, 9))))
            reducible = _sympy_reducible(f)
            try:
                NumberField(f)
            except UnsupportedFieldError:
                assert reducible, f
            else:
                assert not reducible, f
            seen[reducible] += 1
        assert min(seen.values()) > 200

    @pytest.mark.parametrize("spec, disc", [("q", 1), ("-1", -4), ("5", 20), ("1,1,1,1", 125),
                                            ("1,0,0,0", 256), ("-2,0,0,0", -2048)])
    def test_disc_is_signed(self, spec, disc):
        # disc f with its sign, (-1)^(d(d-1)/2) Res(f, f'), not the resultant
        assert parse_field_spec(spec).disc == disc

    def test_parse_specs(self):
        assert parse_field_spec("q").degree == 1
        assert parse_field_spec("5").defining_poly == RatPoly([-5, 0, 1])
        assert parse_field_spec("1,1,1,1") == ZETA5
        assert parse_field_spec("5,0,-10,0") == F_10_5
        assert parse_field_spec("5;5;2") == F_10_5
        K = parse_field_spec("-7,-15")
        assert K.galois_type is GaloisType.Biquadratic
        assert K.quadratic_subfields() == {-7, -15, 105}

    def test_tower_field_matches(self):
        assert tower_field(5, 5, 2) == F_10_5


class TestPresentationInvariance:
    """Type and subfields do not depend on the defining polynomial of K."""

    @pytest.mark.parametrize("spec", ["-1,5", "-5,5", "-1,-5"])
    def test_biquadratic_i_sqrt5(self, spec):
        K = parse_field_spec(spec)
        assert K.galois_type is GaloisType.Biquadratic
        assert K.quadratic_subfields() == {-5, -1, 5}

    @pytest.mark.parametrize("spec", ["1,1,1,1", "5,10,10,5"])  # zeta5, zeta5 - 1
    def test_cyclotomic_zeta5(self, spec):
        K = parse_field_spec(spec)
        assert K.galois_type is GaloisType.CyclicQuartic
        assert K.quadratic_subfields() == {5}

    def test_random_generators_of_galois_fields(self):
        # K = QQ(alpha) for a random alpha in a Galois field L, presented by
        # the characteristic polynomial of alpha, N(x - alpha)
        rng = random.Random(18)
        checked = 0
        while checked < 10:
            L = rng.choice([ZETA5, F_10_5, biquadratic_field(-1, 5)])
            alpha = L.element([rng.randrange(-2, 3) for _ in range(4)])
            f = numfield._interpolate([(x, (L.element(x) - alpha).norm()) for x in range(5)])
            try:
                K = NumberField(f)
            except UnsupportedFieldError:
                continue
            assert (K.galois_type, K.quadratic_subfields()) == (L.galois_type, L.quadratic_subfields()), f
            assert len(roots_in_field(K.defining_poly, K)) == 4
            checked += 1


BIQ_2_3 = biquadratic_field(2, 3)
SQRTS_2_3 = {m: sqrt_in_field(BIQ_2_3.element(m), BIQ_2_3) for m in sorted(BIQ_2_3.quadratic_subfields())}


class TestSmallestSubfield:
    def test_rational_element(self):
        K = BIQ_2_3
        assert smallest_subfield([K.element(7), K.element(Fraction(-2, 5))], K) == 1

    def test_theta(self):
        assert smallest_subfield([BIQ_2_3.gen()], BIQ_2_3) == 0

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_each_quadratic_subfield(self, m):
        assert sorted(SQRTS_2_3) == [2, 3, 6]
        e = SQRTS_2_3[m] * Fraction(2, 3) + 4
        assert smallest_subfield([e], BIQ_2_3) == m
        assert smallest_subfield([BIQ_2_3.element(5), e], BIQ_2_3) == m
        assert smallest_subfield([e, BIQ_2_3.gen()], BIQ_2_3) == 0

    def test_two_quadratic_subfields_give_the_field(self):
        # QQ(sqrt 2) and QQ(sqrt 3) together generate K
        assert smallest_subfield([SQRTS_2_3[2], SQRTS_2_3[3] + 1], BIQ_2_3) == 0

    def test_quadratic_field(self):
        # every irrational element generates a quadratic K
        assert smallest_subfield([SQRT5.element(3), SQRT5.gen() * 2 + 1], SQRT5) == 0
        assert smallest_subfield([SQRT5.element(Fraction(1, 3))], SQRT5) == 1

    def test_cyclic_quartic(self):
        # (1 + sqrt 5)/2 = -(zeta + zeta^4) in QQ(zeta5)
        z = ZETA5.gen()
        assert smallest_subfield([z + z**4, ZETA5.element(2)], ZETA5) == 5
        assert smallest_subfield([z + z**2], ZETA5) == 0

    def test_unlisted_quadratic_subfield_raises(self, monkeypatch):
        # sqrt 6 = (0 +- sqrt 24)/2
        monkeypatch.setattr(NumberField, "quadratic_subfields", lambda K: frozenset({2, 3}))
        with pytest.raises(InvariantViolationError, match="QQ\\(sqrt 24\\)"):
            smallest_subfield([SQRTS_2_3[6]], BIQ_2_3)
        assert smallest_subfield([SQRTS_2_3[3]], BIQ_2_3) == 3

    def test_unlisted_subfield_raises_past_the_factoring_limit(self, monkeypatch):
        # e = s sqrt 6 with s a prime above 10^9 has delta = 24 s^2, which
        # trial division below 10^6 cannot factor; the message quotes delta
        # and does not factor it, so the typed error is the one raised
        s = 10**9 + 7
        monkeypatch.setattr(NumberField, "quadratic_subfields", lambda K: frozenset({2, 3}))
        with pytest.raises(DataFormatError):
            squarefree_part_rational(Fraction(24 * s * s))
        with pytest.raises(InvariantViolationError, match=f"QQ\\(sqrt {24 * s * s}\\)"):
            smallest_subfield([SQRTS_2_3[6] * s], BIQ_2_3)
