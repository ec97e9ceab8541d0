"""The F_p[x] kernels of `_intpoly` against plain schoolbook references, and
its polynomial and integer factorizers and its prime stream against sympy.

`gf_mulmod` packs polynomials into ints with one 64-bit slot per coefficient
from modulus degree 4 on, while 2n(p-1)^2 < 2^64; the primes below cover both
sides of that bound: 2, 3, 61, 1009 and 65521 pack, and 2^31 - 1 is past it
from degree 2 on."""

import random
from fractions import Fraction
from itertools import islice, product
from math import isqrt, prod

import pytest
from sympy import ZZ, Poly, factorint, nextprime, prevprime, primefactors, symbols

from quartic_torsion import _intpoly as zp
from quartic_torsion import numfield, torsion
from quartic_torsion.ellcurve import Curve, Point
from quartic_torsion.errors import DataFormatError
from quartic_torsion.exactmath import RatPoly, squarefree_part_rational

PRIMES = (2, 3, 61, 1009, 65521, 2**31 - 1)
DEGREES = range(1, 41)
POW_DEGREES = (1, 2, 3, 4, 5, 7, 12, 24, 40)


def ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return ref_trim([(x + y) % p for x, y in zip(a, b)])


def ref_mul(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ref_trim(out)


def ref_divmod(a, b, p):
    """Long division, every coefficient reduced at every step."""
    rem, q = ref_trim([x % p for x in a]), [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        t = rem[-1] * inv % p
        q[shift] = t
        rem = ref_trim([(x - t * (b[i - shift] if 0 <= i - shift < len(b) else 0)) % p
                        for i, x in enumerate(rem)])
    return ref_trim(q), rem


def ref_pow(base, e, mod, p):
    """Left-to-right square and multiply with the references above."""
    out = ref_divmod([1], mod, p)[1]
    for bit in bin(e)[2:]:
        out = ref_divmod(ref_mul(out, out, p), mod, p)[1]
        if bit == "1":
            out = ref_divmod(ref_mul(out, base, p), mod, p)[1]
    return out


def random_poly(rng, deg, p):
    """Coefficients in [0, p), leading coefficient nonzero."""
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def moduli(p, degrees):
    rng = random.Random(f"moduli:{p}")
    return [random_poly(rng, n, p) for n in degrees]


def boundary_primes(n):
    """The largest prime p with 2n(p-1)^2 < 2^64 and the next prime."""
    top = isqrt((2**64 - 1) // (2 * n)) + 1  # p fits exactly when p <= top
    return prevprime(top + 1), nextprime(top)


@pytest.fixture
def pack_calls(monkeypatch):
    calls = []
    pack = zp._pack

    def counting(a):
        calls.append(len(a))
        return pack(a)

    monkeypatch.setattr(zp, "_pack", counting)
    return calls


@pytest.mark.parametrize("p", PRIMES)
def test_mulmod_matches_schoolbook(p):
    rng = random.Random(f"mulmod:{p}")
    for mod in moduli(p, DEGREES):
        n = len(mod) - 1
        mulmod = zp.gf_mulmod(mod, p)
        operands = [
            ([], random_poly(rng, n - 1, p)),
            ([p - 1] * n, [p - 1] * n),
            (ref_trim([rng.randrange(p) for _ in range(n)]), ref_trim([rng.randrange(p) for _ in range(n)])),
            (random_poly(rng, rng.randrange(n), p), random_poly(rng, rng.randrange(n), p)),
        ]
        for a, b in operands:
            assert mulmod(a, b) == ref_divmod(ref_mul(a, b, p), mod, p)[1], (mod, a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_pow_mod_matches_schoolbook(p):
    rng = random.Random(f"pow:{p}")
    for mod in moduli(p, POW_DEGREES):
        n = len(mod) - 1
        # a base of degree >= n, reduced by gf_pow_mod itself
        base = random_poly(rng, n + rng.randrange(n + 2), p)
        reduced = ref_divmod(base, mod, p)[1]
        for e in (0, 1, p, (p**2 - 1) // 2):
            assert zp.gf_pow_mod(base, e, mod, p) == ref_pow(reduced, e, mod, p), (mod, base, e)
        assert zp.gf_pow_mod([0, 1], p, mod, p) == ref_pow([0, 1], p, mod, p)


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_is_division_with_remainder(p):
    rng = random.Random(f"divmod:{p}")
    for b in moduli(p, DEGREES):
        for deg_a in (0, len(b) - 2, len(b) - 1, 2 * len(b) + 3):
            a = random_poly(rng, deg_a, p) if deg_a >= 0 else []
            q, r = zp.gf_divmod(a, b, p)
            assert (q, r) == ref_divmod(a, b, p)
            assert len(r) < len(b)
            assert all(0 <= c < p for c in q + r)
            assert q == ref_trim(q) and r == ref_trim(r)
            assert ref_add(ref_mul(q, b, p), r, p) == ref_trim(a)


@pytest.mark.parametrize("n", (4, 24))
def test_slot_bound_boundary(n, pack_calls):
    # just below the bound the product is packed, just above it is not; both
    # are exact on operands whose every coefficient is p - 1
    rng = random.Random(f"boundary:{n}")
    below, above = boundary_primes(n)
    assert 2 * n * (below - 1) ** 2 < 2**64 <= 2 * n * (above - 1) ** 2
    for p, packed in ((below, True), (above, False)):
        mod = random_poly(rng, n, p)
        a = b = [p - 1] * n
        del pack_calls[:]
        assert zp.gf_mulmod(mod, p)(a, b) == ref_divmod(ref_mul(a, b, p), mod, p)[1]
        assert bool(pack_calls) is packed


@pytest.mark.parametrize("p", (boundary_primes(4)[0], boundary_primes(4)[1], 2**31 - 1))
def test_worst_case_slots(p):
    # x^4 = -(x^3 + 2x^2 + 4x + 7) makes the last coefficient of x^4, x^5 and
    # x^6 mod h equal p - 1, and b_3 = 481 makes the high coefficients of the
    # product large mod p: at p = 2^31 - 1 the sum in slot 3 is about
    # 1.5 * 2^64, so packing there, past the bound, would carry a slot
    mod = [7, 4, 2, 1, 1]
    a = [p - 1] * 4
    for t in (1, 481, (p - 1) // 2, p - 2):
        b = [p - 1] * 3 + [t]
        assert zp.gf_mulmod(mod, p)(a, b) == ref_divmod(ref_mul(a, b, p), mod, p)[1], t


@pytest.mark.parametrize("n", (1, 2, 3))
def test_small_moduli_multiply_as_lists(n, pack_calls):
    mod = moduli(1009, [n])[0]
    mulmod = zp.gf_mulmod(mod, 1009)
    a = [1008] * n
    assert mulmod(a, a) == ref_divmod(ref_mul(a, a, 1009), mod, 1009)[1]
    assert not pack_calls


def sympy_zz_factors(h, dmax):
    """The distinct irreducible factors of degree <= dmax of h in ZZ[x],
    primitive with positive leading coefficient, from sympy."""
    _, factors = Poly(list(reversed(h)), symbols("x"), domain=ZZ).factor_list()
    out = set()
    for g, _ in factors:
        c = [int(a) for a in reversed(g.all_coeffs())]
        if len(c) - 1 <= dmax:
            out.add(tuple(c) if c[-1] > 0 else tuple(-a for a in c))
    return out


def ref_zz_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_factorizer_takes_repeated_factors_and_content():
    # c x^k g^m with c != 1, so neither squarefree nor primitive; g of degree
    # 1 and m = 2 give gcd(h, h') of degree 1
    rng = random.Random(19)
    for deg, k, m, _ in product((1, 2, 3), (0, 1, 2), (1, 2, 3), range(3)):
        g = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-6, -1, 1, 2, 3))]
        h = [rng.choice((-12, -1, 2, 5, 30))]
        for _ in range(k):
            h = [0] + h
        for _ in range(m):
            h = ref_zz_mul(h, g)
        for dmax in range(1, 5):
            got = zp.zz_factor_bounded(h, dmax)
            assert len(got) == len(set(map(tuple, got))), (h, dmax)
            assert set(map(tuple, got)) == sympy_zz_factors(h, dmax), (h, dmax)


# The Hensel lift calls gf_from_zz, gf_mul and gf_divmod modulo m = p^k with
# monic divisors; ref_mul and ref_divmod reduce every coefficient at every
# step and need only that lc(b) is a unit mod m.


@pytest.mark.parametrize("p", (3, 61, 10007))
def test_helpers_modulo_prime_powers(p):
    rng = random.Random(f"prime powers:{p}")
    for k in range(1, 9):
        m = p**k
        for deg_b in (1, 2, 5):
            b = [rng.randrange(m) for _ in range(deg_b)] + [1]
            raw = [rng.randrange(-m * m, m * m) for _ in range(2 * deg_b + 2)]
            a = zp.gf_from_zz(raw, m)
            assert a == ref_trim([x % m for x in raw])
            c = random_poly(rng, rng.randrange(2 * deg_b), m)
            assert zp.gf_mul(a, c, m) == ref_mul(a, c, m)
            for deg_a in (deg_b - 1, deg_b, 2 * deg_b + 1):
                a = random_poly(rng, deg_a, m)
                assert zp.gf_divmod(a, b, m) == ref_divmod(a, b, m), (m, a, b)


@pytest.mark.parametrize("p", (3, 61, 10007))
def test_lift_factor_divides(p):
    # every irreducible factor g mod p of a squarefree h, lifted alone: G is
    # monic of degree deg g, G = g (mod p), and G divides h / lc(h) mod M
    rng = random.Random(f"lift:{p}")
    for degree in (1, 2, 3, 5, 9):
        while True:  # h squarefree mod p with a unit lc, digits above p
            lc = rng.choice([c for c in (1, 2, 5, 12, p + 1) if c % p])
            h = [rng.randrange(-9 * p, 9 * p) for _ in range(degree)] + [lc]
            hp = zp.gf_monic(zp.gf_from_zz(h, p), p)
            if zp.gf_is_squarefree(hp, p):
                break
        factors = [g for d, block in zp.gf_ddf_bounded(hp, p, degree) for g in zp.gf_edf(block, d, p)]
        prod = [1]
        for g in factors:
            prod = ref_mul(prod, g, p)
        assert prod == hp
        for g in factors:
            for target in (p, p**3 + 1, 10**40):
                G, m = zp.lift_factor(h, g, p, target)
                assert m >= target and m in {p ** (2**j) for j in range(8)}
                assert len(G) == len(g) and G[-1] == 1
                assert zp.gf_from_zz(G, p) == g
                monic_h = ref_trim([c * pow(lc, -1, m) % m for c in h])
                assert ref_divmod(monic_h, G, m)[1] == [], (h, g, target)


def test_z13_factorization_multiplies_only_small_polynomials(monkeypatch):
    # psi_13 of the Z/13 witness has degree 84 and three quadratic factors;
    # its factors of degree > dmax are never lifted, so every product has
    # operands of degree <= dmax
    h = Curve.from_str("0,0,0,-2227,59534").division_polynomial(13).to_int_poly()[1]
    degrees = []
    mul = zp.zz_mul

    def recording(a, b):
        degrees.append(max(len(a), len(b)) - 1)
        return mul(a, b)

    monkeypatch.setattr(zp, "zz_mul", recording)
    assert [len(g) - 1 for g in zp.zz_factor_bounded(h, 4)] == [2, 2, 2]
    assert degrees and max(degrees) <= 4


@pytest.mark.parametrize("ell", (5, 7, 13))
def test_factorizer_splits_at_one_prime(ell, monkeypatch):
    # psi_ell of the Z/13 witness is split by degree once, at the first good
    # prime, not at several primes to pick the one with the fewest small factors
    h = Curve.from_str("0,0,0,-2227,59534").division_polynomial(ell).to_int_poly()[1]
    primes = []
    ddf = zp.gf_ddf_bounded

    def counting(f, p, dmax):
        primes.append(p)
        return ddf(f, p, dmax)

    monkeypatch.setattr(zp, "gf_ddf_bounded", counting)
    zp.zz_factor_bounded(h, 4)
    assert len(primes) == 1, primes


# every odd prime below 300, and three with deep 2-power parts of p - 1:
# 1009 - 1 = 2^4 * 63, 7681 - 1 = 2^9 * 15, 65537 - 1 = 2^16
SQRT_PRIMES = tuple(p for p in range(3, 300, 2) if all(p % k for k in range(3, isqrt(p) + 1, 2))) + (
    1009, 7681, 65537)


@pytest.mark.parametrize("p", SQRT_PRIMES)
def test_sqrt_squares_back(p):
    # the degree split and Cantor-Zassenhaus split x^2 - a, for every nonzero
    # square a = x^2 mod p with x < 1024 (every square for p < 2048), into
    # x - r and x + r with r^2 = a; for a nonsquare the irreducible x^2 - a
    # has no block of degree 1
    for a in {x * x % p for x in range(1, min(p, 1024))}:
        f = [-a % p, 0, 1]
        assert zp.gf_ddf_bounded(f, p, 1) == [(1, f)], a
        (r, one), (s, _) = zp.gf_edf(f, 1, p)
        assert one == 1 and r * r % p == a and (r + s) % p == 0, a
    nonsquare = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    assert zp.gf_ddf_bounded([p - nonsquare, 0, 1], p, 1) == []


# ---------------------------------------------------------------------------
# the integer factorization and the prime stream
# ---------------------------------------------------------------------------

T = zp.FACTOR_LIMIT


def ref_factor_int(n):
    """factor_int's contract from sympy.factorint: the primes below T with
    their exponents, then the part above T as one pair, (p, 2) for p^2 and
    (r, 1) for a prime or a product of two."""
    small = sorted((p, e) for p, e in factorint(n).items() if p < T)
    r = n // prod(p**e for p, e in small)
    return small + ([(isqrt(r), 2) if isqrt(r) ** 2 == r else (r, 1)] if r > 1 else [])


def factor_cases():
    """Seeded integers below T^3: log-uniform random ones, products of two
    primes above T, squares of primes above T, and three at the edges: the
    largest prime below T^3, the square of the largest prime below T^1.5, and
    the largest prime below T, the last one trial division finds, times the
    largest prime below T^2."""
    rng = random.Random("factor_int")
    big = [nextprime(rng.randrange(T, 10**9)) for _ in range(8)]
    cases = [rng.randrange(1, 10 ** rng.randrange(1, 19)) for _ in range(40)]
    cases += [big[i] * big[i + 1] for i in range(0, 8, 2)] + [q * q for q in big[:4:2]]
    cases += [prevprime(T**3), prevprime(isqrt(T**3)) ** 2, prevprime(T) * prevprime(T**2)]
    return cases


FACTOR_CASES = factor_cases()


def test_factor_cases_cover_the_limit():
    # the seeded cases reach each kind of part that trial division leaves
    rests = [ref_factor_int(n)[-1] for n in FACTOR_CASES if n > 1]
    assert any(q >= T * T and not factorint(q).get(q) for q, e in rests)   # p*q above T^2
    assert any(q >= T and e == 2 for q, e in rests)                         # p^2, p above T
    assert any(T * T <= q and factorint(q).get(q) for q, e in rests)        # a prime above T^2
    assert all(n < T**3 for n in FACTOR_CASES)


@pytest.mark.parametrize("n", FACTOR_CASES)
def test_factor_int_against_sympy(n):
    assert zp.factor_int(n) == ref_factor_int(n)


@pytest.mark.parametrize("n", FACTOR_CASES)
def test_squarefree_part_against_sympy(n):
    # -12/n: a sign, and numerator and denominator factored as one integer
    q = Fraction(-12, n)
    assert squarefree_part_rational(q) == -prod(
        p for p, e in factorint(abs(q.numerator * q.denominator)).items() if e % 2)


def ref_integral_scale(poly):
    """The least c with poly(x/c) c^deg integral, from sympy's factorint."""
    need = {}
    for i, a in enumerate(poly.coeffs[:-1]):
        for p, e in factorint(a.denominator).items():
            need[p] = max(need.get(p, 0), -(-e // (poly.degree - i)))
    return prod(p**e for p, e in need.items())


@pytest.mark.parametrize("i", range(len(FACTOR_CASES)))
def test_integral_scale_against_sympy(i):
    # each case a denominator of a monic quartic, at a position that turns
    # with the case, next to a fixed smooth one
    coeffs = [Fraction(1, 72)] + [Fraction(0)] * 3 + [Fraction(1)]
    coeffs[1 + i % 3] = Fraction(5, FACTOR_CASES[i])
    poly = RatPoly(coeffs)
    assert numfield._integral_scale(poly) == ref_integral_scale(poly)


def test_searched_primes_are_the_primes_of_b(monkeypatch):
    # torsion_over_field searches exactly sympy's primefactors(B), each to
    # its p-part, for every case that factor_int splits into primes: every
    # part below T^2, or the square of a prime above T
    E, K = Curve.from_str("0,0,1,-1,0"), numfield.parse_field_spec("5;5;2")
    searched = []

    def recording(E, K, p, bound):
        searched.append((p, bound))
        return (1, 1), {Point.infinity(E, K): 1}, {}

    monkeypatch.setattr(torsion, "p_primary_part", recording)
    for B in [n for n in FACTOR_CASES if all(q < T * T for q, _ in ref_factor_int(n))]:
        monkeypatch.setattr(torsion, "reduction_bound", lambda E, K, B=B: B)
        searched.clear()
        assert torsion.torsion_over_field(E, K).structure == (1, 1)
        assert searched == [(p, p ** factorint(B)[p]) for p in primefactors(B)], B


@pytest.mark.parametrize("n", (nextprime(T**3), nextprime(T**3) * 2**40, nextprime(T) ** 3,
                               nextprime(T) * nextprime(T**2)))
def test_factor_int_raises_past_the_limit(n):
    # a part of T^3 or more left by trial division raises, whatever primes
    # below T come with it
    with pytest.raises(DataFormatError):
        zp.factor_int(n)
    with pytest.raises(DataFormatError):
        squarefree_part_rational(Fraction(n))


@pytest.mark.parametrize("start", (0, 1, 2, 4, 50, 60, 967, T))
def test_prime_stream_against_nextprime(start):
    # 300 primes from each start; the table of small primes ends at 997,
    # below sqrt(T), so the last two starts run through its end and past it
    expected, p = [], start
    for _ in range(300):
        p = nextprime(p)
        expected.append(p)
    assert list(islice(zp._prime_stream(start), 300)) == expected
