"""Integer-polynomial internals: GF(p) arithmetic, Hensel lifting, modular gcd,
and bounded-degree Zassenhaus factorization.

Polynomials in this module are plain lists of Python ints, constant term
first, with no trailing zeros (the zero polynomial is the empty list).  The
Fraction-facing wrappers live in exactmath; nothing here ever sees a
denominator.

Every x^e mod (h, p) -- the Frobenius powers of the distinct-degree split
and of the equal-degree split -- runs through one multiply mod (h, p),
`gf_mulmod`: from degree 4 on it packs each polynomial into one int, one
64-bit slot per coefficient, multiplies once and reduces with a table of
x^(n+k) mod h (Kronecker substitution; see its docstring for the slot bound).
Division with remainder (`gf_divmod`, so `gf_gcd`) reduces mod p only the
coefficient it divides out at each step, and the remainder once at the end.
`gf_from_zz`, `gf_sub`, `gf_monic`, `gf_mul` and `gf_divmod` never use that p
is prime: they are exact modulo any m > 1 at which the one leading
coefficient they invert is a unit, so `lift_factor` calls them modulo
p^(2^k), where lc(h) is prime to p and every divisor is monic.

Factor search runs at one prime, the first above PRIME_FLOOR = 58 that keeps
h squarefree with a unit leading coefficient, and is capped by degree: the
engine only ever needs irreducible factors whose roots can lie in a field of
degree <= 4, so only the modular factors of degree <= dmax are split and
lifted, each on its own, and recombination runs once over their subsets of
total degree <= dmax, at most O(k^4) of k lifts, instead of the full
exponential Zassenhaus search.  The product of the factors of higher degree
is only ever a quotient: it is never multiplied or lifted.

Integers are factored by trial division below FACTOR_LIMIT = T = 10^6
(`factor_int`).  What is left, r, has no prime factor below T, so an r < T^3
is 1, p, p*q or p^2, and isqrt tells p^2 apart: enough for squarefree parts,
for the least c with den | c^k, and for B's primes, exact below T^2.  A
larger r raises DataFormatError, so every integer below 10^18 is factored.
"""

from __future__ import annotations

import random
import sys
from array import array
from bisect import bisect_right
from collections.abc import Callable
from itertools import chain, combinations, count
from math import comb, gcd, isqrt

from .errors import DataFormatError, InvariantViolationError

# The primes of the factorization, of the modular gcd and of numfield's root
# lift are the primes above PRIME_FLOOR in increasing order, skipping any that
# divide a leading coefficient or the discriminant.  x^p mod h takes about
# log2 p squarings, so small primes are cheap.  psi_l splits into linear
# factors mod p, and recombination tries many subsets, only if p = 1 mod l;
# the first prime, 59, is 1 mod no l in 3, 4, 5, 7 and 13.
PRIME_FLOOR = 58
FACTOR_LIMIT = 10**6
_SMALL_PRIMES = [n for n in range(2, isqrt(FACTOR_LIMIT)) if all(n % d for d in range(2, isqrt(n) + 1))]


def _prime_stream(start: int):
    """The primes above start, in increasing order (exact below FACTOR_LIMIT^2)."""
    yield from _SMALL_PRIMES[bisect_right(_SMALL_PRIMES, start):]
    yield from (n for n in count(max(start, _SMALL_PRIMES[-1]) + 1) if factor_int(n) == [(n, 1)])


def factor_int(n: int) -> list[tuple[int, int]]:
    """The pairs (q, e), q increasing, with n = prod q^e for an integer n >= 1.
    A q below FACTOR_LIMIT^2 is prime, a larger one p or p*q with e = 1, and a
    part left past FACTOR_LIMIT^3 raises DataFormatError (module docstring)."""
    out = []
    for d in chain(_SMALL_PRIMES, range(_SMALL_PRIMES[-1] + 2, FACTOR_LIMIT, 2)):
        if d * d > n:
            break
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
    if n >= FACTOR_LIMIT**3:
        raise DataFormatError(f"too large to factor: {n}, with no prime factor below {FACTOR_LIMIT}")
    if n > 1:
        r = isqrt(n)
        out.append((r, 2) if r * r == n else (n, 1))
    return out


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def zz_primitive(a: list[int]) -> tuple[int, list[int]]:
    """Return (c, p) with a = c*p, p primitive with positive leading coeff."""
    if not a:
        return 0, []
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return c, [x // c for x in a]


def zz_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def zz_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return trim(out)


def zz_divide_exact(a: list[int], b: list[int]) -> list[int] | None:
    """Exact division a / b in ZZ[x]; None if b does not divide a.

    Valid divisibility test when b is primitive: an integral quotient, if it
    exists, is produced by classical long division with every step integral.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    if len(a) < len(b):
        return None
    rem = list(a)
    lead = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        head = rem[k + len(b) - 1]
        if head % lead != 0:
            return None
        t = head // lead
        q[k] = t
        if t:
            for j, y in enumerate(b):
                rem[k + j] -= t * y
    return q if not any(rem[: len(b) - 1]) else None


def zz_l2_norm_ceil(a: list[int]) -> int:
    s = sum(x * x for x in a)
    r = isqrt(s)
    return r if r * r == s else r + 1


def sym_mod(a: list[int], m: int) -> list[int]:
    half = m // 2
    out = []
    for x in a:
        v = x % m
        if v > half:
            v -= m
        out.append(v)
    return trim(out)


# ---------------------------------------------------------------------------
# GF(p)[x] arithmetic (coefficients in [0, p))
# ---------------------------------------------------------------------------


# Kronecker packing (see gf_mulmod): coefficient i of a polynomial is slot i of
# an array("Q") of unsigned 64-bit ints, read as one int in the machine's byte
# order, so slot i is bits 64i .. 64i + 63.
_PACKABLE = array("Q").itemsize == 8
_PACK_MIN_DEGREE = 4


def _pack(a: list[int]) -> int:
    return int.from_bytes(array("Q", a).tobytes(), sys.byteorder)


def _unpack(x: int, slots: int) -> array:
    return array("Q", x.to_bytes(8 * slots, sys.byteorder))


def gf_from_zz(a: list[int], p: int) -> list[int]:
    return trim([x % p for x in a])


def gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return trim(out)


def gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    return gf_from_zz(zz_mul(a, b), p)


def gf_scale(a: list[int], c: int, p: int) -> list[int]:
    c %= p
    return trim([x * c % p for x in a])


def gf_monic(a: list[int], p: int) -> list[int]:
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return gf_scale(a, inv, p)


def gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r, deg r < deg b, every coefficient in [0, p).
    Each step reduces only the leading coefficient it divides out; the rest of
    the remainder stays unreduced until the end.  p may be any modulus at
    which lc(b) is a unit, a prime power included."""
    if not b:
        raise ZeroDivisionError
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    rem = list(a)
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        t = rem[k + db] * inv % p
        q[k] = t
        if t:
            for j, y in enumerate(low, k):
                rem[j] -= t * y
    return trim(q), trim([r % p for r in rem[:db]])


def gf_rem(a: list[int], b: list[int], p: int) -> list[int]:
    return gf_divmod(a, b, p)[1]


def gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_mulmod(mod: list[int], p: int) -> Callable[[list[int], list[int]], list[int]]:
    """The map (a, b) -> a*b mod (mod, p), for a and b of degree < n = deg mod
    with coefficients in [0, p), and lc(mod) nonzero mod p.

    From degree _PACK_MIN_DEGREE on, a and b are each packed into one int with
    one 64-bit slot per coefficient and multiplied once (Kronecker
    substitution; von zur Gathen and Gerhard, Modern Computer Algebra, 8.4).
    The product is reduced with a table of x^(n+k) mod `mod`, k < n - 1, built
    here once and packed the same way: each high coefficient c_(n+k), taken mod
    p, adds c_(n+k) * row_k to the packed low part, and each low slot is taken
    mod p once at the end.

    Slot bound: a low slot sums at most n products a_i b_j of the product and
    n - 1 products c * row_k[j] of the reduction, each at most (p-1)^2, so no
    slot carries into the next while 2n(p-1)^2 < 2^64.  Past that bound, below
    degree _PACK_MIN_DEGREE, where packing costs more than it saves, or where
    array("Q") is not 8 bytes wide, it multiplies and divides as lists."""
    n = len(mod) - 1
    if n < _PACK_MIN_DEGREE or 2 * n * (p - 1) ** 2 >= 1 << 64 or not _PACKABLE:
        return lambda a, b: gf_rem(gf_mul(a, b, p), mod, p)
    inv = pow(mod[-1], -1, p)
    x_n = [-c * inv % p for c in mod[:-1]]
    rows = []
    row = x_n
    for _ in range(n - 1):
        rows.append(_pack(row))
        top = row[-1]
        row = [(c + top * r) % p for c, r in zip([0] + row[:-1], x_n)]
    shift = 64 * n
    low_mask = (1 << shift) - 1

    def mulmod(a: list[int], b: list[int]) -> list[int]:
        if not a or not b:
            return []
        prod = _pack(a) * _pack(b)
        length = len(a) + len(b) - 1
        if length > n:
            low = prod & low_mask
            for c, r in zip(_unpack(prod >> shift, length - n), rows):
                c %= p
                if c:
                    low += c * r
            prod, length = low, n
        return trim([c % p for c in _unpack(prod, length)])

    return mulmod


def gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod, p), squaring and multiplying with `gf_mulmod`."""
    mulmod = gf_mulmod(mod, p)
    base = gf_rem(base, mod, p)
    result = None
    while True:
        if e & 1:
            result = base if result is None else mulmod(result, base)
        e >>= 1
        if not e:
            return [1] if result is None else result
        base = mulmod(base, base)


def gf_derivative(a: list[int], p: int) -> list[int]:
    return trim([i * a[i] % p for i in range(1, len(a))])


def gf_is_squarefree(a: list[int], p: int) -> bool:
    d = gf_derivative(a, p)
    if not d:
        return len(a) <= 2
    return len(gf_gcd(a, d, p)) == 1


# ---------------------------------------------------------------------------
# Distinct-degree / equal-degree factorization, capped at dmax
# ---------------------------------------------------------------------------


def gf_ddf_bounded(f: list[int], p: int, dmax: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree split of monic squarefree f mod p, up to degree dmax:
    a list of (d, g_d), g_d the product of all irreducible factors of degree
    exactly d <= dmax.  The factors of degree > dmax are never split: their
    product is only ever the quotient v that the loop divides down."""
    v = list(f)
    blocks: list[tuple[int, list[int]]] = []
    h = [0, 1]
    d = 0
    while len(v) - 1 >= 1 and d < dmax:
        d += 1
        if len(v) - 1 < 2 * d:
            if len(v) - 1 <= dmax:
                blocks.append((len(v) - 1, v))
            break
        h = gf_pow_mod(h, p, v, p)
        g = gf_gcd(gf_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            blocks.append((d, g))
            v = gf_divmod(v, g, p)[0]
            h = gf_rem(h, v, p)
    return blocks


def gf_edf(f: list[int], d: int, p: int) -> list[list[int]]:
    """Cantor-Zassenhaus equal-degree split (p odd).

    f monic, squarefree, all irreducible factors of degree exactly d.
    Deterministically seeded so repeated runs factor identically.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    rng = random.Random((p, d, n, tuple(f)).__hash__())
    e = (p**d - 1) // 2
    while True:
        w = trim([rng.randrange(p) for _ in range(n)])
        if len(w) <= 1:
            continue
        g = gf_gcd(w, f, p)
        if 1 < len(g) < len(f):
            pass
        else:
            g = gf_gcd(gf_sub(gf_pow_mod(w, e, f, p), [1], p), f, p)
            if not (1 < len(g) < len(f)):
                continue
        other = gf_divmod(f, g, p)[0]
        return sorted(gf_edf(g, d, p) + gf_edf(other, d, p))


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def lift_factor(h: list[int], g: list[int], p: int, target: int) -> tuple[list[int], int]:
    """Lift a monic factor g of h / lc(h) mod p, irreducible mod p and coprime
    to its cofactor, to the monic factor G of h / lc(h) modulo M = p^(2^k) >=
    target with G = g (mod p).  Returns (G, M).

    Each step to M = m^2 divides h / lc(h) by g once, giving the cofactor c and
    the remainder r = 0 (mod m); takes u = c^-1 mod g from precision sqrt(m)
    to m by one Newton step u <- u(2 - c u) rem g; and sets g <- g + (r u rem
    g), which divides h / lc(h) mod M (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 15).  The first u is c^(p^deg g - 2) mod (g, p),
    the inverse in the field GF(p)[x]/(g)."""
    c = gf_divmod(gf_monic(gf_from_zz(h, p), p), g, p)[0]
    u = gf_pow_mod(c, p ** (len(g) - 1) - 2, g, p)
    m = p
    while m < target:
        m *= m
        c, r = gf_divmod(gf_monic(gf_from_zz(h, m), m), g, m)
        cu = gf_rem(gf_mul(gf_rem(c, g, m), u, m), g, m)
        u = gf_rem(gf_mul(u, gf_sub([2], cu, m), m), g, m)
        g = gf_from_zz(zz_add(g, gf_rem(gf_mul(r, u, m), g, m)), m)
    return g, m


# ---------------------------------------------------------------------------
# Bounded-degree Zassenhaus
# ---------------------------------------------------------------------------


def zz_factor_bounded(h: list[int], dmax: int) -> list[list[int]]:
    """The distinct irreducible factors of degree <= dmax of a nonzero integer
    polynomial, each primitive with positive leading coefficient.  Factors of
    higher degree are neither split nor returned.  h is factored through the
    primitive part of h / gcd(h, h'), which is squarefree and has the same
    irreducible factors, mod the first prime p above PRIME_FLOOR that keeps it
    squarefree with a unit leading coefficient.  Each irreducible factor mod p
    of degree <= dmax is lifted alone by `lift_factor`, past twice a Mignotte
    bound on the coefficients of any factor of h of degree <= dmax, and subsets
    of the lifts are tried as factors by increasing size.  After a factor is
    removed the search stays at its size: the bound holds for every factor of
    h, so a factor is found at the first subset of its lifts that is tried,
    and every smaller subset of the lifts left has failed already."""
    if len(h) <= 1:
        return []
    h = zz_primitive(zz_divide_exact(h, zz_gcd(h, [i * c for i, c in enumerate(h)][1:])))[1]
    n = len(h) - 1
    for p in _prime_stream(PRIME_FLOOR):
        if h[-1] % p:
            hp = gf_monic(gf_from_zz(h, p), p)
            if gf_is_squarefree(hp, p):
                break

    bound = comb(min(dmax, n), min(dmax, n) // 2) * zz_l2_norm_ceil(h) + abs(h[-1])
    lifted = []
    for d, g in gf_ddf_bounded(hp, p, min(dmax, n)):
        for f in gf_edf(g, d, p):
            G, modulus = lift_factor(h, f, p, 2 * bound + 1)
            lifted.append(G)
    lifted.sort(key=lambda G: (len(G), G))

    factors: list[list[int]] = []
    cur = h
    size = 1
    # every modular factor has degree >= 1, so no larger subset fits in dmax
    while size <= min(len(lifted), dmax):
        for combo in combinations(lifted, size):
            degsum = sum(len(G) - 1 for G in combo)
            if degsum > dmax or degsum >= len(cur) - 1:
                continue
            cand = [cur[-1]]
            for G in combo:
                cand = gf_mul(cand, G, modulus)
            cand = sym_mod(cand, modulus)
            # the constant term of a factor divides lc(cur) cur(0): a cheap
            # test that spares most trial divisions at a prime where h splits
            if cur[0] and cand[0] and cur[-1] * cur[0] % cand[0]:
                continue
            cand = zz_primitive(cand)[1]
            q = zz_divide_exact(cur, cand)
            if q is not None:
                factors.append(cand)
                cur = q  # primitive by Gauss's lemma, as cur and cand are
                lifted = [G for G in lifted if G not in combo]
                break
        else:
            size += 1
    if 1 <= len(cur) - 1 <= dmax:
        # every proper factor of degree <= dmax has been removed, so the
        # remaining cofactor of small degree is itself irreducible
        factors.append(cur)
    return factors


# ---------------------------------------------------------------------------
# Modular gcd over ZZ[x]
# ---------------------------------------------------------------------------


def _crt_combine(a: list[int], m: int, b: list[int], p: int) -> list[int]:
    # coefficientwise CRT; inputs normalized mod their moduli
    inv = pow(m % p, -1, p)
    out = []
    la, lb = len(a), len(b)
    for i in range(max(la, lb)):
        x = a[i] if i < la else 0
        y = b[i] if i < lb else 0
        t = (y - x) * inv % p
        out.append(x + m * t)
    return trim(out)


def zz_gcd(f: list[int], g: list[int]) -> list[int]:
    """Gcd in ZZ[x] by small-prime interpolation, verified by exact division.
    A prime at which the gcd's image has a higher degree is skipped, and only
    finitely many primes are such, so the loop ends."""
    if not f:
        return zz_primitive(g)[1]
    if not g:
        return zz_primitive(f)[1]
    cf, pf = zz_primitive(f)
    cg, pg = zz_primitive(g)
    c = gcd(cf, cg)
    if len(pf) == 1 or len(pg) == 1:
        return [c]
    gamma = gcd(pf[-1], pg[-1])
    acc, m, deg_min = None, 1, None
    for p in _prime_stream(PRIME_FLOOR):
        if pf[-1] % p == 0 or pg[-1] % p == 0:
            continue
        gp = gf_gcd(gf_from_zz(pf, p), gf_from_zz(pg, p), p)
        d = len(gp) - 1
        if d == 0:
            return [c]
        if deg_min is None or d < deg_min:
            deg_min, acc, m = d, gf_scale(gp, gamma, p), p
        elif d == deg_min:
            acc = _crt_combine(acc, m, gf_scale(gp, gamma, p), p)
            m *= p
        else:
            continue
        cand = zz_primitive(sym_mod(acc, m))[1]
        if zz_divide_exact(pf, cand) is not None and zz_divide_exact(pg, cand) is not None:
            return zz_mul([c], cand)


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder rem(lc(b)^(deg a - deg b + 1) * a, b)."""
    d = len(a) - len(b)
    if d < 0:
        return list(a)
    lead = b[-1]
    rem = [x * lead ** (d + 1) for x in a]
    for k in range(d, -1, -1):
        head = rem[k + len(b) - 1]
        t, r = divmod(head, lead)
        if r:
            raise InvariantViolationError(f"pseudo-division left a remainder: {head} by {lead}")
        if t:
            for j, y in enumerate(b):
                rem[k + j] -= t * y
    return trim(rem[: len(b) - 1])


def zz_resultant(f: list[int], g: list[int]) -> int:
    """Resultant via the subresultant PRS (Cohen, Alg. 3.3.7)."""
    if not f or not g:
        raise ValueError("resultant of zero polynomial")
    A, B = list(f), list(g)
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
        A, B = B, A
    if len(B) == 1:
        return s * B[0] ** (len(A) - 1)
    gg, hh = 1, 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        A = B
        divisor = gg * hh**delta
        B = [x // divisor for x in R]
        gg = A[-1]
        if delta >= 1:
            hh = gg**delta // hh ** (delta - 1)
        if not B:
            return 0
        if len(B) == 1:
            dA = len(A) - 1
            return s * (B[0] ** dA // hh ** (dA - 1))
