"""Integer kernels of square roots down a quadratic tower QQ < F < K.

F = QQ(u) with u^2 = delta, a nonsquare integer, and K = F(omega) with
omega^2 = w in F.  An element of F is a pair of integers (x0, x1) over one
denominator e != 0, the element (x0 + x1 u)/e; an element of K is two such
pairs A, B over one denominator, (A + B omega)/e.  Nothing here knows a
defining polynomial: `numfield` reads these coordinates off the power basis
and maps the answer back (`numfield.sqrt_in_field`).

Both steps are one rule, norm and trace.  Let L/M be quadratic with
conjugation sigma, and gamma^2 = beta in L.  Then nu = gamma sigma(gamma) lies
in M with nu^2 = beta sigma(beta), the norm, and T = gamma + sigma(gamma) lies
in M with T^2 = beta + sigma(beta) + 2 nu, the trace plus 2 nu.  If T != 0
then gamma = (beta + nu)/T, since T gamma = beta + nu.  If T = 0 then
sigma(gamma) = -gamma, so beta = gamma^2 is in M and gamma is in omega M.
Conversely, for every nu in M with nu^2 = beta sigma(beta) and every T in M
with T^2 = beta + sigma(beta) + 2 nu != 0, (beta + nu)/T squares to beta:
(beta + nu)^2 = beta (beta + sigma(beta) + 2 nu).  So beta has a square root
in L iff one of these square roots in M exists, and a missing one proves
beta a nonsquare, with no prime and no bound.  With beta = A + B omega, the
norm is A^2 - w B^2, the trace is 2A, and (beta + nu)/T = T/2 + (B/T) omega.

Over M = QQ (`quad_sqrt`) the norm and the trace are integers once the
element is scaled, so a square root in F is two integer square roots.  Over
M = F (`tower_sqrt`, which takes a field of degree 2 to `quad_sqrt`) they lie
in F, so a square root in K is at most three square roots in F.

`solve` is the package's one fraction-free linear solver: it inverts the
tower basis (`tower_basis`) and serves `numfield.FieldElement.inverse` for
d = 4.
"""

from __future__ import annotations

from math import isqrt, lcm

from .errors import InvariantViolationError


def exact_isqrt(n: int) -> int | None:
    """The s >= 0 with s^2 = n, or None when the integer n is not a square."""
    if n < 0:
        return None
    s = isqrt(n)
    return s if s * s == n else None


def quad_sqrt(x0: int, x1: int, e: int, delta: int) -> tuple[int, int, int] | None:
    """(s0, s1, g) with ((s0 + s1 u)/g)^2 = (x0 + x1 u)/e, u^2 = delta, or None.

    With X = e x, sqrt(x) = sqrt(X)/e, and X has integer coordinates.  For
    X1 = 0 the root is sqrt X0 or u sqrt(X0 delta)/delta.  Otherwise it is
    s + t u with s^2 - delta t^2 = n, an integer square root of the norm
    X0^2 - delta X1^2, and 2s = S, an integer square root of the trace plus
    2n, 2 (X0 + n); then t = X1/S, and the root is (S^2 + 2 X1 u)/(2S)."""
    X0, X1 = x0 * e, x1 * e
    if X1 == 0:
        s = exact_isqrt(X0)
        if s is not None:
            return s, 0, e
        s = exact_isqrt(X0 * delta)
        return None if s is None else (0, s, e * delta)
    n = exact_isqrt(X0 * X0 - delta * X1 * X1)
    if n is None:
        return None
    for v in (X0 + n, X0 - n):
        S = exact_isqrt(2 * v)
        if S:
            return S * S, 2 * X1, 2 * S * e
    return None


def tower_sqrt(t: list[int], e: int, w, delta: int | None) -> tuple[int, ...] | None:
    """The tower coordinates and denominator of a square root of t/e, or
    None.  For a field of degree 2, t = (x0, x1) in the basis 1, omega, and
    the root is `quad_sqrt` with u = omega and w = omega^2 in delta's place.
    For degree 4, t = (a0, a1, b0, b1) is A + B omega with A = a0 + a1 u and
    B = b0 + b1 u, u^2 = delta and omega^2 = (w0 + w1 u)/we, w = (w0, w1, we),
    and the root is (g0, g1, h0, h1, ge), (g0 + g1 u + (h0 + h1 u) omega)/ge.

    For B = 0 the root is sqrt A or omega sqrt(A/w), each in F.  Otherwise
    nu runs over +-sqrt(A^2 - w B^2), T = sqrt(2 (A + nu)) is taken in F
    (never 0, or B would be), and the root is T/2 + (B/T) omega, with
    B/T = B conj(T) / N(T)."""
    if len(t) == 2:
        return quad_sqrt(t[0], t[1], e, w)
    a0, a1, b0, b1 = t
    w0, w1, we = w
    if b0 == b1 == 0:
        r = quad_sqrt(a0, a1, e, delta)
        if r is not None:
            return r[0], r[1], 0, 0, r[2]
        # A/w = A conj(w) we / N(w)
        r = quad_sqrt(we * (a0 * w0 - delta * a1 * w1), we * (a1 * w0 - a0 * w1),
                      e * (w0 * w0 - delta * w1 * w1), delta)
        return None if r is None else (0, 0, r[0], r[1], r[2])
    # A^2 - w B^2 over we e^2
    sb0, sb1 = b0 * b0 + delta * b1 * b1, 2 * b0 * b1
    r = quad_sqrt(we * (a0 * a0 + delta * a1 * a1) - w0 * sb0 - delta * w1 * sb1,
                  we * 2 * a0 * a1 - w0 * sb1 - w1 * sb0, we * e * e, delta)
    if r is None:
        return None
    n0, n1, ne = r
    for n0, n1 in ((n0, n1), (-n0, -n1)):
        T = quad_sqrt(2 * (a0 * ne + n0 * e), 2 * (a1 * ne + n1 * e), e * ne, delta)
        if T is not None:
            t0, t1, te = T
            nt = t0 * t0 - delta * t1 * t1
            c = 2 * te * te
            return (t0 * e * nt, t1 * e * nt, c * (b0 * t0 - delta * b1 * t1),
                    c * (b1 * t0 - b0 * t1), 2 * te * e * nt)
    return None


def mat_vec(m: list[list[int]], v) -> list[int]:
    """The integer matrix m times the vector v."""
    return [sum(a * c for a, c in zip(row, v)) for row in m]


def solve(m: list[list[int]], cols) -> tuple[list[list[int]], int]:
    """(X, D) with m X = D B, for a square integer matrix m (a list of rows)
    and the columns cols of B: X is the list of its integral columns, and
    D = +-det m.  Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22,
    1968) with row pivoting: after step k every entry below row k is a minor
    of [m | B] of order k + 1, so each division by the previous pivot is
    exact, and the last pivot is D.  Back substitution on the triangular
    system then gives X = D m^-1 B, integral by Cramer's rule, so its
    divisions are exact too.  A singular m raises."""
    d = len(m)
    rows = [[*row, *b] for row, b in zip(m, zip(*cols))]
    n = len(rows[0])
    prev = 1
    for k in range(d):
        for i in range(k, d):
            if rows[i][k]:
                break
        else:
            raise InvariantViolationError(f"the matrix {m} is singular")
        rows[k], rows[i] = rows[i], rows[k]
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1:]:
            a = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
    X = []
    for c in range(d, n):
        x = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            x[i] = (prev * row[c] - sum(row[j] * x[j] for j in range(i + 1, d))) // row[i]
        X.append(x)
    return X, prev


def tower_basis(basis) -> tuple[list[list[int]], int, list[list[int]], int]:
    """(P, pd, Q, qd) for a basis of K given as pairs (num, den), the
    element num / den in power coordinates: Q / qd has the columns num / den,
    and P / pd is its inverse; P, Q integral and pd, qd > 0.  P is read off
    `solve` with B = I, P / pd = qd Q^-1.  A set that is no basis raises."""
    d = len(basis)
    qd = lcm(*(den for _, den in basis))
    Q = [[num[i] * (qd // den) for num, den in basis] for i in range(d)]
    X, D = solve(Q, [[int(i == j) for i in range(d)] for j in range(d)])
    sign = -1 if D < 0 else 1
    return [[sign * qd * x[i] for x in X] for i in range(d)], sign * D, Q, qd
