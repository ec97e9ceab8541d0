"""Square roots in K by norm and trace down its quadratic tower: the integer
kernels of `_quadtower`, the tower `numfield._field_tower` builds, and
`numfield.sqrt_in_field` and the closed forms of `numfield.roots_in_field`
against the norm method and the lift."""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from quartic_torsion import _quadtower as zt
from quartic_torsion import numfield, torsion
from quartic_torsion.ellcurve import Curve
from quartic_torsion.errors import InvariantViolationError, UnsupportedFieldError
from quartic_torsion.exactmath import RatPoly, factor_bounded, is_rational_square
from quartic_torsion.numfield import (
    GaloisType,
    KPoly,
    NumberField,
    parse_field_spec,
    rational_roots,
    roots_in_field,
    sqrt_in_field,
)


def _resolvent_roots(K):
    p, q, r, s = K.defining_poly.coeffs[3::-1]
    return sorted(int(y) for y in rational_roots(
        RatPoly([-(p * p * s - 4 * q * s + r * r), p * r - 4 * s, -q, 1])))


def _fraction_solve(m, cols):
    """(m^-1 B, det m) by Gauss-Jordan elimination over QQ, (None, 0) for a
    singular m."""
    d = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(c[i]) for c in cols] for i, row in enumerate(m)]
    det = Fraction(1)
    for k in range(d):
        pivot = next((i for i in range(k, d) if rows[i][k]), None)
        if pivot is None:
            return None, 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(d):
            if i != k:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [[rows[i][d + j] for i in range(d)] for j in range(len(cols))], det


@pytest.fixture
def no_split_primes(monkeypatch):
    """A context in which walking the split primes of any field fails."""
    def forbidden(*args):
        raise AssertionError("a square root walked the split primes")

    @contextmanager
    def guard():
        with monkeypatch.context() as m:
            m.setattr(NumberField, "iter_split_primes", forbidden)
            yield

    return guard


class TestKernels:
    @pytest.mark.parametrize("delta", (-7, -4 * 3, 2, 5, 12, 45))
    def test_quad_sqrt_against_the_norm_method(self, delta):
        # F = QQ(u), u^2 = delta, as a field of its own; delta need not be
        # squarefree
        F = NumberField(RatPoly([-delta, 0, 1]))
        rng = random.Random(delta)
        for _ in range(25):
            s = F.element([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(2)])
            for x in (s * s, s * s * rng.choice((-1, 2, 3, delta)), s):
                if x.is_zero():
                    continue
                r = zt.quad_sqrt(*x.num, x.den, delta)
                expected = numfield._trager_roots(KPoly(F, [-x, 0, 1]), F)
                if r is None:
                    assert expected == set(), x
                else:
                    root = F.element([Fraction(r[0], r[2]), Fraction(r[1], r[2])])
                    assert expected == {root, -root}, x

    def test_exact_isqrt(self):
        assert [zt.exact_isqrt(n) for n in (-4, -1, 0, 1, 2, 4, 10**40, 10**40 + 1)] == \
            [None, None, 0, 1, None, 2, 10**20, None]

    def test_solve_against_fraction_elimination(self):
        # m X = D B with D = +-det m, on seeded 2x2 and 4x4 matrices with 1
        # and 4 right-hand sides; each first matrix has m[0][0] = 0, so
        # elimination swaps rows before its first step
        rng = random.Random(83)
        swapped = 0
        for d, k in ((2, 1), (2, 4), (4, 1), (4, 4)):
            for trial in range(12):
                m = [[rng.randrange(-9, 10) for _ in range(d)] for _ in range(d)]
                m[0][0] *= trial > 0
                cols = [[rng.randrange(-9, 10) for _ in range(d)] for _ in range(k)]
                expected, det = _fraction_solve(m, cols)
                if det == 0:
                    with pytest.raises(InvariantViolationError):
                        zt.solve(m, cols)
                    continue
                swapped += m[0][0] == 0
                X, D = zt.solve(m, cols)
                assert D in (det, -det)
                assert all(type(x) is int for col in X for x in col)
                assert [[Fraction(x, D) for x in col] for col in X] == expected
        assert swapped >= 4
        with pytest.raises(InvariantViolationError):
            zt.solve([[1, 2, 0, 0], [0, 0, 1, 0], [2, 4, 0, 1], [0, 0, 0, 1]], [[1, 0, 0, 0]])

    def test_tower_basis_inverts(self):
        rng = random.Random(5)
        for d in (2, 4) * 20:
            basis = [([rng.randrange(-5, 6) for _ in range(d)], rng.randrange(1, 4)) for _ in range(d)]
            try:
                P, pd, Q, qd = zt.tower_basis(basis)
            except InvariantViolationError:
                continue
            assert pd > 0 and qd > 0
            for i in range(d):
                for j in range(d):
                    assert sum(P[i][k] * Q[k][j] for k in range(d)) == (pd * qd if i == j else 0)
            for j, (num, den) in enumerate(basis):
                assert [Fraction(Q[i][j], qd) for i in range(d)] == [Fraction(c, den) for c in num]
        with pytest.raises(InvariantViolationError):
            zt.tower_basis([([1, 2], 1), ([2, 4], 3)])


class TestTowerAgainstNormMethod:
    def test_every_workload_field(self, benchmark_cases, no_split_primes):
        # every field of seeds 0-5 of the three workloads; no square root
        # walks a split prime
        rng = random.Random(71)
        fields = sorted({parse_field_spec(f) for w in ("known_groups", "curve_sweep", "field_sweep")
                         for seed in range(6) for _, f in benchmark_cases(w, seed)}, key=repr)
        found = set()
        for K in fields:
            found |= oracles.sqrt_against_norm_method(K, rng, guard=no_split_primes)
        assert len(fields) > 90 and {K.degree for K in fields} == {1, 2, 4}
        assert {(kind, has) for kind in ("rational", "square", "fixed square", "anti square")
                for has in (True,)} <= found
        assert {("rational", False), ("any", False), ("fixed", False), ("anti", False)} <= found

    @pytest.mark.parametrize("spec, y, branch", [
        ("2,-4,6,-4", 0, "c != 0"),     # QQ(zeta8) as (x - 1)^4 + 1
        ("1,0,0,0", 0, "alpha = 0"),    # x^4 + 1: c = d2 = 0
        ("1,0,0,0", 2, "alpha' = 0"),   # c = d1 = 0
        ("1,0,0,0", -2, "alpha' = 0"),
        ("1,1,1,1", 2, "alpha' = 0"),   # QQ(zeta5)
    ])
    def test_every_resolvent_root(self, spec, y, branch, no_split_primes):
        # sigma from a given rational root y of the resolvent cubic, for each
        # of the cases of the formula for alpha
        K = parse_field_spec(spec)
        assert y in _resolvent_roots(K)
        s, r, q, p = K._f_int[:4]
        d1, d2, c = y * y - 4 * s, p * p - 4 * q + 4 * y, p * y - 2 * r
        assert branch == ("c != 0" if c else "alpha = 0" if d2 == 0 else "alpha' = 0")
        assert branch != "alpha' = 0" or d1 == 0
        K._tower = numfield._field_tower(K, y)
        sigma, th = oracles.tower_involution(K), K.gen()
        # sigma(theta) is a root of f other than theta, and sigma an involution
        # and a ring map
        assert sigma(th) in numfield._trager_roots(KPoly(K, K.defining_poly.coeffs), K) - {th}
        assert sigma(sigma(th)) == th
        rng = random.Random(y)
        for _ in range(5):
            a, b = (K.element([rng.randrange(-5, 6) for _ in range(4)]) for _ in range(2))
            assert sigma(a * b) == sigma(a) * sigma(b) and sigma(a + b) == sigma(a) + sigma(b)
        found = set()
        for _ in range(3):
            found |= oracles.sqrt_against_norm_method(K, rng, classes=5, guard=no_split_primes)
        assert {("fixed square", True), ("anti square", True)} <= found

    def test_biquadratic_takes_each_involution(self):
        # QQ(sqrt 2, sqrt 3) has three rational resolvent roots, one per
        # quadratic subfield; each tower gives the same square roots
        roots = {}
        for y in _resolvent_roots(parse_field_spec("2,3")):
            K = parse_field_spec("2,3")
            K._tower = numfield._field_tower(K, y)
            roots[y] = [sqrt_in_field(K.element(m), K) for m in (2, 3, 6, -1, 5)]
        assert len(roots) == 3 and len({tuple(map(repr, r)) for r in roots.values()}) == 1
        assert [r is None for r in next(iter(roots.values()))] == [False, False, False, True, True]

    def test_d4_quartic(self, no_split_primes):
        # x^4 - 5 is not Galois, but theta -> -theta is an involution of it
        K = parse_field_spec("-5,0,0,0")
        assert K.galois_type is GaloisType.NonGaloisQuartic
        found = set()
        rng = random.Random(3)
        for _ in range(3):
            found |= oracles.sqrt_against_norm_method(K, rng, classes=5, guard=no_split_primes)
        assert ("fixed square", True) in found and ("anti square", True) in found
        assert sqrt_in_field(K.element(5), K) == K.gen() ** 2

    def test_no_resolvent_root_raises(self):
        # x^4 + x + 1 has Galois group S4 and no quadratic subfield
        K = parse_field_spec("1,1,0,0")
        assert K._resolvent_root is None
        with pytest.raises(UnsupportedFieldError):
            sqrt_in_field(K.element(2), K)
        with pytest.raises(UnsupportedFieldError):
            numfield._field_tower(K)

    def test_tower_built_on_the_first_square_root(self, monkeypatch):
        built = []
        field_tower = numfield._field_tower
        monkeypatch.setattr(numfield, "_field_tower", lambda K, *a: built.append(K) or field_tower(K, *a))
        fields = [parse_field_spec(s) for s in ("q", "-3", "1,1,1,1", "-1,5", "13;13;3")]
        assert built == [] and all(K._tower is None for K in fields)
        for K in fields:
            for m in (2, 5, -3):
                sqrt_in_field(K.element(m), K)
        assert built == fields[1:] and fields[0]._tower is None

    def test_every_returned_root_is_checked(self, monkeypatch):
        # a root that does not square to beta raises, whatever the kernel says
        K = parse_field_spec("1,1,1,1")
        assert sqrt_in_field(K.element(5), K) is not None
        monkeypatch.setattr(zt, "tower_sqrt", lambda t, e, w, delta: (1, 0, 0, 0, 1))
        with pytest.raises(InvariantViolationError):
            sqrt_in_field(K.element(5), K)


def _roots_by_factors(h, K):
    """The roots of the rational h in K from its factors over QQ: the linear
    ones read off, each other one of degree dividing [K:QQ] lifted."""
    roots = set()
    for q in factor_bounded(h, K.degree):
        if q.degree == 1:
            roots.add(K.element(-q.coeffs[0] / q.coeffs[1]))
        elif K.degree % q.degree == 0:
            roots |= numfield._hensel_roots(KPoly(K, q.coeffs), K)
    return roots


class TestClosedFormRoots:
    def test_division_polynomials_of_seed0_cases(self, benchmark_cases, monkeypatch):
        # every x_division_poly(n) that a seed-0 case solves over a K != QQ:
        # the closed forms agree with factor_bounded plus the lift
        asked = {}
        solve = torsion.roots_in_field

        def recorded(h, K, *args):
            if isinstance(h, RatPoly) and K.degree > 1:
                asked.setdefault((h, K), None)
            return solve(h, K, *args)

        monkeypatch.setattr(torsion, "roots_in_field", recorded)
        fields, kinds = {}, set()
        for w in ("known_groups", "curve_sweep", "field_sweep"):
            for curve, field in benchmark_cases(w, 0):
                if field not in fields:
                    fields[field] = parse_field_spec(field)
                torsion.torsion_over_field(Curve.from_str(curve), fields[field])
        for h, K in asked:
            got = roots_in_field(h, K)
            assert got == _roots_by_factors(h, K), (h, K)
            if h.degree == 3:
                kinds.add(("cubic", len(rational_roots(h)), len(got)))
        assert len(asked) > 50 and any(h.degree > 3 for h, _ in asked)
        # cubics with no, one and three rational roots, and one whose
        # quadratic cofactor has its roots in K
        assert {("cubic", 0, 0), ("cubic", 1, 1), ("cubic", 1, 3), ("cubic", 3, 3)} <= kinds

    @pytest.mark.parametrize("spec", ("-3", "1,1,1,1", "-1,5", "5;5;2"))
    def test_quadratics_and_cubics(self, spec):
        # (x - (b + c sqrt m)/2)(x - (b - c sqrt m)/2), times a constant, a
        # rational linear factor or x^2 + 1, and cubes of linear factors,
        # against factor_bounded plus the lift
        K = parse_field_spec(spec)
        rng = random.Random(spec)
        for _ in range(20):
            a, b = (Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(2))
            c, m = Fraction(rng.randrange(1, 9), rng.randrange(1, 4)), rng.choice((1, -1, 2, 3, 5, -3, -5, 15))
            quad = RatPoly([(b * b - m * c * c) / 4, -b, 1])
            lin = RatPoly([-a, rng.randrange(1, 4)])
            for h in (quad * RatPoly([rng.randrange(1, 5)]), quad * lin, lin * lin * lin,
                      lin * RatPoly([1, 0, 1])):
                assert roots_in_field(h, K) == _roots_by_factors(h, K), (h, K)
            has_sqrt_m = sqrt_in_field(K.element(m), K) is not None
            assert len(roots_in_field(quad, K)) == (2 if has_sqrt_m else 0), (quad, K)
