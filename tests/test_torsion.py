"""The torsion engine end to end on small witnesses.

Each witness is computed once.  Its subfield torsion, derived from the points
of E(K)_tors, is compared with a fresh computation over each subfield, the
point orders read off the lift levels with brute-force multiplication, and
its odd n-torsion with a count that does not run the lift loop.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
from pathlib import Path

import pytest
from sympy import primefactors

from oracles import (
    all_pairs_group,
    change_model,
    charpoly,
    count_torsion_in_field,
    multiples_generators,
    point_order,
    point_sort_key,
    quadratic_twist,
    short_model,
    span_subfield,
    sqrt_against_norm_method,
    sqrt_reference_preimages,
)
from quartic_torsion import grouptables as gt
from quartic_torsion import ellcurve, numfield, torsion
from quartic_torsion.ellcurve import Curve
from quartic_torsion.errors import (
    InconsistentCountsError,
    InvariantViolationError,
    UnsupportedFieldError,
)
from quartic_torsion.exactmath import factor_bounded
from quartic_torsion.numfield import (
    GaloisType,
    KPoly,
    NumberField,
    parse_field_spec,
    quadratic_field,
    rational_field,
    smallest_subfield,
    tower_field,
)
from quartic_torsion.torsion import (
    reduction_bound,
    structure_of_orders,
    subfield_torsion,
    torsion_over_field,
)

# (curve spec, field spec, E(K)_tors)
WITNESSES = (
    ("0,0,0,-1,0", "-1,2", (4, 4)),        # y^2 = x^3 - x over QQ(i, sqrt2)
    ("0,0,1,-1,0", "5;5;2", (1, 1)),       # 37a1 over a cyclic quartic
    ("0,-1,1,-10,-20", "1,1,1,1", (5, 5)),  # 11a1 over QQ(zeta5)
    ("1,0,1,4,-6", "17,21", (1, 6)),        # 14a1: orders are products over p
    # From a scan of 25 curves with rational torsion over the cyclic quartic
    # fields m;a*m;a*b of the field_sweep generator and over QQ(zeta5); the
    # comment gives E(QQ)_tors
    ("1,1,1,35,-28", "1,1,1,1", (1, 8)),       # Z/8
    ("1,-1,1,-14,29", "1,1,1,1", (1, 9)),      # Z/9
    ("1,0,0,-45,81", "13;13;3", (1, 10)),      # Z/10
    ("1,-1,1,-122,1721", "1,1,1,1", (1, 12)),  # Z/12
    ("1,0,1,-76,298", "5;5;1", (1, 15)),       # Z/3, 5-torsion grows
    ("1,1,1,-80,242", "5;5;2", (1, 16)),       # Z/4, a 2-primary lift
    ("1,0,1,-19,26", "1,1,1,1", (2, 6)),       # Z/2 x Z/6
    ("1,1,1,-5,2", "5;15;6", (2, 16)),         # Z/2 x Z/4, a 2-primary lift
    # From a scan of 22 curves with rational torsion over the 78 biquadratic
    # fields QQ(sqrt m, sqrt n), m, n in {-15, -7, -5, -3, -2, -1, 2, 3, 5, 6,
    # 7, 10, 15}, and a probe of y^2 + y = x^3 over fields with sqrt-3
    ("1,1,1,35,-28", "2,3", (1, 8)),           # Z/8
    ("1,-1,1,-14,29", "2,3", (1, 9)),          # Z/9
    ("1,0,0,-45,81", "2,3", (1, 10)),          # Z/10
    ("1,-1,1,-122,1721", "-1,2", (1, 12)),     # Z/12
    ("1,1,1,22,-9", "-15,-7", (1, 15)),        # Z/5, 3-torsion grows
    ("1,0,1,-19,26", "-1,2", (2, 6)),          # Z/2 x Z/6
    ("1,0,0,-1070,7812", "2,3", (2, 8)),       # Z/2 x Z/8
    ("1,-1,1,-122,1721", "-15,-7", (2, 12)),   # Z/12, 2-torsion grows
    ("0,0,1,0,0", "-3,2", (3, 3)),             # y^2 + y = x^3, Z/3
    # The last five groups of the two theorems.  Z/2 x Z/10 and Z/2 x Z/12
    # come by growth: a curve with E(QQ) = Z/10 or Z/12 gains full 2-torsion
    # over QQ(sqrt disc).  For the cyclic rows, Kubert's Tate normal form at a
    # t where the squarefree part d of disc is a sum u^2 + v^2 gives the
    # cyclic quartic d;d;u, which contains QQ(sqrt d)
    ("13/10,-3/50,-3/50,0,0", "10;10;1", (2, 10)),          # Tate Z/10, t = 1/4, d = 10
    ("359/320,663/6400,663/6400,0,0", "17;17;1", (2, 12)),  # Tate Z/12, t = 1/5, d = 17
    ("1,0,0,-45,81", "33,-1", (2, 10)),                     # Z/10, disc = 33 * square
    # the Z/8 Tate normal form at t = 1/5: the halving quartic of its point of
    # order 8 has a quadratic factor over QQ(sqrt -15)
    ("-7/5,-12/25,-12/25,0,0", "-15,-1", (1, 16)),
    # a point of order 13 over a quartic field has its x in a quadratic
    # subfield, so E is a rational point of X1(13)/<5>; Reichert's model of
    # X1(13) at x = -2 gives j = -60698457/40960 with the kernel's x in
    # QQ(sqrt 17), and a search over its twists gave this model
    ("0,0,0,-2227,59534", "17;17;4", (1, 13)),
    # the one group of the cyclic theorem that no other Tier-1 case has: E(QQ)
    # = Z/2 gains full 2-torsion over QQ(sqrt 13) inside K; from the frozen
    # curve_sweep pool
    ("2,-4,-2,-5,5", "13;13;3", (2, 2)),
)


@pytest.fixture(scope="module", params=WITNESSES, ids=lambda w: f"{w[0]}_over_{w[1]}")
def witness(request):
    curve, field, expected = request.param
    K = parse_field_spec(field)
    return torsion_over_field(Curve.from_str(curve), K), expected


class TestWitnesses:
    def test_structure(self, witness):
        report, expected = witness
        assert report.structure == expected
        assert len(report.points) == prod(report.structure)

    def test_order_divides_reduction_bound(self, witness):
        report, _ = witness
        assert reduction_bound(report.curve, report.field_) % prod(report.structure) == 0

    def test_growth_chain_recorded(self, witness):
        report, _ = witness
        names = [name for name, _ in report.checks]
        assert names.count("growth_chain") >= 1
        assert all(ok for _, ok in report.checks)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_torsion_count(self, witness, n):
        # |E(K)[n]| from the division polynomial and square roots in K
        report, _ = witness
        expected = sum(1 for m in report.points.values() if n % m == 0)
        assert count_torsion_in_field(report.curve, report.field_, n) == expected

    def test_short_model(self, witness):
        # the report does not depend on the Weierstrass model of E
        report, _ = witness
        other = torsion_over_field(short_model(report.curve), report.field_)
        assert other.structure == report.structure
        assert other.point_definition_degrees == report.point_definition_degrees

    def test_change_of_model(self, witness):
        # one seeded change of variables per row, with u in {+-1, +-2, +-1/2}
        # and small rational r, s, t: the report does not change
        report, _ = witness
        E, K = report.curve, report.field_
        F, u = _other_model(E, K)
        assert F.disc == E.disc / Fraction(u) ** 12
        assert _invariants(torsion_over_field(F, K)) == _invariants(report)

    def test_placement_matches_span_oracle(self, witness):
        report, _ = witness
        _assert_placement_matches_span_oracle(report)


def _assert_placement_matches_span_oracle(report):
    # each affine point's smallest subfield, from the coordinates' squares,
    # against sqrt m in K for each quadratic subfield and a span test
    K = report.field_
    for P in report.points:
        if not P.is_infinity():
            assert smallest_subfield(P.xy, K) == span_subfield(P.xy, K), P


def test_thirteen_torsion_count():
    # |E(K)[13]| of the Z/13 witness from psi_13 and square roots in K
    E, K = Curve.from_str("0,0,0,-2227,59534"), parse_field_spec("17;17;4")
    points = torsion_over_field(E, K).points
    assert count_torsion_in_field(E, K, 13) == sum(1 for m in points.values() if 13 % m == 0) == 13


@pytest.mark.parametrize("curve, field, expected", WITNESSES)
def test_squarefree_part_only_of_repeated_roots(monkeypatch, curve, field, expected):
    # the lift reduces h to its squarefree part only when h has a repeated root
    squarefree = KPoly.squarefree

    def only_if_repeated(h):
        if h.gcd(h.derivative()).degree == 0:
            raise AssertionError(f"squarefree part taken of squarefree {h!r}")
        return squarefree(h)

    monkeypatch.setattr(KPoly, "squarefree", only_if_repeated)
    assert torsion_over_field(Curve.from_str(curve), parse_field_spec(field)).structure == expected


class TestSubfieldTorsion:
    def test_matches_recomputation_over_each_subfield(self, witness):
        report, _ = witness
        E, K = report.curve, report.field_
        homes = {P: smallest_subfield(P.xy, K) for P in report.points if not P.is_infinity()}
        assert subfield_torsion(report.points, homes, 1) == torsion_over_field(E, rational_field()).structure
        for m in sorted(K.quadratic_subfields()):
            derived = subfield_torsion(report.points, homes, m)
            assert derived == torsion_over_field(E, quadratic_field(m)).structure


class TestOrders:
    def test_point_orders_by_multiplication(self, witness):
        report, _ = witness
        _, exponent = report.structure
        for P, n in report.points.items():
            assert point_order(P, exponent) == n

    def test_generators(self, witness):
        report, _ = witness
        d1, d2 = report.structure
        gens = report.generators
        assert len(gens) == (d2 > 1) + (d1 > 1)
        if not gens:
            return
        orders = (d1, d2) if len(gens) == 2 else (d2,)
        for P, d in zip(gens, orders):
            assert P.scalar_mul(d).is_infinity()
            assert all(not P.scalar_mul(d // p).is_infinity() for p in (2, 3, 5, 7, 13) if d % p == 0)
        g2 = gens[-1]
        g1 = gens[0] if len(gens) == 2 else g2
        span = {g1.scalar_mul(i) + g2.scalar_mul(j) for i in range(d1) for j in range(d2)}
        assert len(span) == d1 * d2


def _orders(d1, d2):
    """Orders of the elements of Z/d1 + Z/d2."""
    return [lcm(d1 // gcd(a, d1), d2 // gcd(b, d2)) for a in range(d1) for b in range(d2)]


class TestStructureOfOrders:
    @pytest.mark.parametrize("group", sorted(gt.MAZUR | gt.NAJMAN_QUAD_RAT
                                             | gt.THM_CYCLIC_QUARTIC | gt.THM_BIQUADRATIC))
    def test_every_table_group(self, group):
        assert structure_of_orders(_orders(*group)) == group

    @pytest.mark.parametrize("orders", [
        [1, 2, 2, 2, 2, 2, 2, 2],  # (Z/2)^3 has rank 3
        [1, 3],                    # 2 elements, exponent 3
        [1, 2, 4, 4, 4, 4, 4, 4],  # order 8, exponent 4, but one element of order 2
    ])
    def test_no_rank_two_group(self, orders):
        with pytest.raises(InconsistentCountsError):
            structure_of_orders(orders)


class TestTwistDecomposition:
    """The odd part of E(QQ(sqrt d))_tors is that of E(QQ)_tors times that of
    E^d(QQ)_tors, since the odd torsion over QQ(sqrt d) splits into the +1 and
    -1 eigenspaces of the conjugation, which are E(QQ) and the twist's points."""

    @pytest.mark.parametrize("d", [-1, 2, -3, 5])
    @pytest.mark.parametrize("curve", ["0,-1,1,-10,-20", "1,0,1,4,-6", "1,1,1,-10,-10", "0,0,1,-1,0"],
                             ids=["11a1", "14a1", "15a1", "37a1"])
    def test_odd_part_over_quadratic_field(self, curve, d):
        E = Curve.from_str(curve)
        over_q = rational_field()
        assert (_odd_order(E, quadratic_field(d))
                == _odd_order(E, over_q) * _odd_order(quadratic_twist(E, d), over_q))

    def test_14a1_over_sqrt_minus_3(self):
        # (3, 6) over QQ(sqrt -3) from (1, 6) over QQ and (1, 6) for the twist
        E = Curve.from_str("1,0,1,4,-6")
        assert torsion_over_field(E, quadratic_field(-3)).structure == (3, 6)
        assert torsion_over_field(E, rational_field()).structure == (1, 6)
        assert torsion_over_field(quadratic_twist(E, -3), rational_field()).structure == (1, 6)

    def test_11a1_five_torsion_over_cyclic_quartic(self):
        E = Curve.from_str("0,-1,1,-10,-20")
        F = quadratic_field(5)
        alpha = [Fraction(-5, 2), Fraction(-1, 2)]  # (-5 - sqrt5) / 2
        K = tower_field(5, *alpha)
        assert K == parse_field_spec("5,0,5,0,1")
        assert count_torsion_in_field(E, K, 5) == 25
        assert count_torsion_in_field(E, F, 5) == 5

    def test_11a1_five_torsion_over_biquadratic(self):
        # the twist by -1 has no 5-torsion over QQ(sqrt5): 5 = 5 * 1
        E = Curve.from_str("0,-1,1,-10,-20")
        F = quadratic_field(5)
        assert count_torsion_in_field(E, parse_field_spec("5,-1"), 5) == 5
        assert count_torsion_in_field(E, F, 5) == 5
        assert count_torsion_in_field(quadratic_twist(E, -1), F, 5) == 1


def _odd_order(E, K):
    d1, d2 = torsion_over_field(E, K).structure
    n = d1 * d2
    while n % 2 == 0:
        n //= 2
    return n


def test_rootless_division_polynomials_settled_without_factoring(monkeypatch):
    # the reduction bound B is 1 here, so no prime is searched and no
    # division polynomial is factored
    factored = _count_factored(monkeypatch)
    E, K = Curve.from_str("5,-1,-2,1,-3"), parse_field_spec("13;13;3")
    assert reduction_bound(E, K) == 1
    assert torsion_over_field(E, K).structure == (1, 1)
    assert factored == []


@pytest.mark.parametrize("curve, field, expected", [
    ("1,1,1,-10,-10", "-1,5", (4, 8)),     # 15a1 over QQ(i, sqrt5)
    ("0,-1,1,-10,-20", "1,1,1,1", (5, 5)),  # 11a1 over QQ(zeta5)
    ("0,0,0,-1,0", "-1,2", (4, 4)),        # y^2 = x^3 - x over QQ(i, sqrt2)
])
def test_engine_takes_no_norm(monkeypatch, curve, field, expected):
    # roots in K are lifted at a split prime; the norm method is the tests' oracle
    def forbidden(*args):
        raise AssertionError("norm method reached from the engine")

    monkeypatch.setattr(numfield, "_trager_roots", forbidden)
    monkeypatch.setattr(numfield, "_norm_poly_shifted", forbidden)
    assert torsion_over_field(Curve.from_str(curve), parse_field_spec(field)).structure == expected


class TestPresentationInvariance:
    """The report does not depend on the defining polynomial chosen for K."""

    def test_15a1_over_two_models_of_i_sqrt5(self):
        E = Curve.from_str("1,1,1,-10,-10")
        a, b = (torsion_over_field(E, parse_field_spec(spec)) for spec in ("-5,5", "-1,-5"))
        assert a.structure == b.structure == (4, 8)
        assert a.point_definition_degrees == b.point_definition_degrees

    def test_11a1_over_shifted_zeta5(self):
        # x -> x + 1 in the cyclotomic polynomial; the witness table has 1,1,1,1
        report = torsion_over_field(Curve.from_str("0,-1,1,-10,-20"), parse_field_spec("5,10,10,5"))
        assert report.galois_type is GaloisType.CyclicQuartic
        assert report.structure == (5, 5)
        assert report.point_definition_degrees == {5: 1}

    def test_characteristic_polynomial_of_a_primitive_element(self, witness):
        # K presented by the characteristic polynomial of one seeded primitive
        # element: points are placed in subfields by their power-basis
        # coordinates, and the report does not change
        report, _ = witness
        other = torsion_over_field(report.curve, _other_presentation(report.curve, report.field_))
        assert _invariants(other) == _invariants(report)
        _assert_placement_matches_span_oracle(other)


# The full report of each known_groups benchmark row, with its curve and field specs.
# The benchmark's correctness gate compares only the structure; this also pins
# the generators and definition degrees, which follow the sort order of points.
PINNED_REPORTS = json.loads((Path(__file__).parent / "data" / "known_groups_reports.json").read_text())


ROW_IDS = [f"{row['curve']}@{row['field']}" for row in PINNED_REPORTS]


@cache
def _pinned_report(curve: str, field: str):
    return torsion_over_field(Curve.from_str(curve), parse_field_spec(field))


@pytest.mark.parametrize("row", PINNED_REPORTS, ids=ROW_IDS)
def test_full_report_pinned(row):
    report = _pinned_report(row["curve"], row["field"])
    assert json.loads(json.dumps(report.to_json_dict())) == row["report"]


@pytest.mark.parametrize("row", PINNED_REPORTS, ids=ROW_IDS)
def test_every_point_on_the_curve(row):
    # sums, negatives, lifted preimages, points above an x (curve_points_y) and
    # the 2-torsion points all skip the constructor's check; verify them here
    report = _pinned_report(row["curve"], row["field"])
    E = report.curve
    for P in report.points:
        if not P.is_infinity():
            x, y = P.xy
            assert (y * y + x * y * E.a1 + y * E.a3
                    == x * x * x + x * x * E.a2 + x * E.a4 + E.a6)


@pytest.mark.parametrize("row", PINNED_REPORTS, ids=ROW_IDS)
def test_placement_matches_span_oracle_on_pinned_rows(row):
    _assert_placement_matches_span_oracle(_pinned_report(row["curve"], row["field"]))


@pytest.mark.parametrize("curve, field", [("0,0,1,-1,0", "5;5;2"), ("5,-1,-2,1,-3", "13;13;3")])
def test_trivial_torsion_takes_no_square_root(curve, field, monkeypatch):
    # points are placed in subfields by their squares, so a quartic case with
    # no affine point takes no square root in K, not even of a subfield's m
    calls = []
    sqrt = numfield.sqrt_in_field
    for module in (numfield, ellcurve):
        monkeypatch.setattr(module, "sqrt_in_field", lambda *args: calls.append(args) or sqrt(*args))
    report = torsion_over_field(Curve.from_str(curve), parse_field_spec(field))
    assert report.structure == (1, 1) and report.field_.degree == 4
    assert calls == []


def test_no_quadratic_is_lifted(benchmark_cases, monkeypatch):
    # a rational polynomial of degree <= 2 takes the closed form of
    # `roots_in_field` in every K, QQ included, so neither field set-up nor
    # a search nor validation lifts one
    degrees = []
    lift = numfield._hensel_roots
    monkeypatch.setattr(numfield, "_hensel_roots", lambda h, K: degrees.append(h.degree) or lift(h, K))
    cases = {case for w in ("known_groups", "curve_sweep", "field_sweep") for case in benchmark_cases(w, 0)}
    for curve, field in sorted(cases | {(row["curve"], row["field"]) for row in PINNED_REPORTS}):
        torsion_over_field(Curve.from_str(curve), parse_field_spec(field))
    assert degrees and min(degrees) >= 3


def test_point_in_an_unlisted_quadratic_subfield_raises(monkeypatch):
    # (i, 1 - i) on y^2 = x^3 - x lies in QQ(i), which QQ(i, sqrt 2) has but
    # the patched list lacks: the run stops instead of filing it under K
    K = parse_field_spec("-1,2")
    monkeypatch.setattr(NumberField, "quadratic_subfields", lambda K: frozenset({2, -2}))
    with pytest.raises(InvariantViolationError, match="not a listed quadratic subfield"):
        torsion_over_field(Curve.from_str("0,0,0,-1,0"), K)


# One sha256 of json.dumps(to_json_dict(), sort_keys=True) per distinct
# (curve, field) case of seed 0 of the three benchmark workloads (138 cases).
# The benchmark checks only the structure; a change meant to leave every report
# as it is must keep these digests, and one that alters reports on purpose
# writes this file again and says why.
SEED0_DIGESTS = json.loads((Path(__file__).parent / "data" / "seed0_report_digests.json").read_text())


@cache
def _seed0_reports():
    """The report of every seed-0 case, in the order of SEED0_DIGESTS, with
    one field per field spec."""
    fields = {}
    reports = []
    for row in SEED0_DIGESTS:
        if row["field"] not in fields:
            fields[row["field"]] = parse_field_spec(row["field"])
        reports.append(torsion_over_field(Curve.from_str(row["curve"]), fields[row["field"]]))
    return reports


def test_seed0_reports_unchanged():
    assert len(SEED0_DIGESTS) == 138
    changed = []
    for row, report in zip(SEED0_DIGESTS, _seed0_reports()):
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        if hashlib.sha256(text.encode()).hexdigest() != row["sha256"]:
            changed.append(f"{row['curve']} over {row['field']}: {text}")
    assert not changed, "\n".join(changed)


def _invariants(report):
    return (report.structure, report.per_prime, report.point_definition_degrees,
            [name for name, _ in report.checks])


def _other_model(E, K):
    """E under one change of variables seeded by the case, with u in
    {+-1, +-2, +-1/2} and small rational r, s, t; returns the new curve and u."""
    rng = random.Random(f"{E}|{K}")
    u = rng.choice((1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)))
    r, s, t = (Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3))) for _ in range(3))
    return change_model(E, u, r, s, t), u


def _other_presentation(E, K):
    """K presented by the characteristic polynomial of one primitive element
    seeded by the case, with the same Galois type and, for a quartic K, the
    same quadratic subfields."""
    rng = random.Random(f"{E}|{K}|presentation")
    L = K
    while L == K:
        alpha = K.element([rng.randrange(-2, 3) for _ in range(K.degree)])
        try:
            L = NumberField(charpoly(alpha))
        except UnsupportedFieldError:
            pass  # alpha is not primitive
    assert L.galois_type is K.galois_type
    assert K.degree < 4 or L.quadratic_subfields() == K.quadratic_subfields()
    return L


@pytest.mark.parametrize("change", ["model", "presentation"])
def test_seed0_reports_invariant(change):
    # every seed-0 case under a seeded change of model of E, or over K
    # presented by another defining polynomial: the same structure,
    # per-prime parts, definition degrees and checks
    changed = []
    for report in _seed0_reports():
        E, K = report.curve, report.field_
        other = (torsion_over_field(_other_model(E, K)[0], K) if change == "model"
                 else torsion_over_field(E, _other_presentation(E, K)))
        if _invariants(other) != _invariants(report):
            changed.append(f"{E!r} over {K!r}: {_invariants(other)} != {_invariants(report)}")
    assert not changed, "\n".join(changed)


def test_sqrt_on_other_presentations():
    # the quadratic tower of K presented by a characteristic polynomial, one
    # per seed-0 field as `_other_presentation` gives it for the field's
    # first case, against the norm method
    firsts = {}
    for row in SEED0_DIGESTS:
        firsts.setdefault(row["field"], row["curve"])
    rng = random.Random(29)
    found = set()
    for field, curve in firsts.items():
        L = _other_presentation(Curve.from_str(curve), parse_field_spec(field))
        found |= sqrt_against_norm_method(L, rng)
    assert len(firsts) > 40
    assert {("fixed square", True), ("anti square", True), ("rational", True), ("rational", False)} <= found


def test_every_theorem_group_has_a_row():
    # each group of the two theorems is the answer of at least one case that
    # Tier-1 pins: a known_groups row, a witness or a seed-0 case
    rows = {}
    for curve, field, expected in PINNED_CASES + list(WITNESSES):
        rows.setdefault(parse_field_spec(field).galois_type, set()).add(expected)
    for report in _seed0_reports():
        rows.setdefault(report.galois_type, set()).add(report.structure)
    for g, table in ((GaloisType.CyclicQuartic, gt.THM_CYCLIC_QUARTIC),
                     (GaloisType.Biquadratic, gt.THM_BIQUADRATIC)):
        assert sorted(table - rows[g]) == [], g


@pytest.mark.parametrize("order", ("given", "reversed"))
def test_reports_independent_of_case_order(order, benchmark_cases):
    # each field keeps its split-prime lifts from one case to the next, so
    # the curve_sweep cases of seed 0 run on shared fields, first to last and
    # last to first, must give the pinned reports either way
    cases = benchmark_cases("curve_sweep", 0)
    if order == "reversed":
        cases.reverse()
    fields = {}

    def shared_field(spec):
        if spec not in fields:
            fields[spec] = parse_field_spec(spec)
        return fields[spec]

    changed = _changed_reports(cases, Curve.from_str, shared_field)
    assert not changed, "\n".join(changed)
    assert len(cases) == 96 and any(K._split_lifts for K in fields.values())


def _changed_reports(cases, curve_of, field_of):
    """The cases whose report differs from its pinned seed-0 digest, each
    case's curve and field built by curve_of and field_of."""
    digests = {(row["curve"], row["field"]): row["sha256"] for row in SEED0_DIGESTS}
    changed = []
    for curve, field in cases:
        report = torsion_over_field(curve_of(curve), field_of(field))
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        if hashlib.sha256(text.encode()).hexdigest() != digests[curve, field]:
            changed.append(f"{curve} over {field}: {text}")
    return changed


@pytest.mark.parametrize("order", ("given", "reversed"))
def test_reports_independent_of_case_order_on_shared_curves(order, benchmark_cases):
    # each curve keeps the factors of its division polynomials from one field
    # to the next, so the field_sweep cases of seed 0 run on shared curves and
    # fields built per case, as the benchmark runs them, first to last and
    # last to first, must give the pinned reports either way
    cases = benchmark_cases("field_sweep", 0)
    if order == "reversed":
        cases.reverse()
    curves = {}

    def shared_curve(spec):
        if spec not in curves:
            curves[spec] = Curve.from_str(spec)
        return curves[spec]

    assert not _changed_reports(cases, shared_curve, parse_field_spec)
    assert len(cases) == 32 and any(E._factor_cache for E in curves.values())


def _count_factored(monkeypatch):
    """A list of the polynomials that `factor_bounded` is asked to factor
    through `ellcurve` (a curve's factors) or `numfield` (the root search)."""
    factored = []
    for module in (ellcurve, numfield):
        monkeypatch.setattr(module, "factor_bounded",
                            lambda h, d: factored.append(h) or factor_bounded(h, d))
    return factored


@pytest.mark.parametrize("curve, fields", [
    ("1,1,1,-10,-10", ("-1,7", "37;-37;-6", "5;35;7", "13;-13;-3")),   # 15a1, psi_2
    ("1,0,1,4,-6", ("5;35;7", "30,-6", "30,11", "-6,2")),               # 14a1, psi_2 and psi_3
    ("1,-1,1,-3,3", ("30,15", "2;-14;-7", "-26,29", "5;-15;-6")),       # 26b1, psi_7
])
def test_second_field_factors_no_division_polynomial(curve, fields, monkeypatch):
    # one curve over quartic fields that search the same primes: only the
    # first factors psi_l, once per odd l; the later ones read the curve's
    # factors.  The 2-division cubic is never factored: its rational roots
    # and one quadratic cofactor give its roots in K
    E = Curve.from_str(curve)
    Ks = [parse_field_spec(f) for f in fields]
    ells = set(primefactors(reduction_bound(E, Ks[0])))
    assert all(set(primefactors(reduction_bound(E, K))) == ells for K in Ks)
    odd = [ell for ell in sorted(ells) if ell % 2]
    factored = _count_factored(monkeypatch)
    torsion_over_field(E, Ks[0])
    assert factored == [E.x_division_poly(ell) for ell in odd]
    del factored[:]
    for K in Ks[1:]:
        torsion_over_field(E, K)
    assert factored == []
    assert sorted(E._factor_cache) == [(ell, 4) for ell in odd]


def test_rational_field_factors_no_division_polynomial(monkeypatch):
    # over QQ a RatPoly is lifted directly: psi_5 of 11a1 has the rational
    # roots of its 5-torsion, which the lift finds, and it is not factored
    factored = _count_factored(monkeypatch)
    E, Q = Curve.from_str("0,-1,1,-10,-20"), rational_field()
    assert torsion_over_field(E, Q).structure == (1, 5)
    assert factored == [] and E._factor_cache == {}


# cases with one point of order 2, so that `halves` gets one e and halves it
# and a point of order 4 (Z/8 over QQ(zeta5) and 17a1 over a cyclic
# quartic), and an odd lift by m_preimages (Z/9)
M_PREIMAGE_LIFTS = [("1,1,1,35,-28", "1,1,1,1", (1, 8)), ("1,-1,1,-1,-14", "13;13;2", (1, 4)),
                    ("1,-1,1,-14,29", "1,1,1,1", (1, 9))]
PINNED_CASES = [(row["curve"], row["field"], tuple(row["report"]["structure"])) for row in PINNED_REPORTS]


def test_lift_preimages_match_the_square_root_reference(monkeypatch):
    # every preimage the lift takes, by `halves` for p = 2 and by
    # `m_preimages` for odd p, is the reference's, over the known_groups rows
    # and the cases above; m_preimages takes no square root in K
    sqrt, preimages, halves = ellcurve.sqrt_in_field, torsion.m_preimages, torsion.halves
    forbid = [False]
    paths = set()

    def guarded_sqrt(*args):
        if forbid[0]:
            raise AssertionError("square root taken in m_preimages")
        return sqrt(*args)

    def checked_preimages(E, P, K, m):
        forbid[0] = True
        try:
            out = preimages(E, P, K, m)
        finally:
            forbid[0] = False
        assert out == sqrt_reference_preimages(E, P, K, m)
        paths.add(("m_preimages", m))
        return out

    def checked_halves(E, P, K, es):
        out = halves(E, P, K, es)
        assert out == sqrt_reference_preimages(E, P, K, 2)
        paths.add(("halves", P == -P, len(es)))
        return out

    monkeypatch.setattr(ellcurve, "sqrt_in_field", guarded_sqrt)
    monkeypatch.setattr(torsion, "m_preimages", checked_preimages)
    monkeypatch.setattr(torsion, "halves", checked_halves)
    for curve, field, structure in PINNED_CASES + M_PREIMAGE_LIFTS:
        assert torsion_over_field(Curve.from_str(curve), parse_field_spec(field)).structure == structure
    assert paths == {("halves", True, 1), ("halves", True, 3), ("halves", False, 1),
                     ("halves", False, 3), ("m_preimages", 3)}


@pytest.mark.parametrize("curve, field, expected", PINNED_CASES + list(WITNESSES))
def test_generators_match_the_multiples_rule(curve, field, expected):
    # the lift trees' ancestors choose what listing each cyclic group by
    # repeated addition chooses
    report = _pinned_report(curve, field)
    assert report.structure == expected
    assert report.generators == multiples_generators(report.points, *expected)


# in Z/2 + Z/2 no g1 != g2 meets <g2> outside O, so no candidate is rejected
@pytest.mark.parametrize("curve, field, expected",
                         [c for c in PINNED_CASES + list(WITNESSES) if c[2][0] > 1 and c[2] != (2, 2)])
def test_generators_match_the_multiples_rule_in_any_order(monkeypatch, curve, field, expected):
    # the same rule under seeded orders of the points that put g2 first and
    # then every candidate g1 whose cyclic group meets <g2> outside O, so
    # that the subgroup test must reject each of them
    choose, seen = torsion._choose_generators, []
    monkeypatch.setattr(torsion, "_choose_generators", lambda *args: seen.append(args) or choose(*args))
    report = torsion_over_field(Curve.from_str(curve), parse_field_spec(field))
    ((group, d1, d2, trees),) = seen
    assert (d1, d2) == expected
    points, g2 = report.points, report.generators[1]
    span2 = {g2.scalar_mul(k) for k in range(d2)}
    meets = [P for P, n in points.items() if n == d1 and P != g2
             and any(P.scalar_mul(j) in span2 for j in range(1, d1))]
    rest = [P for P in points if P != g2 and P not in meets]
    assert meets and rest
    rng = random.Random(f"{curve} over {field}")
    for _ in range(3):
        rng.shuffle(meets)
        rng.shuffle(rest)
        rank = {P: i for i, P in enumerate([g2] + meets + rest)}
        monkeypatch.setattr(torsion, "_sort_keys", lambda pts: {P: rank[P] for P in pts})
        got = choose(group, d1, d2, trees)
        assert got == multiples_generators(points, d1, d2, key=rank.__getitem__)
        assert got[1] == g2 and got[0] not in meets


@pytest.mark.parametrize("curve, field, expected", PINNED_CASES + list(WITNESSES))
def test_integer_keys_order_as_the_fraction_keys(curve, field, expected):
    # every point of E(K)_tors, the identity included, in the one order of
    # the Fraction coordinates
    points = list(_pinned_report(curve, field).points)
    keys = torsion._sort_keys(points)
    assert len(set(keys.values())) == len(points) == prod(expected)
    assert sorted(points, key=keys.__getitem__) == sorted(points, key=point_sort_key)
    assert sorted(reversed(points), key=keys.__getitem__) == sorted(points, key=point_sort_key)


TWO_PRIME_CASES = [c for c in PINNED_CASES + list(WITNESSES) if len(primefactors(c[2][1])) > 1]


@pytest.mark.parametrize("curve, field, expected", TWO_PRIME_CASES)
def test_enumerate_group_matches_all_pairs(monkeypatch, curve, field, expected):
    # one addition per pair {(a, b), (-a, -b)} gives every sum, order and
    # component that one addition per pair gives
    enumerate_group, seen = torsion._enumerate_group, []
    monkeypatch.setattr(torsion, "_enumerate_group", lambda *args: seen.append(args) or enumerate_group(*args))
    assert torsion_over_field(Curve.from_str(curve), parse_field_spec(field)).structure == expected
    ((parts, E, K),) = seen
    assert len(parts) > 1
    add, added = ellcurve.Point.__add__, []
    monkeypatch.setattr(ellcurve.Point, "__add__", lambda a, b: added.append(1) or add(a, b))
    group = enumerate_group(parts, E, K)
    # the pairs (a, b) with a = -a and b = -b are their own partners
    pairs, n, fixed = 0, 1, 1
    for ppts in parts.values():
        own = sum(1 for b in ppts if b == -b)
        pairs += (n * len(ppts) + fixed * own) // 2
        n, fixed = n * len(ppts), fixed * own
    assert len(added) == pairs
    monkeypatch.undo()
    assert group == all_pairs_group(parts, E, K)
    assert len(group) == prod(expected)


def test_two_prime_cases_cover_cyclic_and_noncyclic_groups():
    assert {(6, 6), (2, 6), (1, 6), (1, 12), (2, 12)} <= {c[2] for c in TWO_PRIME_CASES}


def test_full_five_check_factors_nothing(monkeypatch):
    # Phi_5 is irreducible over QQ, so the full 5-torsion check hands it to
    # roots_in_field as its own factor
    factored, factor = [], numfield.factor_bounded
    monkeypatch.setattr(numfield, "factor_bounded", lambda h, d: factored.append(h) or factor(h, d))
    K = parse_field_spec("1,1,1,1")
    report = torsion_over_field(Curve.from_str("0,-1,1,-10,-20"), K)
    assert report.structure == (5, 5) and ("full_five_needs_zeta5", True) in report.checks
    assert torsion.CYCLOTOMIC5 not in factored
    # the spy sees Phi_5 where it is factored
    assert len(numfield.roots_in_field(torsion.CYCLOTOMIC5, K)) == 4
    assert torsion.CYCLOTOMIC5 in factored


def test_generator_cases_cover_every_subgroup_test():
    # l = 5 (11a1 over QQ(zeta5)), two primes l = 2, 3 (the Hesse 6x6 rows),
    # and a g2 of order 16, whose ancestor of order 2 is three levels up
    structures = {expected for _, _, expected in PINNED_CASES + list(WITNESSES)}
    assert {(5, 5), (6, 6), (2, 16)} <= structures


@pytest.mark.parametrize("curve, field, expected", PINNED_CASES + list(WITNESSES) + M_PREIMAGE_LIFTS)
def test_two_primary_lift_takes_no_polynomial_root(monkeypatch, curve, field, expected):
    # p alone picks the rule: m_preimages never halves, and the p = 2 search
    # finds no root of a polynomial over K; a point of order 4 comes from
    # `halves`, whether E(K)[2] is full or not
    preimages, halves, part = torsion.m_preimages, torsion.halves, torsion.p_primary_part
    searching_two, halved = [False], []

    def odd_only(E, P, K, m):
        if m == 2:
            raise AssertionError("m_preimages(., 2) called")
        return preimages(E, P, K, m)

    def flagged_part(E, K, p, bound):
        searching_two[0] = p == 2
        try:
            return part(E, K, p, bound)
        finally:
            searching_two[0] = False

    for module in (numfield, ellcurve, torsion):
        roots = module.roots_in_field

        def guarded_roots(h, *args, roots=roots):
            if searching_two[0] and isinstance(h, KPoly):
                raise AssertionError(f"root of {h!r} over K in the 2-primary search")
            return roots(h, *args)

        monkeypatch.setattr(module, "roots_in_field", guarded_roots)
    monkeypatch.setattr(torsion, "m_preimages", odd_only)
    monkeypatch.setattr(torsion, "halves", lambda *args: halved.append(args[1]) or halves(*args))
    monkeypatch.setattr(torsion, "p_primary_part", flagged_part)
    assert torsion_over_field(Curve.from_str(curve), parse_field_spec(field)).structure == expected
    if expected[1] % 4 == 0:
        assert halved


class TestReductionBound:
    def test_known_groups_rows(self):
        # B is the order of E(K)_tors on every row
        bounds = [reduction_bound(Curve.from_str(row["curve"]), parse_field_spec(row["field"]))
                  for row in PINNED_REPORTS]
        assert bounds == [25, 32, 16, 1, 32, 32, 32, 32, 36, 36]
        assert bounds == [a * b for a, b in (row["report"]["structure"] for row in PINNED_REPORTS)]

    def test_trivial_bound_searches_nothing(self, monkeypatch):
        # 37a1 over a cyclic quartic has B = 1, so no prime is searched
        def forbidden(*args):
            raise AssertionError("a prime was searched although B = 1")

        monkeypatch.setattr(Curve, "x_division_poly", forbidden)
        monkeypatch.setattr(torsion, "m_preimages", forbidden)
        report = torsion_over_field(Curve.from_str("0,0,1,-1,0"), parse_field_spec("5;5;2"))
        assert report.structure == (1, 1)

    def test_primes_of_the_bound_are_searched(self, monkeypatch):
        # B alone picks the primes: a spurious factor 11 of B gets psi_11
        # searched, which finds no point, so the report does not change
        E, K = Curve.from_str("0,0,1,-1,0"), parse_field_spec("5;5;2")
        expected = torsion_over_field(E, K).to_json_dict()
        bound, part = torsion.reduction_bound, torsion.p_primary_part
        searched = []

        def recording(E, K, p, pbound):
            searched.append(p)
            return part(E, K, p, pbound)

        monkeypatch.setattr(torsion, "reduction_bound", lambda E, K: 11 * bound(E, K))
        monkeypatch.setattr(torsion, "p_primary_part", recording)
        assert torsion_over_field(E, K).to_json_dict() == expected
        assert searched == [11]

    def test_non_galois_field_rejected_before_the_bound(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("reduction_bound ran over a non-Galois quartic")

        monkeypatch.setattr(torsion, "reduction_bound", forbidden)
        with pytest.raises(UnsupportedFieldError):
            torsion_over_field(Curve.from_str("0,0,0,-1,0"), parse_field_spec("-2,0,0,0"))

    def test_order_not_dividing_the_bound_raises(self, monkeypatch):
        # E(QQ(zeta5))_tors = Z/5+Z/5; with B = 5 the 25 points of order 5 are found anyway
        monkeypatch.setattr(torsion, "reduction_bound", lambda E, K: 5)
        with pytest.raises(InvariantViolationError):
            torsion_over_field(Curve.from_str("0,-1,1,-10,-20"), parse_field_spec("1,1,1,1"))

    def test_no_empty_lift_on_known_groups_rows(self, monkeypatch):
        # B is exact on these rows, so a lift runs only when it finds points
        lift_once = torsion._lift_once

        def nonempty(*args):
            out = lift_once(*args)
            assert out, "a lift found no point"
            return out

        monkeypatch.setattr(torsion, "_lift_once", nonempty)
        for row in PINNED_REPORTS:
            report = torsion_over_field(Curve.from_str(row["curve"]), parse_field_spec(row["field"]))
            assert list(report.structure) == row["report"]["structure"]
