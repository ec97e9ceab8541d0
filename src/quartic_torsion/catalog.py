"""Classification tables as data, verdict logic, the quadratic growth table,
the infinite-family constructors, and the torsion-preserving quadratic
extension search.

Tables are immutable singletons; family constructors and searches are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import grouptables as gt
from .errors import DataFormatError, EngineError, UnsupportedFieldError
from .exactmath import Rational, squarefree_part_rational
from .ellcurve import Curve
from .numfield import GaloisType, NumberField, biquadratic_field, quadratic_field
from .torsion import TorsionReport, TorsionStructure, torsion_over_field


class TableId(enum.Enum):
    MAZUR = "MAZUR"
    KKM_QUAD = "KKM_QUAD"
    NAJMAN_QUAD_RAT = "NAJMAN_QUAD_RAT"
    NAJMAN_CUBIC_RAT = "NAJMAN_CUBIC_RAT"
    THM_GALOIS_QUARTIC = "THM_GALOIS_QUARTIC"
    THM_CYCLIC_QUARTIC = "THM_CYCLIC_QUARTIC"
    THM_BIQUADRATIC = "THM_BIQUADRATIC"
    FUJITA_L = "FUJITA_L"
    BN_EXCLUDED_QUARTIC = "BN_EXCLUDED_QUARTIC"
    ZETA5_LIST = "ZETA5_LIST"
    CM_QUARTIC = "CM_QUARTIC"


TABLES: dict[TableId, frozenset[tuple[int, int]]] = {
    TableId.MAZUR: gt.MAZUR,
    TableId.KKM_QUAD: gt.KKM_QUAD,
    TableId.NAJMAN_QUAD_RAT: gt.NAJMAN_QUAD_RAT,
    TableId.NAJMAN_CUBIC_RAT: gt.NAJMAN_CUBIC_RAT,
    TableId.THM_GALOIS_QUARTIC: gt.THM_GALOIS_QUARTIC,
    TableId.THM_CYCLIC_QUARTIC: gt.THM_CYCLIC_QUARTIC,
    TableId.THM_BIQUADRATIC: gt.THM_BIQUADRATIC,
    TableId.FUJITA_L: gt.FUJITA_L,
    TableId.BN_EXCLUDED_QUARTIC: gt.BN_EXCLUDED_QUARTIC,
    TableId.ZETA5_LIST: gt.ZETA5_LIST,
    TableId.CM_QUARTIC: gt.CM_QUARTIC,
}


def table_lookup(g, table: TableId) -> bool:
    """Exact membership of Z/d1 + Z/d2 in a classification table."""
    pair = g.as_pair() if isinstance(g, TorsionStructure) else tuple(g)
    return pair in TABLES[table]


def tables_as_json() -> dict:
    return {tid.value: sorted(list(map(list, TABLES[tid]))) for tid in TableId}


@dataclass
class Verdict:
    consistent: bool
    details: list[str]

    def __bool__(self):
        return self.consistent


def verdict(report: TorsionReport) -> Verdict:
    """Does a computed structure conform to the classification for its field
    type?  Always also checks the excluded-subgroups list, and the cyclotomic
    list when the field contains a fifth root of unity."""
    pair = tuple(report.structure)
    g = report.galois_type
    details: list[str] = []
    table = {
        GaloisType.Rational: TableId.MAZUR,
        GaloisType.Quadratic: TableId.NAJMAN_QUAD_RAT,
        GaloisType.CyclicQuartic: TableId.THM_CYCLIC_QUARTIC,
        GaloisType.Biquadratic: TableId.THM_BIQUADRATIC,
    }.get(g)
    if table is None:
        return Verdict(False, [f"unsupported galois type {g}"])
    if pair not in TABLES[table]:
        details.append(f"{pair} not in {table.value}")
    if report.field_.degree == 4 and pair in gt.BN_EXCLUDED_QUARTIC:
        details.append(f"{pair} is an excluded quartic subgroup")
    if report.field_.degree == 4 and _contains_zeta5(report.field_):
        if pair not in gt.ZETA5_LIST:
            details.append(f"{pair} not in the fifth-cyclotomic list")
    return Verdict(not details, details)


def _contains_zeta5(K: NumberField) -> bool:
    from .numfield import roots_in_field
    from .torsion import CYCLOTOMIC5

    if 5 not in K.quadratic_subfields():
        return False
    return bool(roots_in_field(CYCLOTOMIC5, K))


def growth_consistency(g_q, g_f) -> tuple[bool, str | None]:
    """Is (E(QQ), E(F)) an allowed quadratic-growth pair?  Structures outside
    the table's row keys are vacuously consistent, with a warning."""
    key = g_q.as_pair() if isinstance(g_q, TorsionStructure) else tuple(g_q)
    val = g_f.as_pair() if isinstance(g_f, TorsionStructure) else tuple(g_f)
    row = gt.GROWTH_QUADRATIC.get(key)
    if row is None:
        return True, f"no growth row for {key}"
    return val in row, None


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class FamilyId(enum.Enum):
    FUJITA_2x16 = "fujita"
    JKL_4x8 = "jkl_4x8"
    JKL_6x6 = "jkl_6x6"
    J78608 = "j78608"


@dataclass
class FamilyPoint:
    family: FamilyId
    parameter: Fraction
    curve: Curve
    field_: NumberField | None
    expected: tuple[int, int] | None
    variant: str | None = None


def family_fujita(t: int) -> FamilyPoint:
    """y^2 = x (x + (t^2-1)^4)(x + (2t)^4) over
    QQ(sqrt(t(t^2-1)), sqrt((t^2-1)(t^2+1)(t^2+2t-1))), expecting (2, 16)."""
    t = int(t)
    if t <= 1:
        raise ValueError("parameter must be an integer > 1")
    u = (t * t - 1) ** 4
    v = (2 * t) ** 4
    E = Curve([0, u + v, 0, u * v, 0])
    m1 = squarefree_part_rational(Fraction(t * (t * t - 1)))
    m2 = squarefree_part_rational(Fraction((t * t - 1) * (t * t + 1) * (t * t + 2 * t - 1)))
    K = biquadratic_field(m1, m2)
    return FamilyPoint(FamilyId.FUJITA_2x16, Fraction(t), E, K, (2, 16))


def family_jkl(variant: str, t, equation: str = "x_squared") -> FamilyPoint:
    """The two biquadratic families expecting (4, 8) and (6, 6).

    For the 4x8 family the printed source equation repeats the x^3 term; the
    equation switch selects "as_printed" (normalized to a valid model by
    rescaling) or the "x_squared" reading (default)."""
    t = Fraction(t)
    if variant == "4x8":
        if t in (0, 1, -1):
            raise ValueError("parameter t must avoid 0, +-1")
        nu = (t**4 - 6 * t**2 + 1) / (4 * (t**2 + 1) ** 2)
        c = nu * nu - Fraction(1, 16)
        if equation == "x_squared":
            E = Curve([1, -c, -c, 0, 0])
        elif equation == "as_printed":
            # y^2 + xy - cy = (1-c) x^3, rescaled by (1-c) to a unit cubic term
            E = Curve([1, 0, -c * (1 - c), 0, 0])
        else:
            raise ValueError(f"unknown equation variant {equation!r}")
        m2 = squarefree_part_rational(t**4 - 6 * t**2 + 1)
        K = None if m2 == -1 else biquadratic_field(-1, m2)
        return FamilyPoint(FamilyId.JKL_4x8, t, E, K, (4, 8), variant=equation)
    if variant == "6x6":
        if t in (0, 1, Fraction(-1, 2)):
            raise ValueError("parameter t must avoid 0, 1, -1/2")
        mu = (2 * t**3 + 1) / (3 * t**2)
        E = Curve([0, 0, 0, -27 * mu * (mu**3 + 8), 54 * (mu**6 - 20 * mu**3 - 8)])
        m2 = squarefree_part_rational(8 * t**3 + 1)
        K = None if m2 == -3 else biquadratic_field(-3, m2)
        return FamilyPoint(FamilyId.JKL_6x6, t, E, K, (6, 6))
    raise ValueError(f"unknown family variant {variant!r}")


def family_j78608(s) -> FamilyPoint:
    """y^2 = x (x^2 + 10 s x + 5 s^2): constant j-invariant 78608."""
    s = Fraction(s)
    if s == 0:
        raise ValueError("parameter s must be nonzero (singular curve)")
    E = Curve([0, 10 * s, 0, 5 * s * s, 0])
    assert E.j == 78608
    return FamilyPoint(FamilyId.J78608, s, E, None, None)


# ---------------------------------------------------------------------------
# torsion-preserving quadratic extension (existence search)
# ---------------------------------------------------------------------------


def torsion_preserving_quadratic(E: Curve, F1: NumberField, bound: int = 200) -> int:
    """Smallest |d| (d squarefree, sqrt(d) not in F1) such that extending
    F1 by sqrt(d) leaves E's torsion unchanged.  Existence is guaranteed, so
    exhausting the bound signals a bug and raises."""
    if F1.degree != 2:
        raise UnsupportedFieldError("base field must be quadratic")
    base = torsion_over_field(E, F1, _validate=False).structure
    m1 = next(iter(quadratic_m(F1)))
    for d in _squarefree_candidates(bound):
        if d == m1:
            continue
        K = biquadratic_field(m1, d)
        ext = torsion_over_field(E, K, _validate=False).structure
        if ext == base:
            return d
    raise EngineError(
        f"no torsion-preserving quadratic extension with |d| <= {bound}: "
        f"this contradicts a guaranteed-existence result and signals a bug")


def quadratic_m(F: NumberField) -> frozenset[int]:
    """The squarefree integer presenting a quadratic field."""
    if F.degree != 2:
        raise UnsupportedFieldError("quadratic fields only")
    p, q = F.defining_poly.coeffs[1], F.defining_poly.coeffs[0]
    return frozenset({squarefree_part_rational(p * p - 4 * q)})


def _squarefree_candidates(bound: int):
    yield -1
    n = 2
    while n <= bound:
        if squarefree_part_rational(Fraction(n)) == n:
            yield n
            yield -n
        n += 1
