"""The infinite families of curve and biquadratic field that realize the
groups (2, 16), (4, 8) and (6, 6) of the classification.

Each constructor is pure: it returns the curve, the field (None where the
parameter collapses it to a quadratic field) and the group the family is
published to reach.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import squarefree_part_rational
from .ellcurve import Curve
from .numfield import NumberField, biquadratic_field


class FamilyId(enum.Enum):
    FUJITA_2x16 = "fujita"
    JKL_4x8 = "jkl_4x8"
    JKL_6x6 = "jkl_6x6"


@dataclass
class FamilyPoint:
    family: FamilyId
    parameter: Fraction
    curve: Curve
    field_: NumberField | None
    expected: tuple[int, int]


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


def family_jkl(variant: str, t) -> FamilyPoint:
    """The two biquadratic families expecting (4, 8) and (6, 6).

    For the 4x8 family the printed source equation repeats the x^3 term; the
    model used reads the second of those terms as x^2."""
    t = Fraction(t)
    if variant == "4x8":
        if t in (0, 1, -1):
            raise ValueError("parameter t must avoid 0, +-1")
        nu = (t**4 - 6 * t**2 + 1) / (4 * (t**2 + 1) ** 2)
        c = nu * nu - Fraction(1, 16)
        E = Curve([1, -c, -c, 0, 0])
        m2 = squarefree_part_rational(t**4 - 6 * t**2 + 1)
        K = None if m2 == -1 else biquadratic_field(-1, m2)
        return FamilyPoint(FamilyId.JKL_4x8, t, E, K, (4, 8))
    if variant == "6x6":
        if t in (0, 1, Fraction(-1, 2)):
            raise ValueError("parameter t must avoid 0, 1, -1/2")
        mu = (2 * t**3 + 1) / (3 * t**2)
        E = Curve([0, 0, 0, -27 * mu * (mu**3 + 8), 54 * (mu**6 - 20 * mu**3 - 8)])
        m2 = squarefree_part_rational(8 * t**3 + 1)
        K = None if m2 == -3 else biquadratic_field(-3, m2)
        return FamilyPoint(FamilyId.JKL_6x6, t, E, K, (6, 6))
    raise ValueError(f"unknown family variant {variant!r}")
