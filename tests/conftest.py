"""Fixtures shared by the test modules."""

import sys
from pathlib import Path

import pytest

from quartic_torsion.ellcurve import curve_points_y
from quartic_torsion.numfield import KPoly, roots_in_field


def sqrt_reference_preimages(E, P, K, m):
    """All Q in E(K) with [m]Q = P, found the slow way: each root x of
    phi_m - x_P psi_m^2 gets its y by a square root in K, and [m] decides
    which of the points above x maps to P.  The reference for `m_preimages`,
    which takes neither the square root nor the multiple."""
    phi, psi_sq = E.mult_by_m_xmap(m)
    h = KPoly.from_ratpoly(K, phi) - KPoly.from_ratpoly(K, psi_sq).scale(P.x)
    return {Q for x in roots_in_field(h, K) for Q in curve_points_y(E, x, K)
            if Q.scalar_mul(m) == P}


@pytest.fixture
def sqrt_reference():
    return sqrt_reference_preimages


def _benchmark_cases(workload, seed):
    """The (curve spec, field spec) cases of one run of the benchmark's
    workload at that seed (`perfbench/workloads.py`)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.cases(workload, seed)


@pytest.fixture
def benchmark_cases():
    return _benchmark_cases
