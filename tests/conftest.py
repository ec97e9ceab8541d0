"""Fixtures shared by the test modules."""

import sys
from pathlib import Path

import pytest


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
