"""Times the benchmark's set-up of a workload in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing the engine and building the workload's fixed objects
(`run.Workload`).  Prints one JSON object: the wall seconds and the reference
seconds (see `refclock`) it took.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import refclock  # noqa: E402

with refclock.Sampler() as sampler:
    import run  # noqa: E402

    run.Workload(sys.argv[1])
    n, unit_s, spent = sampler.take()
    wall = time.perf_counter() - _T0 - spent
if n == 0:
    n, unit_s = 1, refclock.reference_unit()
print(json.dumps({"wall_s": wall, "scaled_s": wall * refclock.scale(n, unit_s)}))
