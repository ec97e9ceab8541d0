"""Rebuild pool.json, the frozen case pools of the sweeps.

    python3 perfbench/freeze.py

For each sweep it walks the seed-POOL_SEED case stream and keeps the first
POOL_PER_GROUP cases of each curve_sweep field or field_sweep curve, running
each one twice in a closed loop as run.py does.  A kept case records the
engine's structure, which must divide the oracle bound and be the same in
both runs, and its cost: the smaller of the two times in reference seconds
(refclock), the second run being the one with warm curve caches on
field_sweep.  A case still running after FREEZE_CAP_S wall seconds is
stopped and listed under "excluded" instead: no run could finish it within
its time limit.  Freezing the engine's own output makes a later change to any
answer visible; it is not an independent check (that is the oracle's).
"""

from __future__ import annotations

import json

import oracle
import refclock
import workloads
from run import Workload, run_cases

FREEZE_CAP_S = 10


def freeze(workload: str) -> tuple[list, list]:
    wl = Workload(workload)
    want = workloads.POOL_PER_GROUP[workload]
    kept: dict[str, list] = {g: [] for g in workloads.GROUPS[workload]}
    excluded = []
    for curve, field in workloads.case_stream(workload, workloads.POOL_SEED):
        group = kept[workloads.group_of(workload, curve, field)]
        if len(group) == want:
            if all(len(g) == want for g in kept.values()):
                break
            continue
        costs, structures = [], set()
        for _ in range(2):
            with refclock.Sampler() as sampler:
                (res,), _ = run_cases(wl, [(curve, field)], limit_s=FREEZE_CAP_S)
                n, unit_s, spent = sampler.take()
            if res[4] is not None:
                break
            if n == 0:
                n, unit_s = 1, refclock.reference_unit()
            costs.append((res[3] - spent) * refclock.scale(n, unit_s))
            structures.add(res[2])
        if res[4] is not None:
            reason = res[4].strip().splitlines()[-1]
            excluded.append([workload, curve, field, reason])
            print(f"excluded {curve} over {field}: {reason}", flush=True)
            continue
        if len(structures) != 1:
            raise SystemExit(f"{curve} over {field}: structures {structures} differ")
        (d1, d2), cost = res[2], min(costs)
        B, _ = oracle.torsion_order_bound(curve, field)
        if B % (d1 * d2):
            raise SystemExit(f"{curve} over {field}: structure {(d1, d2)} "
                             f"does not divide the bound {B}")
        group.append([curve, field, [d1, d2], round(cost, 4)])
    rows = [row for g in kept.values() for row in g]
    print(f"{workload}: {len(rows)} cases, {sum(r[3] for r in rows):.1f} reference s",
          flush=True)
    return rows, excluded


def main() -> None:
    pool = {"excluded": []}
    for name in workloads.RUN_PER_GROUP:
        pool[name], excluded = freeze(name)
        pool["excluded"] += excluded
    parts = [f'"{k}": [\n' + ",\n".join(json.dumps(r) for r in v) + "\n]"
             for k, v in pool.items()]
    workloads.POOL.write_text("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    main()
