"""Record the goldens every benchmark pass is checked against.

    python3 lgkbench/record_goldens.py

Run from the repository root on the commit whose outputs are the reference.
For each job it stores the exit code and the sha256 of stdout (and of the
file a ``build --out`` job writes).  For every spec of the ``quotient``
pool it also stores the spec's sha256 and its median cost over
``COST_PASSES`` passes, which ``workloads.strata`` ranks the pool by.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import run_pass, scratch_dir  # noqa: E402

COST_PASSES = 3


def golden(record: dict) -> dict:
    if not isinstance(record["rc"], int):
        raise SystemExit(f"job {record['id']} failed: {record['rc']}")
    return {k: record[k] for k in ("rc", "stdout", "out") if k in record}


def main() -> int:
    root = Path.cwd()
    goldens: dict = {}
    with scratch_dir(root) as work:
        for name in ("horizon", "census"):
            records = run_pass(root, workloads.jobs_for(name, root, 0, work), work)["jobs"]
            goldens[name] = {r["id"]: golden(r) for r in records}
            print(f"{name}: {len(records)} jobs recorded", flush=True)
        texts = workloads.pool()
        names = [workloads.pool_name(i) for i in range(len(texts))]
        jobs = workloads.quotient_jobs(root, 0, work, names=names)
        costs: dict[str, list[float]] = {}
        for k in range(COST_PASSES):
            records = run_pass(root, jobs, work)["jobs"]
            pass_goldens = {r["id"]: golden(r) for r in records}
            if k == 0:
                goldens["quotient"] = pass_goldens
            elif pass_goldens != goldens["quotient"]:
                raise SystemExit("quotient outputs differ between passes")
            spec_cost: dict[str, float] = {}
            for r in records:
                spec = r["id"].split("/")[0]
                spec_cost[spec] = spec_cost.get(spec, 0.0) + r["wall_s"]
            for spec, cost in spec_cost.items():
                costs.setdefault(spec, []).append(cost)
            print(f"quotient pass {k + 1}/{COST_PASSES}: {len(records)} jobs", flush=True)
    goldens["quotient_specs"] = {name: workloads.sha256_text(text) for name, text in zip(names, texts)}
    goldens["quotient_cost_s"] = {name: round(statistics.median(costs[name]), 4) for name in names}
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
