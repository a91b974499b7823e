"""The lgk benchmark: seeded workloads through ``lgk.cli.main``, checked against goldens.

    python3 lgkbench/run.py --workload {horizon,census,quotient} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each pass is one fresh interpreter that runs
the workload's jobs in sequence (closed loop, one client), so the
``lru_cache``s of ``lgk.subshift`` start empty in every pass.  With
``--trace 0`` passes repeat while another one is expected to end within
``--seconds``, but at least ``MIN_PASSES`` times, and the end-to-end metrics
are medians over passes.
``setup_s`` also takes ``SETUP_PROBES`` start-up probes before every pass,
so its samples spread over the whole run like the passes do.  With
``--trace 1`` one untraced and one traced pass run, and the per-layer
metrics come from the traced one (see ``layers.py``).  Every job's exit code
and output hashes are checked against ``goldens.json``; the last line of
stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

PASSRUN = HERE / "passrun.py"
WORK_DIR = ".lgkbench"  # under the checkout root; listed in .gitignore
SETUP_PROBES = 3  # per pass
MIN_PASSES = 3  # so that one slow pass cannot set a median
PASS_TIMEOUT_S = 170
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Children may write bytecode caches, as an installed package has them, so
# setup_s does not depend on whether the caller's shell disabled them.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


@contextlib.contextmanager
def scratch_dir(root: Path):
    base = root / WORK_DIR
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def probe_setup(root: Path) -> float:
    """Seconds from spawning an interpreter until ``lgk.cli`` is imported."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(PASSRUN), "--root", str(root), "--probe"],
        capture_output=True, text=True, check=True, timeout=PASS_TIMEOUT_S, env=CHILD_ENV,
    )
    return float(done.stdout.strip()) - start


def run_pass(root: Path, jobs: list, work: Path, spans: Path | None = None) -> dict:
    job_file = work / "jobs.json"
    result_file = work / "result.json"
    job_file.write_text(json.dumps([asdict(j) for j in jobs]), encoding="utf-8")
    cmd = [sys.executable, str(PASSRUN), "--root", str(root), "--jobs", str(job_file), "--result", str(result_file)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    subprocess.run(cmd, check=True, timeout=PASS_TIMEOUT_S, env=CHILD_ENV)
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready_monotonic"] - start
    return result


def mismatches(records: list[dict], golden: dict) -> list[str]:
    """Ids of jobs whose exit code or output hashes differ from the golden."""
    bad = []
    for record in records:
        expected = golden.get(record["id"])
        got = {k: record[k] for k in ("rc", "stdout", "out") if k in record}
        if expected is None or got != expected:
            bad.append(record["id"])
    return bad


def check_inputs(workload: str, work: Path, goldens: dict) -> list[str]:
    """Generated quotient specs whose bytes differ from the recorded pool."""
    if workload != "quotient":
        return []
    expected = goldens["quotient_specs"]
    return [
        path.stem for path in sorted(work.glob("p[0-9][0-9][0-9].json"))
        if workloads.sha256_text(path.read_text(encoding="utf-8")) != expected.get(path.stem)
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lgk benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/lgk/cli.py", "specs") if not (root / p).exists()]
    if missing:
        print(f"error: run from the lgk repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    goldens = workloads.load_goldens()
    golden = goldens[args.workload]

    with scratch_dir(root) as work:
        jobs = workloads.jobs_for(args.workload, root, args.seed, work)
        bad_inputs = check_inputs(args.workload, work, goldens)
        passes: list[dict] = []
        traced = None
        if args.trace:
            passes.append(run_pass(root, jobs, work))
            spans = root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
            traced = run_pass(root, jobs, work, spans=spans)
        else:
            start = time.monotonic()
            probe_setup(root)  # warm-up: the first import may write bytecode caches
            setups: list[float] = []
            longest = 0.0
            while True:
                began = time.monotonic()
                setups += [probe_setup(root) for _ in range(SETUP_PROBES)]
                passes.append(run_pass(root, jobs, work))
                now = time.monotonic()
                longest = max(longest, now - began)
                if len(passes) >= MIN_PASSES and now - start + longest > args.seconds:
                    break

    runs = passes + ([traced] if traced else [])
    failed_ids = [i for p in runs for i in mismatches(p["jobs"], golden)] + bad_inputs
    attempted = sum(len(p["jobs"]) for p in runs) + len(bad_inputs)

    if traced is None:
        samples = {name: [p[name] for p in passes] for name in END_TO_END}
        samples["setup_s"] = setups + samples["setup_s"]
        metrics = {name: metric(statistics.median(samples[name]), unit) for name, unit in END_TO_END.items()}
    else:
        metrics = layers.per_layer(traced["trace"])
        metrics["trace.wall_s"] = metric(traced["wall_s"], "s")
        metrics["trace.overhead_s"] = metric(traced["wall_s"] - passes[0]["wall_s"], "s")
        for key in layers.missing(traced["trace"]):
            print(f"note: {key} does not exist in this lgk; its metrics read 0")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(runs)}  trace {args.trace}")
    print(f"jobs attempted {attempted}  failed {len(failed_ids)}  failed_share {len(failed_ids) / attempted:.4f}")
    for job_id in failed_ids:
        print(f"  FAILED {job_id}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']} {m['unit']}")
    result = {"correct": not failed_ids, "attempted": attempted, "failed": len(failed_ids), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
