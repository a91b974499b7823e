"""One benchmark pass: a fresh interpreter runs a job list through ``lgk.cli.main``.

    python3 passrun.py --root CHECKOUT --probe
    python3 passrun.py --root CHECKOUT --jobs JOBS.json --result OUT.json [--spans SPANS.json.gz]

``--probe`` only imports ``lgk.cli`` and prints the monotonic clock, so the
caller can time interpreter start-up.  A pass writes, per job, the exit
code, the sha256 of stdout and of the file the job wrote, and its wall and
CPU time; with ``--spans`` the calls into each module are traced as well,
and the tracer's cost per call is measured after the jobs.

``lgk.linalg`` imports numpy lazily, on its first large Smith normal form,
so that import is part of the job that triggers it, not of ``--probe``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import lgk.cli

    if not Path(lgk.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"lgk imported from {lgk.cli.__file__}, not from {src}")
    return lgk.cli


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_job(cli, job: dict) -> dict:
    os.chdir(job["cwd"])
    out, err = io.StringIO(), io.StringIO()
    start_cpu, start = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job["argv"]))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raise is a failed job, not a failed pass
        rc = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    record = {"id": job["id"], "rc": rc, "stdout": _sha256(out.getvalue().encode("utf-8")), "wall_s": wall, "cpu_s": cpu}
    if job.get("out"):
        path = Path(job["cwd"]) / job["out"]
        record["out"] = _sha256(path.read_bytes()) if path.exists() else None
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--jobs")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()
    cli = _import_cli(Path(args.root))
    ready = time.monotonic()
    if args.probe:
        print(repr(ready))
        return 0
    jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    tracer = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, wrapper_cost_ns

        tracer = Tracer()
        tracer.install()
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        records.append(run_job(cli, job))
    result = {
        "ready_monotonic": ready,
        "jobs": records,
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = {**tracer.summary(), "wrapper_ns": wrapper_cost_ns()}
        tracer.write_spans(args.spans, result["trace"])
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
