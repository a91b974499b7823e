"""Byte identity of the CLI over every bundled spec.

Each job runs `lgk.cli.main` in-process from the repository root and is
compared by exit code and the sha256 of its stdout against
tests/cli_goldens.json.  Besides the specs, the jobs read
tests/non_intertwining_system.json, a small system whose matrices fail
the intertwining identity between levels 1 and 2, so the failing branch
of `verify` and the BROKEN connecting map of `invariants` are pinned too,
and tests/two_loops_system.json, a constant system (two disjoint loops
read as x, one also as y) on which condition (I), both irreducibilities
and the synchronizing-system property are refuted outright.
A change that alters any output byte of these jobs fails here, so
simplifications and speed-ups can be checked for identical output.  To
re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lgk.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "cli_goldens.json"
BRACKET = ("dyck2", "dyck3", "markovdyck_fib")


def _jobs() -> list[tuple[str, ...]]:
    jobs = []
    for path in sorted((ROOT / "specs").glob("*.json")):
        depth = "4" if path.stem in BRACKET else "8"
        for command in ("invariants", "verify"):
            for fmt in ("json", "text"):
                jobs.append((command, "--spec", f"specs/{path.name}", "--depth", depth, "--format", fmt))
        jobs.append(("build", "--spec", f"specs/{path.name}", "--depth", depth, "--format", "json"))
    for name in ("goldenmean", "even_shift"):
        jobs.append(("build", "--spec", f"specs/{name}.json", "--depth", "16", "--format", "json"))
    for command in ("invariants", "verify"):
        for fmt in ("json", "text"):
            jobs.append((command, "--system", "tests/non_intertwining_system.json", "--format", fmt))
    # A constant system whose four decidable checks all say `no`.
    for fmt in ("json", "text"):
        jobs.append(("verify", "--system", "tests/two_loops_system.json", "--format", fmt))
    jobs += [
        ("flowcheck", "--spec", "specs/markovdyck_fib.json", "--depth", "3", "--expand", "a1"),
        ("flowcheck", "--spec", "specs/dyck2.json", "--depth", "3", "--expand", "b1"),
        ("flowcheck", "--spec", "specs/dyck2.json", "--depth", "3", "--expand", "a1", "--format", "json"),
        ("flowcheck", "--spec", "specs/goldenmean.json", "--depth", "8", "--expand", "1", "--format", "json"),
        # Deeper class censuses of the expanded bracket shifts.
        ("flowcheck", "--spec", "specs/dyck2.json", "--depth", "4", "--expand", "a1", "--format", "json"),
        ("flowcheck", "--spec", "specs/markovdyck_fib.json", "--depth", "4", "--expand", "a1", "--format", "json"),
    ]
    # The jobs of the benchmark's `horizon` workload, whose walkers dominate.
    for command in ("invariants", "verify"):
        jobs.append((command, "--spec", "specs/dyck3.json", "--depth", "5", "--format", "json"))
    jobs.append(("invariants", "--spec", "specs/markovdyck_fib.json", "--depth", "11", "--format", "json"))
    jobs.append(("verify", "--spec", "specs/markovdyck_fib.json", "--depth", "12", "--format", "json"))
    # The depth at which the dynamical checks' per-start reads cost most.
    jobs.append(("verify", "--spec", "specs/dyck3.json", "--depth", "6", "--format", "json"))
    # Shallow truncations, where the checks shorten their own searches:
    # condition (I) walks of length 1 and 2, no pair search below depth 3,
    # and bridges of length 1 at depth 3.
    for depth in ("1", "2", "3"):
        jobs.append(("verify", "--spec", "specs/goldenmean.json", "--depth", depth, "--format", "json"))
    jobs.append(("verify", "--spec", "specs/dyck2.json", "--depth", "3", "--format", "text"))
    return jobs


def _run(job: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(job))
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("job", _jobs(), ids=" ".join)
def test_cli_output_matches_golden(job, monkeypatch):
    monkeypatch.chdir(ROOT)
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert _run(job) == goldens[" ".join(job)]


NUMPY_FREE = """
import builtins
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
_import = builtins.__import__


def _report_numpy(name, *args, **kwargs):
    if name.partition(".")[0] == "numpy":
        sys.stderr.write("numpy import attempted\\n")
    return _import(name, *args, **kwargs)


builtins.__import__ = _report_numpy
from lgk.cli import main
sys.exit(main(["invariants", "--spec", "specs/dyck3.json", "--depth", "5", "--format", "json"]))
"""


def test_invariants_run_without_numpy():
    """The package has no runtime dependencies: with numpy unimportable, a
    horizon job with Smith forms of up to 243x81 gives its golden bytes
    and never even tries to import numpy."""
    job = "invariants --spec specs/dyck3.json --depth 5 --format json"
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE],
        cwd=ROOT,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert run.returncode == 0, run.stderr.decode()
    assert b"numpy import attempted" not in run.stderr
    assert goldens[job] == {"exit": 0, "stdout_sha256": hashlib.sha256(run.stdout).hexdigest()}
    assert goldens[job]["stdout_sha256"].startswith("3d96e100bd9b")


if __name__ == "__main__":
    os.chdir(ROOT)
    record = {" ".join(job): _run(job) for job in _jobs()}
    GOLDENS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
