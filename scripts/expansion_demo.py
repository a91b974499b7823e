#!/usr/bin/env python3
"""Invariance of the level groups under symbol expansion, on live examples.

Runs the expansion comparison for a batch of subshifts: each spec is
expanded at one symbol, both systems are built and their invariant reports
compared.  Finite-type and sofic examples compare stable groups; bracket
shifts, whose free ranks grow with the level, compare torsion chains level
by level.  Every example runs at depth 6: an expanded bracket shift builds
from the left interfaces of its synchronizing words, so it is as cheap as
its base.

Usage:
    python3 scripts/expansion_demo.py
    python3 scripts/expansion_demo.py --bracket-depth 8   # deeper bracket examples
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgk.flow import expand_spec, plan_for
from lgk.invariants import compare_reports, invariant_report
from lgk.serialize import spec_loads
from lgk.subshift import DEFAULT_BUDGET
from lgk.system import build_lambda_synchronizing

SPECS = Path(__file__).resolve().parent.parent / "specs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bracket-depth", type=int, default=None,
        help="override the per-case depths of the bracket examples",
    )
    args = parser.parse_args()

    bracket_depth = 6 if args.bracket_depth is None else args.bracket_depth
    cases = [
        ("goldenmean.json", "1", 6),
        ("even_shift.json", "0", 6),
        ("full2.json", "0", 6),
        ("full3.json", "0", 6),
        ("dyck2.json", "a1", bracket_depth),
        ("markovdyck_fib.json", "b1", bracket_depth),
    ]
    failures = 0
    try:
        for name, symbol, depth in cases:
            spec = spec_loads((SPECS / name).read_text())
            plan = plan_for(spec.alphabet, symbol)
            # the CLI's rule: the depth cap rises to the depth asked for
            budget = replace(DEFAULT_BUDGET, max_depth=max(DEFAULT_BUDGET.max_depth, depth))
            started = time.monotonic()
            base = invariant_report(build_lambda_synchronizing(spec, depth, budget))
            expanded = invariant_report(
                build_lambda_synchronizing(expand_spec(spec, plan), depth, budget)
            )
            verdict, note = compare_reports(base, expanded)
            elapsed = time.monotonic() - started
            print(f"{name:<22} expand {symbol!r:<5} depth {depth}  "
                  f"{verdict.upper():<12} {elapsed:6.2f}s  {note}")
            failures += verdict == "fail"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
