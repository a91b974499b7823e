#!/usr/bin/env python3
"""Per-level invariant table of a bracket shift's Cantor-horizon system.

Prints vertex counts and the four level groups for the Dyck shift on N
bracket pairs, or for the Markov-Dyck shift of a 0/1 matrix given as a
JSON file like specs/markovdyck_fib.json.

Usage:
    python3 scripts/dyck_invariant_table.py --pairs 2 --depth 5
    python3 scripts/dyck_invariant_table.py --spec specs/markovdyck_fib.json --depth 6
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lgk.invariants import invariant_report
from lgk.serialize import spec_loads
from lgk.subshift import DyckN, MarkovDyck
from lgk.system import build_cantor_horizon_dyck, build_cantor_horizon_markov_dyck


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=2, help="bracket pairs (default 2)")
    parser.add_argument("--spec", help="Markov-Dyck spec JSON instead of --pairs")
    parser.add_argument("--depth", type=int, default=5, help="truncation depth (default 5)")
    args = parser.parse_args()

    try:
        if args.spec:
            spec = spec_loads(Path(args.spec).read_text())
            if not isinstance(spec, (DyckN, MarkovDyck)):
                print("error: spec is not a bracket shift", file=sys.stderr)
                return 2
            matrix = spec.matrix
            label = f"Markov-Dyck {matrix}"
            system = build_cantor_horizon_markov_dyck(matrix, args.depth)
        else:
            label = f"Dyck shift, {args.pairs} bracket pairs"
            system = build_cantor_horizon_dyck(args.pairs, args.depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = invariant_report(system)
    print(label)
    print(f"{'level':<6} {'vertices':<9} {'K0':<16} {'K1':<6} {'BF0':<8} {'BF1':<10}")
    for g in report.groups:
        print(
            f"{g.level:<6} {report.sizes[g.level]:<9} {str(g.k0):<16} "
            f"{str(g.k1):<6} {str(g.bf0):<8} {str(g.bf1):<10}"
        )
    # the deepest level has vertices but no gap below it
    print(f"{args.depth:<6} {report.sizes[-1]:<9} {'-':<16} {'-':<6} {'-':<8} {'-':<10}")
    if report.stabilized.is_yes:
        print(f"stabilized from level {report.stabilized.witness}")
    else:
        print(f"not stabilized within the truncation ({report.stabilized.note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
