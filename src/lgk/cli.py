"""Command-line interface.

Subcommands: build, verify, invariants, expand, flowcheck, export-dot.
Exit codes: 0 success / checks pass, 1 a check fails, 2 invalid input,
3 inconclusive within the configured depth or budget, or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys as _sys
from typing import Optional

from .analysis import (
    check_condition_I,
    check_iota_irreducible,
    check_lambda_irreducible,
    check_synchronizingly_transitive,
    is_lambda_synchronizing_system,
    simplicity_prediction,
)
from .invariants import compare_reports, invariant_report
from .serialize import (
    dumps,
    export_dot,
    report_dumps,
    report_to_payload,
    spec_dumps,
    spec_loads,
    system_dumps,
    system_loads,
    verdict_payload,
)
from .subshift import Budget, DEFAULT_BUDGET, SubshiftSpec
from .system import VERIFIER_ORDER, LambdaGraphSystem, build_lambda_synchronizing, verify_all
from .flow import expand_spec, plan_for
from .verdict import Verdict

PASS, FAIL, INVALID, INCONCLUSIVE = 0, 1, 2, 3


def _budget(args: argparse.Namespace, depth: int) -> Budget:
    words = DEFAULT_BUDGET.max_words
    env = os.environ.get("LGK_BUDGET")
    if env is not None:
        try:
            words = int(env)
        except ValueError:
            raise ValueError(f"LGK_BUDGET must be an integer, got {env!r}") from None
    if getattr(args, "budget", None) is not None:
        words = args.budget
    if words < 0:
        raise ValueError(f"word budget must be >= 0, got {words}")
    return Budget(max_words=words, max_depth=max(DEFAULT_BUDGET.max_depth, depth))


def _read_spec(path: Optional[str]) -> SubshiftSpec:
    if not path:
        raise ValueError("provide --spec")
    with open(path, "r", encoding="utf-8") as fh:
        return spec_loads(fh.read())


def _read_system(path: str) -> LambdaGraphSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_loads(fh.read())


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        _sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _built_system(args: argparse.Namespace) -> LambdaGraphSystem:
    """System from --system file or built from --spec at --depth.

    The word budget is validated on both paths, so a negative --budget or
    LGK_BUDGET is invalid input whether or not anything is built.
    """
    if getattr(args, "system", None):
        sys = _read_system(args.system)
        _budget(args, sys.depth)
        return sys
    if "system" in vars(args) and not args.spec:  # build has no --system flag
        raise ValueError("provide --spec or --system")
    spec = _read_spec(args.spec)
    return build_lambda_synchronizing(spec, args.depth, budget=_budget(args, args.depth))


def _size_table(sys: LambdaGraphSystem) -> str:
    lines = ["level  vertices"]
    for l, level in enumerate(sys.levels):
        lines.append(f"{l:<5}  {level.size}")
    return "\n".join(lines) + "\n"


# -- subcommands ---------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    sys = _built_system(args)
    payload = system_dumps(sys)
    if args.format == "json" and args.out is None:
        _sys.stdout.write(payload)
        return PASS
    _sys.stdout.write(_size_table(sys))
    if args.out is not None:
        _emit(payload, args.out)
        _sys.stdout.write(f"system written to {args.out}\n")
    return PASS


def _verify_checks(sys: LambdaGraphSystem, budget: Budget) -> dict[str, Verdict]:
    if sys.depth == 0:
        raise ValueError("need at least one level gap")
    checks = verify_all(sys)
    checks["branching condition (I)"] = check_condition_I(sys, min(3, sys.depth))
    checks["lambda-irreducible"] = check_lambda_irreducible(sys)
    checks["iota-irreducible"] = check_iota_irreducible(sys)
    checks["synchronizing system"] = is_lambda_synchronizing_system(sys, budget=budget)
    if sys.depth >= 3:
        word_len = 2 if sys.depth >= 6 else 1
        bound = min(2, sys.depth - 2 * word_len)
        transitive = check_synchronizingly_transitive(
            sys, word_len=word_len, bound=bound, budget=budget
        )
        if transitive.is_yes:
            transitive = Verdict.yes(
                note=f"word pairs up to length {word_len}, bridges up to {bound}"
            )
    else:
        transitive = Verdict.unknown(note="truncation too shallow for the pair search")
    checks["synchronizingly transitive"] = transitive
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    sys = _built_system(args)
    budget = _budget(args, sys.depth)
    checks = _verify_checks(sys, budget)
    simplicity = simplicity_prediction(
        checks["synchronizingly transitive"], checks["branching condition (I)"]
    )
    if args.format == "json":
        payload = {
            "checks": {name: verdict_payload(v) for name, v in checks.items()},
            "simplicity predicted": verdict_payload(simplicity),
        }
        _emit(dumps(payload), args.out)
    else:
        width = max(len(name) for name in checks) + 2
        lines = []
        for name, verdict in checks.items():
            lines.append(f"{name + ':':<{width}} {verdict.kind}")
            if verdict.note:
                lines.append(f"{'':<{width}} {verdict.note}")
        lines.append(f"{'simplicity predicted:':<{width}} {simplicity.kind}")
        _emit("\n".join(lines) + "\n", args.out)
    if any(checks[name].is_no for name in VERIFIER_ORDER):
        return FAIL
    if any(v.is_unknown for v in checks.values()):
        return INCONCLUSIVE
    if any(v.is_no for v in checks.values()):
        return FAIL
    return PASS


def _report_text(report) -> str:
    lines = ["level  K0              K1       BF0      BF1      connecting"]
    for g in report.groups:
        conn = "-"
        if g.level < len(report.connecting):
            conn = "ok" if report.connecting[g.level] else "BROKEN"
        lines.append(
            f"{g.level:<5}  {str(g.k0):<14}  {str(g.k1):<7}  {str(g.bf0):<7}  "
            f"{str(g.bf1):<7}  {conn}"
        )
    sizes = " ".join(str(m) for m in report.sizes)
    lines.append(f"sizes: {sizes}")
    if report.stabilized.is_yes:
        lines.append(f"stabilized: yes, from level {report.stabilized.witness}")
    else:
        lines.append(f"stabilized: {report.stabilized.kind} ({report.stabilized.note})")
    return "\n".join(lines) + "\n"


def cmd_invariants(args: argparse.Namespace) -> int:
    sys = _built_system(args)
    report = invariant_report(sys)
    if args.format == "json":
        _emit(report_dumps(report), args.out)
    else:
        _emit(_report_text(report), args.out)
    return PASS


def cmd_expand(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec)
    plan = plan_for(spec.alphabet, args.expand, args.fresh)
    _emit(spec_dumps(expand_spec(spec, plan)), args.out)
    return PASS


def cmd_flowcheck(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec)
    plan = plan_for(spec.alphabet, args.expand, args.fresh)
    expanded = expand_spec(spec, plan)
    budget = _budget(args, args.depth)
    base_sys = build_lambda_synchronizing(spec, args.depth, budget=budget)
    expanded_sys = build_lambda_synchronizing(expanded, args.depth, budget=budget)
    base_report = invariant_report(base_sys)
    expanded_report = invariant_report(expanded_sys)
    verdict, note = compare_reports(base_report, expanded_report)
    if args.format == "json":
        payload = {
            "base": report_to_payload(base_report),
            "expanded": report_to_payload(expanded_report),
            "verdict": verdict,
            "note": note,
        }
        _emit(dumps(payload), args.out)
    else:
        text = (
            "base system:\n" + _report_text(base_report)
            + "\nexpanded system:\n" + _report_text(expanded_report)
            + f"\nflow invariance: {verdict.upper()} ({note})\n"
        )
        _emit(text, args.out)
    if verdict == "pass":
        return PASS
    if verdict == "fail":
        return FAIL
    return INCONCLUSIVE


def cmd_export_dot(args: argparse.Namespace) -> int:
    sys = _built_system(args)
    _emit(export_dot(sys), args.out)
    return PASS


# -- parser --------------------------------------------------------------


def _add_io_flags(sub: argparse.ArgumentParser, system_input: bool = True) -> None:
    sub.add_argument("--spec", help="subshift spec JSON file")
    if system_input:
        sub.add_argument("--system", help="prebuilt system JSON file")
    sub.add_argument("--depth", type=int, default=4, help="truncation depth (default 4)")
    sub.add_argument("--budget", type=int, default=None, help="word budget (default LGK_BUDGET or 1000000)")
    sub.add_argument("--out", help="output file (default stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing reads no state the previous call left,
    # no action has a mutable default, and help width is read at format time.
    parser = argparse.ArgumentParser(
        prog="lgk",
        description="Leveled graph systems of subshifts: construction, verification, invariants.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="construct the leveled system of a spec")
    _add_io_flags(p, system_input=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("verify", help="structural axioms and dynamical checks")
    _add_io_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("invariants", help="per-level integer invariants")
    _add_io_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_invariants)

    p = subs.add_parser("expand", help="apply a symbol expansion to a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--expand", required=True, metavar="SYMBOL", help="symbol to expand")
    p.add_argument("--fresh", default=None, help="name for the fresh symbol (default: e)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("flowcheck", help="compare invariants across a symbol expansion")
    _add_io_flags(p, system_input=False)
    p.add_argument("--expand", required=True, metavar="SYMBOL")
    p.add_argument("--fresh", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_flowcheck)

    p = subs.add_parser("export-dot", help="Graphviz rendering of a system")
    _add_io_flags(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        print("inconclusive: out of memory at this depth or budget", file=_sys.stderr)
        return INCONCLUSIVE
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=_sys.stderr)
        return INVALID


if __name__ == "__main__":
    _sys.exit(main())
