"""Acceptance suite: one test per shipped guarantee, with timing bounds.

Each test prints a `[criterion N] ... PASS/FAIL` line directly to the real
stdout so the table survives pytest's capture and shows up in plain run
logs.  Assertions follow the printed line, so a FAIL line always precedes
the traceback that explains it.
"""

import itertools
import json
import random
import sys as _sys
import time
from collections import Counter
from pathlib import Path

import oracles
from conftest import FIB, constant_system, even_shift_spec, golden_mean_spec, mask
from test_linalg import assert_smith_certificate
from test_system import bracket_census
from test_walkers import raw

from lgk.alphabet import Alphabet
from lgk.analysis import (
    check_condition_I,
    check_synchronizingly_transitive,
    simplicity_prediction,
)
from lgk.cli import main
from lgk.flow import expand_spec, plan_for
from lgk.invariants import invariant_report, level_groups
from lgk.labeled_graph import LabeledGraph, is_essential
from lgk.linalg import AbelianGroup, cokernel, kernel_group
from lgk.serialize import spec_dumps, system_dumps
from lgk.subshift import DyckN, Expanded, FullShift, MarkovDyck, SoficGraph, sft_cover
from lgk.system import (
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    canonical_form,
    read_down,
    verify_all,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"
TRIVIAL = AbelianGroup(0, ())


def _line(num: int, name: str, ok: bool, elapsed: float, bound: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f", bound {bound:g}s" if bound is not None else "")
    print(f"[criterion {num:>2}] {name}: {status} ({timing})", file=_sys.__stdout__)


def test_criterion_01_sofic_level_groups_match_closed_forms():
    started = time.monotonic()
    ok = True

    cover = sft_cover(golden_mean_spec())
    n = len(cover.vertices)
    # the cover as one gap onto itself: its adjacency and the identity collapse
    (adjacency,), (identity,) = oracles.gap_matrices((n, n), (cover.edges,), (range(n),))
    bowen_franks = [[x - y for x, y in zip(ri, ra)] for ri, ra in zip(identity, adjacency)]
    k_relations = oracles.transpose(bowen_franks)
    closed_k0 = cokernel(k_relations)
    closed_k1 = kernel_group(k_relations)
    closed_bf0 = cokernel(bowen_franks)
    closed_bf1 = kernel_group(bowen_franks)
    ok &= (closed_k0, closed_k1, closed_bf0, closed_bf1) == (TRIVIAL,) * 4

    report = invariant_report(build_lambda_synchronizing(golden_mean_spec(), 5))
    # the root gap is rectangular; the cover block starts at level 1
    for g in report.groups[1:]:
        ok &= (g.k0, g.k1, g.bf0, g.bf1) == (closed_k0, closed_k1, closed_bf0, closed_bf1)
    ok &= report.stabilized.is_yes and report.stabilized.witness == 1

    for n in range(2, 6):
        closed = TRIVIAL if n == 2 else AbelianGroup(0, (n - 1,))
        report = invariant_report(build_lambda_synchronizing(FullShift(n), 5))
        for g in report.groups:
            ok &= (g.k0, g.bf0) == (closed, closed)
            ok &= (g.k1, g.bf1) == (TRIVIAL, TRIVIAL)
        ok &= report.stabilized.is_yes and report.stabilized.witness == 0

    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    _line(1, "sofic anchor level groups, every level, closed form", ok, elapsed, 1.0)
    assert ok


def test_criterion_02_dyck_vertex_counts():
    started = time.monotonic()
    ok = True
    for n in (2, 3):
        sizes = build_cantor_horizon_dyck(n, 6).sizes
        ok &= sizes == tuple(n**l for l in range(7))
    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    _line(2, "bracket-shift vertex counts N^l up to level 6", ok, elapsed, 5.0)
    assert ok


def test_criterion_03_dyck_k_theory_torsion():
    started = time.monotonic()
    ok = True
    for n, depth in ((2, 6), (3, 6), (3, 8)):
        report = invariant_report(build_cantor_horizon_dyck(n, depth))
        for g in report.groups[1:depth]:
            ok &= g.k0.torsion == (n,)
        for g in report.groups[:depth]:
            ok &= g.k1.is_trivial
    elapsed = time.monotonic() - started
    ok &= elapsed < 30.0
    _line(3, "bracket-shift k0 torsion Z/N and trivial k1, levels 1..5 (Dyck-3: 1..7)", ok, elapsed, 30.0)
    assert ok


def test_criterion_04_canonical_form_byte_identity():
    started = time.monotonic()
    direct = canonical_form(build_lambda_synchronizing(golden_mean_spec(), 4))
    cover = sft_cover(golden_mean_spec())
    repeated = canonical_form(constant_system(cover, 4))
    ok = system_dumps(direct) == system_dumps(repeated)
    elapsed = time.monotonic() - started
    _line(4, "canonical forms byte-identical across constructions", ok, elapsed)
    assert ok


def test_criterion_05_bracket_builder_matches_census():
    # Bracket shifts build as Cantor-horizon systems, and their expansions
    # as the past quotient of the left interfaces of their synchronizing
    # words.  For Dyck-2, Fibonacci Markov-Dyck (depths 1-2) and Dyck-3
    # (depth 1), and each expansion of one symbol, the build is the census
    # system of those words taken from the definition; at depth 6 every
    # expansion passes every structural axiom.
    started = time.monotonic()
    ok = True
    for spec, top in ((DyckN(2), 2), (MarkovDyck(FIB), 2), (DyckN(3), 1)):
        for target in (None, *range(len(spec.alphabet))):
            for depth in range(1, top + 1):
                built = build_cantor_horizon_markov_dyck(spec.matrix, depth, target, "e")
                census = bracket_census(spec.matrix, depth, target)
                ok &= oracles.nested_canonical_form(*raw(built)) == oracles.nested_canonical_form(*census)
            if target is not None:
                deep = build_lambda_synchronizing(Expanded(spec, target, "e"), 6)
                ok &= all(v.is_yes for v in verify_all(deep).values())
    elapsed = time.monotonic() - started
    ok &= elapsed < 30.0
    _line(5, "bracket builds equal the definitional census, depths 1..2", ok, elapsed, 30.0)
    assert ok


def _random_cover(seed: int) -> LabeledGraph | None:
    """Left-resolving by construction: at most one in-edge per (symbol, target)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    edges = set()
    for a in range(2):
        for t in range(n):
            if rng.random() < 0.7:
                edges.add((rng.randrange(n), a, t))
    graph = LabeledGraph(
        Alphabet(("0", "1")), tuple(f"v{i}" for i in range(n)), tuple(sorted(edges))
    )
    if {a for _, a, _ in graph.edges} != {0, 1}:
        return None
    if not is_essential(graph) or not oracles.strongly_connected(n, graph.edges):
        return None
    return graph


def test_criterion_06_flowcheck_passes(tmp_path, capsys):
    cases = [
        (SPECS / "goldenmean.json", "1", 5),
        (SPECS / "full2.json", "0", 5),
        (SPECS / "full3.json", "0", 5),
    ]
    covers = []
    seed = 0
    while len(covers) < 2:
        graph = _random_cover(seed)
        seed += 1
        if graph is not None:
            covers.append(graph)
    for k, graph in enumerate(covers):
        target = Counter(a for _, a, _ in graph.edges).most_common(1)[0][0]
        path = tmp_path / f"cover{k}.json"
        path.write_text(spec_dumps(SoficGraph(graph)))
        cases.append((path, graph.alphabet.names[target], 10))

    ok = True
    worst = 0.0
    for path, symbol, depth in cases:
        started = time.monotonic()
        code = main(
            [
                "flowcheck",
                "--spec", str(path),
                "--depth", str(depth),
                "--expand", symbol,
                "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        ok &= code == 0 and payload["verdict"] == "pass"
        ok &= payload["base"]["stabilized"]["verdict"] == "yes"
        ok &= payload["expanded"]["stabilized"]["verdict"] == "yes"
        ok &= elapsed < 10.0
    _line(6, "flowcheck passes with both sides stabilized, 5 covers", ok, worst, 10.0)
    assert ok


def test_criterion_07_structural_suite_over_all_builders():
    started = time.monotonic()
    gm = golden_mean_spec()
    even = even_shift_spec()
    systems = [
        build_lambda_synchronizing(gm, 5),
        build_lambda_synchronizing(even, 5),
        build_lambda_synchronizing(FullShift(2), 5),
        build_lambda_synchronizing(FullShift(3), 4),
        build_lambda_synchronizing(DyckN(2), 3),
        build_lambda_synchronizing(MarkovDyck(FIB), 3),
        build_lambda_synchronizing(expand_spec(gm, plan_for(gm.alphabet, "1")), 4),
        build_lambda_synchronizing(
            expand_spec(DyckN(2), plan_for(DyckN(2).alphabet, "a1")), 2
        ),
        build_cantor_horizon_dyck(2, 6),
        build_cantor_horizon_dyck(3, 4),
        build_cantor_horizon_markov_dyck(FIB, 6),
        constant_system(even.graph, 4),
    ]
    ok = True
    for sys in systems:
        verdicts = verify_all(sys)
        for name in (
            "left-resolving",
            "local property",
            "collapse surjective",
            "label-collapse compatible",
            "matrix compatibility",
        ):
            ok &= verdicts[name].is_yes
    elapsed = time.monotonic() - started
    _line(7, "structural axioms and matrix identity, 12 builder outputs", ok, elapsed)
    assert ok


def test_criterion_08_smith_certificates_and_cokernels():
    started = time.monotonic()
    rng = random.Random(97)
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        assert_smith_certificate(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
    ok = True
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        m = [[a, b], [c, d]]
        rank, torsion = oracles.cokernel_2x2_by_divisors(m)
        ok &= cokernel(m) == AbelianGroup(rank, torsion)
    elapsed = time.monotonic() - started
    _line(8, "500 random Smith certificates + exhaustive 2x2 cokernels", ok, elapsed)
    assert ok


def test_criterion_09_bracket_reduction_matches_path_existence():
    started = time.monotonic()
    sys = build_cantor_horizon_markov_dyck(FIB, 8)
    full = [mask(range(sys.levels[l].size)) for l in range(9)]
    ok = True
    for k in range(9):
        for word in itertools.product(range(4), repeat=k):
            alive = not oracles.reduce_brackets(FIB, word).is_zero
            ok &= all(bool(read_down(sys, s, full[s], word)) == alive for s in range(9 - k))
        if not ok:
            break
    elapsed = time.monotonic() - started
    _line(9, "reduction and path existence from every level agree to length 8", ok, elapsed)
    assert ok


def test_criterion_10_simplicity_predictions():
    started = time.monotonic()
    systems = [build_lambda_synchronizing(golden_mean_spec(), 6)]
    systems += [build_lambda_synchronizing(FullShift(n), 6) for n in (2, 3, 4, 5)]
    systems.append(build_cantor_horizon_dyck(2, 6))
    ok = True
    for sys in systems:
        transitive = check_synchronizingly_transitive(sys, word_len=2, bound=2)
        branching = check_condition_I(sys, 3)
        ok &= simplicity_prediction(transitive, branching).is_yes
    elapsed = time.monotonic() - started
    _line(10, "simplicity predicted yes for all reference systems", ok, elapsed)
    assert ok
