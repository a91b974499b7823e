"""Leveled systems: builders, structural verifiers, canonical form.

Expected shapes and matrices for the bracket shifts are known in closed
form (vertex counts double, or follow the Fibonacci recurrence) and were
cross-checked against the word-level oracles in test_dyck.py.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIB, constant_system, even_shift_graph, even_shift_spec, golden_mean_spec, mask
from lgk import (
    Alphabet,
    ConstructionError,
    DyckN,
    Expanded,
    FullShift,
    LambdaGraphSystem,
    MarkovDyck,
    SoficGraph,
    Verdict,
    VertexLevel,
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    canonical_form,
    from_names,
    verify_all,
)
from lgk import cli, system
from lgk.dyck import validate_transition_matrix
from lgk.invariants import invariant_report
from lgk.serialize import system_loads
from lgk.subshift import DEFAULT_BUDGET, sft_cover
from lgk.system import (
    iota_fiber,
    label_words,
    local_tallies,
    read_down,
    verify_predecessor_separated,
    window_repeats,
)
from test_dyck import reduces_nonzero
from test_walkers import gap_run_systems, random_systems, raw


def assert_all_verifiers_pass(sys):
    for name, verdict in verify_all(sys).items():
        assert verdict.is_yes, (name, verdict)


def two_loops_graph():
    # two disconnected self-loops with the same label: left-resolving and
    # essential, but the vertices have identical predecessor structure
    ab = Alphabet(("x",))
    return from_names(ab, ("u", "v"), [("u", "x", "u"), ("v", "x", "v")])


def test_full_shift_chain():
    sys = build_lambda_synchronizing(FullShift(2), 4)
    assert sys.sizes == (1, 1, 1, 1, 1)
    assert all(len(layer) == 2 for layer in sys.edges)
    assert sys.iota == ((0,),) * 4
    assert_all_verifiers_pass(sys)


def test_golden_mean_system():
    sys = build_lambda_synchronizing(golden_mean_spec(), 4)
    assert sys.sizes == (1, 2, 2, 2, 2)
    assert_all_verifiers_pass(sys)
    canonical = canonical_form(sys)
    a, _ = oracles.gap_matrices(canonical.sizes, canonical.edges, canonical.iota)
    assert a[1] == [[0, 1], [1, 1]]
    assert sum(a[0][0]) == 3
    words = {w for w, _ in label_words(sys, 0, 1 << 0, 3) if len(w) == 3}
    assert words == set(filter(oracles.sft_language(2, [(1, 1)]), product(range(2), repeat=3)))


def test_sft_and_its_cover_build_the_same_system():
    gm = golden_mean_spec()
    cover = sft_cover(gm)
    direct = build_lambda_synchronizing(gm, 4)
    via_sofic = build_lambda_synchronizing(SoficGraph(cover), 4)
    assert canonical_form(direct) == canonical_form(via_sofic)


def test_even_shift_system():
    sys = build_lambda_synchronizing(even_shift_spec(), 4)
    assert sys.sizes == (1, 2, 2, 2, 2)
    assert_all_verifiers_pass(sys)


def test_dyck2_horizon_shape_and_matrices():
    sys = build_cantor_horizon_dyck(2, 5)
    assert sys.sizes == (1, 2, 4, 8, 16, 32)
    assert_all_verifiers_pass(sys)
    a, i = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
    assert a[0] == [[3, 3]]
    assert a[1] == [[2, 1, 2, 1], [1, 2, 1, 2]]
    assert i[1] == [[1, 1, 0, 0], [0, 0, 1, 1]]


def test_dyck3_horizon_shape():
    sys = build_cantor_horizon_dyck(3, 4)
    assert sys.sizes == (1, 3, 9, 27, 81)
    assert_all_verifiers_pass(sys)


def test_fibonacci_horizon_shape():
    sys = build_cantor_horizon_markov_dyck(FIB, 4)
    assert sys.sizes == (1, 2, 3, 5, 8)
    assert_all_verifiers_pass(sys)
    a, _ = oracles.gap_matrices(sys.sizes, sys.edges, sys.iota)
    assert a[0] == [[3, 2]]
    # tags spell the closing word attached to each state word
    assert sys.levels[1].tags == ("b1", "b2")
    assert sys.levels[2].tags == ("b1 b1", "b1 b2", "b2 b1")


def _valid(matrix) -> bool:
    try:
        validate_transition_matrix(matrix)
    except ValueError:
        return False
    return True


@st.composite
def matrices(draw):
    """A 2x2 or 3x3 0/1 matrix with no zero row or column."""
    n = draw(st.integers(2, 3))
    entries = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    return draw(st.lists(entries, min_size=n, max_size=n).map(tuple).filter(_valid))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(1, 7))
def test_horizon_builder_matches_state_word_construction(matrix, depth):
    # the index tables build the system that state words keyed in dicts build
    names, levels, edges, iota = oracles.horizon_system(matrix, depth)
    expected = LambdaGraphSystem(
        alphabet=Alphabet(names),
        levels=tuple(VertexLevel(size=size, tags=tags) for size, tags in levels),
        edges=tuple(edges),
        iota=tuple(iota),
    )
    assert build_cantor_horizon_markov_dyck(matrix, depth) == expected


@st.composite
def expansions(draw):
    """A 0/1 matrix of size 2 or 3 with no zero row or column, a target
    symbol of its bracket alphabet and a depth.  The definitional census
    at depth 2 takes 5-35 s per size-3 case, so size 3 stays at depth 1."""
    matrix = draw(matrices())
    n = len(matrix)
    target = draw(st.integers(0, 2 * n - 1))
    depth = draw(st.integers(1, 2 if n == 2 else 1))
    return matrix, target, depth


def bracket_census(matrix, depth: int, target=None):
    """Raw (sizes, edges, iota) of the definitional census system of the
    bracket shift of `matrix`, or of its expansion of symbol `target`.

    A word with at least `depth` unmatched closes synchronizes at every
    level up to `depth`, and its level-l class is fixed by its first l
    closes and, in an expansion, by whether it begins with a bare target.
    Every such interface at level `depth` has a word of length at most
    max(2·depth, depth + 2) (e b_t before each close target, a_t b_t before
    a flagged open target), and a word extends by any number of symbols,
    so the candidates of that length meet every class.
    """
    k = 2 * len(matrix)
    if target is None:
        def member(word):
            return oracles.bracket_word_nonzero(matrix, word)
    else:
        k += 1

        def member(word):
            return oracles.expanded_word_nonzero(matrix, target, k - 1, word)

    def synchronizes(word):
        # drop each fresh; a trailing fresh reads as its target
        base = tuple(s for s in word if s < 2 * len(matrix))
        if target is not None and word[-1:] == (k - 1,):
            base += (target,)
        return len(oracles.reduce_brackets(matrix, base).closes) >= depth

    return oracles.census_system(k, member, max(2 * depth, depth + 2), depth, keep=synchronizes)


@settings(max_examples=25, deadline=None)
@given(expansions())
def test_expanded_bracket_builder_matches_definitional_census(case):
    # the interface quotient of an expanded bracket shift is the census
    # system of its synchronizing words
    matrix, target, depth = case
    census = bracket_census(matrix, depth, target)
    built = build_cantor_horizon_markov_dyck(matrix, depth, target, "e")
    assert oracles.nested_canonical_form(*census) == oracles.nested_canonical_form(*raw(built))


EXPANDED_BASES = {"dyck2": DyckN(2), "dyck3": DyckN(3), "fib": MarkovDyck(FIB)}


@pytest.mark.parametrize("base", sorted(EXPANDED_BASES))
def test_expanded_classes_are_numbered_by_rank_and_tagged_by_synchronizing_words(base):
    # Each class is numbered as the canonical form numbers it, and its tag
    # is an admissible word with at least `level` unmatched closes.
    base = EXPANDED_BASES[base]
    for target in range(len(base.alphabet)):
        spec = Expanded(base, target, "e")
        sys = build_lambda_synchronizing(spec, 4)
        assert sys.alphabet == spec.alphabet
        assert_all_verifiers_pass(sys)
        canonical = canonical_form(sys)
        assert (canonical.edges, canonical.iota) == (sys.edges, sys.iota)
        fresh = spec.fresh
        for l, level in enumerate(sys.levels):
            for tag in level.tags:
                word = spec.alphabet.word(tag)
                admissible = oracles.expanded_word_nonzero(base.matrix, target, fresh, word, reduces_nonzero)
                assert admissible, (target, l, tag)
                contracted = oracles.contract_word(word, target, fresh)
                closes = oracles.reduce_brackets(base.matrix, contracted).closes
                assert len(closes) >= l, (target, l, tag)


def test_expanded_level_sizes():
    # Dyck-2 expanded at a1 has 2·2^l interfaces but Fibonacci many classes
    dyck2 = build_cantor_horizon_markov_dyck(((1, 1), (1, 1)), 6, 0, "e")
    assert dyck2.sizes == (1, 3, 5, 8, 13, 21, 34)
    dyck3 = build_cantor_horizon_markov_dyck(((1, 1, 1),) * 3, 7, 0, "e")
    assert dyck3.sizes == (1, 4, 10, 24, 58, 140, 338, 816)
    assert dyck3.levels[1].tags == ("b1", "b2", "b3", "a1 b1 b1")
    with pytest.raises(ValueError, match="target out of alphabet range"):
        build_cantor_horizon_markov_dyck(((1, 1), (1, 1)), 2, 4, "e")


def test_horizon_iota_drops_newest_index():
    sys = build_cantor_horizon_dyck(2, 4)
    # vertex words are in lexicographic order, so indices read as binary
    assert oracles.scan_iota_image(sys.iota, 3, 0b010, 1) == 0b01
    assert oracles.scan_iota_image(sys.iota, 3, 0b110, 2) == 0b1
    assert iota_fiber(sys, 2, 0b01, 1) == mask({0b010, 0b011})


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_systems(), gap_run_systems()))
def test_local_property_implies_label_compatibility_and_intertwining(sys):
    # the implication that lets local_checks pass a vertex on equal tallies,
    # stated through the oracles; the random systems break the local
    # property about half the time
    if oracles.scan_local_property(*raw(sys)) is None:
        assert oracles.scan_label_compatible(*raw(sys)) is None
        assert all(oracles.dense_intertwining(*raw(sys)))


def read_system(name):
    with open(Path(__file__).resolve().parent / name, encoding="utf-8") as fh:
        return system_loads(fh.read())


def test_verify_and_invariants_scan_each_distinct_window_once(monkeypatch):
    entered = []

    def counted(sys, l):
        entered.append(l)
        return local_tallies(sys, l)

    monkeypatch.setattr(system, "local_tallies", counted)
    for sys, windows in (
        (build_cantor_horizon_dyck(2, 4), [1, 2, 3]),
        (constant_system(even_shift_graph(), 4), [1]),
        (read_system("non_intertwining_system.json"), [1, 2]),
    ):
        assert [l for l in range(1, sys.depth) if not window_repeats(sys.repeats, l - 1, 2)] == windows
        for run in (lambda: cli._verify_checks(sys, DEFAULT_BUDGET), lambda: invariant_report(sys)):
            entered.clear()
            run()
            assert entered == windows


def test_local_verdicts_on_a_non_intertwining_system():
    checks = verify_all(read_system("non_intertwining_system.json"))
    assert checks["label-collapse compatible"] == Verdict.no(
        witness=(3, 0), note="vertex v0 at level 3 has in-labels ['x', 'y'] but its collapse image v0 has ['x']"
    )
    assert checks["local property"] == Verdict.no(
        witness=(2, 0, 0),
        note="between v0 at level 1 and v0 at level 3: fiber in-labels ['x', 'y'] vs out-labels ['x']",
    )
    assert checks["matrix compatibility"] == Verdict.no(
        witness=1, note="intertwining fails between levels 1 and 2"
    )
    assert list(checks) == list(system.VERIFIER_ORDER)


def test_repeated_cover_passes_every_verifier():
    sys = constant_system(even_shift_graph(), 3)
    assert sys.sizes == (2, 2, 2, 2)
    assert sys.iota == ((0, 1),) * 3
    assert set(sys.edges) == {sys.edges[0]}
    assert_all_verifiers_pass(sys)


def test_unseparated_cover_detected():
    sys = constant_system(two_loops_graph(), 3)
    # Every level clashes; the witness is the first clash, at level 1.
    assert verify_predecessor_separated(sys).witness == (1, 0, 1)
    with pytest.raises(ValueError, match="^not predecessor-separated: vertices u and v at level 1 "):
        canonical_form(sys)


def test_predecessor_separation_ranks_the_first_level_of_a_repeated_tail():
    # Gaps 1 .. 3 repeat one another, so the check stops at level 2, the
    # first level of that tail; the clash there must still be found.
    one, two = VertexLevel(1, ("",)), VertexLevel(2, ("", ""))
    split = ((0, 0, 0), (0, 1, 1))  # level 1: in-label a or b
    merge = ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))  # a from 0 and b from 1 into both
    sys = LambdaGraphSystem(
        alphabet=Alphabet(("a", "b")),
        levels=(one,) + (two,) * 4,
        edges=(split,) + (merge,) * 3,
        iota=((0, 0),) + ((0, 1),) * 3,
    )
    assert sys.repeats == (False, False, True, True)
    assert verify_predecessor_separated(sys).witness == (2, 0, 1)


def test_merge_rejects_a_class_collapsing_onto_two():
    # Level-1 vertices 0 and 1 form one class, but collapse onto vertices 0
    # and 1 of level 0, which are two classes.
    message = "class 0 at level 1 collapses onto classes 0 and 1 at level 0$"
    with pytest.raises(ConstructionError, match=message):
        system._merge([[0, 1], [0, 0]], [[(0, 0, 0), (1, 0, 1)]], [[0, 1]])
    edges, iota = system._merge([[0, 1], [0, 0]], [[(0, 0, 0), (1, 0, 1)]], [[1, 1]])
    assert (edges, iota) == ([((0, 0, 0), (1, 0, 0))], [(1,)])


def test_canonical_form_idempotent():
    for sys in (
        build_lambda_synchronizing(golden_mean_spec(), 4),
        build_cantor_horizon_dyck(2, 4),
        build_cantor_horizon_markov_dyck(FIB, 4),
    ):
        c = canonical_form(sys)
        assert canonical_form(c) == c
        assert all(tag == "" for level in c.levels for tag in level.tags)


def test_canonical_form_forgets_vertex_order():
    sys = build_cantor_horizon_dyck(2, 3)
    # permute level 2 and rewire; canonical forms must agree
    perm = [2, 0, 3, 1]
    inv = [perm.index(v) for v in range(4)]
    levels = list(sys.levels)
    levels[2] = VertexLevel(size=4, tags=tuple(sys.levels[2].tags[p] for p in perm))
    edges = list(sys.edges)
    edges[1] = tuple(sorted((s, a, inv[t]) for s, a, t in sys.edges[1]))
    edges[2] = tuple(sorted((inv[s], a, t) for s, a, t in sys.edges[2]))
    iota = list(sys.iota)
    iota[1] = tuple(sys.iota[1][p] for p in perm)
    # iota below level 2 keeps its domain but its images get renamed
    iota[2] = tuple(inv[sys.iota[2][v]] for v in range(sys.levels[3].size))
    permuted = LambdaGraphSystem(
        alphabet=sys.alphabet,
        levels=tuple(levels),
        edges=tuple(edges),
        iota=tuple(iota),
    )
    assert permuted != sys
    assert canonical_form(permuted) == canonical_form(sys)


def test_gap_shapes_and_collapse_functions():
    """Each gap joins its two levels: edges run from level l to level l + 1,
    and iota_l maps every vertex of level l + 1 to one of level l."""
    sys = build_cantor_horizon_markov_dyck(FIB, 4)
    for l in range(sys.depth):
        rows = sys.sizes[l]
        cols = sys.sizes[l + 1]
        assert len(sys.iota[l]) == cols
        assert all(0 <= image < rows for image in sys.iota[l])
        assert all(0 <= s < rows and 0 <= t < cols for s, _, t in sys.edges[l])


def test_read_down_words():
    sys = build_lambda_synchronizing(golden_mean_spec(), 4)
    root = 1 << 0
    assert read_down(sys, 0, root, (1, 1)) == 0
    assert read_down(sys, 0, root, (0, 1)) != 0
    with pytest.raises(ValueError):
        read_down(sys, 0, root, (0, 1, 0, 1, 0))


def test_constructor_validation():
    ab = Alphabet(("x",))
    lv = VertexLevel(size=1, tags=("",))
    with pytest.raises(ValueError):
        LambdaGraphSystem(ab, (), (), ())
    with pytest.raises(ValueError):
        LambdaGraphSystem(ab, (lv, lv), (((0, 0, 0), (0, 0, 0)),), ((0,),))
    with pytest.raises(ValueError):
        LambdaGraphSystem(ab, (lv, lv), (((0, 0, 1),),), ((0,),))
    with pytest.raises(ValueError):
        LambdaGraphSystem(ab, (lv, lv), (((0, 0, 0),),), ((1,),))
    with pytest.raises(ValueError):
        VertexLevel(size=2, tags=("",))
