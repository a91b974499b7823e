"""Dynamical checks: branching, irreducibility, launching words, transitivity.

Expected verdicts were worked out by hand on small systems where the
property is decidable outright (constant systems), and on the bracket
systems where launching words are the closing words themselves.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import FIB, constant_system, even_shift_graph, even_shift_spec, golden_mean_spec, mask, unshared
from test_walkers import BUILT, gap_run_systems, random_systems, raw
from lgk import (
    Alphabet,
    Budget,
    DyckN,
    FullShift,
    LambdaGraphSystem,
    SftForbidden,
    VertexLevel,
    build_cantor_horizon_dyck,
    build_cantor_horizon_markov_dyck,
    build_lambda_synchronizing,
    check_condition_I,
    check_iota_irreducible,
    check_lambda_irreducible,
    check_synchronizingly_transitive,
    from_names,
    is_lambda_synchronizing_system,
    simplicity_prediction,
)
from lgk.analysis import _Succession, _is_constant
from lgk.labeled_graph import LabeledGraph, essential_subgraph
from lgk.subshift import DEFAULT_BUDGET, _Meter
from lgk.system import GapReads, label_words, read_down
from lgk.verdict import Verdict


def two_loops_system(depth=4):
    ab = Alphabet(("x", "y"))
    g = from_names(
        ab, ("u", "v"), [("u", "x", "u"), ("v", "x", "v"), ("v", "y", "v")]
    )
    return constant_system(g, depth)


def three_cycle_system(depth=4):
    """A constant system whose vertices reach one another only by paths of
    length up to 2."""
    ab = Alphabet(("x",))
    g = from_names(ab, ("u", "v", "w"), [("u", "x", "v"), ("v", "x", "w"), ("w", "x", "u")])
    return constant_system(g, depth)


def test_branching_verdicts():
    assert check_condition_I(build_lambda_synchronizing(golden_mean_spec(), 5)).is_yes
    assert check_condition_I(build_lambda_synchronizing(FullShift(2), 4)).is_yes
    assert check_condition_I(build_cantor_horizon_dyck(2, 5)).is_yes
    assert check_condition_I(build_cantor_horizon_markov_dyck(FIB, 5)).is_yes
    # u only ever reads x^n: a constant system, so the cycle refutes outright
    v = check_condition_I(two_loops_system())
    assert v.is_no
    assert v.witness is not None


def test_lambda_irreducibility():
    assert check_lambda_irreducible(build_lambda_synchronizing(golden_mean_spec(), 5)).is_yes
    assert check_lambda_irreducible(build_cantor_horizon_markov_dyck(FIB, 5)).is_yes
    assert check_lambda_irreducible(build_lambda_synchronizing(FullShift(3), 4)).is_yes
    assert check_lambda_irreducible(two_loops_system()).is_no
    assert check_lambda_irreducible(three_cycle_system()).is_yes


class _Logged(dict):
    """A read table of one run of gaps that logs each read handed to it
    to keep, which the walkers do once per computed read."""

    def __init__(self, log: list, gap: int, kind: str):
        super().__init__()
        self.log, self.gap, self.kind = log, gap, kind

    def __setitem__(self, key, value):
        self.log.append((self.gap, self.kind, key))
        super().__setitem__(key, value)


def computed_reads(sys: LambdaGraphSystem) -> list:
    """Empty the read tables of `sys` and log every read its walkers compute
    from now on, as (gap, kind, key): the gap is the first of the run of
    gaps that share the tables, the kind a slot of `GapReads`."""
    log: list = []
    first: dict[int, int] = {}
    for l, reads in enumerate(sys.adjacency.reads):
        if first.setdefault(id(reads), l) == l:
            for kind in GapReads.__slots__:
                setattr(reads, kind, _Logged(log, l, kind))
    return log


def test_constant_irreducibility_does_not_walk_the_depth():
    # A constant system is decided on its repeated graph, so neither a
    # deeper truncation nor the shallowest one moves the verdicts or
    # computes other reads.  At depth 1 no level has room for a path and
    # its shadow, which once made ι-irreducibility a vacuous `yes`.
    runs = {}
    for depth in (1, 4, 1000):
        sys = two_loops_system(depth)
        for check in (check_lambda_irreducible, check_iota_irreducible):
            log = computed_reads(sys)
            runs[depth, check] = triple(check(sys)), log
    for check in (check_lambda_irreducible, check_iota_irreducible):
        assert runs[1, check] == runs[4, check] == runs[1000, check]
    assert runs[1, check_lambda_irreducible][0][:2] == ("no", (0, 0, 1))
    assert runs[1, check_iota_irreducible][0][:2] == ("no", (0, 1, 0))
    assert runs[1, check_iota_irreducible][1] == [(0, "after", 0b01), (0, "after", 0b10)]


def test_iota_irreducibility_without_a_level_to_search_is_unknown():
    # Depth 1, or a negative max_level, leaves levels 0 .. -1 to search on
    # a system that is not constant: nothing is inspected, so nothing is
    # certified.
    empty = ("unknown", None, "no level to search: the level range 0 .. -1 is empty")
    shallow = build_lambda_synchronizing(golden_mean_spec(), 1)
    assert not _is_constant(shallow)
    assert triple(check_iota_irreducible(shallow)) == empty
    deep = build_lambda_synchronizing(golden_mean_spec(), 4)
    assert triple(check_iota_irreducible(deep, max_level=-1)) == empty


def test_iota_irreducibility():
    assert check_iota_irreducible(build_lambda_synchronizing(golden_mean_spec(), 5)).is_yes
    clean = check_iota_irreducible(build_cantor_horizon_dyck(2, 6))
    assert clean.is_yes and clean.note == ""
    # at depth 5 the two-step shadows no longer fit below level 2
    shallow = check_iota_irreducible(build_cantor_horizon_dyck(2, 5))
    assert shallow.is_yes and "truncation" in shallow.note
    assert check_iota_irreducible(two_loops_system()).is_no
    assert check_iota_irreducible(three_cycle_system()).is_yes


def readers(sys, word, level):
    """The vertices at `level` from which `word` is readable."""
    return [v for v in range(sys.levels[level].size) if read_down(sys, level, 1 << v, word)]


def test_launching_vertices():
    sys = build_lambda_synchronizing(golden_mean_spec(), 4)
    # each vertex buffers its own next symbol, so the first letter of a
    # word already pins the unique reader
    assert readers(sys, (0,), 1) == [0]
    assert readers(sys, (1,), 1) == [1]
    assert readers(sys, (1, 0), 1) == [1]
    d2 = build_cantor_horizon_dyck(2, 4)
    # every vertex reads every opening symbol: no unique reader
    assert readers(d2, (0,), 1) == [0, 1]
    # only the vertex whose pending close matches reads a closing symbol
    assert readers(d2, (2,), 1) == [0]
    assert readers(d2, (3,), 1) == [1]
    with pytest.raises(ValueError):
        readers(d2, (0,) * 5, 1)


def test_closing_words_launch_horizon_vertices():
    # the closing word of state word i is readable from vertex i alone
    sys = build_cantor_horizon_markov_dyck(FIB, 6)
    n = len(FIB)
    for level in (1, 2, 3):
        for i, word in enumerate(oracles.chain_words(FIB, level)):
            closing = tuple(n + s for s in word)
            assert readers(sys, closing, level) == [i]


def test_synchronizing_system_verdicts():
    assert is_lambda_synchronizing_system(
        build_lambda_synchronizing(golden_mean_spec(), 4)
    ).is_yes
    assert is_lambda_synchronizing_system(build_cantor_horizon_dyck(2, 6)).is_yes
    assert is_lambda_synchronizing_system(
        build_cantor_horizon_markov_dyck(FIB, 5)
    ).is_yes
    assert is_lambda_synchronizing_system(
        build_lambda_synchronizing(FullShift(2), 4)
    ).is_yes
    # the duplicated loop never acquires a private word
    assert is_lambda_synchronizing_system(two_loops_system()).is_no


def test_synchronizing_system_budget_exhaustion_is_unknown():
    sys = build_cantor_horizon_dyck(2, 6)
    verdict = is_lambda_synchronizing_system(sys, budget=Budget(max_words=3))
    assert verdict.is_unknown


def test_synchronizing_system_rejects_a_search_deeper_than_the_system():
    # Two a-loops whose collapse swaps them: no vertex ever launches a word.
    # A search longer than the system would leave no level that must pass.
    two = VertexLevel(size=2, tags=("u", "v"))
    sys = LambdaGraphSystem(
        alphabet=Alphabet(("a",)),
        levels=(two,) * 5,
        edges=(((0, 0, 0), (1, 0, 1)),) * 4,
        iota=((1, 0),) * 4,
    )
    stuck = is_lambda_synchronizing_system(sys, depth=4)
    assert stuck.is_unknown and stuck.witness == (0, 0)
    for depth in (0, 5, 9):
        with pytest.raises(ValueError, match="depth must be between 1 and 4"):
            is_lambda_synchronizing_system(sys, depth=depth)


def test_launching_search_replays_the_budget_of_a_shared_tail():
    # Gaps repeat from gap 4 on, so the length-9 walks from levels 4 .. 9
    # repeat the walk from level 3 and are not walked again; each reuse
    # must draw that walk's units once more.  With u the units the whole
    # search uses, the budgets u and u - 1 and others below them give what
    # a walk at every level gives, note included.
    spec = SftForbidden(Alphabet(("a", "b", "c")), frozenset({(0, 1, 1, 0)}))
    sys = build_lambda_synchronizing(spec, 18, budget=Budget(max_depth=18))
    assert sys.repeats == (False,) * 4 + (True,) * 14

    def search(units: int):
        return triple(is_lambda_synchronizing_system(sys, budget=Budget(max_words=units)))

    low, high = 0, 100_000
    while low < high:
        mid = (low + high) // 2
        if "budget" in search(mid)[2]:
            low = mid + 1
        else:
            high = mid
    used = low
    assert search(used)[0] == "yes"
    assert search(used - 1) == ("unknown", None, f"budget exhausted after {used} units")
    budgets = sorted({used, used - 1, *range(0, used, max(1, used // 40))})
    shared = [search(u) for u in budgets]
    with unshared():
        sys = build_lambda_synchronizing(spec, 18, budget=Budget(max_depth=18))
        assert [search(u) for u in budgets] == shared


@pytest.mark.parametrize(
    "sys, units",
    [
        (build_cantor_horizon_dyck(2, 6), 90),
        # closure {V}, {u}, {w} of the even shift's cover, each set read
        # once: 2 + 2 + 1 units
        (constant_system(even_shift_graph(), 4), 5),
    ],
    ids=["dyck2-depth6", "constant-even-cover"],
)
def test_launching_budget_counts_sets_read_backward(sys, units):
    # One unit is one (readable set, symbol) read backward.
    assert is_lambda_synchronizing_system(sys, budget=Budget(max_words=units)).is_yes
    short = is_lambda_synchronizing_system(sys, budget=Budget(max_words=units - 1))
    assert triple(short) == ("unknown", None, f"budget exhausted after {units} units")


def test_a_launching_word_through_a_look_alike_reader_state_is_found():
    # Reading b from level 0 sends each vertex to the vertex of its own
    # number at level 1.  A forward reader walk that deduplicated its states
    # across lengths took that state for its start state, read no further,
    # and said vertex 0 launched no word of length <= 2; b b and b a launch
    # vertices 0 and 1.
    two = VertexLevel(2, ("", ""))
    sys = LambdaGraphSystem(
        alphabet=Alphabet(("a", "b")),
        levels=(two,) * 3,
        edges=(((0, 1, 0), (1, 1, 1)), ((0, 1, 0), (1, 0, 1))),
        iota=((0, 1), (0, 1)),
    )
    assert readers(sys, (1, 1), 0) == [0]
    assert readers(sys, (1, 0), 0) == [1]
    assert triple(is_lambda_synchronizing_system(sys, 2)) == ("yes", None, "")
    assert oracles.reference_launching(*raw(sys), 2) == ("yes", None, "")


def test_iota_irreducibility_of_dyck3_matches_the_reference():
    # At depth 5 every path out of level 2 has less room than the bound, so
    # once the level is marked partial the rest of it is skipped.
    sys = build_cantor_horizon_dyck(3, 5)
    expected = oracles.reference_iota_irreducible(*raw(sys), sys.alphabet.names, 3, 2, 2)
    assert expected == ("yes", None, "levels [2] verified only for the word lengths that fit the truncation")
    assert triple(check_iota_irreducible(sys)) == expected


@pytest.mark.parametrize("depth", [4, 5])
def test_checks_on_levels_wider_than_a_word_match_the_references(depth):
    # Dyck-3 has 81 vertices at level 4 and 243 at level 5, so the checks
    # read vertex sets wider than one digit of an int.
    sys = build_cantor_horizon_dyck(3, depth)
    sizes, edges, iota = raw(sys)
    names = sys.alphabet.names
    assert triple(check_lambda_irreducible(sys)) == oracles.reference_lambda_irreducible(sizes, edges, iota)
    assert triple(check_condition_I(sys, 3)) == oracles.reference_condition_I(sizes, edges, iota, 3)
    assert triple(is_lambda_synchronizing_system(sys)) == oracles.reference_launching(sizes, edges, iota, None)
    assert triple(check_synchronizingly_transitive(sys, word_len=1, bound=2)) == oracles.reference_transitivity(
        sizes, edges, iota, names, 1, 2
    )
    if depth == 4:  # depth 5 is the test above
        expected = oracles.reference_iota_irreducible(sizes, edges, iota, names)
        assert triple(check_iota_irreducible(sys)) == expected


def bridge(sys, first, second, bound):
    """The first bridge from `first` to `second` up to `bound`, or None."""
    top = mask(range(sys.levels[0].size))
    ends_first = read_down(sys, 0, top, first)
    ends_second = read_down(sys, 0, top, second)
    return _Succession(sys, bound).bridge(first, ends_first, second, ends_second, _Meter(DEFAULT_BUDGET))


def test_succession_bridge():
    sys = build_lambda_synchronizing(golden_mean_spec(), 5)
    assert bridge(sys, (1,), (1,), 2) == (0,)
    even = build_lambda_synchronizing(even_shift_spec(), 5)
    assert bridge(even, (1,), (0,), 2) is None


def test_succession_skips_bridges_below_the_truncation():
    # At the shallowest depth the transitivity guard allows, every bridge up
    # to `bound` still leaves room for the second word: each pair finds the
    # bridge the reference finds, which skips bridges too long to fit, and
    # no read walks past the last edge layer.
    cases = [(1, 1), (1, 2), (2, 1), (1, 3)]
    for (word_len, bound), spec in product(cases, (golden_mean_spec(), even_shift_spec())):
        sys = build_lambda_synchronizing(spec, 2 * word_len + bound)
        sizes, edges, iota = raw(sys)
        top = mask(range(sys.levels[0].size))
        words = [w for w, _ in label_words(sys, 0, top, word_len) if w]
        for first in words:
            for second in words:
                expected = oracles.reference_succ_relation(
                    sizes, edges, iota, sys.alphabet.names, first, second, bound
                )[1]
                assert bridge(sys, first, second, bound) == expected, (first, second)


def test_transitivity_verdicts():
    # each system is built at the least depth 2 * word_len + bound allows
    golden = build_lambda_synchronizing(golden_mean_spec(), 6)
    assert check_synchronizingly_transitive(golden, word_len=2).is_yes
    full = build_lambda_synchronizing(FullShift(2), 6)
    assert check_synchronizingly_transitive(full, word_len=2).is_yes
    assert check_synchronizingly_transitive(
        build_cantor_horizon_dyck(2, 4), word_len=1
    ).is_yes
    even = build_lambda_synchronizing(even_shift_spec(), 4)
    stuck = check_synchronizingly_transitive(even, word_len=1)
    assert stuck.is_unknown
    assert stuck.witness is not None


@pytest.mark.parametrize(
    "check, shared, apart",
    [
        (check_lambda_irreducible, {"lift": 11, "after": 9}, {"lift": 14, "after": 11}),
        (check_iota_irreducible, {"lift": 15, "after": 10, "up": 27}, {"lift": 28, "after": 12, "up": 61}),
        (check_synchronizingly_transitive, {"down": 30, "symbols": 3, "lift": 8}, {"down": 33, "symbols": 3, "lift": 10}),
    ],
    ids=["lambda-irreducible", "iota-irreducible", "transitive"],
)
def test_each_check_computes_each_read_once_per_distinct_gap(check, shared, apart):
    # The quotient of the SFT without "a b b a" stabilizes at level 3, so
    # gaps 4 .. 7 repeat gap 3 and share its reads.  Each read (kind, set
    # and symbol) is computed once in the tables of its run of gaps, and a
    # repeated gap computes no read that the gap above it computed: the
    # reads a system without shared gaps computes at every gap are the
    # ones computed once per run.  The fiber over a vertex does not depend
    # on the vertex it is shadowed or reached from, and many word pairs
    # read the same second word on from the same bridge endpoints, so a
    # read computed again would be one computed before.
    spec = SftForbidden(Alphabet(("a", "b", "c")), frozenset({(0, 1, 1, 0)}))
    sys = build_lambda_synchronizing(spec, 8)
    assert sys.repeats == (False,) * 4 + (True,) * 4
    log = computed_reads(sys)
    assert check(sys).is_yes
    assert len(set(log)) == len(log)
    assert Counter(kind for _, kind, _ in log) == shared
    with unshared():
        apart_sys = build_lambda_synchronizing(spec, 8)
        every = computed_reads(apart_sys)
        assert check(apart_sys).is_yes
    assert Counter(kind for _, kind, _ in every) == apart
    assert {(min(gap, 3), kind, key) for gap, kind, key in every} == set(log)


def test_transitivity_needs_room():
    with pytest.raises(ValueError):
        check_synchronizingly_transitive(
            build_lambda_synchronizing(golden_mean_spec(), 2), word_len=2
        )


def test_simplicity_prediction_table():
    yes, no, unknown = Verdict.yes(), Verdict.no(), Verdict.unknown()
    assert simplicity_prediction(yes, yes).is_yes
    assert simplicity_prediction(no, yes).is_no
    assert simplicity_prediction(yes, no).is_no
    assert simplicity_prediction(unknown, yes).is_unknown
    assert simplicity_prediction(yes, unknown).is_unknown
    assert simplicity_prediction(no, unknown).is_no


# -- the folded walks against the references in `oracles` -----------------


@st.composite
def constant_systems(draw):
    """The repeated system of a random essential left-resolving cover."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    # at most one source per (target, symbol) keeps the cover left-resolving
    edges = set()
    for t in range(n):
        for a in range(k):
            s = draw(st.none() | st.integers(0, n - 1))
            if s is not None:
                edges.add((s, a, t))
    graph = LabeledGraph(Alphabet(("x", "y")[:k]), tuple("uvw"[:n]), tuple(sorted(edges)))
    cover = essential_subgraph(graph)
    assume(cover.vertices)
    return constant_system(cover, draw(st.integers(1, 5)))


@st.composite
def permuted_collapse_systems(draw):
    """A graph repeated at every level whose collapse permutes its vertices
    and is not the identity: every gap repeats the one above it, yet the
    system is not constant."""
    n = draw(st.integers(2, 3))
    mapping = tuple(draw(st.permutations(range(n))))
    assume(mapping != tuple(range(n)))
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, 1), st.integers(0, n - 1))
    layer = tuple(sorted(draw(st.sets(triples, max_size=2 * n))))
    depth = draw(st.integers(1, 4))
    return LambdaGraphSystem(
        alphabet=Alphabet(("a", "b")),
        levels=(VertexLevel(size=n, tags=("",) * n),) * (depth + 1),
        edges=(layer,) * depth,
        iota=(mapping,) * depth,
    )


@given(st.one_of(gap_run_systems(), constant_systems(), permuted_collapse_systems()))
def test_constancy_matches_a_full_scan(sys):
    assert _is_constant(sys) == oracles.scan_is_constant(*raw(sys))


@given(permuted_collapse_systems())
def test_a_permuting_collapse_is_not_constant(sys):
    assert all(sys.repeats[1:])
    assert not _is_constant(sys)


def triple(verdict: Verdict):
    return verdict.kind, verdict.witness, verdict.note


@given(
    st.one_of(random_systems(), gap_run_systems(), constant_systems(), st.sampled_from(BUILT)),
    st.data(),
)
def test_dynamical_checks_match_references(sys, data):
    sizes, edges, iota = raw(sys)
    names = sys.alphabet.names
    depth = data.draw(st.integers(1, sys.depth))
    assert triple(check_condition_I(sys, depth)) == oracles.reference_condition_I(
        sizes, edges, iota, depth
    )
    search = data.draw(st.none() | st.integers(1, sys.depth))
    assert triple(is_lambda_synchronizing_system(sys, search)) == oracles.reference_launching(
        sizes, edges, iota, search
    )
    assert triple(check_lambda_irreducible(sys)) == oracles.reference_lambda_irreducible(
        sizes, edges, iota
    )
    bound = data.draw(st.integers(1, 4))
    max_level = data.draw(st.integers(0, 3))
    path_len = data.draw(st.integers(1, 3))
    assert triple(
        check_iota_irreducible(sys, bound=bound, max_level=max_level, path_len=path_len)
    ) == oracles.reference_iota_irreducible(sizes, edges, iota, names, bound, max_level, path_len)


def test_walks_whose_window_leaves_a_run_are_walked_again():
    # Three equal gaps, then a dead gap into one vertex: each window that
    # reaches the dead gap differs from the window above it, though its
    # first gaps repeat.
    two, one = VertexLevel(2, ("", "")), VertexLevel(1, ("",))
    run = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    sys = LambdaGraphSystem(
        alphabet=Alphabet(("a", "b")),
        levels=(two,) * 4 + (one,),
        edges=(run,) * 3 + ((),),
        iota=((0, 0),) * 3 + ((0,),),
    )
    sizes, edges, iota = raw(sys)
    for depth in range(1, sys.depth + 1):
        assert triple(check_condition_I(sys, depth)) == oracles.reference_condition_I(
            sizes, edges, iota, depth
        )
    for search in (None, *range(1, sys.depth + 1)):
        assert triple(is_lambda_synchronizing_system(sys, search)) == oracles.reference_launching(
            sizes, edges, iota, search
        )


@given(st.one_of(random_systems(), constant_systems(), st.sampled_from(BUILT)), st.data())
def test_transitivity_matches_reference(sys, data):
    sizes, edges, iota = raw(sys)
    word_len = data.draw(st.integers(1, 2))
    bound = data.draw(st.integers(0, 3))
    if 2 * word_len + bound > sys.depth:
        with pytest.raises(ValueError):
            check_synchronizingly_transitive(sys, word_len=word_len, bound=bound)
        return
    expected = oracles.reference_transitivity(sizes, edges, iota, sys.alphabet.names, word_len, bound)
    assert triple(check_synchronizingly_transitive(sys, word_len=word_len, bound=bound)) == expected


def test_transitivity_meters_each_pair_alone():
    # Words of length <= 2 after '1' in the even shift: '', '0', '1', '00',
    # '10', '11'.  None bridges '1' to '0', so that pair tries all six, and
    # no pair before it tries more; the pairs together try many more.  On
    # five units that pair exhausts its meter, which is `unknown` too.
    even = build_lambda_synchronizing(even_shift_spec(), 6)
    short = check_synchronizingly_transitive(even, word_len=2, bound=2, budget=Budget(max_words=5))
    assert triple(short) == ("unknown", ((1,), (0,)), "budget exhausted after 6 units")
    verdict = check_synchronizingly_transitive(even, word_len=2, bound=2, budget=Budget(max_words=6))
    assert verdict.is_unknown
    assert verdict.witness == ((1,), (0,))
    assert verdict.note.startswith("no bridge from '1' to '0'")
