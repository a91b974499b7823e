"""Subshift specs: covers, the systems they build and the language those
systems read.

The factor language is read off the built systems, a word being admissible
exactly when it labels a path from the top level, and is cross-checked
against direct definitions (forbidden-factor scan for the SFT, run-length
parity for the even shift) and the package-free oracles, rather than
against the package's own machinery.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    FIB,
    even_shift_spec,
    fibonacci_dyck_spec,
    golden_mean_spec,
    mask,
    system_language,
    top_language,
)
from lgk import (
    Alphabet,
    Budget,
    DyckN,
    FullShift,
    SftForbidden,
    SoficGraph,
    build_lambda_synchronizing,
    expand_spec,
    from_names,
    plan_for,
)
from lgk.dyck import all_ones
from lgk.labeled_graph import is_essential, left_resolving_violation
from lgk.subshift import sft_cover
from lgk.system import label_words, read_down
from test_dyck import reduces_nonzero
from test_walkers import raw

words_01 = st.lists(st.integers(0, 1), min_size=0, max_size=10).map(tuple)


def expanded(spec, target_name):
    return expand_spec(spec, plan_for(spec.alphabet, target_name))


def bracket_oracle(matrix, expand=None):
    """Membership in a bracket shift, or in its expansion of symbol `expand`."""
    if expand is None:
        return lambda word: oracles.bracket_word_nonzero(matrix, word)
    fresh = 2 * len(matrix)
    return lambda word: oracles.expanded_word_nonzero(matrix, expand, fresh, word)


# name -> (spec factory, longest word checked, independent membership oracle)
BRACKET_SPECS = {
    "dyck2": (lambda: DyckN(2), 4, bracket_oracle(all_ones(2))),
    "fib": (fibonacci_dyck_spec, 4, bracket_oracle(FIB)),
    "dyck2+e": (lambda: expanded(DyckN(2), "a1"), 4, bracket_oracle(all_ones(2), 0)),
    "fib+e": (lambda: expanded(fibonacci_dyck_spec(), "a1"), 4, bracket_oracle(FIB, 0)),
    "dyck2+b1": (lambda: expanded(DyckN(2), "b1"), 4, bracket_oracle(all_ones(2), 2)),
    "fib+b1": (lambda: expanded(fibonacci_dyck_spec(), "b1"), 4, bracket_oracle(FIB, 2)),
}


def has_factor(word, factor):
    k = len(factor)
    return any(word[i : i + k] == factor for i in range(len(word) - k + 1))


def even_runs_between_ones(word):
    ones = [i for i, s in enumerate(word) if s == 1]
    return all((b - a - 1) % 2 == 0 for a, b in zip(ones, ones[1:]))


def test_forbidden_normalization_drops_redundant_words():
    ab = Alphabet(("0", "1"))
    spec = SftForbidden(ab, frozenset({(1, 1), (1, 1, 0), (0, 1, 1)}))
    assert spec.forbidden == frozenset({(1, 1)})


GOLDEN_MEAN_LANGUAGE = system_language(golden_mean_spec(), 10)


@given(words_01)
def test_golden_mean_admissibility_is_factor_avoidance(word):
    assert GOLDEN_MEAN_LANGUAGE(word) == (not has_factor(word, (1, 1)))


def test_even_shift_admissibility_is_run_parity():
    member = system_language(even_shift_spec(), 8)
    for n in range(9):
        for word in product(range(2), repeat=n):
            assert member(word) == even_runs_between_ones(word), word


def admissible_words(member, k, n):
    return [w for w in product(range(k), repeat=n) if member(w)]


def test_block_counts():
    # golden mean block counts follow the Fibonacci recurrence
    counts = [len(admissible_words(GOLDEN_MEAN_LANGUAGE, 2, n)) for n in range(8)]
    assert counts == [1, 2, 3, 5, 8, 13, 21, 34]
    full3 = system_language(FullShift(3), 4)
    assert [len(admissible_words(full3, 3, n)) for n in range(5)] == [1, 3, 9, 27, 81]


def test_blocks_sorted_and_admissible():
    # the words read from the top of a canonical system come in
    # lexicographic order within a length, and are the admissible ones
    sys = build_lambda_synchronizing(golden_mean_spec(), 5)
    top = mask(range(sys.levels[0].size))
    out = [w for w, _ in label_words(sys, 0, top, 5) if len(w) == 5]
    assert out == sorted(out)
    assert out == admissible_words(oracles.sft_language(2, [(1, 1)]), 2, 5)


def followers(sys, word, length):
    """Words of `length` readable after `word` from the top of `sys`."""
    ends = read_down(sys, 0, mask(range(sys.levels[0].size)), word)
    return {w for w, _ in label_words(sys, len(word), ends, length) if len(w) == length}


def predecessors(sys, word, length):
    """Words of `length` from the top of `sys` that `word` reads on from."""
    top = mask(range(sys.levels[0].size))
    return {
        w
        for w, ends in label_words(sys, 0, top, length)
        if len(w) == length and read_down(sys, length, ends, word)
    }


def test_predecessor_and_follower_exact_sets():
    sys = build_lambda_synchronizing(golden_mean_spec(), 4)
    assert predecessors(sys, (1,), 2) == {(0, 0), (1, 0)}
    assert followers(sys, (1,), 2) == {(0, 0), (0, 1)}
    assert predecessors(sys, (1, 1), 2) == set()
    assert followers(sys, (), 1) == {(0,), (1,)}


# depth 6 leaves room to read a word of up to 3 symbols below a past of 3
PREDECESSOR_SYSTEMS = {
    kind: build_lambda_synchronizing(make(), 6) for kind, (make, _, _) in BRACKET_SPECS.items()
}


@settings(max_examples=120, deadline=None)  # about 20 per spec
@given(st.sampled_from(sorted(BRACKET_SPECS)), st.integers(0, 3), st.data())
def test_predecessors_match_bruteforce(kind, length, data):
    # A bracket spec's predecessor sets, read through its built system (the
    # interface build, for an expansion), are the words v of `length` with
    # v·word admissible.
    _, _, oracle = BRACKET_SPECS[kind]
    sys = PREDECESSOR_SYSTEMS[kind]
    k = len(sys.alphabet)
    word = data.draw(st.lists(st.integers(0, k - 1), max_size=3).map(tuple), label="word")
    want = {v for v in product(range(k), repeat=length) if oracle(v + word)}
    assert predecessors(sys, word, length) == want


@pytest.mark.parametrize("kind", sorted(BRACKET_SPECS))
def test_bracket_language_matches_oracle(kind):
    # The built systems of bracket specs and their expansions against the
    # partial-map oracles, on every word up to the spec's longest length.
    _, max_len, oracle = BRACKET_SPECS[kind]
    sys = PREDECESSOR_SYSTEMS[kind]
    member = top_language(sys)
    for n in range(max_len + 1):
        for word in product(range(len(sys.alphabet)), repeat=n):
            assert member(word) == oracle(word), word


@st.composite
def covered_specs(draw):
    """A full shift on 2-4 symbols, or an SFT on 2-3 symbols avoiding up to
    four words of length <= 4 (possibly an empty one), with its oracle."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        return FullShift(n), oracles.sft_language(n, ())
    k = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=4).map(tuple)
    forbidden = draw(st.lists(word, max_size=4))
    alphabet = Alphabet(tuple(str(i) for i in range(k)))
    return SftForbidden(alphabet, frozenset(forbidden)), oracles.sft_language(k, forbidden)


@settings(max_examples=150)
@given(covered_specs(), st.data())
def test_cover_language_matches_oracle(presented, data):
    # Every word up to 4 symbols, then a drawn word of up to 6: shorter and
    # longer than the memory window, and with a symbol one past the
    # alphabet now and then.  An empty shift has no system to read.
    spec, member = presented
    if not member(()):
        with pytest.raises(ValueError, match="the shift is empty"):
            build_lambda_synchronizing(spec, 6)
        return
    built = system_language(spec, 6)
    k = len(spec.alphabet)
    for n in range(5):
        for v in product(range(k), repeat=n):
            assert built(v) == member(v), v
    word = data.draw(st.lists(st.integers(0, k), max_size=6).map(tuple), label="word")
    assert built(word) == member(word)


FOLLOWER_SYSTEMS = {
    kind: build_lambda_synchronizing(make(), 13, Budget(max_depth=13))
    for kind, make in (("gm", golden_mean_spec), ("even", even_shift_spec))
}


@given(st.sampled_from(sorted(FOLLOWER_SYSTEMS)), words_01, st.integers(0, 3))
def test_followers_match_bruteforce(kind, word, length):
    member = even_runs_between_ones if kind == "even" else (lambda w: not has_factor(w, (1, 1)))
    if not member(word):
        return
    want = {v for v in product(range(2), repeat=length) if member(word + v)}
    assert followers(FOLLOWER_SYSTEMS[kind], word, length) == want


@settings(max_examples=150)
@given(covered_specs(), st.integers(1, 3))
@example((golden_mean_spec(), oracles.sft_language(2, [(1, 1)])), 3)
@example((FullShift(4), oracles.sft_language(4, ())), 2)
def test_past_quotient_matches_definitional_census(presented, depth):
    """The past quotient of an SFT's or a full shift's cover is the census
    system of its synchronizing words.

    With m the memory window (one less than the longest forbidden word, at
    least 1), a word of length >= m synchronizes at every level: if u·w
    and w·v are admissible and |w| >= m, so is u·w·v.  Any synchronizing
    word has the class of an admissible extension of length >= m, hence of
    that extension's first m symbols, so the length-m words meet every
    class, and x·μ has the class of its first m symbols.
    """
    spec, member = presented
    assume(member(()))
    k = len(spec.alphabet)
    sync_len = max([1] + [len(f) - 1 for f in getattr(spec, "forbidden", ())])
    census = oracles.nested_canonical_form(*oracles.census_system(k, member, sync_len, depth))
    quotient = oracles.nested_canonical_form(*raw(build_lambda_synchronizing(spec, depth)))
    assert census is not None and quotient is not None
    assert census == quotient


def test_even_shift_quotient_matches_definitional_census():
    """The past quotient of the even shift's Fischer cover is the census
    system of its synchronizing words.

    A word containing a 1 synchronizes at every level: reading a 1 forgets
    the past, so the class is fixed by the parity of the run of 0s before
    the first 1.  The candidates of length 2 that contain a 1 (01, 10, 11)
    meet both parities, and x·μ contains a 1 again, so they reach every
    class.  A bare run of 0s does not synchronize: a 1 after it fixes a
    parity the run left open.
    """
    for depth in range(1, 5):
        raw_census = oracles.census_system(
            2, even_runs_between_ones, 2, depth, keep=lambda word: 1 in word
        )
        census = oracles.nested_canonical_form(*raw_census)
        quotient = oracles.nested_canonical_form(*raw(build_lambda_synchronizing(even_shift_spec(), depth)))
        assert quotient is not None
        assert census == quotient, depth


def test_sofic_presentations_must_be_strongly_connected():
    # The even shift's Fischer cover padded with a vertex z carrying a 0
    # loop presents the even shift again, since 0^inf lies in it.  Its
    # quotient kept z's past as a class of its own (sizes 1 2 3 3 ..., K0 =
    # K1 = Z where the even shift has 0), so such a presentation is refused.
    padded = from_names(
        Alphabet(("0", "1")),
        ("u", "w", "z"),
        [("u", "0", "w"), ("u", "1", "u"), ("w", "0", "u"), ("z", "0", "z")],
    )
    message = "^sofic cover must be strongly connected: vertex 'z' is unreachable from 'u'$"
    with pytest.raises(ValueError, match=message):
        SoficGraph(padded)
    assert SoficGraph(even_shift_spec().graph) == even_shift_spec()


def test_expanded_builds_draw_no_budget_units():
    # an expanded bracket shift builds from its interfaces, enumerating no
    # words, so a budget of 0 builds the same system
    spec = expanded(DyckN(2), "a1")
    assert build_lambda_synchronizing(spec, 3, Budget(max_words=0)) == build_lambda_synchronizing(spec, 3)


# base spec -> its factory; each symbol of each base is expanded in turn
INTERFACE_BASES = {"dyck2": lambda: DyckN(2), "dyck3": lambda: DyckN(3), "fib": fibonacci_dyck_spec}
INTERFACE_EXPANSIONS = [
    (base, name) for base, make in INTERFACE_BASES.items() for name in make().alphabet.names
]


@pytest.mark.parametrize(
    "base, target", INTERFACE_EXPANSIONS, ids=[f"{b}+{t}" for b, t in INTERFACE_EXPANSIONS]
)
def test_interfaces_fix_the_past(base, target):
    # The interface build of an expansion rests on two facts, checked on
    # every level-l synchronizing word w of length max(2l, l+2), l = 1, 2:
    # w's past, the length-l words v with v·w admissible, is fixed by its
    # interface (its first l unmatched closes, and whether it begins with a
    # bare target); and these words have as many pasts as the built level
    # has classes.
    spec = expanded(INTERFACE_BASES[base](), target)
    matrix, t, fresh = spec.base.matrix, spec.target, spec.fresh
    k = len(spec.alphabet)
    member = lru_cache(maxsize=None)(
        lambda w: oracles.expanded_word_nonzero(matrix, t, fresh, w, reduces_nonzero)
    )
    sys = build_lambda_synchronizing(spec, 2)
    for l in (1, 2):
        pasts = {}
        for w in product(range(k), repeat=max(2 * l, l + 2)):
            if not member(w):
                continue
            # drop each fresh; a trailing fresh reads as its target
            contracted = tuple(s for s in w if s != fresh) + ((t,) if w[-1] == fresh else ())
            closes = oracles.reduce_brackets(matrix, contracted).closes
            if len(closes) < l:
                continue
            past = frozenset(v for v in product(range(k), repeat=l) if member(v + w))
            assert pasts.setdefault((closes[:l], w[0] == t), past) == past, (l, w)
        assert len(set(pasts.values())) == sys.sizes[l], l


@pytest.mark.parametrize("kind", ["dyck2", "fib", "dyck2+e"])
def test_bracket_specs_reject_out_of_range_symbols(kind):
    sys = PREDECESSOR_SYSTEMS[kind]
    member = top_language(sys)
    k = len(sys.alphabet)
    for bad in (-1, k):
        for word in ((bad,), (1, bad), (bad, k - 1)):
            assert not member(word), word


@pytest.mark.parametrize(
    "make",
    [
        lambda: DyckN(2),
        fibonacci_dyck_spec,
        lambda: FullShift(3),
        lambda: expanded(DyckN(2), "b1"),
    ],
    ids=["dyck2", "fib", "full3", "dyck2+e"],
)
def test_spec_alphabet_is_built_once_and_keeps_equality(make):
    spec = make()
    assert spec.alphabet is spec.alphabet
    fresh = make()
    assert spec == fresh
    assert hash(spec) == hash(fresh)


def test_alphabet_constructions_do_not_grow_with_census_depth(monkeypatch):
    built = []
    original = Alphabet.__init__

    def counting(self, names):
        built.append(names)
        original(self, names)

    monkeypatch.setattr(Alphabet, "__init__", counting)
    counts = []
    for depth in (1, 2):
        built.clear()
        build_lambda_synchronizing(expanded(DyckN(2), "a1"), depth)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "make",
    [
        golden_mean_spec,
        even_shift_spec,
        *(BRACKET_SPECS[k][0] for k in ("dyck2", "fib", "dyck2+e")),
        lambda: FullShift(3),
    ],
    ids=["gm", "even", "dyck2", "fib", "dyck2+e", "full3"],
)
def test_shallow_depths_are_rejected(make):
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            build_lambda_synchronizing(make(), depth)


def test_sft_cover_shape():
    cover = sft_cover(golden_mean_spec())
    assert left_resolving_violation(cover) is None
    assert is_essential(cover)
    # vertices are named by their memory windows, here of length 1
    assert cover.vertices == ("0", "1")
    assert len(cover.edges) == 3
