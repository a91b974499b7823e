"""Subshift specs: admissibility, candidate tables, the class census.

Admissibility is cross-checked against direct definitions (forbidden-factor
scan for the SFT, run-length parity for the even shift) rather than against
the package's own machinery.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIB, even_shift_spec, fibonacci_dyck_spec, golden_mean_spec
from lgk import (
    Alphabet,
    Budget,
    BudgetExceeded,
    DyckN,
    FullShift,
    SftForbidden,
    build_lambda_synchronizing,
    expand_spec,
    is_admissible,
    plan_for,
    synchronizing_classes,
)
from lgk.dyck import all_ones
from lgk.labeled_graph import is_essential, left_resolving_violation
from lgk.subshift import CandidateTable, _expanded_class_reps, _read, _stepper, sft_cover
from lgk.system import label_words, read_down
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


# name -> (spec factory, longest word drawn, independent membership oracle)
PREDECESSOR_SPECS = {
    "dyck2": (lambda: DyckN(2), 3, bracket_oracle(all_ones(2))),
    "fib": (fibonacci_dyck_spec, 3, bracket_oracle(FIB)),
    "dyck2+e": (lambda: expanded(DyckN(2), "a1"), 3, bracket_oracle(all_ones(2), 0)),
    "fib+e": (lambda: expanded(fibonacci_dyck_spec(), "a1"), 3, bracket_oracle(FIB, 0)),
    "dyck2+b1": (lambda: expanded(DyckN(2), "b1"), 3, bracket_oracle(all_ones(2), 2)),
    "fib+b1": (lambda: expanded(fibonacci_dyck_spec(), "b1"), 3, bracket_oracle(FIB, 2)),
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


@given(words_01)
def test_golden_mean_admissibility_is_factor_avoidance(word):
    assert is_admissible(golden_mean_spec(), word) == (not has_factor(word, (1, 1)))


def test_even_shift_admissibility_is_run_parity():
    spec = even_shift_spec()
    for n in range(9):
        for word in product(range(2), repeat=n):
            assert is_admissible(spec, word) == even_runs_between_ones(word), word


def admissible_words(spec, n):
    return [w for w in product(range(len(spec.alphabet)), repeat=n) if is_admissible(spec, w)]


def test_block_counts():
    # golden mean block counts follow the Fibonacci recurrence
    gm = golden_mean_spec()
    assert [len(admissible_words(gm, n)) for n in range(8)] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert [len(admissible_words(FullShift(3), n)) for n in range(5)] == [1, 3, 9, 27, 81]


def test_blocks_sorted_and_admissible():
    # the words read from the top of a canonical system come in
    # lexicographic order within a length, and are the admissible ones
    gm = golden_mean_spec()
    sys = build_lambda_synchronizing(gm, 5)
    top = frozenset(range(sys.levels[0].size))
    out = [w for w, _ in label_words(sys, 0, top, 5) if len(w) == 5]
    assert out == sorted(out)
    assert all(is_admissible(gm, w) for w in out)
    assert out == admissible_words(gm, 5)


def followers(sys, word, length):
    """Words of `length` readable after `word` from the top of `sys`."""
    ends = read_down(sys, 0, frozenset(range(sys.levels[0].size)), word)
    return {w for w, _ in label_words(sys, len(word), ends, length) if len(w) == length}


def predecessors(sys, word, length):
    """Words of `length` from the top of `sys` that `word` reads on from."""
    top = frozenset(range(sys.levels[0].size))
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


@settings(max_examples=320)  # about 50 per spec
@given(st.sampled_from(sorted(PREDECESSOR_SPECS)), st.integers(0, 3), st.data())
def test_predecessors_match_bruteforce(kind, length, data):
    # The census key lemma: a bracket spec's predecessor set is the union of
    # the candidate groups whose end states accept the word, and keys match
    # exactly when predecessor sets do.
    make, max_len, oracle = PREDECESSOR_SPECS[kind]
    spec = make()
    symbols = st.integers(0, len(spec.alphabet) - 1)
    drawn = st.lists(symbols, max_size=max_len).map(tuple)
    word = data.draw(drawn, label="word")
    every = list(product(range(len(spec.alphabet)), repeat=length))

    def past(w):
        return {v for v in every if oracle(v + w)}

    table = CandidateTable(spec, length)
    assert {v for i in table.key(word) for v in table.groups[i]} == past(word)
    other = data.draw(drawn, label="other")
    assert (table.key(word) == table.key(other)) == (past(word) == past(other))


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
    # alphabet now and then.
    spec, member = presented
    k = len(spec.alphabet)
    for n in range(5):
        for v in product(range(k), repeat=n):
            assert is_admissible(spec, v) == member(v), v
    word = data.draw(st.lists(st.integers(0, k), max_size=6).map(tuple), label="word")
    assert is_admissible(spec, word) == member(word)


FOLLOWER_SYSTEMS = {
    kind: build_lambda_synchronizing(make(), 13, Budget(max_depth=13))
    for kind, make in (("gm", golden_mean_spec), ("even", even_shift_spec))
}


@given(st.sampled_from(sorted(FOLLOWER_SYSTEMS)), words_01, st.integers(0, 3))
def test_followers_match_bruteforce(kind, word, length):
    spec = golden_mean_spec() if kind == "gm" else even_shift_spec()
    if not is_admissible(spec, word):
        return
    want = {v for v in product(range(2), repeat=length) if is_admissible(spec, word + v)}
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


@pytest.mark.parametrize("make", [golden_mean_spec, even_shift_spec, lambda: FullShift(3)])
def test_census_rejects_specs_with_a_cover(make):
    # their systems are past quotients of their covers; the census is the
    # bracket specs' alone
    for level in (0, 1, 2):
        with pytest.raises(TypeError):
            synchronizing_classes(make(), level)


def test_budget_exhaustion_raises():
    # an expanded bracket shift builds by its class census, which the word
    # budget caps
    spec = expanded(DyckN(2), "a1")
    with pytest.raises(BudgetExceeded):
        synchronizing_classes(spec, 3, Budget(max_words=10))
    with pytest.raises(BudgetExceeded):
        build_lambda_synchronizing(spec, 3, Budget(max_words=10))


def test_bracket_predecessors_draw_one_word_per_candidate():
    # Dyck-2 has 48 admissible words of length 3; each candidate costs one unit
    with pytest.raises(BudgetExceeded):
        CandidateTable(DyckN(2), 3, Budget(max_words=47))
    table = CandidateTable(DyckN(2), 3, Budget(max_words=48))
    assert sum(len(group) for group in table.groups) == 48


@pytest.mark.parametrize("kind", ["dyck2", "fib", "dyck2+e"])
def test_bracket_specs_reject_out_of_range_symbols(kind):
    spec = PREDECESSOR_SPECS[kind][0]()
    k = len(spec.alphabet)
    for bad in (-1, k):
        for word in ((bad,), (1, bad), (bad, k - 1)):
            assert not is_admissible(spec, word), word
            assert CandidateTable(spec, 1).key(word) == frozenset(), word


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
    original = Alphabet.__post_init__

    def counting(self):
        built.append(self.names)
        original(self)

    monkeypatch.setattr(Alphabet, "__post_init__", counting)
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
        *(PREDECESSOR_SPECS[k][0] for k in ("dyck2", "fib", "dyck2+e")),
        lambda: FullShift(3),
    ],
    ids=["gm", "even", "dyck2", "fib", "dyck2+e", "full3"],
)
def test_negative_lengths_are_rejected(make):
    with pytest.raises(ValueError, match="level must be >= 0"):
        synchronizing_classes(make(), -1)


@pytest.mark.parametrize("base", ["dyck2", "fib"])
@pytest.mark.parametrize("target", ["a1", "b1"])
def test_census_edge_implications_hold(base, target):
    # The class system drops its per-edge checks on two implications: for
    # a level-(l+1) representative nu and a symbol x, x.nu is admissible
    # exactly when its level-l key is nonempty, and then x.nu has at least
    # l unmatched closes, so it synchronizes at level l.
    spec = expanded(DyckN(2) if base == "dyck2" else fibonacci_dyck_spec(), target)
    stepper = _stepper(spec)
    checked = 0
    for l in range(3):
        table = CandidateTable(spec, l)
        for cls in synchronizing_classes(spec, l + 1):
            for x in range(len(spec.alphabet)):
                word = (x,) + cls.representative
                admissible = is_admissible(spec, word)
                assert bool(table.key(word)) == admissible, word
                if admissible:
                    assert stepper.emitted(_read(stepper, stepper.start, word)) >= l, word
                    checked += 1
    assert checked > 0


# base spec -> highest level whose census is compared with the word census
WORD_CENSUS_BASES = {"dyck2": (lambda: DyckN(2), 4), "fib": (fibonacci_dyck_spec, 4), "dyck3": (lambda: DyckN(3), 3)}
WORD_CENSUS_EXPANSIONS = [
    (base, name)
    for base, (make, _) in WORD_CENSUS_BASES.items()
    for name in make().alphabet.names
]


@pytest.mark.parametrize(
    "base, target", WORD_CENSUS_EXPANSIONS, ids=[f"{b}+{t}" for b, t in WORD_CENSUS_EXPANSIONS]
)
def test_product_state_walk_matches_word_census(base, target):
    # The walk over product states keeps each key's shortlex-least word and
    # the order in which the word census first meets the keys.
    make, top = WORD_CENSUS_BASES[base]
    spec = expanded(make(), target)
    stepper = _stepper(spec)
    for level in range(1, top + 1):
        table = CandidateTable(spec, level)
        walked = _expanded_class_reps(spec, table, Budget())
        census = oracles.word_census_class_reps(stepper, len(spec.alphabet), table)
        assert list(walked.items()) == list(census.items()), level


CLIP_SPECS = ["dyck2+e", "fib+e", "dyck2+b1", "fib+b1"]


@given(st.sampled_from(CLIP_SPECS), st.integers(0, 4), st.data())
def test_clipping_the_close_count_keeps_reads_and_commutes_with_step(kind, cap, data):
    spec = PREDECESSOR_SPECS[kind][0]()
    stepper = _stepper(spec)
    words = st.lists(st.integers(0, len(spec.alphabet) - 1), max_size=8).map(tuple)
    u = data.draw(words, label="u")
    state = stepper.start
    for x in u:  # u's longest admissible prefix
        nxt = stepper.step(state, x)
        if nxt is None:
            break
        state = nxt
    w = data.draw(words, label="w")
    # a read's liveness does not depend on the close count
    assert (_read(stepper, stepper.clip(state, 0), w) is None) == (_read(stepper, state, w) is None)
    # min(emitted, cap) commutes with step, symbol by symbol along w
    clipped = stepper.clip(state, cap)
    assert stepper.emitted(clipped) == min(stepper.emitted(state), cap)
    for x in w:
        state, clipped = stepper.step(state, x), stepper.step(clipped, x)
        assert (clipped is None) == (state is None)
        if state is None:
            break
        clipped = stepper.clip(clipped, cap)
        assert clipped == stepper.clip(state, cap)
        assert stepper.emitted(clipped) == min(stepper.emitted(state), cap)


def test_sft_cover_shape():
    cover = sft_cover(golden_mean_spec())
    assert left_resolving_violation(cover) is None
    assert is_essential(cover)
    # vertices are named by their memory windows, here of length 1
    assert cover.vertices == ("0", "1")
    assert len(cover.edges) == 3
