"""Three semantics of bracket words, and the language the built systems read.

Independent computations must agree on which bracket words are nonzero:
the reduction calculus and the partial-map oracle in oracles.py, which
share no code with the package, and path existence in the constructed
systems.  Paths project one level up and lift one level down (see
`lgk.system.read_down`), so every start level of a built system reads the
factor language; that is checked here on covers, bracket shifts and an
expansion of each against the package-free oracles, and again to length 8
in the acceptance suite.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product

import pytest

import oracles
from conftest import (
    FIB,
    even_shift_graph,
    even_shift_spec,
    fibonacci_dyck_spec,
    golden_mean_spec,
    mask,
    system_language,
)
from lgk import DyckN, FullShift, MarkovDyck, build_lambda_synchronizing, expand_spec, plan_for
from lgk.dyck import all_ones, validate_transition_matrix
from lgk.system import build_cantor_horizon_markov_dyck, label_words

SWAP = ((0, 1), (1, 0))  # state i only follows 3-i, so a cancelled pair still constrains


def test_reduction_known_values():
    ones = all_ones(2)
    r = oracles.reduce_brackets(ones, (0, 2))  # matched pair cancels
    assert not r.is_zero and r.closes == () and r.opens == ()
    assert r.is_trivial
    assert oracles.reduce_brackets(ones, (0, 3)).is_zero  # mismatched pair
    r = oracles.reduce_brackets(ones, (2, 0))  # close then open: already reduced
    assert r.closes == (0,) and r.opens == (0,)
    assert r.reduced_word(2) == (2, 0)
    # Fibonacci: state 1 cannot follow itself
    assert oracles.reduce_brackets(FIB, (1, 1)).is_zero  # a2 a2 nests 1 on 1
    assert not oracles.reduce_brackets(FIB, (0, 1, 3, 2)).is_zero  # a1 a2 b2 b1
    assert oracles.reduce_brackets(FIB, (3, 3)).is_zero  # b2 b2 chains 1 -> 1
    assert not oracles.reduce_brackets(FIB, (2, 2)).is_zero  # b1 b1 allowed
    assert oracles.reduce_brackets(FIB, (1, 3)).support == frozenset({0})
    # support constraints survive a full cancellation
    assert not oracles.reduce_brackets(SWAP, (0, 2, 0)).is_zero
    assert oracles.reduce_brackets(SWAP, (0, 2, 1)).is_zero


def reduces_nonzero(matrix, word):
    return not oracles.reduce_brackets(matrix, word).is_zero


@pytest.mark.parametrize(
    "matrix, max_len, map_len",
    [(FIB, 6, 6), (all_ones(2), 5, 5), (SWAP, 6, 4)],
    ids=["fib", "dyck2", "swap"],
)
def test_admissibility_matches_partial_map_oracle(matrix, max_len, map_len):
    # Reduction and path existence agree on every word up to max_len, and
    # the partial maps, which take longest, agree with both up to map_len.
    member = system_language(MarkovDyck(matrix), max_len)
    for n in range(max_len + 1):
        for word in product(range(4), repeat=n):
            nonzero = reduces_nonzero(matrix, word)
            assert member(word) == nonzero, word
            if n <= map_len:
                assert oracles.bracket_word_nonzero(matrix, word) == nonzero, word


def test_admissibility_random_long_words():
    rng = random.Random(2)
    member = system_language(MarkovDyck(FIB), 10)
    for _ in range(300):
        n = rng.randint(7, 10)
        word = tuple(rng.randrange(4) for _ in range(n))
        assert member(word) == oracles.bracket_word_nonzero(FIB, word)


def past_member(graph):
    """Membership in the path language of an essential graph."""
    everyone = range(len(graph.vertices))
    words = lru_cache(maxsize=None)(lambda n: oracles.past_language(graph.edges, everyone, n))
    return lambda word: word in words(len(word))


def expansion_member(base_member, target, fresh):
    """Membership in the expansion target -> fresh·target of the shift
    whose factor language is `base_member`."""
    return lambda word: oracles.expanded_word_nonzero(
        None, target, fresh, word, lambda _, base: base_member(base)
    )


# name -> (spec factory, membership in its factor language, symbol to expand)
LANGUAGE_BASES = {
    "gm": (golden_mean_spec, oracles.sft_language(2, [(1, 1)]), "1"),
    "even": (even_shift_spec, past_member(even_shift_graph()), "0"),
    "full3": (lambda: FullShift(3), oracles.sft_language(3, ()), "0"),
    "dyck2": (lambda: DyckN(2), lambda w: reduces_nonzero(all_ones(2), w), "a1"),
    "fib": (fibonacci_dyck_spec, lambda w: reduces_nonzero(FIB, w), "b1"),
}
# each base, then each base expanded at its symbol
LANGUAGE_CASES = list(LANGUAGE_BASES) + [f"{name}+{case[2]}" for name, case in LANGUAGE_BASES.items()]


@pytest.mark.parametrize("case", LANGUAGE_CASES)
def test_path_existence_matches_admissibility_at_every_level(case):
    # The words readable from all of any start level are the factor
    # language, up to the length that fits below that level.
    name, _, symbol = case.partition("+")
    make, member, _ = LANGUAGE_BASES[name]
    spec = make()
    if symbol:
        plan = plan_for(spec.alphabet, symbol)
        spec = expand_spec(spec, plan)
        member = expansion_member(member, plan.target, plan.fresh)
    depth, max_len = 7, 5
    sys = build_lambda_synchronizing(spec, depth)
    k = len(spec.alphabet)
    want = {w for n in range(max_len + 1) for w in product(range(k), repeat=n) if member(w)}
    for start in range(depth + 1):
        everyone = mask(range(sys.levels[start].size))
        fits = min(max_len, depth - start)
        read = {w for w, _ in label_words(sys, start, everyone, fits)}
        assert read == {w for w in want if len(w) <= fits}, start


def test_state_word_enumeration():
    # horizon level n lists the admissible state words of length n in
    # lexicographic order, each tagged with its closing word
    assert [len(oracles.chain_words(FIB, n)) for n in range(6)] == [1, 2, 3, 5, 8, 13]
    for matrix in (FIB, all_ones(2)):
        sys = build_cantor_horizon_markov_dyck(matrix, 5)
        for n, level in enumerate(sys.levels):
            words = oracles.chain_words(matrix, n)
            assert level.tags == tuple(" ".join(f"b{s + 1}" for s in w) for w in words)
    assert sys.sizes == tuple(2**n for n in range(6))  # Dyck-2, built last


def test_matrix_validation():
    with pytest.raises(ValueError):
        validate_transition_matrix(((1,),))
    with pytest.raises(ValueError):
        validate_transition_matrix(((1, 1), (0, 0)))  # zero row
    with pytest.raises(ValueError):
        validate_transition_matrix(((1, 0), (1, 0)))  # zero column
    with pytest.raises(ValueError):
        validate_transition_matrix(((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        validate_transition_matrix(((1, 1, 1), (1, 1, 1)))
