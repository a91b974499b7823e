"""The bracket machine against the reduction calculus and the partial-map oracle.

Independent computations must agree on which bracket words are nonzero:
the package's incremental machine, the reduction calculus and the
partial-map oracle in oracles.py, which share no code with it, and path
existence in the constructed vertex-level systems (tested here for the
Fibonacci matrix, and again in the acceptance suite).
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import oracles
from conftest import FIB
from lgk import DyckN, MarkovDyck, is_admissible
from lgk.dyck import BracketMachine, all_ones, validate_transition_matrix
from lgk.subshift import _read
from lgk.system import build_cantor_horizon_markov_dyck, read_down

SWAP = ((0, 1), (1, 0))  # the docstring example: state i only follows 3-i


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


def test_machine_agrees_with_reducer():
    for matrix in (all_ones(2), FIB, SWAP):
        machine = BracketMachine(matrix)
        for n in range(7):
            for word in product(range(4), repeat=n):
                state = _read(machine, machine.start, word)
                r = oracles.reduce_brackets(matrix, word)
                assert (state is None) == r.is_zero, word
                if state is not None:
                    assert state == (r.support, r.opens)


def test_admissibility_matches_partial_map_oracle():
    cases = [(MarkovDyck(FIB), FIB, 6), (DyckN(2), all_ones(2), 5)]
    for spec, matrix, max_len in cases:
        for n in range(max_len + 1):
            for word in product(range(4), repeat=n):
                assert is_admissible(spec, word) == oracles.bracket_word_nonzero(
                    matrix, word
                ), word


def test_admissibility_random_long_words():
    rng = random.Random(2)
    spec = MarkovDyck(FIB)
    for _ in range(300):
        n = rng.randint(7, 10)
        word = tuple(rng.randrange(4) for _ in range(n))
        assert is_admissible(spec, word) == oracles.bracket_word_nonzero(FIB, word)


def test_path_existence_matches_admissibility_at_every_level():
    depth = 7
    sys = build_cantor_horizon_markov_dyck(FIB, depth)
    spec = MarkovDyck(FIB)
    for n in range(6):
        for word in product(range(4), repeat=n):
            admissible = is_admissible(spec, word)
            for start in range(depth - n + 1):
                everyone = frozenset(range(sys.levels[start].size))
                reached = read_down(sys, start, everyone, word)
                assert bool(reached) == admissible, (word, start)


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
