"""Past equivalence on labelled covers against a path-enumerating oracle.

`_quotient_system` collapses an essential left-resolving cover level by
level through the predecessor-rank refinement; `oracles.past_language`
lists the past languages themselves.
"""

from __future__ import annotations

import sys
from itertools import product

from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from conftest import golden_mean_spec
from lgk.alphabet import Alphabet
from lgk.labeled_graph import LabeledGraph, essential_subgraph
from lgk.subshift import sft_cover
from lgk.system import _quotient_system

DEPTH = 5


@st.composite
def essential_left_resolving_covers(draw) -> LabeledGraph:
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    # At most one source per (target, symbol), so the graph is left-resolving
    # and so is its essential part.
    sources = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n * k, max_size=n * k))
    edges = [(s, a, t) for (t, a), s in zip(product(range(n), range(k)), sources) if s is not None]
    names = tuple(f"v{i}" for i in range(n))
    g = essential_subgraph(LabeledGraph(Alphabet(tuple("abc"[:k])), names, tuple(edges)))
    assume(g.vertices)
    return g


@given(essential_left_resolving_covers())
def test_quotient_levels_are_past_classes(g):
    # Each level's tags list its classes' member names; classes come in
    # order of first appearance, as the oracle numbers them.
    quotient = _quotient_system(g, DEPTH)
    index = {name: v for v, name in enumerate(g.vertices)}
    expected = oracles.past_classes(len(g.vertices), g.edges, DEPTH)
    for level, ids in zip(quotient.levels, expected, strict=True):
        classes = [{index[name] for name in tag.split("|")} for tag in level.tags]
        assert classes == [{v for v, c in enumerate(ids) if c == i} for i in range(max(ids) + 1)]


@given(essential_left_resolving_covers())
def test_quotient_matches_a_full_refinement(g):
    # The build stops refining at the first level whose class count repeats
    # and shares the tail; refining every level gives the same system.
    tags, layers, collapses = oracles.refined_quotient(g.vertices, g.edges, 40)
    for depth in range(1, 41):
        quotient = _quotient_system(g, depth)
        assert [list(level.tags) for level in quotient.levels] == tags[: depth + 1]
        assert [list(layer) for layer in quotient.edges] == layers[:depth]
        assert [list(mapping) for mapping in quotient.iota] == collapses[:depth]


def test_deep_quotient_stays_small():
    # Level 2 is the first with as many classes as the level above, so the
    # build shares one level, edge layer and collapse from there on.
    cover = sft_cover(golden_mean_spec())
    assert len(cover.vertices) == 2
    depth = 1000
    quotient = _quotient_system(cover, depth)
    assert quotient.sizes == (1,) + (2,) * depth
    assert all(level is quotient.levels[2] for level in quotient.levels[2:])
    assert all(layer is quotient.edges[1] for layer in quotient.edges[1:])
    assert all(mapping is quotient.iota[1] for mapping in quotient.iota[1:])
    assert quotient.iota[1] == (0, 1)
    assert quotient.repeats == (False, False) + (True,) * (depth - 2)


def test_quotient_depth_is_not_bounded_by_recursion_limit():
    cover = sft_cover(golden_mean_spec())
    depth = sys.getrecursionlimit() + 100
    quotient = _quotient_system(cover, depth)
    assert quotient.levels[-1] == quotient.levels[1]
