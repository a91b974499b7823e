"""Past equivalence on labelled graphs against a path-enumerating oracle.

`past_partition` and `PastClassifier` decide equality of past languages
from hash-consed fingerprints; `oracles.past_language` lists the languages
themselves.  The graphs are arbitrary: not necessarily left-resolving,
essential or connected.
"""

from __future__ import annotations

import sys

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import golden_mean_spec
from lgk.alphabet import Alphabet
from lgk.labeled_graph import LabeledGraph, PastClassifier, backward_steps, past_partition
from lgk.subshift import sft_cover

DEPTH = 5


@st.composite
def small_graphs(draw) -> LabeledGraph:
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    triples = st.tuples(st.integers(0, n - 1), st.integers(0, k - 1), st.integers(0, n - 1))
    edges = draw(st.sets(triples, max_size=3 * n * k))
    return LabeledGraph(Alphabet(tuple("abc"[:k])), tuple(f"v{i}" for i in range(n)), tuple(sorted(edges)))


# Not left-resolving (two a-edges into v1), with a source v0 and sinks v3
# and v4; v4 is entered only from the source, so its past is empty from
# length 2 on.
FORKED = LabeledGraph(
    Alphabet(("a", "b")),
    ("v0", "v1", "v2", "v3", "v4"),
    ((0, 0, 1), (0, 1, 4), (1, 1, 2), (2, 0, 1), (2, 1, 2), (2, 0, 3)),
)


@given(small_graphs())
@example(FORKED)
def test_past_partition_matches_oracle(g):
    assert past_partition(g, DEPTH) == oracles.past_classes(len(g.vertices), g.edges, DEPTH)


def assert_equal_pasts_match(g, pairs):
    pc = PastClassifier(g)
    for s1, s2 in pairs:
        for depth in range(DEPTH + 1):
            expected = oracles.past_language(g.edges, s1, depth) == oracles.past_language(g.edges, s2, depth)
            assert pc.equal_pasts(s1, s2, depth) == expected, (s1, s2, depth)


@given(small_graphs(), st.data())
def test_equal_pasts_matches_oracle(g, data):
    subsets = st.frozensets(st.integers(0, len(g.vertices) - 1))
    assert_equal_pasts_match(g, data.draw(st.lists(st.tuples(subsets, subsets), min_size=1, max_size=6)))


def test_equal_pasts_on_a_graph_with_a_source_and_a_sink():
    assert_equal_pasts_match(FORKED, [({1}, {1, 2}), ({0, 3}, {0}), ({1, 3}, {1}), ({4}, {0}), ({4}, set()), (set(), {3})])


def test_backward_steps_group_in_edges_by_label():
    assert backward_steps(FORKED, {1, 3}) == [(0, frozenset({0, 2}))]
    assert backward_steps(FORKED, {2}) == [(1, frozenset({1, 2}))]
    assert backward_steps(FORKED, {0}) == []


def test_deep_past_partition_stays_small():
    cover = sft_cover(golden_mean_spec())
    assert len(cover.vertices) == 2
    depth = 200
    levels = past_partition(cover, depth)
    assert len(levels) == depth + 1
    assert all(max(ids) + 1 == 2 for ids in levels[1:])
    # Every fingerprinted (set, depth) pair has a set reachable from a single
    # vertex by backward steps, so the id table is linear in the depth.
    reachable = {frozenset({v}) for v in range(len(cover.vertices))}
    frontier = list(reachable)
    while frontier:
        for _, prev in backward_steps(cover, frontier.pop()):
            if prev not in reachable:
                reachable.add(prev)
                frontier.append(prev)
    pc = PastClassifier(cover)
    for l in range(depth + 1):
        for v in range(len(cover.vertices)):
            pc.fingerprint([v], l)
    assert len(pc._ids) <= len(reachable) * (depth + 1)


def test_past_partition_depth_is_not_bounded_by_recursion_limit():
    cover = sft_cover(golden_mean_spec())
    depth = sys.getrecursionlimit() + 100
    levels = past_partition(cover, depth)
    assert levels[-1] == levels[1]
