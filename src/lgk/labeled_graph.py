"""Finite labeled directed graphs used as subshift presentations.

A labeled graph presents a sofic shift: points are label sequences of
bi-infinite edge paths.  Throughout, "left-resolving" means no vertex has two
incoming edges with the same label, so reading a word backwards from a vertex
is deterministic.  That determinism is what makes the past-equivalence
machinery below exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .alphabet import Alphabet, Word


@dataclass(frozen=True)
class LabeledGraph:
    """Vertices are names; edges are (source index, symbol index, target index)."""

    alphabet: Alphabet
    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        n, k = len(self.vertices), len(self.alphabet)
        for s, a, t in self.edges:
            if not (0 <= s < n and 0 <= t < n and 0 <= a < k):
                raise ValueError(f"edge {(s, a, t)} out of range")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")

    # -- indexes ---------------------------------------------------------
    # Built once per graph and kept in the instance dict, which dataclass
    # equality and hashing never read.  Callers must not mutate them.

    @cached_property
    def out_by_vertex(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> [(label, target)]"""
        out: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(self.vertices))}
        for s, a, t in self.edges:
            out[s].append((a, t))
        return out

    @cached_property
    def in_by_vertex(self) -> dict[int, list[tuple[int, int]]]:
        """vertex -> [(label, source)]"""
        inc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(self.vertices))}
        for s, a, t in self.edges:
            inc[t].append((a, s))
        return inc


def from_names(
    alphabet: Alphabet,
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str]],
) -> LabeledGraph:
    """Build a graph from (source name, label name, target name) triples.

    Edge order is normalized, so graphs given the same triples in any order
    compare equal (and serialize identically)."""
    vs = tuple(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    es = tuple(sorted(
        (pos[s], alphabet.index(a), pos[t]) for s, a, t in edges
    ))
    return LabeledGraph(alphabet, vs, es)


# -- structural checks ---------------------------------------------------


def left_resolving_violation(g: LabeledGraph) -> tuple[int, int] | None:
    """Return (vertex, label) with two incoming edges sharing the label, if any."""
    seen: set[tuple[int, int]] = set()
    for _, a, t in sorted(g.edges):
        if (t, a) in seen:
            return (t, a)
        seen.add((t, a))
    return None


def stranded_vertices(g: LabeledGraph) -> set[int]:
    """Vertices lacking an outgoing or an incoming edge."""
    has_out = {s for s, _, _ in g.edges}
    has_in = {t for _, _, t in g.edges}
    return {v for v in range(len(g.vertices)) if v not in has_out or v not in has_in}


def is_essential(g: LabeledGraph) -> bool:
    return not stranded_vertices(g)


def essential_subgraph(g: LabeledGraph) -> LabeledGraph:
    """Iteratively delete stranded vertices until every vertex lies on a
    bi-infinite path.  May return a graph with no vertices."""
    alive = set(range(len(g.vertices)))
    edges = set(g.edges)
    while True:
        has_out = {s for s, _, _ in edges}
        has_in = {t for _, _, t in edges}
        dead = {v for v in alive if v not in has_out or v not in has_in}
        if not dead:
            break
        alive -= dead
        edges = {(s, a, t) for s, a, t in edges if s in alive and t in alive}
    order = sorted(alive)
    pos = {v: i for i, v in enumerate(order)}
    return LabeledGraph(
        g.alphabet,
        tuple(g.vertices[v] for v in order),
        tuple(sorted((pos[s], a, pos[t]) for s, a, t in edges)),
    )


# -- word reading --------------------------------------------------------


def read_forward(g: LabeledGraph, start: set[int], word: Word) -> set[int]:
    """Endpoints of word-labeled paths starting anywhere in `start`."""
    out = g.out_by_vertex
    cur = set(start)
    for a in word:
        cur = {t for v in cur for b, t in out[v] if b == a}
        if not cur:
            break
    return cur


def backward_steps(g: LabeledGraph, vertex_set: Iterable[int]) -> list[tuple[int, frozenset[int]]]:
    """For each label a entering `vertex_set`, the set of a-edge sources.

    Pairs come in ascending label order; a label with no edge into the set
    is left out, so every returned set is nonempty."""
    inc = g.in_by_vertex
    prevs: dict[int, set[int]] = {}
    for v in vertex_set:
        for a, s in inc[v]:
            prevs.setdefault(a, set()).add(s)
    return [(a, frozenset(prevs[a])) for a in sorted(prevs)]


def read_backward(g: LabeledGraph, end: set[int], word: Word) -> set[int]:
    """Startpoints of word-labeled paths ending anywhere in `end`."""
    inc = g.in_by_vertex
    cur = set(end)
    for a in reversed(word):
        cur = {s for v in cur for b, s in inc[v] if b == a}
        if not cur:
            break
    return cur


def words_of_length(g: LabeledGraph, length: int, start: set[int] | None = None) -> Iterator[Word]:
    """All words of exactly `length` labeling paths from `start` (default: anywhere)."""
    out = g.out_by_vertex
    init = set(range(len(g.vertices))) if start is None else set(start)

    def go(cur: frozenset[int], prefix: Word) -> Iterator[Word]:
        if len(prefix) == length:
            yield prefix
            return
        nexts: dict[int, set[int]] = {}
        for v in cur:
            for a, t in out[v]:
                nexts.setdefault(a, set()).add(t)
        for a in sorted(nexts):
            yield from go(frozenset(nexts[a]), prefix + (a,))

    if init:
        yield from go(frozenset(init), ())


def words_into(g: LabeledGraph, end: set[int], length: int) -> Iterator[Word]:
    """All words of exactly `length` labeling paths that end inside `end`."""

    def go(cur: frozenset[int], suffix: Word) -> Iterator[Word]:
        if len(suffix) == length:
            yield suffix
            return
        for a, prev in backward_steps(g, cur):
            yield from go(prev, (a,) + suffix)

    if end:
        yield from go(frozenset(end), ())


# -- past equivalence ----------------------------------------------------


class PastClassifier:
    """Exact depth-l past-language equality for vertex sets.

    For a vertex set S, the depth-l past language is the set of length-l
    words labeling paths that end inside S.  Reading backwards by a label
    maps sets to sets deterministically, so for l >= 1 the depth-l language
    of S is the union over labels a of {w a : w in the depth-(l-1) language
    of pred_a(S)}, and two such unions are equal exactly when the labels
    with a nonempty part agree and so do those parts.  Works for any
    labeled graph, including ones with sources, sinks or two equally
    labeled in-edges at a vertex; exactness needs no assumption beyond
    finiteness.

    Fingerprints are hash-consed class ids.  The id of (S, d) is drawn from
    a table keyed by (d, a1, id1, a2, id2, ...): the labels ai whose source
    set pred_ai(S) has a nonempty depth-(d-1) past, in ascending order, each
    with the id of that past.  Every nonempty set keys (0,) at depth 0, and
    an empty past keys () at every depth, which holds the id EMPTY.  The
    table is injective on its keys, so by induction on d two sets get equal
    depth-d ids exactly when their depth-d past languages are equal.  Ids
    are small ints, so comparing or hashing one costs O(1) at any depth, and
    each (set, depth) pair is keyed once.  Ids mean nothing across
    classifiers: compare them only within one.
    """

    EMPTY = 0  # id of the empty past language, at every depth

    def __init__(self, g: LabeledGraph):
        self._g = g
        self._memo: dict[tuple[frozenset[int], int], int] = {}
        self._ids: dict[tuple[int, ...], int] = {(): self.EMPTY}

    def fingerprint(self, vertex_set: Iterable[int], depth: int) -> int:
        # Depth-first with an explicit stack, so depth is not bounded by
        # the interpreter's recursion limit.  A node is revisited with its
        # backward steps once every (source set, depth - 1) below it has an id.
        memo = self._memo
        root = (frozenset(vertex_set), depth)
        stack: list[tuple[tuple[frozenset[int], int], list | None]] = [(root, None)]
        while stack:
            node, steps = stack.pop()
            if node in memo:
                continue
            cur, d = node
            if steps is None:
                steps = backward_steps(self._g, cur) if d else []
                below = [((prev, d - 1), None) for _, prev in steps if (prev, d - 1) not in memo]
                if below:
                    stack.append((node, steps))
                    stack.extend(below)
                    continue
            parts: list[int] = []
            for a, prev in steps:
                sub = memo[prev, d - 1]
                if sub != self.EMPTY:  # sources without a past add no word
                    parts += (a, sub)
            key = (d, *parts) if parts or (d == 0 and cur) else ()
            memo[node] = self._ids.setdefault(key, len(self._ids))
        return memo[root]

    def equal_pasts(self, s1: Iterable[int], s2: Iterable[int], depth: int) -> bool:
        return self.fingerprint(s1, depth) == self.fingerprint(s2, depth)


def past_partition(g: LabeledGraph, depth: int) -> list[list[int]]:
    """Partition single vertices by depth-`depth` past language.

    Returns, for each refinement level 0..depth, a list mapping vertex ->
    class id.  Class ids are consecutive integers in order of first
    appearance when scanning vertices in index order.
    """
    pc = PastClassifier(g)
    levels: list[list[int]] = []
    for l in range(depth + 1):
        first: dict[int, int] = {}
        levels.append([first.setdefault(pc.fingerprint([v], l), len(first)) for v in range(len(g.vertices))])
    return levels

