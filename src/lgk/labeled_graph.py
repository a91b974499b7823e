"""Finite labeled directed graphs used as subshift presentations.

A labeled graph presents a sofic shift: points are label sequences of
bi-infinite edge paths.  Throughout, "left-resolving" means no vertex has two
incoming edges with the same label, so reading a word backwards from a vertex
is deterministic.  On an essential left-resolving cover, past equivalence of
vertices is therefore a level-by-level refinement, which the quotient builder
in :mod:`lgk.system` computes; this module holds the graphs themselves and
their structural checks.  Words are read on the built systems, not here.
"""

from __future__ import annotations

from typing import Iterable

from .alphabet import Alphabet
from .record import Record


class LabeledGraph(Record):
    """Vertices are names; edges are (source index, symbol index, target index)."""

    __slots__ = _fields = ("alphabet", "vertices", "edges")

    def __init__(
        self,
        alphabet: Alphabet,
        vertices: tuple[str, ...],
        edges: tuple[tuple[int, int, int], ...],
    ) -> None:
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        n, k = len(vertices), len(alphabet)
        for s, a, t in edges:
            if not (0 <= s < n and 0 <= t < n and 0 <= a < k):
                raise ValueError(f"edge {(s, a, t)} out of range")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)


def from_names(
    alphabet: Alphabet,
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, str]],
) -> LabeledGraph:
    """Build a graph from (source name, label name, target name) triples.

    Edge order is normalized, so graphs given the same triples in any order
    compare equal (and serialize identically).  An endpoint that is not
    among `vertices` is a ValueError."""
    vs = tuple(vertices)
    pos = {v: i for i, v in enumerate(vs)}

    def at(name: str) -> int:
        if name not in pos:
            raise ValueError(f"edge endpoint {name!r} is not a declared vertex")
        return pos[name]

    es = tuple(sorted((at(s), alphabet.index(a), at(t)) for s, a, t in edges))
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


def is_essential(g: LabeledGraph) -> bool:
    """Every vertex has an outgoing and an incoming edge."""
    has_out, has_in = set(), set()
    for s, _, t in g.edges:
        has_out.add(s)
        has_in.add(t)
    vertices = range(len(g.vertices))
    return has_out.issuperset(vertices) and has_in.issuperset(vertices)


def unreachable_pair(g: LabeledGraph) -> tuple[int, int] | None:
    """Return (u, v) with no path from u to v, if any.  The graph is strongly
    connected when every vertex is reached from vertex 0 and reaches it."""
    for forward in (True, False):
        step: dict[int, list[int]] = {}
        for s, _, t in g.edges:
            step.setdefault(s if forward else t, []).append(t if forward else s)
        seen, stack = {0}, [0]
        while stack:
            for w in step.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for v in range(len(g.vertices)):
            if v not in seen:
                return (0, v) if forward else (v, 0)
    return None


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
