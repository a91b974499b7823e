from __future__ import annotations

import contextlib

import pytest
from hypothesis import HealthCheck, settings

from lgk import (
    Alphabet,
    Budget,
    LabeledGraph,
    LambdaGraphSystem,
    MarkovDyck,
    SftForbidden,
    SoficGraph,
    VertexLevel,
    build_lambda_synchronizing,
    from_names,
)
from lgk.system import read_down

# Derandomized so the suite is reproducible run to run; individual tests
# that need more examples override locally.
settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

FIB = ((1, 1), (1, 0))


@contextlib.contextmanager
def unshared():
    """Inside, no gap repeats the one above it, so every per-gap computation
    runs at every gap, as it would without the window lemma."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LambdaGraphSystem, "repeats", property(lambda sys: (False,) * sys.depth))
        yield


def constant_system(graph: LabeledGraph, depth: int) -> LambdaGraphSystem:
    """`graph` repeated at every level of a depth-`depth` system, with the
    identity collapse."""
    level = VertexLevel(size=len(graph.vertices), tags=graph.vertices)
    return LambdaGraphSystem(
        alphabet=graph.alphabet,
        levels=(level,) * (depth + 1),
        edges=(tuple(sorted(graph.edges)),) * depth,
        iota=(tuple(range(level.size)),) * depth,
    )


def counted_system(sizes, counts, iota) -> LambdaGraphSystem:
    """The shape-only system on level sizes `sizes` with `counts[l][s][t]`
    edges s -> t in layer l, labeled 0 .. counts[l][s][t] - 1, and collapse
    functions `iota`.  Its gaps need not satisfy any axiom."""
    symbols = max((x for layer in counts for row in layer for x in row), default=0)
    layers = [
        [(s, a, t) for s, row in enumerate(layer) for t, x in enumerate(row) for a in range(x)]
        for layer in counts
    ]
    return LambdaGraphSystem(
        alphabet=Alphabet(tuple(f"a{k}" for k in range(max(symbols, 1)))),
        levels=tuple(VertexLevel(size=m, tags=("",) * m) for m in sizes),
        edges=tuple(tuple(sorted(layer)) for layer in layers),
        iota=tuple(tuple(mapping) for mapping in iota),
    )


def mask(vertices) -> int:
    """The vertex set `vertices` as the walkers hold it: an int with bit v
    set for each vertex v."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def members(bits: int) -> frozenset[int]:
    """The vertices of the walker set `bits`."""
    return frozenset(v for v in range(bits.bit_length()) if bits >> v & 1)


def top_language(sys: LambdaGraphSystem):
    """Membership in the factor language that `sys` presents: a word of
    length <= its depth is admissible exactly when it labels a path from
    the top level (see `lgk.system.read_down`).  A longer word is a
    ValueError."""
    top = mask(range(sys.levels[0].size))
    return lambda word: bool(read_down(sys, 0, top, tuple(word)))


def system_language(spec, depth: int):
    """`top_language` of the system of `spec`, built once at `depth`."""
    return top_language(build_lambda_synchronizing(spec, depth, Budget(max_depth=depth)))


def golden_mean_spec() -> SftForbidden:
    ab = Alphabet(("0", "1"))
    return SftForbidden(ab, frozenset({(1, 1)}))


def even_shift_graph() -> LabeledGraph:
    # Fischer cover of the even shift: runs of 0s between 1s have even
    # length.  Left-resolving: u has in-edges labeled 1 (from u) and 0
    # (from w); w only the 0 from u.
    ab = Alphabet(("0", "1"))
    return from_names(ab, ("u", "w"), [("u", "1", "u"), ("u", "0", "w"), ("w", "0", "u")])


def even_shift_spec() -> SoficGraph:
    return SoficGraph(even_shift_graph())


def fibonacci_dyck_spec() -> MarkovDyck:
    return MarkovDyck(FIB)


@pytest.fixture
def golden_mean() -> SftForbidden:
    return golden_mean_spec()


@pytest.fixture
def even_shift() -> SoficGraph:
    return even_shift_spec()
