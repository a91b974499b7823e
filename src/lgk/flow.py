"""Symbol expansion: replace one symbol everywhere by fresh·symbol.

Expanding a subshift this way changes the shift itself but is known to
preserve the stable invariants computed in :mod:`lgk.invariants`; the
`flowcheck` command exercises exactly that.  This module carries the plan
and its one-way word rewriting, the compiled expansions of finite-type,
sofic, and full shifts, and the spec-level dispatch (bracket shifts keep a
wrapper spec because their expansions leave the sofic world).
"""

from __future__ import annotations

from typing import Optional

from .alphabet import Alphabet, Word
from .labeled_graph import LabeledGraph
from .record import Record
from .subshift import (
    DyckN,
    Expanded,
    FullShift,
    MarkovDyck,
    SftForbidden,
    SoficGraph,
    SubshiftSpec,
)


class ExpansionPlan(Record):
    """Rewrite `target` to fresh·target.

    `target` is a symbol of the base alphabet; `fresh` is its expansion
    companion, always the next index after the base alphabet, so a plan
    pins down both alphabets involved.
    """

    __slots__ = _fields = ("target", "fresh", "fresh_name")

    def __init__(self, target: int, fresh: int, fresh_name: str) -> None:
        if not (0 <= target < fresh):
            raise ValueError("target must be a base symbol below the fresh index")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "fresh", fresh)
        object.__setattr__(self, "fresh_name", fresh_name)


def plan_for(
    alphabet: Alphabet, target_name: str, fresh_name: Optional[str] = None
) -> ExpansionPlan:
    """Resolve symbol names against a base alphabet.

    Without an explicit fresh name, picks 'e' or the first variant of it
    not already taken.
    """
    target = alphabet.index(target_name)
    if fresh_name is None:
        for k in range(len(alphabet) + 1):
            candidate = "e" if k == 0 else f"e{k + 1}"
            if candidate not in alphabet:
                fresh_name = candidate
                break
    if fresh_name in alphabet:
        raise ValueError(f"fresh symbol {fresh_name!r} already in alphabet")
    return ExpansionPlan(target=target, fresh=len(alphabet), fresh_name=fresh_name)


def expand_word(word: Word, plan: ExpansionPlan) -> Word:
    out: list[int] = []
    for s in word:
        if s == plan.target:
            out.append(plan.fresh)
        out.append(s)
    return tuple(out)


def expand_sft(spec: SftForbidden, plan: ExpansionPlan) -> SftForbidden:
    """Finite-type expansion stays finite type.

    Fresh must be followed by target, target must be preceded by fresh, and
    the images of the old forbidden words stay forbidden.  Redundant words
    are dropped by the spec's own normalization.
    """
    extended = spec.alphabet.extend(plan.fresh_name)
    pairs: set[Word] = set()
    for x in range(len(extended)):
        if x != plan.target:
            pairs.add((plan.fresh, x))
    for y in range(len(extended)):
        if y != plan.fresh:
            pairs.add((y, plan.target))
    images = {expand_word(f, plan) for f in spec.forbidden}
    return SftForbidden(extended, frozenset(pairs | images))


def expand_labeled_graph(graph: LabeledGraph, plan: ExpansionPlan) -> LabeledGraph:
    """Split every target-labeled edge through a fresh midpoint vertex.

    Left-resolvedness survives: the midpoint has a single in-edge, and each
    old target keeps at most one target-labeled in-edge.
    """
    extended = graph.alphabet.extend(plan.fresh_name)
    names = list(graph.vertices)
    edges: list[tuple[int, int, int]] = []
    for s, a, t in sorted(graph.edges):
        if a != plan.target:
            edges.append((s, a, t))
            continue
        name = f"{plan.fresh_name}:{graph.vertices[s]}>{graph.vertices[t]}"
        if name in names:
            raise ValueError(f"midpoint name {name!r} collides with a vertex")
        mid = len(names)
        names.append(name)
        edges.append((s, plan.fresh, mid))
        edges.append((mid, plan.target, t))
    return LabeledGraph(extended, tuple(names), tuple(sorted(edges)))


def expand_spec(spec: SubshiftSpec, plan: ExpansionPlan) -> SubshiftSpec:
    """Expanded version of a subshift spec, staying in the spec family.

    Bracket shifts get the dedicated wrapper; expanding an expansion is not
    supported.
    """
    if plan.fresh != len(spec.alphabet):
        raise ValueError("plan fresh index does not match the spec alphabet")
    if isinstance(spec, SftForbidden):
        return expand_sft(spec, plan)
    if isinstance(spec, SoficGraph):
        return SoficGraph(expand_labeled_graph(spec.graph, plan))
    if isinstance(spec, FullShift):
        base = SftForbidden(spec.alphabet, frozenset())
        return expand_sft(base, plan)
    if isinstance(spec, (DyckN, MarkovDyck)):
        return Expanded(base=spec, target=plan.target, fresh_name=plan.fresh_name)
    raise ValueError("nested expansion is not supported")
