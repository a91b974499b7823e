"""Subshift specifications and their presentations.

Six spec kinds and two presentations.  Shifts of finite type (forbidden
words), sofic shifts (labeled covers) and full shifts are presented by one
essential left-resolving cover each, :func:`cover`, whose path language is
B(X).  Dyck and Markov-Dyck bracket shifts and their symbol expansions are
presented by their state words.  No spec is built by enumerating words:
a spec with a cover is the past quotient of its cover, and a bracket
spec, expanded or not, builds from its state words (see :mod:`lgk.system`).
Either way the built system presents the subshift, and its paths are the
one reader of the language: a word no longer than the depth is in B(X)
exactly when it labels a path from the top level
(:func:`lgk.system.read_down`).

No build draws from a :class:`Budget`; the searches of :mod:`lgk.analysis`
do, and one that exhausts its budget reports `unknown`, never a wrong
answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

from .alphabet import Alphabet, Word, bracket_alphabet
from .dyck import Matrix01, all_ones, validate_transition_matrix
from .labeled_graph import (
    LabeledGraph,
    essential_subgraph,
    is_essential,
    left_resolving_violation,
)


@dataclass(frozen=True)
class Budget:
    """Caps for enumerative searches.

    `max_words` caps the units one search of :mod:`lgk.analysis` draws:
    one per (readable set, symbol) the launching search reads backward and
    one per bridge the transitivity search tries for a word pair.  No
    system build draws units, expanded bracket shifts included; a build
    reads only `max_depth`.
    """

    max_words: int = 1_000_000
    max_depth: int = 12


DEFAULT_BUDGET = Budget()


class BudgetExceeded(Exception):
    pass


class _Meter:
    def __init__(self, budget: Budget):
        self.left = budget.max_words
        self.used = 0

    def tick(self, n: int = 1) -> None:
        """Draw `n` units, raising at the unit that `n` single ticks would."""
        drawn = n if n <= self.left else self.left + 1
        self.left -= drawn
        self.used += drawn
        if self.left < 0:
            raise BudgetExceeded(f"budget exhausted after {self.used} units")


# -- spec variants -------------------------------------------------------


@dataclass(frozen=True)
class SftForbidden:
    """Shift of finite type over `alphabet` avoiding the given factor words."""

    alphabet: Alphabet
    forbidden: frozenset[Word]

    def __post_init__(self) -> None:
        for f in self.forbidden:
            if len(f) == 0:
                raise ValueError("forbidden words must be nonempty")
            for s in f:
                if not (0 <= s < len(self.alphabet)):
                    raise ValueError(f"forbidden word {f} out of alphabet range")
        # Normalize: a word containing another forbidden word is redundant.
        kept = frozenset(
            f
            for f in self.forbidden
            if not any(
                g != f and any(f[i : i + len(g)] == g for i in range(len(f) - len(g) + 1))
                for g in self.forbidden
            )
        )
        if kept != self.forbidden:
            object.__setattr__(self, "forbidden", kept)


@dataclass(frozen=True)
class SoficGraph:
    """Sofic shift presented by an essential left-resolving labeled graph."""

    graph: LabeledGraph

    def __post_init__(self) -> None:
        if not self.graph.vertices:
            raise ValueError("sofic cover must have vertices")
        if not is_essential(self.graph):
            raise ValueError("sofic cover must be essential (no stranded vertices)")
        bad = left_resolving_violation(self.graph)
        if bad is not None:
            v, a = bad
            raise ValueError(
                f"sofic cover not left-resolving: vertex "
                f"{self.graph.vertices[v]!r} has two in-edges labeled "
                f"{self.graph.alphabet.names[a]!r}"
            )

    @property
    def alphabet(self) -> Alphabet:
        return self.graph.alphabet


@dataclass(frozen=True)
class DyckN:
    """Dyck shift with n bracket pairs."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("Dyck shift needs n >= 2")

    @cached_property
    def alphabet(self) -> Alphabet:
        return bracket_alphabet(self.n)

    @cached_property
    def matrix(self) -> Matrix01:
        return all_ones(self.n)


@dataclass(frozen=True)
class MarkovDyck:
    """Markov-Dyck shift of a 0/1 matrix with no zero rows or columns."""

    matrix: Matrix01

    def __post_init__(self) -> None:
        validate_transition_matrix(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix)

    @cached_property
    def alphabet(self) -> Alphabet:
        return bracket_alphabet(self.n)


@dataclass(frozen=True)
class FullShift:
    """Full shift on n symbols."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("full shift needs n >= 2")

    @cached_property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(str(i) for i in range(self.n)))


@dataclass(frozen=True)
class Expanded:
    """Symbol expansion of a bracket shift: `target` becomes fresh·target.

    SFT, sofic, and full-shift expansions compile away (see lgk.flow); this
    wrapper exists for the bracket shifts, whose expansions are not sofic.
    """

    base: Union[DyckN, MarkovDyck]
    target: int
    fresh_name: str

    def __post_init__(self) -> None:
        if not isinstance(self.base, (DyckN, MarkovDyck)):
            raise ValueError("Expanded wraps only Dyck-type specs")
        if not (0 <= self.target < len(self.base.alphabet)):
            raise ValueError("expansion target out of alphabet range")
        if self.fresh_name in self.base.alphabet:
            raise ValueError(f"fresh symbol {self.fresh_name!r} already in alphabet")
        self.alphabet  # built now, so a fresh name that is no symbol name fails here

    @cached_property
    def alphabet(self) -> Alphabet:
        return self.base.alphabet.extend(self.fresh_name)

    @property
    def fresh(self) -> int:
        return len(self.base.alphabet)


SubshiftSpec = Union[SftForbidden, SoficGraph, DyckN, MarkovDyck, FullShift, Expanded]
_BRACKET_KINDS = (DyckN, MarkovDyck, Expanded)


# -- covers --------------------------------------------------------------


def sft_window(spec: SftForbidden) -> int:
    longest = max((len(f) for f in spec.forbidden), default=1)
    return max(longest - 1, 1)


def _has_forbidden_factor(word: Word, forbidden: frozenset[Word]) -> bool:
    for f in forbidden:
        lf = len(f)
        if lf <= len(word):
            for i in range(len(word) - lf + 1):
                if word[i : i + lf] == f:
                    return True
    return False


@lru_cache(maxsize=None)
def sft_cover(spec: SftForbidden) -> LabeledGraph:
    """Left-resolving cover of an SFT on its admissible memory windows.

    Vertices are the essential words of length `sft_window(spec)`; the edge
    u -> v labeled u[0] exists when u and v overlap progressively and their
    join avoids the forbidden words.  Reading a length-r word from vertex u
    corresponds exactly to an admissible word of length r + window, so the
    trimmed graph presents the subshift and its path language is B(X).  It
    has no vertices when the subshift is empty.
    """
    w = sft_window(spec)
    k = len(spec.alphabet)
    nodes = [
        word
        for word in itertools.product(range(k), repeat=w)
        if not _has_forbidden_factor(word, spec.forbidden)
    ]
    pos = {word: i for i, word in enumerate(nodes)}
    edges = []
    for u in nodes:
        for a in range(k):
            v = u[1:] + (a,)
            if v in pos and not _has_forbidden_factor(u + (a,), spec.forbidden):
                edges.append((pos[u], u[0], pos[v]))
    names = tuple(spec.alphabet.text(word) for word in nodes)
    return essential_subgraph(LabeledGraph(spec.alphabet, names, tuple(edges)))


@lru_cache(maxsize=None)
def _full_cover(spec: FullShift) -> LabeledGraph:
    """One vertex, named "", with a loop for every symbol."""
    return LabeledGraph(spec.alphabet, ("",), tuple((0, a, 0) for a in range(spec.n)))


def cover(spec: SubshiftSpec) -> LabeledGraph | None:
    """The essential left-resolving graph whose path language is B(X).

    None for the bracket kinds, which have no finite cover; their systems
    build from state words instead.
    """
    if isinstance(spec, SftForbidden):
        return sft_cover(spec)
    if isinstance(spec, SoficGraph):
        return spec.graph
    if isinstance(spec, FullShift):
        return _full_cover(spec)
    if isinstance(spec, _BRACKET_KINDS):
        return None
    raise TypeError(f"unknown spec {type(spec).__name__}")
