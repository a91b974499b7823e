"""Subshift specifications, their language and the class census.

Six spec kinds and two presentations.  Shifts of finite type (forbidden
words), sofic shifts (labeled covers) and full shifts are presented by one
essential left-resolving cover each, :func:`cover`, whose path language is
B(X).  Dyck and Markov-Dyck bracket shifts and their symbol expansions are
read by a prefix-incremental bracket stepper.  `is_admissible(spec, word)`,
membership in the factor language B(X), branches once on the presentation.

`synchronizing_classes(spec, level)` is the census of a bracket spec: the
past-equivalence classes of its level-`level` synchronizing words, each
with a canonical representative and a fingerprint of its predecessor set.
A spec with a cover needs no census; its λ-synchronizing system is the
past-equivalence quotient of the cover (see :mod:`lgk.system`).

The census honours a :class:`Budget`.  Its :class:`CandidateTable` draws
one unit per candidate word it enumerates, and the census of an expanded
bracket shift draws one unit per product state its walk visits
(:func:`_expanded_class_reps`).  Exceeding the budget raises
:class:`BudgetExceeded`, never a wrong answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Union

from .alphabet import Alphabet, Word, bracket_alphabet
from .dyck import (
    BracketMachine,
    Matrix01,
    all_ones,
    state_words,
    validate_transition_matrix,
)
from .labeled_graph import (
    LabeledGraph,
    essential_subgraph,
    is_essential,
    left_resolving_violation,
    read_forward,
)


@dataclass(frozen=True)
class Budget:
    """Caps for enumerative searches.

    `max_words` caps the units one search draws: one per candidate word a
    :class:`CandidateTable` enumerates, one per product state the census
    of an expanded bracket shift visits, and, in :mod:`lgk.analysis`, one
    per (readable set, symbol) the launching search reads backward and one
    per bridge the transitivity search tries for a word pair.
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

    None for the bracket kinds, which have no finite cover; their language
    is read by :func:`_stepper` instead.
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


# -- bracket steppers ----------------------------------------------------


@lru_cache(maxsize=None)
def _machine(matrix: Matrix01) -> BracketMachine:
    return BracketMachine(matrix)


class _ExpandedStepper:
    """Prefix-incremental admissibility for expanded bracket words.

    State is (base state, expecting_target).  A fresh symbol virtually reads
    the target (any completion must), so a word ending in fresh is valid iff
    that virtual step succeeds; the following real target then performs no
    second base step.  A bare target is only admissible at position 0 (its
    fresh sits before the window).
    """

    def __init__(self, spec: Expanded):
        self.spec = spec
        self.base = _machine(spec.base.matrix)
        self.fresh = spec.fresh
        self.target = spec.target

    @property
    def start(self):
        return (self.base.start, False, True)  # (base state, expecting, at_start)

    def step(self, state, symbol: int):
        base_state, expecting, at_start = state
        if symbol == self.fresh:
            if expecting:
                return None
            nxt = self.base.step(base_state, self.target)
            if nxt is None:
                return None
            return (nxt, True, False)
        if symbol == self.target:
            if expecting:
                return (base_state, False, False)  # base already stepped
            if not at_start:
                return None
            nxt = self.base.step(base_state, symbol)
            if nxt is None:
                return None
            return (nxt, False, False)
        if expecting:
            return None
        nxt = self.base.step(base_state, symbol)
        if nxt is None:
            return None
        return (nxt, False, False)

    def emitted(self, state) -> int:
        return self.base.emitted(state[0])

    def clip(self, state, cap: int):
        """`state` with the base close count lowered to at most `cap`.

        `step` hands the count to the base machine and branches only on the
        other components, so :meth:`BracketMachine.clip`'s lemma holds
        here too: a read from the clip dies exactly when the read from
        `state` does, and min(emitted, cap) commutes with `step`.
        """
        base_state, expecting, at_start = state
        return (self.base.clip(base_state, cap), expecting, at_start)


def _stepper(spec: SubshiftSpec):
    if isinstance(spec, Expanded):
        return _ExpandedStepper(spec)
    if isinstance(spec, (DyckN, MarkovDyck)):
        return _machine(spec.matrix)
    raise TypeError(f"no stepper for {type(spec).__name__}")


def _read(st, state, word: Word):
    """Stepper state after reading `word` from `state`; None once it dies."""
    for sym in word:
        state = st.step(state, sym)
        if state is None:
            return None
    return state


def _in_alphabet(spec: SubshiftSpec, word: Word) -> bool:
    k = len(spec.alphabet)
    return all(0 <= sym < k for sym in word)


# -- admissibility and candidate tables ---------------------------------


def is_admissible(spec: SubshiftSpec, word: Word) -> bool:
    """True iff `word` belongs to the factor language of the subshift."""
    g = cover(spec)
    if g is not None:
        return bool(read_forward(g, set(range(len(g.vertices))), word))
    if not _in_alphabet(spec, word):
        return False
    st = _stepper(spec)
    return _read(st, st.start, word) is not None


def _stepper_words(spec: SubshiftSpec, length: int, meter: _Meter) -> Iterator[tuple[Word, object]]:
    """Admissible words of `length` with the stepper state each ends in."""
    st = _stepper(spec)
    k = len(spec.alphabet)

    def go(state, word: Word) -> Iterator[tuple[Word, object]]:
        if len(word) == length:
            meter.tick()
            yield word, state
            return
        for sym in range(k):
            nxt = st.step(state, sym)
            if nxt is not None:
                yield from go(nxt, word + (sym,))

    yield from go(st.start, ())


class CandidateTable:
    """The admissible length-`level` words of a bracket spec, grouped by the
    stepper state each one ends in.

    A candidate v precedes a word w (v·w admissible) exactly when w reads on
    from v's end state.  So w's length-`level` predecessor set is the union
    of the groups whose end states accept w, and w's *key* is the frozenset
    of the ids (positions in `states`) of those end states.  Every group is
    nonempty, and the groups are pairwise disjoint because each candidate
    ends in exactly one state; hence distinct keys give distinct unions, and
    two words have equal predecessor sets exactly when their keys are equal.

    Building draws one unit per candidate from a fresh meter, so a budget
    too small for the candidates runs out here.  A `key` lookup draws
    nothing.  A table is built per census or per system build and is never
    cached.
    """

    def __init__(self, spec: SubshiftSpec, level: int, budget: Budget = DEFAULT_BUDGET):
        self.spec = spec
        self.level = level
        self._stepper = _stepper(spec)
        groups: dict[object, list[Word]] = {}
        for word, state in _stepper_words(spec, level, _Meter(budget)):
            groups.setdefault(state, []).append(word)
        self.states = tuple(groups)
        self.groups = tuple(groups.values())

    def key(self, word: Word) -> frozenset[int]:
        """Ids of the end states from which `word` reads on."""
        if not _in_alphabet(self.spec, word):
            return frozenset()
        st = self._stepper
        return frozenset(
            i for i, state in enumerate(self.states) if _read(st, state, word) is not None
        )

# -- synchronizing classes ----------------------------------------------


@dataclass(frozen=True)
class SyncClass:
    """A past-equivalence class of level-`level` synchronizing words of a
    bracket spec.

    `fingerprint` is the representative's key in the level's
    :class:`CandidateTable`: the ids of the candidate end states from which
    the representative reads on, which stand for its predecessor set and
    identify the class among the classes of its level.
    """

    level: int
    representative: Word
    fingerprint: frozenset = field(repr=False)


def synchronizing_classes(
    spec: SubshiftSpec,
    level: int,
    budget: Budget = DEFAULT_BUDGET,
    *,
    _table: CandidateTable | None = None,
) -> list[SyncClass]:
    """All past-equivalence classes of level-`level` synchronizing words of
    a Dyck, Markov-Dyck or expanded bracket spec.

    Classes are ordered by (length, lexicographic) of their canonical
    representative and keyed in a :class:`CandidateTable` of length-`level`
    candidates; a system build passes the table it also looks its edges up
    in as `_table`, so each level's candidates are enumerated once per
    build.  A spec with a cover has no census (its system is the past
    quotient of the cover) and raises TypeError.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    table = CandidateTable(spec, level, budget) if _table is None else _table
    if level == 0:
        # the one length-0 candidate, (), ends in the start state, id 0,
        # from which every admissible word reads on
        return [SyncClass(0, (), frozenset({0}))]
    if isinstance(spec, Expanded):
        keyed = _expanded_class_reps(spec, table, budget)
    else:
        keyed = {}
        for x in state_words(spec.matrix, level):
            rep = tuple(spec.n + j for j in x)
            keyed.setdefault(table.key(rep), rep)
    out = [SyncClass(level, rep, key) for key, rep in keyed.items()]
    out.sort(key=lambda c: (len(c.representative), c.representative))
    return out


class _ClippedStates:
    """Stepper states clipped to `cap` unmatched closes, interned to ints.

    Each id's transition row is filled lazily, with one `step` call per
    (state, symbol); -1 stands for a read that dies.  Clipping after every
    step is exact by the clip lemma (:meth:`BracketMachine.clip`).
    """

    _UNSET = -2

    def __init__(self, st, cap: int, k: int):
        self._st = st
        self._cap = cap
        self._k = k
        self._ids: dict[object, int] = {}
        self.states: list = []
        self._next: list[int] = []  # id i's row is _next[i*k : (i+1)*k]
        self._unset_row = [self._UNSET] * k

    def intern(self, state) -> int:
        state = self._st.clip(state, self._cap)
        i = self._ids.get(state)
        if i is None:
            i = self._ids[state] = len(self.states)
            self.states.append(state)
            self._next += self._unset_row
        return i

    def step(self, i: int, symbol: int) -> int:
        at = i * self._k + symbol
        j = self._next[at]
        if j == self._UNSET:
            nxt = self._st.step(self.states[i], symbol)
            j = self._next[at] = -1 if nxt is None else self.intern(nxt)
        return j


def _expanded_class_reps(
    spec: Expanded, table: CandidateTable, budget: Budget
) -> dict[frozenset[int], Word]:
    """Class representatives of an expanded bracket shift, by key in `table`.

    Every class of level-`level` synchronizing words is reached by a word
    ending at its level-th unmatched close; with each close optionally
    preceded by the fresh marker plus one optional trailing marker, length
    2*level+1 suffices.  Each key keeps its (length, lexicographic) least
    word, the canonical representative, and keys are inserted in the order
    of those words.

    The walk runs over *product states*, not words.  A word's product state
    is its stepper state from the start, with the close count clipped to
    `level`, together with the state it reaches from each end state in
    `table.states`, clipped to count 0 (-1 once that read dies).  By the
    clip lemma the word's key (the end states whose reads live) and whether
    it synchronizes (emitted >= level) are functions of its product state,
    and so is the product state of every extension.

    Breadth first by length, each product state is visited once, with the
    first word that reaches it.  Parents are expanded in the order they
    were reached and symbols in increasing order, so new words come in
    (length, lexicographic) order.  The first word is the least: let u·a
    be the least word of its product state Q and u' the least word of u's
    product state P.  Then u'·a reaches Q too and is no greater, so
    u' = u; P was visited with u, and its expansion reached Q first
    through u·a.  Two words with one product state have the same key and
    extensions, so dropping the later word loses no class.  Hence the dict
    equals that of keying every word of length 1..2*level+1 in (length,
    lexicographic) order, keys and insertion order included.

    Draws one unit from the budget per product state visited.
    """
    level = table.level
    meter = _Meter(budget)
    st = _stepper(spec)
    k = len(spec.alphabet)
    heads = _ClippedStates(st, level, k)
    reads = _ClippedStates(st, 0, k)
    root = (heads.intern(st.start), tuple(reads.intern(s) for s in table.states))
    seen = {root}
    frontier = [(root, ())]
    keyed: dict[frozenset[int], Word] = {}
    for _ in range(2 * level + 1):
        reached = []
        for (head, ends), word in frontier:
            for sym in range(k):
                nxt = heads.step(head, sym)
                if nxt < 0:
                    continue
                product = (nxt, tuple(r if r < 0 else reads.step(r, sym) for r in ends))
                if product in seen:
                    continue
                meter.tick()
                seen.add(product)
                w = word + (sym,)
                reached.append((product, w))
                if st.emitted(heads.states[nxt]) >= level:
                    key = frozenset(i for i, r in enumerate(product[1]) if r >= 0)
                    keyed.setdefault(key, w)
        frontier = reached
    return keyed
