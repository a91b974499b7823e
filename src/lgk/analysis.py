"""Dynamical checks on built leveled systems: branching, irreducibility,
launching words, and synchronizing transitivity.

These properties quantify over all levels of the untruncated system, so on a
depth-L truncation most of them are only semi-decidable.  Every check here
returns a tri-state :class:`Verdict`: `yes` when a finite certificate was
found, `no` when a refutation is provable inside the truncation (possible
for constant systems, whose levels repeat forever), and `unknown` with a
witness otherwise.  A `no` is never issued on evidence that deeper levels
could overturn.

Each check walks its question once through the walkers of
:mod:`lgk.system`: `step_down`, `read_down`, `read_up`, `label_words` and
their one-gap reads.  The walkers hold vertex sets as masks (bit v of an
int is vertex v) and keep each one-gap read in the read tables of its gap
(`Adjacency.reads`), which a repeated gap shares with the gap above it:
the window lemma applied to single reads.  So a walk that recurs under
another loop variable (the collapse fibers of the irreducibility checks,
the reads on from bridge endpoints), at another level of a repeated run,
or in another check computes no read twice, and no check keeps a cache
of walker results of its own.  Work that does not depend on the loop
variable is done outside it: ι-irreducibility reads each path's word
backward with `read_up`, once per path and step count rather than once
per other vertex, λ-irreducibility lifts the fiber over u one step at a
time for every v at once, and the transitivity check shares one table of
bridges per first word and of lifted endpoints per second word across
all its word pairs.
The launching search reads words backward too: with R_l(w) the level-l
vertices from which w can be read, R_l(a w) is the set of a-predecessors
of R_{l+1}(w) (the predecessor sets of the subset construction), so one
sweep from the last level up reads each readable set of each level once
per symbol and serves every start level at once; a vertex v is launched
when {v} is some R_l(w) with w nonempty.  The sweep keeps its readable
sets as frozensets over `into`: it reads each set once in any case, all
its symbols in one pass over the in-edges, so the read tables would save
it nothing, and sets built bit by bit were slower there.  On a constant system, condition
(I) and the launching search read every layer as layer 0 with no length
cap; their state sets repeat, so they end.  The irreducibility checks
decide it by one strong-connectivity scan (`_first_unreachable`); on other
systems they read exact-step reach sets from one table (`_reaches`).

The window lemma of :mod:`lgk.system`: a computation that reads only gaps
l .. l + k - 1 gives at l what it gave at l - 1 when each of those gaps
repeats the gap above it (`LambdaGraphSystem.repeats`).  The walks of
condition (I) from level l with length k, and the readable sets of level
l up to length k, read exactly those gaps, so where the window repeats
and k is unchanged they are not computed again: condition (I) skips the
level, whose walks passed one level up, and the launching sweep hands
the level the readable sets and unlaunched vertices of the level below
and draws the same budget units again, so the meter raises after the
same unit as a sweep that reads every level.
"""

from __future__ import annotations

from copy import copy
from itertools import count, tee
from typing import Callable, Iterator, Optional

from .alphabet import Word
from .subshift import DEFAULT_BUDGET, Budget, BudgetExceeded, _Meter
from .system import (
    LambdaGraphSystem,
    _lift,
    _out_symbols,
    _successors,
    label_words,
    read_down,
    read_up,
    step_down,
    window_repeats,
)
from .verdict import Verdict


def _is_constant(sys: LambdaGraphSystem) -> bool:
    """All levels repeat the same graph with the identity collapse.

    Such systems (a cover repeated at every level, as in the one-vertex
    chain of a full shift) extend uniquely to every depth, so searches that
    stabilize in them are conclusive.  Every gap below the first repeats
    the one above it, so all gaps equal gap 0, whose collapse must be the
    identity; that also makes level 1 as large as level 0.
    """
    return all(sys.repeats[1:]) and all(m == tuple(range(sys.sizes[0])) for m in sys.iota[:1])


def _reaches(sys: LambdaGraphSystem, level: int) -> Callable[[int, int], list[int]]:
    """`reaches(v, steps)[k]`: the vertices that vertex v of `level` reaches
    in exactly k steps, for k = 0 .. at least `steps`; each step is taken
    once, the first time some caller needs it."""
    rows = [[1 << v] for v in range(sys.levels[level].size)]

    def reaches(v: int, steps: int) -> list[int]:
        row = rows[v]
        while len(row) <= steps:
            row.append(_successors(sys, level + len(row) - 1, row[-1]))
        return row

    return reaches


def _first_unreachable(sys: LambdaGraphSystem) -> Optional[tuple[int, int]]:
    """The first pair (u, v), u-major, with u unreachable from v (by a path
    of any length, 0 included) in the repeated graph of a constant system,
    or None: one fixpoint of `_successors` on layer 0 per vertex.  The
    collapse is the identity, so the fiber over u is {u} at every level,
    and both irreducibility checks refute exactly these pairs."""
    size = sys.levels[0].size
    reached = []
    for v in range(size):
        seen = frontier = 1 << v
        while frontier:
            frontier = _successors(sys, 0, frontier) & ~seen
            seen |= frontier
        reached.append(seen)
    return next(((u, v) for u in range(size) for v in range(size) if not reached[v] >> u & 1), None)


# -- condition (I): branching futures ------------------------------------


def _unique_future(
    sys: LambdaGraphSystem, level: int, vertex: int, length: int, constant: bool
) -> Optional[str]:
    """Why the label tree from `vertex` does not fork (None if it does):
    "dies" when no label is left, "depth" after `length` steps, or, in a
    constant system (layer 0 throughout, no cap), "cycles" when a state set
    repeats.  The walk is deterministic, so a cycle never forks later."""
    current = 1 << vertex
    seen = {current}
    for k in count() if constant else range(length):
        layer = 0 if constant else level + k
        labels = _out_symbols(sys, layer, current)
        if len(labels) >= 2:
            return None
        if not labels:
            return "dies"
        current = step_down(sys, layer, current, labels[0])
        if constant:
            if current in seen:
                return "cycles"
            seen.add(current)
    return "depth"


def check_condition_I(sys: LambdaGraphSystem, depth: int = 3) -> Verdict:
    """Every vertex should admit two distinct label words of length `depth`.

    Levels 0..L-depth are inspected, so the words stay inside the
    truncation.  A single forking anywhere along the unique prefix
    certifies the vertex.  In a constant system the walk of
    `_unique_future` runs until its state set dies or cycles, either of
    which refutes the property outright; a cycle cannot fork later, so
    refuting on its first repeat is exact.  Otherwise an unbranched vertex
    is only `unknown`.
    """
    if not (1 <= depth <= sys.depth):
        raise ValueError(f"depth must be between 1 and {sys.depth}")
    constant = _is_constant(sys)
    for level in range(sys.depth - depth + 1):
        if window_repeats(sys.repeats, level, depth):
            continue  # the walks from the level above read the same gaps and passed
        for vertex in range(sys.levels[level].size):
            reason = _unique_future(sys, level, vertex, depth, constant)
            if reason is None:
                continue
            where = f"vertex {vertex} at level {level}"
            if not constant:
                return Verdict.unknown(
                    witness=(level, vertex),
                    note=(
                        f"{where} shows a single label word of length {depth}; "
                        f"deeper levels undecided"
                    ),
                )
            if reason == "dies":
                return Verdict.no(witness=(level, vertex), note=f"{where} emits no label word")
            return Verdict.no(
                witness=(level, vertex),
                note=f"{where} has a unique label future (deterministic cycle)",
            )
    return Verdict.yes()


# -- irreducibility ------------------------------------------------------


def check_lambda_irreducible(sys: LambdaGraphSystem) -> Verdict:
    """For each ordered vertex pair (u, v) on levels 0..2, some depth step L
    must make every vertex in the collapse fiber over u reachable from v by
    a path of length exactly L.  Searches L within the truncation; a
    constant system is decided outright by `_first_unreachable`, and on
    any other a pair without such an L is only `unknown`.  The fiber over
    u does not depend on v, so it is lifted one step at a time for all v at
    once, and the vertices v reaches come from one `_reaches` table per
    level."""
    depth = sys.depth
    levels = range(min(2, depth - 1) + 1)
    if _is_constant(sys) and levels:
        pair = _first_unreachable(sys)
        if pair is None:
            return Verdict.yes()
        u, v = pair
        return Verdict.no(
            witness=(0, u, v),
            note=f"vertex {u} is unreachable from {v}, so no level can cover the fiber over {u}",
        )
    adjacency = sys.adjacency
    for level in levels:
        size = sys.levels[level].size
        limit = depth - level
        reaches = _reaches(sys, level)
        for u in range(size):
            waiting = list(range(size))  # the v without a step count yet
            fiber = 1 << u
            for steps in range(1, limit + 1):
                fiber = _lift(adjacency, level + steps - 1, fiber, 1)
                if not fiber:
                    break
                waiting = [v for v in waiting if fiber & reaches(v, steps)[steps] != fiber]
                if not waiting:
                    break
            if waiting:
                v = waiting[0]
                return Verdict.unknown(
                    witness=(level, u, v),
                    note=(
                        f"no step count up to {limit} lets vertex {v} reach the "
                        f"whole fiber over vertex {u} at level {level}"
                    ),
                )
    return Verdict.yes()


def _labeled_paths(
    sys: LambdaGraphSystem, level: int, vertex: int, max_len: int
) -> Iterator[tuple[Word, int]]:
    """(label word, endpoint) pairs of paths from `vertex`, lengths 1..max_len."""
    stack: list[tuple[Word, int, int]] = [((), level, vertex)]
    while stack:
        word, l, v = stack.pop()
        if len(word) >= max_len or l >= sys.depth:
            continue
        for a, targets in sys.adjacency.out[l].get(v, {}).items():
            for t in targets:
                yield word + (a,), t
                stack.append((word + (a,), l + 1, t))


def check_iota_irreducible(
    sys: LambdaGraphSystem,
    bound: int = 3,
    max_level: int = 2,
    path_len: int = 2,
) -> Verdict:
    """Any labeled path from u should be shadowed, compatibly with the
    collapse, by a path starting from any other vertex v of the same level:
    v reaches some u' collapsing onto u, from which the same label word runs
    to a vertex collapsing onto the original endpoint.

    Whether a start u' works does not depend on v.  So for each path out of
    u and each step count, one `read_up` reads the word backward from the
    fiber over its endpoint, and the starts it finds in the fiber over u
    are kept; `read_down` distributes over unions of sources, so v has a
    shadow exactly when that set meets the vertices v reaches in as many
    steps.  The set is computed the first time some v needs it.

    A path with less room below it than `bound` can only mark its level as
    partially verified, so once the level is marked such paths are
    skipped, and a level whose paths are all like that is left.  A
    constant system is decided outright by `_first_unreachable`, at every
    depth: a shadow from v exists exactly when u is reachable from v.  Any
    other system whose range of levels to search is empty is `unknown`."""
    depth = sys.depth
    levels = range(min(max_level, depth - 2) + 1)
    if depth and _is_constant(sys):
        pair = _first_unreachable(sys)
        if pair is None:
            return Verdict.yes()
        u, v = pair
        return Verdict.no(witness=(0, v, u), note=f"vertex {u} is unreachable from {v}")
    if not levels:
        return Verdict.unknown(note=f"no level to search: the level range 0 .. {levels.stop - 1} is empty")
    adjacency = sys.adjacency
    partial: set[int] = set()
    for level in levels:
        size = sys.levels[level].size
        # Words are nonempty, so no shadow takes more steps than this.
        most = min(bound, depth - level - 1)
        # Every path of the level has less room than `bound`.
        short = most < bound
        reaches = _reaches(sys, level)
        for u in range(size):
            if short and level in partial:
                break
            # None depends on v: the paths out of u with the room below
            # them, the fibers over u, and for each path its starts: entry
            # steps - 1 holds the vertices collapsing onto u in `steps`
            # steps from which the path's word ends over its endpoint.  A
            # v tries the step counts in order, so the entries are made in
            # order, the first time some v needs them.
            paths = [
                (word, end, depth - level - len(word))
                for word, end in _labeled_paths(sys, level, u, path_len)
            ]
            over_u = [_lift(adjacency, level, 1 << u, steps) for steps in range(most + 1)]
            starts: list[list[int]] = [[] for _ in paths]
            for v in range(size):
                if u == v:
                    continue  # shadowed trivially with zero collapse steps
                reach = reaches(v, most)
                for (word, end, room), found in zip(paths, starts):
                    if room < bound and level in partial:
                        continue
                    # A word with no room below it tries no step count: with
                    # a bound >= 1 it marks the level partial, and with a
                    # bound < 1 the first path out of u, of length 1 and
                    # room >= 1, has already returned `unknown`.
                    for steps in range(1, min(bound, room) + 1):
                        if len(found) < steps:
                            # the shadow must end where the collapse maps onto `end`
                            over_end = _lift(adjacency, level + len(word), 1 << end, steps)
                            found.append(over_u[steps] & read_up(sys, level + steps, over_end, word))
                        if found[steps - 1] & reach[steps]:
                            break
                    else:
                        if room < bound:
                            # the truncation cut the step search short, so
                            # a deeper shadow may exist below it
                            partial.add(level)
                            continue
                        return Verdict.unknown(
                            witness=(level, v, u, word),
                            note=(
                                f"within {bound} collapse steps, no path from "
                                f"vertex {v} shadows the word "
                                f"{sys.alphabet.text(word)!r} out of vertex {u} "
                                f"at level {level}"
                            ),
                        )
    if partial:
        return Verdict.yes(
            note=(
                f"levels {sorted(partial)} verified only for the word lengths "
                f"that fit the truncation"
            )
        )
    return Verdict.yes()


# -- launching words and synchronization ---------------------------------


def _read_back(
    sys: LambdaGraphSystem,
    layer: int,
    below: dict[frozenset[int], int],
    cap: Optional[int],
    meter: _Meter,
) -> tuple[dict[frozenset[int], int], set[int]]:
    """One step of the backward sweep of readable sets.

    `below` maps each readable set X of the level under `layer` to the
    least length of a word w with R(w) = X, in nondecreasing order of
    length; R(w) is the set of vertices from which w can be read, and the
    whole level is R of the empty word.  Each X shorter than `cap` (None:
    no cap) is read backward once: its in-edges, grouped by symbol, give
    pred_a(X) = R(a w) at `layer` for every symbol a labeling an edge into
    it, one meter unit per (X, a), in ascending order of a.
    Returns the same map for level `layer`, in the same order, and the
    vertices v with {v} = R(a w) for some X and a: those launched by a word
    of length at most `cap`.  A singleton counts even when the map already
    holds it, since the whole level of one vertex is R of the empty word.
    """
    found = {frozenset(range(sys.levels[layer].size)): 0}
    launched: set[int] = set()
    into = sys.adjacency.into[layer]
    for ends, length in below.items():
        if cap is not None and length >= cap:
            break
        by_symbol: dict[int, list[int]] = {}
        for t in ends:
            for a, s in into.get(t, ()):
                by_symbol.setdefault(a, []).append(s)
        for a in sorted(by_symbol):
            starts = frozenset(by_symbol[a])
            meter.tick()
            if len(starts) == 1:
                launched |= starts
            if starts not in found:
                found[starts] = length + 1
    return found, launched


def _unlaunched(sys: LambdaGraphSystem, search: int, meter: _Meter) -> list[set[int]]:
    """The vertices of each level l < L with no launching word of length at
    most min(search, L - l), found by one backward sweep from level L up.

    The map of level l reads gaps l .. l + cap - 1 for its cap
    min(search, L - l), so where the level below has the same cap and its
    window repeats, the window lemma gives level l the map, the unlaunched
    vertices and the meter units of the level below, and the units are
    drawn again: the meter raises after the same unit as a sweep that
    reads every level."""
    bottom = sys.depth
    found = {frozenset(range(sys.levels[bottom].size)): 0}
    unlaunched: list[set[int]] = []  # from level L - 1 up
    cap_below = units = 0
    for level in range(bottom - 1, -1, -1):
        cap = min(search, bottom - level)
        if cap == cap_below and window_repeats(sys.repeats, level + 1, cap):
            meter.tick(units)
        else:
            before = meter.used
            found, launched = _read_back(sys, level, found, cap, meter)
            units = meter.used - before
            missing = set(range(sys.levels[level].size)) - launched
        unlaunched.append(missing)
        cap_below = cap
    return unlaunched[::-1]


def is_lambda_synchronizing_system(
    sys: LambdaGraphSystem,
    depth: Optional[int] = None,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Does every vertex launch some word, readable from it and from no
    sibling?  Word lengths up to `depth` (default: half the truncation) are
    searched by one backward sweep of readable sets (:func:`_read_back`).

    Launching words legitimately grow with the level (a level-l vertex may
    need a length-l word), so only levels up to min(depth, L - depth) are
    required to pass: there the search length is not capped by the room
    below, and the candidate lengths fit the search.  Misses on deeper
    levels are reported in the note rather than degrading the verdict,
    since their launching words may simply not fit the truncation.
    Constant systems are decided exactly: the same sweep reads layer 0
    with no length cap, each readable set once, until no new readable set
    appears, which exhausts the readable sets of the repeated graph.  A
    `depth` outside 1 .. L is a ValueError: no level would have to pass.
    """
    if depth is not None and not (1 <= depth <= sys.depth):
        raise ValueError(f"depth must be between 1 and {sys.depth}")
    meter = _Meter(budget)
    try:
        if _is_constant(sys):
            # Each round reads only the sets the round before found first.
            new: dict[frozenset[int], int] = {frozenset(range(sys.levels[0].size)): 0}
            seen = set(new)
            launched: set[int] = set()
            while new:
                grown, singles = _read_back(sys, 0, new, None, meter)
                launched |= singles
                new = {ends: length for ends, length in grown.items() if ends not in seen}
                seen.update(new)
            missing = set(range(sys.levels[0].size)) - launched
            if not missing:
                return Verdict.yes()
            vertex = min(missing)
            return Verdict.no(
                witness=(0, vertex),
                note=(
                    f"vertex {vertex} (every level) is never the unique reader of "
                    f"any word; reader-state closure exhausted"
                ),
            )
        if depth is None:
            depth = max(1, sys.depth // 2)
        unlaunched = _unlaunched(sys, depth, meter)
    except BudgetExceeded as exc:
        return Verdict.unknown(note=str(exc))
    unverified: list[tuple[int, int]] = []
    for level, missing in enumerate(unlaunched):
        if not missing:
            continue
        vertex = min(missing)
        if level <= min(depth, sys.depth - depth):
            return Verdict.unknown(
                witness=(level, vertex),
                note=(
                    f"no word of length <= {min(depth, sys.depth - level)} is readable "
                    f"from vertex {vertex} at level {level} alone"
                ),
            )
        unverified.append((level, vertex))
    if unverified:
        levels = sorted({l for l, _ in unverified})
        return Verdict.yes(
            note=(
                f"levels {levels} only partially verified: their launching "
                f"words may exceed the remaining truncation room"
            )
        )
    return Verdict.yes()


# -- synchronizing transitivity ------------------------------------------


class _Succession:
    """The bridge search of :func:`check_synchronizingly_transitive` on one
    system with one bound, for any number of word pairs.

    A bridge for (first, second) is a word making `second` follower-equal to
    first + bridge + second.  Bridges are read on from the endpoints of
    `first`, and `second` is read on from each bridge's endpoints; those
    endpoints must equal the endpoints of `second` lifted through the
    collapse to their level.

    The bridges read on from a first word and the lifted endpoints of a
    second word (for each level it is lifted to) depend on one word of the
    pair only, so each is read once and shared by every pair searched here.
    The reads of a second word on from a bridge's endpoints, which many
    pairs repeat, are kept by the walkers with the other reads of their
    gaps.  Bridges are drawn lazily, as the meter allows: a never-advanced
    `tee` keeps those drawn so far, and its copies replay them.
    """

    def __init__(self, sys: LambdaGraphSystem, bound: int):
        self.sys = sys
        self.bound = bound
        self._bridges: dict[Word, Iterator[tuple[Word, int]]] = {}
        self._lifted: dict[tuple[Word, int], int] = {}

    def bridge(
        self,
        first: Word,
        ends_first: int,
        second: Word,
        ends_second: int,
        meter: _Meter,
    ) -> Optional[Word]:
        """The first bridge that works for the pair, ticking `meter` once per
        bridge tried, or None.  The endpoints are those of the words' paths
        from the top level.

        Every bridge up to `bound` fits below `first` with room for
        `second`: the caller's guard 2 * word_len + bound <= depth, with
        both words of length <= word_len, gives
        depth - len(first) - len(second) >= bound."""
        sys = self.sys
        if first not in self._bridges:
            self._bridges[first] = tee(label_words(sys, len(first), ends_first, self.bound), 1)[0]
        for bridge, ends_bridge in copy(self._bridges[first]):
            meter.tick()
            below = len(first) + len(bridge)
            ends = read_down(sys, below, ends_bridge, second)
            if not ends:
                continue
            if (second, below) not in self._lifted:
                self._lifted[second, below] = _lift(sys.adjacency, len(second), ends_second, below)
            if self._lifted[second, below] == ends:
                return bridge
        return None


def check_synchronizingly_transitive(
    sys: LambdaGraphSystem,
    word_len: int = 2,
    bound: int = 2,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Succession must hold both ways between every pair of admissible words
    up to `word_len`, in a system of depth at least 2*word_len + bound.

    The words come from one `label_words` walk from the top, which also
    gives their endpoints.  Every pair runs through one :class:`_Succession`,
    so the bridges read on from a first word and the lifted endpoints of a
    second word are shared across pairs; each pair draws on a fresh meter
    of `budget`.  A pair with no bridge up to `bound` is `unknown`: a
    longer bridge may exist.  So is a pair that exhausts its meter, with
    the meter's note."""
    if 2 * word_len + bound > sys.depth:
        raise ValueError("truncation too shallow for the requested word length")
    top = (1 << sys.levels[0].size) - 1
    words = [(w, ends) for w, ends in label_words(sys, 0, top, word_len) if w]
    search = _Succession(sys, bound)
    for first, ends_first in words:
        for second, ends_second in words:
            try:
                bridge = search.bridge(first, ends_first, second, ends_second, _Meter(budget))
            except BudgetExceeded as exc:
                return Verdict.unknown(witness=(first, second), note=str(exc))
            if bridge is None:
                return Verdict.unknown(
                    witness=(first, second),
                    note=(
                        f"no bridge from {sys.alphabet.text(first)!r} to "
                        f"{sys.alphabet.text(second)!r} within bound {bound}"
                    ),
                )
    return Verdict.yes()


def simplicity_prediction(transitive: Verdict, branching: Verdict) -> Verdict:
    """Combine transitivity and the branching condition.

    Both together predict a simple associated algebra; either failing
    refutes the prediction; anything undecided stays unknown.
    """
    if transitive.is_yes and branching.is_yes:
        return Verdict.yes()
    if transitive.is_no or branching.is_no:
        return Verdict.no(note="prerequisite fails")
    return Verdict.unknown(note="prerequisites undecided")
