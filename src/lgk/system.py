"""Leveled labeled graphs with a level-collapsing map.

A system consists of vertex levels ``V_0 .. V_L``, labeled edge layers
``E_l`` from ``V_l`` to ``V_{l+1}``, and surjections ``iota_l`` collapsing
``V_{l+1}`` onto ``V_l``.  :func:`verify_all` returns the seven structural
verdicts (essential, left-resolving edge layers, predecessor-separated
levels, surjective collapse, label sets compatible with the collapse, the
local in/out matching property, and the intertwining identity of the gap
matrices) as tri-state verdicts with witnesses rather than booleans.  The
last three are the axioms that link the edge layers to the collapse, and
:func:`local_checks` decides them in one scan: the local property implies
the other two.

Builders:

* :func:`build_cantor_horizon_dyck` / :func:`build_cantor_horizon_markov_dyck`
  realize the Cantor-horizon systems of bracket shifts, whose level-``l``
  vertices are the admissible state words of length ``l``;
* :func:`build_lambda_synchronizing` constructs the canonical system of a
  subshift, dispatching once on its presentation: a cover (SFT, sofic and
  full shifts) is collapsed by past equivalence, Dyck and Markov-Dyck
  shifts take the Cantor-horizon builder, and their expansions take it
  with a target: the past quotient of the left interfaces of their
  synchronizing words.

:func:`canonical_form` renames every vertex by its predecessor structure,
giving a byte-stable normal form used for isomorphism checks.  It and the two
quotient builders rank vertices by their pasts (:func:`_predecessor_ranks`)
and merge along the ranks (:func:`_merge`).

Gap l is edge layer l with collapse l, joining levels l and l + 1; it is
the pair (A_l, I_l) of the paper, with no other representation.
``repeats[l]`` holds when gap l repeats gap l - 1: levels l - 1, l and
l + 1 have one size and the two gaps have equal edge layers and
collapses.  The *window lemma*: a computation that reads only gaps
l .. l + w - 1 and the levels they join gives at l what it gave at l - 1
whenever each gap of its window repeats (:func:`window_repeats`), since
the two windows are the same data one level apart.  So every per-gap
computation runs once per distinct window: the verifiers below skip a
window that repeats one they scanned, and the quotient build, the loader
and :attr:`LambdaGraphSystem.adjacency` hand a repeated gap the objects
of the gap above, which makes ``repeats`` a walk over shared pointers.
A walker's one-gap read is such a computation with a window of one gap:
it is kept in the read tables of its gap, which a repeated gap shares,
so it is computed once per run of repeated gaps (:class:`Adjacency`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, islice, zip_longest
from operator import ge
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .alphabet import Alphabet, Word, bracket_alphabet
from .dyck import Matrix01, all_ones, validate_transition_matrix
from .flow import ExpansionPlan, expand_word
from .labeled_graph import LabeledGraph
from .subshift import DEFAULT_BUDGET, Budget, DyckN, MarkovDyck, SubshiftSpec, cover
from .verdict import Verdict


class ConstructionError(ValueError):
    """A builder hit a word that breaks its synchronization assumptions."""


@dataclass(frozen=True)
class VertexLevel:
    """One vertex level: `size` vertices carrying display tags."""

    size: int
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("vertex level must be nonempty")
        if len(self.tags) != self.size:
            raise ValueError(f"expected {self.size} tags, got {len(self.tags)}")


Edge = tuple[int, int, int]  # (source, symbol, target)


def window_repeats(repeats: Sequence[bool], first: int, width: int) -> bool:
    """Does each gap of the window first .. first + width - 1 repeat the gap
    above it?  Then, by the window lemma, a computation that reads only that
    window gives at `first` what it gave at `first - 1`."""
    return 0 < first and first + width <= len(repeats) and all(repeats[first : first + width])


class GapReads:
    """The walker reads of one gap, each computed the first time it is asked
    for and then kept, keyed by the vertex set read and, for a one-symbol
    read, its symbol: `down` maps (symbol, sources) to the targets of the
    symbol's edges, `up` maps (symbol, targets) to their sources, `symbols`
    maps two or more sources to their out-symbols, ascending (those of one
    vertex are its `out` row), `after` maps sources to the targets of all
    their edges, and `lift` maps vertices to the vertices one level down
    collapsing onto them."""

    __slots__ = ("down", "up", "symbols", "after", "lift")

    def __init__(self) -> None:
        self.down: dict[tuple[int, int], int] = {}
        self.up: dict[tuple[int, int], int] = {}
        self.symbols: dict[int, tuple[int, ...]] = {}
        self.after: dict[int, int] = {}
        self.lift: dict[int, int] = {}


@dataclass(frozen=True)
class Adjacency:
    """Lookup tables of a system, one per edge layer and per collapse layer,
    and the reads the walkers made through them.

    `out[l][s][a]` lists the targets of the `a`-edges leaving s in edge
    layer l, `into[l][t]` lists the (symbol, source) pairs of the edges
    entering t, and `fiber[l][v]` lists the level-(l+1) vertices collapsing
    onto v.  They are read off the sorted layers, so each source lists its
    symbols ascending with their targets ascending, and each target lists
    its in-edges by ascending source, then symbol.  `into` is the one
    backward table: the backward reads pick their symbols out of it.  A
    vertex without such edges (or preimages) has no entry.  Callers must
    not mutate them.

    The walkers hold vertex sets as masks, Python ints with bit v set for
    vertex v, and build each result from the lists above.  `reads[l]` keeps
    every read of gap l (:class:`GapReads`).  A gap that repeats the gap
    above it holds the same tables and so gives the same reads: that is the
    window lemma for a one-gap window, so such a gap shares the reads of the
    gap above, and a read made at one level of a repeated run is made once
    for the whole run.  The reads live as long as the system's index and
    are no part of its value.
    """

    out: tuple[dict[int, dict[int, list[int]]], ...]
    into: tuple[dict[int, list[tuple[int, int]]], ...]
    fiber: tuple[dict[int, list[int]], ...]
    reads: tuple[GapReads, ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class LambdaGraphSystem:
    """Truncated leveled system; `edges[l]` joins level l to l+1.

    `iota[l]` maps each level-(l+1) vertex to its level-l image.  Only
    shape constraints are enforced here, once per distinct gap; the
    structural axioms are the business of :func:`verify_all`.
    """

    alphabet: Alphabet
    levels: tuple[VertexLevel, ...]
    edges: tuple[tuple[Edge, ...], ...]
    iota: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("system needs at least one level")
        depth = len(self.levels) - 1
        if len(self.edges) != depth or len(self.iota) != depth:
            raise ValueError("edges and iota must have one layer per level gap")
        symbols = len(self.alphabet)
        for l, layer in enumerate(self.edges):
            if self.repeats[l]:
                continue
            # sorted and duplicate-free: each edge strictly after the one before
            if any(map(ge, layer, islice(layer, 1, None))):
                raise ValueError(f"edge layer {l} must be sorted and duplicate-free")
            sources, targets = self.levels[l].size, self.levels[l + 1].size
            for s, a, t in layer:
                if not (0 <= s < sources):
                    raise ValueError(f"edge source {s} out of range at level {l}")
                if not (0 <= t < targets):
                    raise ValueError(f"edge target {t} out of range at level {l}")
                if not (0 <= a < symbols):
                    raise ValueError(f"edge symbol {a} out of alphabet range")
        for l, mapping in enumerate(self.iota):
            if self.repeats[l]:
                continue
            if len(mapping) != self.levels[l + 1].size:
                raise ValueError(f"iota layer {l} must cover level {l + 1}")
            for v, image in enumerate(mapping):
                if not (0 <= image < self.levels[l].size):
                    raise ValueError(f"iota image {image} out of range at level {l}")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(level.size for level in self.levels)

    # Built once per system and kept in the instance dict, which dataclass
    # equality and hashing never read.
    @cached_property
    def repeats(self) -> tuple[bool, ...]:
        """`repeats[l]`: gap l repeats gap l - 1 (see the module docstring)."""
        sizes = self.sizes
        return tuple(
            l > 0
            and sizes[l - 1] == sizes[l] == sizes[l + 1]
            and self.edges[l] == self.edges[l - 1]
            and self.iota[l] == self.iota[l - 1]
            for l in range(self.depth)
        )

    # Every walker below goes through these tables; a repeated gap shares
    # the tables and the reads of the gap above.
    @cached_property
    def adjacency(self) -> Adjacency:
        out: list[dict[int, dict[int, list[int]]]] = []
        into: list[dict[int, list[tuple[int, int]]]] = []
        fiber: list[dict[int, list[int]]] = []
        reads: list[GapReads] = []
        for l, (layer, mapping) in enumerate(zip(self.edges, self.iota)):
            if self.repeats[l]:
                out.append(out[-1])
                into.append(into[-1])
                fiber.append(fiber[-1])
                reads.append(reads[-1])
                continue
            by_source: dict[int, dict[int, list[int]]] = {}
            by_target: dict[int, list[tuple[int, int]]] = {}
            for s, a, t in layer:
                by_source.setdefault(s, {}).setdefault(a, []).append(t)
                by_target.setdefault(t, []).append((a, s))
            by_image: dict[int, list[int]] = {}
            for v, image in enumerate(mapping):
                by_image.setdefault(image, []).append(v)
            out.append(by_source)
            into.append(by_target)
            fiber.append(by_image)
            reads.append(GapReads())
        return Adjacency(out=tuple(out), into=tuple(into), fiber=tuple(fiber), reads=tuple(reads))


# -- walking helpers -----------------------------------------------------
#
# Vertex sets are masks: bit v of the int is vertex v.  Each one-gap read
# below is looked up in the gap's reads and computed from the adjacency
# lists only the first time (see :class:`Adjacency`).


def _members(mask: int) -> list[int]:
    """The vertices of `mask`, highest first.  A set of one vertex is read
    off its length; a larger one from one scan of its binary digits."""
    if not mask & (mask - 1):
        return [mask.bit_length() - 1] if mask else []
    bits = bin(mask)
    top = len(bits) - 1
    found = []
    i = bits.find("1", 2)
    while i > 0:
        found.append(top - i)
        i = bits.find("1", i + 1)
    return found


def step_down(sys: LambdaGraphSystem, level: int, sources: int, symbol: int) -> int:
    """Targets one level below `sources` reachable by a `symbol`-edge."""
    if not 0 <= level < len(sys.edges):
        raise ValueError(f"no edge layer below level {level}")
    adjacency = sys.adjacency
    reads = adjacency.reads[level].down
    key = (symbol, sources)
    targets = reads.get(key)
    if targets is None:
        out = adjacency.out[level]
        targets = 0
        for s in _members(sources):
            row = out.get(s)
            if row is not None:
                for t in row.get(symbol, ()):
                    targets |= 1 << t
        reads[key] = targets
    return targets


def _up(adjacency: Adjacency, level: int, targets: int, symbol: int) -> int:
    reads = adjacency.reads[level].up
    key = (symbol, targets)
    sources = reads.get(key)
    if sources is None:
        into = adjacency.into[level]
        sources = 0
        for t in _members(targets):
            for a, s in into.get(t, ()):
                if a == symbol:
                    sources |= 1 << s
        reads[key] = sources
    return sources


def _lift(adjacency: Adjacency, level: int, vertices: int, steps: int) -> int:
    """The vertices at `level + steps` collapsing onto `vertices` at `level`."""
    for l in range(level, level + steps):
        if not vertices:
            break
        reads = adjacency.reads[l].lift
        below = reads.get(vertices)
        if below is None:
            fiber = adjacency.fiber[l]
            below = 0
            for v in _members(vertices):
                for w in fiber.get(v, ()):
                    below |= 1 << w
            reads[vertices] = below
        vertices = below
    return vertices


def _out_symbols(sys: LambdaGraphSystem, level: int, sources: int) -> tuple[int, ...]:
    """Symbols of the edges leaving `sources` at `level`, ascending.  Those
    of one vertex are the keys of its `out` row, which are kept already."""
    adjacency = sys.adjacency
    out = adjacency.out[level]
    if not sources & (sources - 1):
        return tuple(out.get(sources.bit_length() - 1, ()))
    reads = adjacency.reads[level].symbols
    symbols = reads.get(sources)
    if symbols is None:
        symbols = reads[sources] = tuple(sorted({a for s in _members(sources) if s in out for a in out[s]}))
    return symbols


def _successors(sys: LambdaGraphSystem, level: int, sources: int) -> int:
    """Targets of all the edges leaving `sources` at `level`."""
    adjacency = sys.adjacency
    reads = adjacency.reads[level].after
    targets = reads.get(sources)
    if targets is None:
        out = adjacency.out[level]
        targets = 0
        for s in _members(sources):
            for ts in out.get(s, {}).values():
                for t in ts:
                    targets |= 1 << t
        reads[sources] = targets
    return targets


def read_down(sys: LambdaGraphSystem, level: int, sources: int, word: Word) -> int:
    """Vertices reached from `sources` at `level` by reading `word`.

    On a system with the local property and surjective collapses, which
    every builder returns, the words readable from all of level l are the
    words readable from all of level 0, for every word that fits below l.
    Up: for l >= 1 an a-edge s -> v of layer l is an in-edge of v from the
    fiber over iota(s), so the local property gives an a-edge
    iota(s) -> iota(v) of layer l - 1, and every path projects one level
    up with its word.  Down: for an a-edge u -> w of layer l - 1 and any v
    with iota(v) = w, the local property gives an a-edge into v from the
    fiber over u, so a path lifts one level down from its last vertex
    back.  The built system presents its subshift X, so a word of length
    k <= depth is in B_k(X) exactly when reading it from all of level 0
    reaches a vertex.
    """
    if level < 0 or level + len(word) > len(sys.edges):
        raise ValueError(f"word of length {len(word)} does not fit below level {level}")
    for offset, symbol in enumerate(word):
        if not sources:
            break
        sources = step_down(sys, level + offset, sources, symbol)
    return sources


def read_up(sys: LambdaGraphSystem, level: int, targets: int, word: Word) -> int:
    """Vertices at `level` from which `word` reaches some vertex of
    `targets` at level `level + len(word)`: `word` read backward through
    the in-edges.  `read_down` distributes over unions of sources, so
    read_down(S, word) meets `targets` exactly when S meets this set."""
    if level < 0 or level + len(word) > len(sys.edges):
        raise ValueError(f"word of length {len(word)} does not fit below level {level}")
    adjacency = sys.adjacency
    for offset in range(len(word) - 1, -1, -1):
        if not targets:
            break
        targets = _up(adjacency, level + offset, targets, word[offset])
    return targets


def label_words(sys: LambdaGraphSystem, level: int, sources: int, max_len: int) -> Iterator[tuple[Word, int]]:
    """Distinct label words of length 0..max_len readable from `sources` at
    `level`, each with its endpoints, in (length, lexicographic) order and
    one at a time; a negative `max_len` gives none."""
    if level < 0 or level + max_len > sys.depth:
        raise ValueError("word length exceeds remaining depth")
    if max_len < 0:
        return
    layer = [((), sources)]
    yield layer[0]
    for l in range(level, level + max_len):
        next_layer = []
        for word, ends in layer:
            for a in _out_symbols(sys, l, ends):
                entry = (word + (a,), step_down(sys, l, ends, a))
                next_layer.append(entry)
                yield entry
        layer = next_layer


def iota_fiber(sys: LambdaGraphSystem, level: int, vertex: int, steps: int) -> int:
    """Vertices at `level + steps` collapsing onto `vertex` at `level`."""
    if level < 0 or steps < 0 or level + steps > len(sys.edges):
        raise ValueError(f"cannot lift {steps} steps down from level {level}")
    return _lift(sys.adjacency, level, 1 << vertex, steps)


# -- structural verifiers ------------------------------------------------
#
# Each verifier scans its windows from the top, so a window that repeats
# the one above it (the window lemma) gives what that one gave and is
# skipped: the single-verdict verifiers stop at the first failure, and
# local_checks copies the window's answers.


def _tag(sys: LambdaGraphSystem, level: int, vertex: int) -> str:
    tag = sys.levels[level].tags[vertex]
    return tag if tag else f"v{vertex}"


def verify_left_resolving(sys: LambdaGraphSystem) -> Verdict:
    """Each vertex has at most one in-edge per symbol."""
    for l, layer in enumerate(sys.edges):
        if sys.repeats[l]:
            continue
        seen: dict[tuple[int, int], int] = {}
        for s, a, t in layer:
            if (t, a) in seen:
                return Verdict.no(
                    witness=(l + 1, t, a),
                    note=(
                        f"vertex {_tag(sys, l + 1, t)} at level {l + 1} has two "
                        f"in-edges labeled {sys.alphabet.names[a]!r} "
                        f"(from {_tag(sys, l, seen[(t, a)])} and {_tag(sys, l, s)})"
                    ),
                )
            seen[(t, a)] = s
    return Verdict.yes()


def verify_predecessor_separated(sys: LambdaGraphSystem) -> Verdict:
    """Distinct vertices at levels >= 1 have distinct predecessor-word sets.

    The classes are those of :func:`_predecessor_ranks`, read off `into` down
    to the first clash.  Level 1 keys a vertex by its in-symbols, since every
    top vertex has rank 0.  Level l >= 2 keys it by its `into` list: level
    l - 1 has no clash, so its ranks are a bijection, and distinct (symbol,
    rank of source) pairs separate exactly what the sorted, duplicate-free
    (symbol, source) pairs of `into` separate.

    The check stops at the first level l >= 1 from which every gap repeats
    the gap above it.  A repeated gap has the `into` table of the gap above,
    so each level below l has the `into` lists of the level above it, which
    are distinct if levels 1 .. l have no clash (at l = 1, lists with
    distinct symbol sets differ).
    """
    tail = sys.depth  # gaps tail .. depth - 1 each repeat the gap above
    while tail > 0 and sys.repeats[tail - 1]:
        tail -= 1
    into = sys.adjacency.into
    for level in range(1, tail + 1):
        first: dict[object, int] = {}
        for v in range(sys.levels[level].size):
            pairs = into[level - 1].get(v, ())
            key = frozenset([a for a, _ in pairs]) if level == 1 else tuple(pairs)
            earlier = first.setdefault(key, v)
            if earlier != v:
                return Verdict.no(
                    witness=(level, earlier, v),
                    note=(
                        f"vertices {_tag(sys, level, earlier)} and {_tag(sys, level, v)} "
                        f"at level {level} have identical predecessor words"
                    ),
                )
    return Verdict.yes()


def verify_iota_surjective(sys: LambdaGraphSystem) -> Verdict:
    for l, mapping in enumerate(sys.iota):
        if sys.repeats[l]:
            continue
        missing = set(range(sys.levels[l].size)) - set(mapping)
        if missing:
            v = min(missing)
            return Verdict.no(
                witness=(l, v),
                note=f"vertex {_tag(sys, l, v)} at level {l} has no preimage under the collapse",
            )
    return Verdict.yes()


Tally = list[tuple[int, int]]


def local_tallies(sys: LambdaGraphSystem, l: int) -> Iterator[tuple[int, Tally, Tally]]:
    """Each vertex v of level l + 1 (1 <= l < depth) with the two lists of
    in-edges the collapse must match there, as sorted (vertex, symbol)
    pairs: `incoming` pairs the collapse iota_{l-1}(s) of the source of each
    layer-l edge into v with its symbol, and `outgoing` pairs the source
    of each layer-(l - 1) edge into iota_l(v) with its symbol.

    The one gather of the three axioms of :func:`local_checks`.  `into`
    lists the second in order already, so it is made once per image and the
    vertices of one fiber share it; callers must not mutate it."""
    into, below, above = sys.adjacency.into, sys.iota[l - 1], sys.iota[l]
    tallies: dict[int, Tally] = {}
    for v in range(sys.levels[l + 1].size):
        image = above[v]
        if image not in tallies:
            tallies[image] = [(u, a) for a, u in into[l - 1].get(image, ())]
        yield v, sorted([(below[s], a) for a, s in into[l].get(v, ())]), tallies[image]


class LocalChecks(NamedTuple):
    """The three axioms :func:`local_checks` decides in one scan."""

    local: Verdict  # the local property
    labels: Verdict  # label-collapse compatibility
    intertwining: tuple[bool, ...]  # the identity at each gap but the last


def local_checks(sys: LambdaGraphSystem) -> LocalChecks:
    """The local property, label-collapse compatibility and the intertwining
    identity, read off the two :func:`local_tallies` of every v at every
    level l + 1 (1 <= l < depth), once per distinct window: level l + 1
    reads gaps l - 1 and l, and a repeated window repeats its answers.

    * The local property: for u two levels above v's level, the labels of
      edges into v whose sources collapse to u agree, with multiplicity,
      with the labels of edges from u into the collapse image of v, so the
      two sorted tallies of v are equal.  The witness names the least u
      whose labels differ, of the first failing v.
    * Label-collapse compatibility: in-label sets are preserved by the
      collapse, so the symbols of the two tallies agree.
    * The intertwining identity A_{l-1} I_l = I_{l-1} A_l at gap l - 1.  It
      makes the induced k0 map well defined.  Transposing it gives
      I_l^t A_{l-1}^t = A_l^t I_{l-1}^t, hence

          I_l^t (I_{l-1}^t - A_{l-1}^t) = (I_l^t - A_l^t) I_{l-1}^t,

      so I_l^t pushes each relation of level l - 1 (a column of the left
      factor) into the relation lattice of level l, with the integer
      certificate the matching column of I_{l-1}^t.  Entry [s][u] of
      A_{l-1} I_l counts the layer-(l - 1) edges from s into iota_l(u), and
      of I_{l-1} A_l the layer-l edges into u whose source collapses to s:
      the times s occurs in the two sorted tallies at u, so the identity
      holds when their source sequences agree.

    Equal tallies have equal symbols and equal source sequences, so the
    local property implies the other two, and a vertex whose tallies are
    equal is passed with nothing else computed.  Where they differ, each
    verdict still passing records its first failure there, and the gap's
    identity fails if the source sequences differ.
    """
    names = sys.alphabet.names
    local = labels = Verdict.yes()
    intertwining: list[bool] = []
    for l in range(1, sys.depth):
        if window_repeats(sys.repeats, l - 1, 2):
            intertwining.append(intertwining[-1])
            continue
        holds = True
        for v, incoming, outgoing in local_tallies(sys, l):
            if incoming == outgoing:
                continue
            if local.is_yes:
                # Both tallies are sorted and agree before the first pair
                # where they part, so every u below both vertices there
                # agrees, and the lesser of the two is the least u that
                # does not.
                parted = next(pair for pair in zip_longest(incoming, outgoing) if pair[0] != pair[1])
                u = min(pair[0] for pair in parted if pair is not None)
                local = Verdict.no(
                    witness=(l, u, v),
                    note=(
                        f"between {_tag(sys, l - 1, u)} at level {l - 1} and "
                        f"{_tag(sys, l + 1, v)} at level {l + 1}: fiber "
                        f"in-labels {[names[a] for w, a in incoming if w == u]} vs "
                        f"out-labels {[names[a] for w, a in outgoing if w == u]}"
                    ),
                )
            if labels.is_yes:
                got, want = {a for _, a in incoming}, {a for _, a in outgoing}
                if got != want:
                    labels = Verdict.no(
                        witness=(l + 1, v),
                        note=(
                            f"vertex {_tag(sys, l + 1, v)} at level {l + 1} has "
                            f"in-labels {sorted(names[a] for a in got)} but its collapse image "
                            f"{_tag(sys, l, sys.iota[l][v])} has {sorted(names[a] for a in want)}"
                        ),
                    )
            holds = holds and [s for s, _ in incoming] == [s for s, _ in outgoing]
        intertwining.append(holds)
    return LocalChecks(local, labels, tuple(intertwining))


def verify_essential(sys: LambdaGraphSystem) -> Verdict:
    """Every vertex emits an edge (below the last level) and receives one (above the first)."""
    for l in range(sys.depth):
        if sys.repeats[l]:
            continue
        out, into = sys.adjacency.out[l], sys.adjacency.into[l]
        for v in range(sys.levels[l].size):
            if v not in out:
                return Verdict.no(
                    witness=(l, v),
                    note=f"vertex {_tag(sys, l, v)} at level {l} has no outgoing edge",
                )
        for v in range(sys.levels[l + 1].size):
            if v not in into:
                return Verdict.no(
                    witness=(l + 1, v),
                    note=f"vertex {_tag(sys, l + 1, v)} at level {l + 1} has no incoming edge",
                )
    return Verdict.yes()


VERIFIER_ORDER = (
    "essential",
    "left-resolving",
    "predecessor-separated",
    "collapse surjective",
    "label-collapse compatible",
    "local property",
    "matrix compatibility",
)


def verify_all(sys: LambdaGraphSystem) -> dict[str, Verdict]:
    """Every structural verdict, named and ordered as in
    :data:`VERIFIER_ORDER`.  The last three come from one
    :func:`local_checks` scan; "matrix compatibility" names the first gap
    whose intertwining identity fails."""
    local = local_checks(sys)
    bad = next((l for l, holds in enumerate(local.intertwining) if not holds), None)
    matrix = (
        Verdict.yes()
        if bad is None
        else Verdict.no(witness=bad, note=f"intertwining fails between levels {bad} and {bad + 1}")
    )
    verdicts = (
        verify_essential(sys),
        verify_left_resolving(sys),
        verify_predecessor_separated(sys),
        verify_iota_surjective(sys),
        local.labels,
        local.local,
        matrix,
    )
    return dict(zip(VERIFIER_ORDER, verdicts))


# -- builders ------------------------------------------------------------


def _predecessor_ranks(
    sizes: Sequence[int], edges: Sequence[Iterable[Edge]]
) -> Iterator[list[int]]:
    """Refine each level's vertices by their predecessor structure, yielding
    the ranks of one level at a time, so a caller may stop early.

    Every top vertex has rank 0 (the empty past).  Below, a vertex's key is
    the sorted tuple of its distinct (symbol, rank of source) pairs, and the
    distinct keys of a level are ranked in ascending order, equal keys
    sharing a rank.  By induction the ranks order the vertices as the
    nested keys (symbol, key of source) would, without their size doubling
    per level.  Its callers merge along the ranks (:func:`_merge`): the two
    quotient builders and :func:`canonical_form`.

    In a left-resolving system whose vertices all have a past of every
    length (an essential system), equal keys are exactly equal
    predecessor-word sets: a vertex's words of length l are, for each
    in-symbol a, the words of length l - 1 into its one a-source followed
    by a, and words partition by their last symbol.  One-step source
    identity would be too coarse (two disjoint equally-labeled loops have
    distinct in-edges but identical pasts).  A level's ranks are 0 .. k - 1
    for its k distinct keys, and each level's ranks refine those above: a
    key maps onto the key one level up by renaming the ranks of sources.
    """
    ranks = [0] * sizes[0]
    yield ranks
    for l in range(1, len(sizes)):
        pairs: list[set[tuple[int, int]]] = [set() for _ in range(sizes[l])]
        for s, a, t in edges[l - 1]:
            pairs[t].add((a, ranks[s]))
        keys = [tuple(sorted(p)) for p in pairs]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        ranks = [rank[key] for key in keys]
        yield ranks


def _merge(
    classes: Sequence[Sequence[int]], edges: Sequence[Iterable[Edge]], collapse: Sequence[Sequence[int]]
) -> tuple[list[tuple[Edge, ...]], list[tuple[int, ...]]]:
    """Edge layers and collapses of a leveled graph merged along `classes`:
    level-l vertex v joins class ``classes[l][v]``, numbered 0 .. k - 1.  An
    edge of ``edges[l]`` joins the classes of its ends (sorted, without
    duplicates), and a class collapses onto the one class of its members'
    images under ``collapse[l]``; two such classes are a construction error."""
    layers: list[tuple[Edge, ...]] = []
    iota: list[tuple[int, ...]] = []
    for l, (layer, down) in enumerate(zip(edges, collapse)):
        low, high = classes[l], classes[l + 1]
        layers.append(tuple(sorted({(low[s], a, high[t]) for s, a, t in layer})))
        image = [-1] * (max(high) + 1)
        for v, c in enumerate(high):
            up = low[down[v]]
            if image[c] not in (-1, up):
                raise ConstructionError(
                    f"class {c} at level {l + 1} collapses onto classes {image[c]} and {up} at level {l}"
                )
            image[c] = up
        iota.append(tuple(image))
    return layers, iota


@dataclass(frozen=True)
class _StateLevel:
    """The admissible state words of one length l, as index tables.

    Words are in lexicographic order, so the children w·k of a word (k
    ascending) are consecutive one level down: those of word i are
    ``start[i] .. start[i + 1] - 1``.  ``parent[i]`` is the index of w[:-1]
    one level up (the collapse), ``tail[i]`` that of w[1:], and
    ``first[i]``, ``last[i]`` are w's first and last symbols.  The empty
    word has first and last symbol n, which every symbol may follow, and
    no parent or tail.  No word is stored: a builder that needs one reads
    it off the parents (:func:`_state_word`).
    """

    parent: list[int]
    first: list[int]
    last: list[int]
    tail: list[int]
    start: list[int]


def _state_levels(matrix: Matrix01, depth: int) -> list[_StateLevel]:
    """Tables of the state words of lengths 0 .. depth, each level read off
    the one above.  A child w·k of word i has the parent i, the first
    symbol of w (k when w is empty) and the last symbol k, and its tail
    w[1:]·k is the child by k of the tail of w."""
    n = len(matrix)
    successors = [[k for k in range(n) if row[k]] for row in matrix] + [list(range(n))]
    place = [{k: r for r, k in enumerate(ks)} for ks in successors]

    def level(parent: list[int], first: list[int], last: list[int], tail: list[int]) -> _StateLevel:
        start = list(accumulate((len(successors[a]) for a in last), initial=0))
        return _StateLevel(parent, first, last, tail, start)

    levels = [level([], [n], [n], [])]
    for l in range(depth):
        up = levels[l]
        parent: list[int] = []
        first: list[int] = []
        last: list[int] = []
        tail: list[int] = []
        for i, a in enumerate(up.last):
            ks = successors[a]
            parent += [i] * len(ks)
            last += ks
            if l == 0:
                first += ks
                tail += [0] * len(ks)
                continue
            first += [up.first[i]] * len(ks)
            above, q = levels[l - 1], up.tail[i]
            base, at = above.start[q], place[above.last[q]]
            tail += [base + at[k] for k in ks]
        levels.append(level(parent, first, last, tail))
    return levels


def _state_word(levels: Sequence[_StateLevel], l: int, i: int) -> Word:
    """State word i of length l, read off the parents."""
    word = []
    for level in levels[l:0:-1]:
        word.append(level.last[i])
        i = level.parent[i]
    return tuple(reversed(word))


def _horizon_layers(matrix: Matrix01, levels: Sequence[_StateLevel]) -> list[list[Edge]]:
    """Edge layers of the Cantor-horizon system on the state words `levels`,
    each sorted by source, symbol and target as it is written.

    The opening edge into y leaves y[1:] (its tail) labeled y[0], so the
    opening edges out of word s are its a_x-edges into x·s, x ascending.
    The b_k-edge into y leaves (k·y)[:l] when A(k, y[0]) = 1, so the closing
    edges out of a word s = k·g of length l >= 1 are b_k-edges into the
    grandchildren of g whose first symbol may follow k (all of them once
    g is nonempty); out of the empty word they are the b_k-edges into
    every level-1 word y with A(k, y[0]) = 1.
    """
    n = len(matrix)
    layers: list[list[Edge]] = []
    # One int object per vertex, shared by all its edges: large layers stay smaller.
    sources = [0]
    for l in range(len(levels) - 1):
        level, below = levels[l], levels[l + 1]
        targets = list(range(len(below.last)))
        opening: list[list[Edge]] = [[] for _ in sources]
        for t, s, x in zip(targets, below.tail, below.first):
            opening[s].append((sources[s], x, t))
        if l == 0:
            layers.append(opening[0] + [(0, n + k, t) for k in range(n) for t in targets if matrix[k][t]])
        else:
            up = levels[l - 1]
            layer: list[Edge] = []
            for s, k, g in zip(sources, level.first, level.tail):
                layer += opening[s]
                row = matrix[k]
                for c in range(up.start[g], up.start[g + 1]):
                    if row[level.first[c]]:
                        layer += [(s, n + k, t) for t in targets[level.start[c] : level.start[c + 1]]]
            layers.append(layer)
        sources = targets
    return layers


def build_cantor_horizon_markov_dyck(
    matrix: Matrix01, depth: int, target: Optional[int] = None, fresh_name: str = "e"
) -> LambdaGraphSystem:
    """Cantor-horizon system of the bracket shift of a 0-1 matrix, or, given
    a `target` symbol, of its expansion target -> fresh·target, the fresh
    symbol named `fresh_name` (:func:`_interface_system`).

    Level-l vertices are the matrix-admissible state words of length l.  An
    opening symbol prepends its index to the state; a closing symbol pops
    indices revealed below the truncation, which at the level of state words
    shifts the word right by one.  The collapse drops the rightmost index.
    Every source, target and collapse is read off the index tables of
    :func:`_state_levels`, and each tag, the closing word of its state
    word, is its parent's tag and one more close.
    """
    validate_transition_matrix(matrix)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = len(matrix)
    alphabet = bracket_alphabet(n)
    if target is not None and not 0 <= target < 2 * n:
        raise ValueError("expansion target out of alphabet range")
    levels = _state_levels(matrix, depth)
    layers = _horizon_layers(matrix, levels)
    if target is not None:
        plan = ExpansionPlan(target=target, fresh=2 * n, fresh_name=fresh_name)
        return _interface_system(matrix, levels, layers, plan, alphabet.extend(fresh_name))
    closes = alphabet.names[n:]
    tags: list[tuple[str, ...]] = [("",)]
    for level in levels[1:]:
        prefix = [tag + " " if tag else "" for tag in tags[-1]]
        tags.append(tuple([prefix[p] + closes[k] for p, k in zip(level.parent, level.last)]))
    return LambdaGraphSystem(
        alphabet=alphabet,
        levels=tuple(VertexLevel(size=len(t), tags=t) for t in tags),
        edges=tuple(tuple(layer) for layer in layers),
        iota=tuple(tuple(level.parent) for level in levels[1:]),
    )


def _interface_system(
    matrix: Matrix01,
    levels: Sequence[_StateLevel],
    layers: Sequence[Sequence[Edge]],
    plan: ExpansionPlan,
    alphabet: Alphabet,
) -> LambdaGraphSystem:
    """System of the expansion `plan` of a bracket shift, the quotient of its
    left interfaces by past equivalence, read off the state-word tables
    `levels` and horizon edge `layers` of the base shift.

    A level-l synchronizing word w of the expansion is fixed, up to its
    past, by its *interface* (c, flag): c is the state word of its first l
    unmatched closes, and `flag` says that w begins with a bare target,
    which needs the fresh symbol to its left.  A flagged interface needs
    the target to read on into c: A(t, c_1) = 1 for an open target a_t (the
    support its cancelled pair a_t b_t leaves), c_1 = t for a close target
    b_t.  The x-edge into an interface leaves the interface of x·w, clipped
    to l.  Into (y, False) these are the horizon edges, whose source is
    flagged exactly when x is the target; into (y, True) reads only the
    fresh symbol, from (y[:l], False).  The collapse drops the last index
    and keeps the flag.  Level l lists the interfaces (c, False) in the
    order of the state words, then the flagged ones.

    Distinct interfaces can share a past (Dyck-2 expanded at a1 has
    2·2^l interfaces but 1, 3, 5, 8, 13, ... classes), so each level is
    quotiented by :func:`_predecessor_ranks`.  Its precondition holds:
    each (interface, symbol) has at most one source, and every interface
    has an in-edge, hence a past of every length.  Classes are numbered by
    rank, as :func:`canonical_form` numbers them, and each is tagged with a
    synchronizing word of its first interface: the closes, expanded, after
    a_t b_t for a flagged open target, with the fresh symbol of a leading
    target dropped when the interface is flagged.  The interface edges and
    collapse are merged along the ranks (:func:`_merge`), so a collapse
    that sends one class to two is a construction error.
    """
    n, target, fresh = len(matrix), plan.target, plan.fresh
    flag_at: list[list[int]] = []  # per state word, the index of its flagged interface or -1
    states: list[list[int]] = []  # per interface, its state word
    for l, level in enumerate(levels):
        if l == 0:
            may_flag = [True]
        elif target < n:
            may_flag = [matrix[target][c] == 1 for c in level.first]
        else:
            may_flag = [c == target - n for c in level.first]
        at, state = [], list(range(len(may_flag)))
        for i, ok in enumerate(may_flag):
            at.append(len(state) if ok else -1)
            if ok:
                state.append(i)
        flag_at.append(at)
        states.append(state)
    raw: list[list[Edge]] = []
    for l, layer in enumerate(layers):
        flag = flag_at[l]
        raw.append(
            [(flag[s], a, t) if a == target else (s, a, t) for s, a, t in layer]
            + [(p, fresh, f) for p, f in zip(levels[l + 1].parent, flag_at[l + 1]) if f >= 0]
        )
    ranks = list(_predecessor_ranks([len(state) for state in states], raw))
    vertex_levels = []
    for l, rank in enumerate(ranks):
        first: dict[int, int] = {}
        for v, r in enumerate(rank):
            first.setdefault(r, v)
        tags = [""] * len(first)
        for r, v in first.items():
            flagged = v >= len(levels[l].last)
            base = tuple(n + i for i in _state_word(levels, l, states[l][v]))
            if flagged and target < n:
                base = (target, n + target) + base
            word = expand_word(base, plan)
            tags[r] = alphabet.text(word[1:] if flagged else word)
        vertex_levels.append(VertexLevel(size=len(tags), tags=tuple(tags)))
    collapse = [  # a flagged interface collapses onto the flagged interface of its parent
        level.parent + [flag[level.parent[i]] for i in state[len(level.parent) :]]
        for level, flag, state in zip(levels[1:], flag_at, states[1:])
    ]
    edges, iota = _merge(ranks, raw, collapse)
    return LambdaGraphSystem(
        alphabet=alphabet,
        levels=tuple(vertex_levels),
        edges=tuple(edges),
        iota=tuple(iota),
    )


def build_cantor_horizon_dyck(n: int, depth: int) -> LambdaGraphSystem:
    """Cantor-horizon system of the Dyck shift on n bracket pairs."""
    return build_cantor_horizon_markov_dyck(all_ones(n), depth)


def _quotient_system(graph: LabeledGraph, depth: int) -> LambdaGraphSystem:
    """Collapse a cover by depth-l past equivalence at each level l.

    The cover must be essential and left-resolving, as every spec's cover
    is: then each vertex has a past of every length and one source per
    in-symbol, so :func:`_predecessor_ranks` over ``depth`` copies of the
    cover's edges ranks level l's vertices exactly by their length-l pasts.
    Each level's classes are numbered in order of first appearance over the
    cover's vertices, and the cover's edges and identity collapse are
    merged along them (:func:`_merge`).

    Each level's partition refines the one above and is a function of it
    (a Moore refinement), so the first level L with as many classes as
    level L - 1 has the partition of level L - 1, and so has every level
    below it.  The refinement stops there; levels L .. depth share the
    object of level L - 1, and gaps L - 1 .. depth - 1 share one edge layer
    and one identity collapse, so ``repeats[l]`` holds from L on.
    """
    n = len(graph.vertices)
    if n == 0:
        raise ValueError("the shift is empty: its cover has no vertices")
    partition, levels = [], []
    for level in _predecessor_ranks([n] * (depth + 1), [graph.edges] * depth):
        members: dict[int, list[str]] = {}  # rank -> names, in first-appearance order
        for v, r in enumerate(level):
            members.setdefault(r, []).append(graph.vertices[v])
        if levels and len(members) == levels[-1].size:
            break
        number = {r: c for c, r in enumerate(members)}
        partition.append([number[r] for r in level])
        tags = tuple("|".join(sorted(names)) for names in members.values())
        levels.append(VertexLevel(size=len(tags), tags=tags))
    stable = len(levels) - 1  # the last refined level; the levels below repeat it
    gaps = min(depth, stable + 1)
    edges, iota = _merge(partition + [partition[stable]], [graph.edges] * gaps, [range(n)] * gaps)
    tail = depth - gaps
    return LambdaGraphSystem(
        alphabet=graph.alphabet,
        levels=tuple(levels) + (levels[stable],) * (depth - stable),
        edges=tuple(edges) + (edges[-1],) * tail,
        iota=tuple(iota) + (iota[-1],) * tail,
    )


def build_lambda_synchronizing(
    spec: SubshiftSpec,
    depth: int,
    budget: Budget = DEFAULT_BUDGET,
) -> LambdaGraphSystem:
    """Canonical system of a subshift, truncated at `depth`.

    A spec with a cover (shifts of finite type, sofic and full shifts) is
    the exact quotient of its cover by past equivalence; a full shift's
    one-vertex cover gives a one-vertex chain.  Dyck and Markov-Dyck shifts
    build structurally as Cantor-horizon systems, and their expansions as
    the past quotients of their left interfaces
    (:func:`build_cantor_horizon_markov_dyck` with a target).  No build
    enumerates words, so none draws from the word budget; only its depth
    cap applies here.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > budget.max_depth:
        raise ValueError(f"depth {depth} exceeds budget cap {budget.max_depth}")
    graph = cover(spec)
    if graph is not None:
        return _quotient_system(graph, depth)
    if isinstance(spec, (DyckN, MarkovDyck)):
        return build_cantor_horizon_markov_dyck(spec.matrix, depth)
    return build_cantor_horizon_markov_dyck(spec.base.matrix, depth, spec.target, spec.fresh_name)


# -- canonical form ------------------------------------------------------


def canonical_form(sys: LambdaGraphSystem) -> LambdaGraphSystem:
    """Rename vertices by predecessor structure; byte-stable normal form.

    Multiple top-level vertices are first merged into a single root (their
    out-edges are pooled, which preserves left-resolvedness because a
    left-resolving layer has at most one source per (symbol, target) pair).
    A system that is not predecessor-separated
    (:func:`verify_predecessor_separated`) is an error.  Otherwise the ranks
    of :func:`_predecessor_ranks` are a bijection on every level, and
    :func:`_merge` renames each vertex to its rank; tags are cleared, so two
    systems are level-isomorphic exactly when their canonical forms are
    equal.
    """
    separated = verify_predecessor_separated(sys)
    if separated.is_no:
        raise ValueError("not predecessor-separated: " + separated.note)
    # Pooling one top vertex changes nothing, so the top is always pooled.
    sizes = [1, *sys.sizes[1:]]
    edges: list[Iterable[Edge]] = [{(0, a, t) for _, a, t in layer} for layer in sys.edges[:1]]
    iota: list[Sequence[int]] = [[0] * m for m in sys.sizes[1:2]]
    edges += sys.edges[1:]
    iota += sys.iota[1:]
    new_edges, new_iota = _merge(list(_predecessor_ranks(sizes, edges)), edges, iota)
    return LambdaGraphSystem(
        alphabet=sys.alphabet,
        levels=tuple(VertexLevel(size=m, tags=("",) * m) for m in sizes),
        edges=tuple(new_edges),
        iota=tuple(new_iota),
    )
