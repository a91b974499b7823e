"""Integer invariants of a λ-graph system, read off its edges and collapses.

Gap l carries the pair (A_l, I_l): A_l counts the edges of layer l and I_l
is the matrix of the collapse iota_l.  Each gap contributes four groups,
computed exactly from one Smith diagonal:

* ``k0``: cokernel of M_l = I_l^t - A_l^t, with the collapse matrices
  inducing maps between consecutive levels;
* ``k1``: kernel of the same map (free);
* ``bf0`` / ``bf1``: cokernel and kernel of the untransposed I_l - A_l,
  the per-level Bowen-Franks data.

One diagonal suffices.  I_l - A_l is the transpose of M_l, and a matrix
and its transpose have the same elementary divisors, so ``k0`` and ``bf0``
share their torsion.  Kernels are free, and every free rank follows from
the shape m(l+1) x m(l) of M_l and its rank r: k0 = m(l+1) - r,
k1 = m(l) - r, bf0 = m(l) - r, bf1 = m(l+1) - r.

M_l and the blocks of the mapping cones are built as sparse integer
columns straight from ``sys.edges`` and ``sys.iota``, and never as dense
matrices: column s of M_l has a 1 at each vertex collapsing onto s and a
-1 for each edge out of s.  :func:`lgk.linalg.sparse_snf_diagonal` takes
them, and its unit-pivot front end keeps them sparse.

A sequence is reported *stabilized* from level s when every gap from s on
has the groups of the next, its connecting identity holds, and its mapping
cone is acyclic, which makes the induced maps on k0 and k1 isomorphisms
(:func:`_cone_acyclic`).  Truncations can certify stabilization but never
refute it, so the verdict is `yes` or `unknown`.  :func:`compare_reports`
is the flow-equivalence checker used by the CLI: stabilized sides are
compared on their stable groups, while non-stabilized sides (the bracket
shifts, whose free ranks grow forever) are compared on their constant
torsion chains.

Every per-gap computation runs once per distinct window of gaps, by the
window lemma of :mod:`lgk.system`: a computation that reads only gaps
l .. l + w - 1 gives at l what it gave at l - 1 when each of those gaps
repeats the gap above it (``LambdaGraphSystem.repeats``).  The groups of
gap l read gap l, so a repeated gap reuses the groups at l - 1; the mapping
cone at l reads gaps l and l + 1, and the backward pass reuses cone l + 1
when gaps l + 1 and l + 2 repeat.  The intertwining identity at each gap
is read off the scan :func:`lgk.system.local_checks`, the one
``lgk verify`` reports as matrix compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .linalg import AbelianGroup, Column, sparse_snf_diagonal
from .system import LambdaGraphSystem, local_checks, window_repeats
from .verdict import Verdict


@dataclass(frozen=True)
class LevelGroups:
    level: int
    k0: AbelianGroup
    k1: AbelianGroup
    bf0: AbelianGroup
    bf1: AbelianGroup

    def same_shape(self, other: "LevelGroups") -> bool:
        """Isomorphic groups, whatever the level: an :class:`AbelianGroup` is
        normalized, so equality is isomorphism."""
        return (self.k0, self.k1, self.bf0, self.bf1) == (other.k0, other.k1, other.bf0, other.bf1)


def _collapse_columns(sys: LambdaGraphSystem, l: int) -> list[Column]:
    """I_l^t by columns: column s has a 1 at each level-(l+1) vertex v with
    iota_l(v) = s."""
    columns: list[Column] = [{} for _ in range(sys.sizes[l])]
    for v, image in enumerate(sys.iota[l]):
        columns[image][v] = 1
    return columns


def _k_columns(sys: LambdaGraphSystem, l: int) -> list[Column]:
    """M_l = I_l^t - A_l^t by columns, mapping Z^m(l) -> Z^m(l+1): column s
    is the collapse column of s less one at t for each edge s -> t."""
    columns = _collapse_columns(sys, l)
    for s, _, t in sys.edges[l]:
        column = columns[s]
        x = column.get(t, 0) - 1
        if x:
            column[t] = x
        else:
            del column[t]
    return columns


def level_groups(sys: LambdaGraphSystem, l: int) -> LevelGroups:
    """The four groups of gap l from the one diagonal of I_l^t - A_l^t."""
    size, next_size = sys.sizes[l], sys.sizes[l + 1]
    divisors = [d for d in sparse_snf_diagonal(_k_columns(sys, l), next_size) if d]
    rank = len(divisors)
    return LevelGroups(
        level=l,
        k0=AbelianGroup.from_parts(next_size - rank, divisors),
        k1=AbelianGroup.from_parts(size - rank, []),
        bf0=AbelianGroup.from_parts(size - rank, divisors),
        bf1=AbelianGroup.from_parts(next_size - rank, []),
    )


def _cone_acyclic(sys: LambdaGraphSystem, l: int) -> bool:
    """Are the induced k0 and k1 maps from gap l to gap l+1 isomorphisms?

    Write M_l = I_l^t - A_l^t : Z^m(l) -> Z^m(l+1).  Granted the
    intertwining identity (:func:`lgk.system.local_checks`), the pair
    (I_l^t, I_{l+1}^t) is a chain map from the two-term complex
    Z^m(l) -> Z^m(l+1) to Z^m(l+1) -> Z^m(l+2), and it induces the k1 map
    on H_1 = ker and the k0 map on H_0 = coker.  Its mapping cone is

        Z^m(l) --d2--> Z^m(l+1) ⊕ Z^m(l+1) --d1--> Z^m(l+2),
        d2 = [-M_l ; I_l^t],  d1 = [I_{l+1}^t | M_{l+1}],

    and by the long exact sequence of the cone both induced maps are
    isomorphisms exactly when the cone is acyclic.  For a complex of free
    groups that reads off the two Smith diagonals: ker d2 = 0 is
    rank d2 = m(l); coker d1 = 0 is rank d1 = m(l+2) with unit divisors;
    and im d2 = ker d1 is equal ranks, rank d1 + rank d2 = 2 m(l+1), with
    im d2 saturated, which is unit divisors of d2.

    Between gaps of the same shape, a k0 map onto is already an
    isomorphism, since finitely generated abelian groups are Hopfian; so
    this is the same test as "k0 map onto and k1 map unimodular".
    """
    size, middle, top = sys.sizes[l], sys.sizes[l + 1], sys.sizes[l + 2]
    d2 = [
        {**{t: -x for t, x in rel.items()}, **{middle + v: 1 for v in push}}
        for rel, push in zip(_k_columns(sys, l), _collapse_columns(sys, l))
    ]
    d1 = _collapse_columns(sys, l + 1) + _k_columns(sys, l + 1)
    lower = [d for d in sparse_snf_diagonal(d2, 2 * middle) if d]
    upper = [d for d in sparse_snf_diagonal(d1, top) if d]
    return (
        len(lower) == size
        and len(upper) == top
        and len(lower) + len(upper) == 2 * middle
        and all(d == 1 for d in lower + upper)
    )


def _cone_checks(sys: LambdaGraphSystem) -> Iterator[bool]:
    """:func:`_cone_acyclic` at gaps count - 2, count - 3, ..., 0 in turn, as
    the backward pass of :func:`invariant_report` asks for them.  Cone l
    reads gaps l and l + 1, so it is cone l + 1 again where gaps l + 1 and
    l + 2 repeat the gaps above them."""
    acyclic = False
    for l in range(sys.depth - 2, -1, -1):
        if not window_repeats(sys.repeats, l + 1, 2):
            acyclic = _cone_acyclic(sys, l)
        yield acyclic


# The fewest consecutive levels a stable tail may have.
_MIN_STABLE_LEVELS = 2


@dataclass(frozen=True)
class InvariantReport:
    sizes: tuple[int, ...]
    groups: tuple[LevelGroups, ...]
    connecting: tuple[bool, ...]
    stabilized: Verdict  # witness: first stable level

    @property
    def stable_groups(self) -> Optional[LevelGroups]:
        if self.stabilized.is_yes:
            return self.groups[self.stabilized.witness]
        return None


def invariant_report(sys: LambdaGraphSystem) -> InvariantReport:
    """Level groups, connecting-map checks, and a stabilization verdict.

    Stabilization needs a tail of at least two levels in which every gap
    has the groups of the next, its connecting identity holds, and its
    mapping cone is acyclic (:func:`_cone_acyclic`), so that the induced
    k0 and k1 maps are isomorphisms.  The witness is the first level of the
    longest such tail, found in one backward pass from the last gap; each
    cone is computed at most once per distinct window (:func:`_cone_checks`),
    and the groups of a repeated gap are those of the gap above.
    """
    count = sys.depth
    if count == 0:
        raise ValueError("need at least one level gap")
    groups: list[LevelGroups] = []
    for l in range(count):
        groups.append(replace(groups[-1], level=l) if sys.repeats[l] else level_groups(sys, l))
    connecting = local_checks(sys).intertwining

    start = count - 1
    cones = _cone_checks(sys)
    while start > 0 and (
        groups[start - 1].same_shape(groups[start])
        and connecting[start - 1]
        and next(cones)
    ):
        start -= 1
    ranks = [g.k0.free_rank for g in groups]
    if start <= count - _MIN_STABLE_LEVELS:
        stabilized = Verdict.yes(witness=start)
    elif count >= _MIN_STABLE_LEVELS and all(a < b for a, b in zip(ranks, ranks[1:])):
        stabilized = Verdict.unknown(
            note="free rank grows level over level; no stabilization within the truncation"
        )
    else:
        stabilized = Verdict.unknown(note="no stable tail window within the truncation")
    return InvariantReport(
        sizes=sys.sizes,
        groups=tuple(groups),
        connecting=connecting,
        stabilized=stabilized,
    )


# -- expansion-invariance comparison -------------------------------------


def _torsion_chains(report: InvariantReport) -> Optional[dict[str, tuple[int, ...]]]:
    """Torsion of each family if constant across levels (skipping level 0,
    whose root-collapsed groups are routinely atypical)."""
    picked = report.groups[1:] if len(report.groups) > 1 else report.groups
    out: dict[str, tuple[int, ...]] = {}
    for name in ("k0", "k1", "bf0", "bf1"):
        chains = {tuple(getattr(g, name).torsion) for g in picked}
        if len(chains) != 1:
            return None
        out[name] = chains.pop()
    return out


def compare_reports(base: InvariantReport, other: InvariantReport) -> tuple[str, str]:
    """Verdict ('pass' | 'fail' | 'inconclusive') with an explanation.

    Stabilized sides compare their stable groups outright.  Two
    non-stabilized sides compare constant torsion chains, a pass `at depth`
    since deeper levels stay unseen.  A stabilized side against a
    non-stabilized one is not comparable.
    """
    if base.stabilized.is_yes and other.stabilized.is_yes:
        mine, theirs = base.stable_groups, other.stable_groups
        if mine.same_shape(theirs):
            return "pass", "both stabilized with isomorphic groups"
        for name in ("k0", "k1", "bf0", "bf1"):
            if getattr(mine, name) != getattr(theirs, name):
                return "fail", (
                    f"stable {name} differs: {getattr(mine, name)} vs {getattr(theirs, name)}"
                )
    if not base.stabilized.is_yes and not other.stabilized.is_yes:
        mine, theirs = _torsion_chains(base), _torsion_chains(other)
        if mine is None or theirs is None:
            return "inconclusive", "torsion varies across levels; deepen the truncation"
        if mine == theirs:
            return "pass", (
                "neither side stabilized; constant torsion chains agree at this depth"
            )
        return "fail", f"constant torsion chains differ: {mine} vs {theirs}"
    return "inconclusive", (
        "one side stabilized and the other did not; not comparable at this depth"
    )
