"""Integer invariants of a leveled system's transition-matrix sequence.

Each level gap contributes four finitely generated abelian groups, computed
exactly over the integers from one Smith normal form diagonal:

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

A sequence is reported *stabilized* when the groups become constant and the
connecting maps become isomorphisms over a tail window; truncations can
certify stabilization but never refute it, so the verdict is `yes` or
`unknown`.  :func:`compare_reports` is the flow-equivalence checker used by
the CLI: stabilized sides are compared on their stable groups, while
non-stabilized sides (the bracket shifts, whose free ranks grow forever)
are compared on their constant torsion chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import (
    AbelianGroup,
    cokernel,
    groups_isomorphic,
    is_unimodular,
    kernel_basis,
    mat_eq,
    mat_mul,
    mat_sub,
    mat_vec,
    shape,
    smith_normal_form,
    snf_diagonal,
    solve_integer,
    transpose,
)
from .system import LambdaGraphSystem, TransitionMatrices, transition_matrices
from .verdict import Verdict


@dataclass(frozen=True)
class LevelGroups:
    level: int
    k0: AbelianGroup
    k1: AbelianGroup
    bf0: AbelianGroup
    bf1: AbelianGroup

    def same_shape(self, other: "LevelGroups") -> bool:
        return (
            groups_isomorphic(self.k0, other.k0)
            and groups_isomorphic(self.k1, other.k1)
            and groups_isomorphic(self.bf0, other.bf0)
            and groups_isomorphic(self.bf1, other.bf1)
        )


def _k_matrix(tm: TransitionMatrices, l: int) -> list[list[int]]:
    """I_l^t - A_l^t, mapping Z^m(l) -> Z^m(l+1)."""
    return mat_sub(transpose(tm.i[l]), transpose(tm.a[l]))


def level_groups(tm: TransitionMatrices, l: int) -> LevelGroups:
    """The four groups of gap l from the one diagonal of I_l^t - A_l^t."""
    size, next_size = shape(tm.a[l])
    divisors = [d for d in snf_diagonal(_k_matrix(tm, l)) if d]
    rank = len(divisors)
    return LevelGroups(
        level=l,
        k0=AbelianGroup.from_parts(next_size - rank, divisors),
        k1=AbelianGroup.from_parts(size - rank, []),
        bf0=AbelianGroup.from_parts(size - rank, divisors),
        bf1=AbelianGroup.from_parts(next_size - rank, []),
    )


def connecting_map_check(tm: TransitionMatrices, l: int) -> bool:
    """Do the matrices intertwine between levels l and l+1?

    This is the identity A_l I_{l+1} = I_l A_{l+1} and nothing more: it
    already makes the induced k0 map well defined.  Transposing it gives
    I_{l+1}^t A_l^t = A_{l+1}^t I_l^t, hence

        I_{l+1}^t (I_l^t - A_l^t) = (I_{l+1}^t - A_{l+1}^t) I_l^t,

    so I_{l+1}^t pushes each relation of level l (a column of the left
    factor) into the relation lattice of level l+1, with the integer
    certificate the matching column of I_l^t.
    """
    return mat_eq(mat_mul(tm.a[l], tm.i[l + 1]), mat_mul(tm.i[l], tm.a[l + 1]))


def _k0_map_surjective(tm: TransitionMatrices, l: int) -> bool:
    """Is the induced map on k0 from level l to l+1 onto?

    The image is spanned by the pushed-forward generators together with the
    level-(l+1) relations, so surjectivity is the triviality of the
    cokernel of the two matrices side by side.
    """
    push = transpose(tm.i[l + 1])
    up = _k_matrix(tm, l + 1)
    augmented = [push[r] + up[r] for r in range(len(push))]
    return cokernel(augmented).is_trivial


def _k1_map_unimodular(tm: TransitionMatrices, l: int) -> bool:
    """Is the induced map on k1 from level l to l+1 an isomorphism?

    k1 groups are free; the collapse transpose maps one kernel into the
    next (granted the intertwining identity), and the map is expressed in
    kernel bases and tested for unimodularity.
    """
    down = _k_matrix(tm, l)
    up = _k_matrix(tm, l + 1)
    basis = kernel_basis(down)
    target_basis = kernel_basis(up)
    if len(basis) != len(target_basis):
        return False
    if not basis:
        return True
    push = transpose(tm.i[l])
    stacked = [[target_basis[j][r] for j in range(len(target_basis))] for r in range(len(up[0]))]
    snf = smith_normal_form(stacked)
    columns = []
    for vector in basis:
        image = mat_vec(push, vector)
        coords = solve_integer(stacked, image, snf)
        if coords is None:
            return False
        columns.append(coords)
    matrix = [[columns[j][r] for j in range(len(columns))] for r in range(len(columns[0]))]
    return is_unimodular(matrix)


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


def invariant_report(
    source: "LambdaGraphSystem | TransitionMatrices", window: int = 2
) -> InvariantReport:
    """Level groups, connecting-map checks, and a stabilization verdict.

    Stabilization needs at least `window` consecutive tail levels with
    isomorphic groups, connecting identities holding, the k0 maps onto, and
    the k1 maps unimodular.
    """
    tm = source if isinstance(source, TransitionMatrices) else transition_matrices(source)
    count = len(tm.a)
    if count == 0:
        raise ValueError("need at least one level gap")
    groups = tuple(level_groups(tm, l) for l in range(count))
    connecting = tuple(connecting_map_check(tm, l) for l in range(count - 1))

    stabilized = Verdict.unknown(note="no stable tail window within the truncation")
    if count >= window:
        for start in range(count - window + 1):
            tail = range(start, count)
            if not all(groups[l].same_shape(groups[start]) for l in tail):
                continue
            maps_ok = all(
                connecting[l] and _k0_map_surjective(tm, l) and _k1_map_unimodular(tm, l)
                for l in range(start, count - 1)
            )
            if maps_ok:
                stabilized = Verdict.yes(witness=start)
                break
        else:
            ranks = [g.k0.free_rank for g in groups]
            if all(ranks[i] < ranks[i + 1] for i in range(len(ranks) - 1)):
                stabilized = Verdict.unknown(
                    note="free rank grows level over level; no stabilization within the truncation"
                )
    return InvariantReport(
        sizes=tm.sizes,
        groups=groups,
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
            if not groups_isomorphic(getattr(mine, name), getattr(theirs, name)):
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
