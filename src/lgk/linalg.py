"""Exact integer linear algebra: Smith normal form diagonals and abelian groups.

Matrices are lists of lists of Python ints (arbitrary precision), so every
result is exact for every integer input.  Every caller needs only the
diagonal of the Smith normal form: ranks, cokernels and kernels all read
off it.  One pure-integer elimination computes it, on the matrix alone with
no transforms kept, and the divisibility chain is repaired on the diagonal
by gcd/lcm steps.  The matrices of a λ-graph system are sparse, so the
elimination skips zero entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Matrix = list[list[int]]


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def _find_pivot(a: Matrix, t: int, rows: int, cols: int) -> tuple[int, int] | None:
    best = None
    piv = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x:
                ax = -x if x < 0 else x
                if best is None or ax < best:
                    best = ax
                    piv = (i, j)
                    if ax == 1:
                        return piv
    return piv


def _divisor_chain(ds: list[int]) -> list[int]:
    """Positive integers rearranged into a divisibility chain, ascending.

    Replacing a pair (x, y) by (gcd, lcm) keeps Z/x ⊕ Z/y up to
    isomorphism.  Once position i has met every later position it divides
    all of them, and later steps only take gcds and lcms of its multiples,
    so one pass over the pairs suffices.  Units divide everything: they
    go in front and skip the pass, which keeps it short on the mostly-unit
    diagonals of large systems.
    """
    units = [d for d in ds if d == 1]
    ds = [d for d in ds if d != 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            if g != ds[i]:
                ds[i], ds[j] = g, ds[i] * ds[j] // g
    return units + ds


def snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith form, ascending: nonzero divisors in a
    divisibility chain, then zeros.  Exact for every integer matrix.

    Smallest-pivot elimination on Python ints, with no transforms kept.
    Each pass clears row t and column t against the pivot by floor
    division; a nonzero remainder is smaller than the pivot and becomes the
    next one.  Each pass updates only against the nonzeros of the pivot
    row and column, which suits the sparse 0/1 matrices of a λ-graph
    system.  Once the matrix is diagonal, the chain is repaired on the
    diagonal alone.
    """
    rows, cols = shape(m)
    a = [list(row) for row in m]
    divisors = []
    for t in range(min(rows, cols)):
        piv = _find_pivot(a, t, rows, cols)
        if piv is None:
            break
        while piv is not None:
            i0, j0 = piv
            a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a[t:]:
                    row[t], row[j0] = row[j0], row[t]
            pivot_row = a[t]
            p = pivot_row[t]
            # The row pass leaves the pivot row as it is, and the column
            # pass leaves column t as it is, so each pass reads its
            # nonzeros once.  The first pivot-row nonzero is p itself.
            pivot_nonzero = [(j, y) for j, y in enumerate(pivot_row[t:], t) if y]
            dirty = False
            for row in a[t + 1 :]:
                x = row[t]
                if x:
                    q = x // p
                    for j, y in pivot_nonzero:
                        row[j] -= q * y
                    dirty = dirty or row[t] != 0
            column = [row for row in a[t:] if row[t]]
            for j, x in pivot_nonzero[1:]:
                q = x // p
                for row in column:
                    row[j] -= q * row[t]
                dirty = dirty or pivot_row[j] != 0
            piv = _find_pivot(a, t, rows, cols) if dirty else None
        divisors.append(abs(a[t][t]))
    return _divisor_chain(divisors) + [0] * (min(rows, cols) - len(divisors))


# -- abelian groups ------------------------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group Z^rank ⊕ Z/t1 ⊕ … with t_i | t_{i+1}."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion entries must be >= 2 (normalize first)")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("torsion must form a divisibility chain")

    @staticmethod
    def from_parts(free_rank: int, divisors: list[int] | tuple[int, ...]) -> "AbelianGroup":
        """Normalize arbitrary cyclic factors: 0 means a free Z factor, 1 is
        trivial, the rest are folded into a divisibility chain."""
        rank = free_rank
        ds = []
        for d in divisors:
            d = abs(d)
            if d == 0:
                rank += 1
            elif d > 1:
                ds.append(d)
        return AbelianGroup(rank, tuple(d for d in _divisor_chain(ds) if d > 1))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def cokernel(m: Matrix) -> AbelianGroup:
    """Z^rows / (column span of m).  Public, with :func:`kernel_group`, though
    no CLI path calls either: `test_linalg` and acceptance criteria 1 and 8
    hold :func:`snf_diagonal` to the oracles through them, and the
    benchmark's layer tracer (`lgkbench/layers.py`) times both by name."""
    rows, _ = shape(m)
    diag = snf_diagonal(m)
    rank = sum(1 for x in diag if x)
    return AbelianGroup.from_parts(rows - rank, [x for x in diag if x])


def kernel_group(m: Matrix) -> AbelianGroup:
    """Kernel of m: Z^cols -> Z^rows, always free; public as :func:`cokernel` is."""
    _, cols = shape(m)
    diag = snf_diagonal(m)
    rank = sum(1 for x in diag if x)
    return AbelianGroup.from_parts(cols - rank, [])
