"""Exact integer linear algebra: Smith normal form diagonals and abelian groups.

Matrices are lists of lists of Python ints (arbitrary precision), or
sparse columns: one dict per column from row index to nonzero entry.
Every result is exact for every integer input.  Every caller needs only
the diagonal of the Smith normal form: ranks, cokernels and kernels all
read off it.  One routine computes it, :func:`sparse_snf_diagonal`, and the
dense entry :func:`snf_diagonal` hands it the columns of its matrix.  A
front end eliminates ±1 pivots in Markowitz order, which keeps the sparse
0/±1 matrices of a λ-graph system sparse and leaves their elementary
divisors unchanged; the small residual takes a pure-integer elimination
with no transforms kept, and the divisibility chain is repaired on the
diagonal by gcd/lcm steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

Matrix = list[list[int]]
Column = dict[int, int]  # row index -> nonzero entry


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


def _unit_pivots(columns: list[Column], rows: int) -> list[tuple[int, int]]:
    """Eliminate ±1 pivots in Markowitz order; return them as (row, column).

    The column with the fewest entries that holds a unit goes first, and
    within it the unit whose row the fewest columns have touched, so each
    step creates little fill.  A unit pivot p at (r, c) clears row r by
    subtracting multiples of column c from the other columns (exact,
    since p is its own inverse), and then clears column c by row
    operations that touch nothing else, so the matrix becomes [p] ⊕ the
    rest: a unimodular step that keeps the elementary divisors and
    contributes the divisor 1.  Column c is left empty and row r has no
    entry left, so ``columns`` ends as the residual.

    The pivots come back in the order taken.  Replaying them on the
    original columns repeats every step, since each multiplier is read
    off the entries of row r at that step.
    """
    # Row i -> the columns that have held an entry there; a column that
    # has lost it is skipped when read.
    support: list[list[int]] = [[] for _ in range(rows)]
    heap = []
    for j, column in enumerate(columns):
        for i in column:
            support[i].append(j)
        heap.append((len(column), j))
    heapify(heap)
    pivots = []
    while heap:
        count, c = heappop(heap)
        pivot_column = columns[c]
        if count != len(pivot_column):
            continue  # stale: the column changed and was pushed again
        r = None
        for i, x in pivot_column.items():
            if x == 1 or x == -1:
                touched = len(support[i])
                if r is None or touched < fewest:
                    r, fewest = i, touched
        if r is None:
            continue
        p = pivot_column.pop(r)
        for j in support[r]:
            column = columns[j]
            if j == c or r not in column:
                continue
            f = column.pop(r) * p
            for i, x in pivot_column.items():
                x *= f
                y = column.get(i)
                if y is None:
                    column[i] = -x
                    support[i].append(j)
                elif y == x:
                    del column[i]
                else:
                    column[i] = y - x
            heappush(heap, (len(column), j))
        support[r] = []
        pivot_column.clear()
        pivots.append((r, c))
    return pivots


def _eliminate(a: Matrix) -> list[int]:
    """Nonzero Smith divisors of a dense matrix, in no particular order.

    Smallest-pivot elimination on Python ints, with no transforms kept.
    Each pass clears row t and column t against the pivot by floor
    division; a nonzero remainder is smaller than the pivot and becomes the
    next one.  Each pass updates only against the nonzeros of the pivot
    row and column.  ``a`` is consumed.
    """
    rows, cols = shape(a)
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
    return divisors


def sparse_snf_diagonal(columns: list[Column], rows: int) -> list[int]:
    """Diagonal of the Smith form of the rows x len(columns) matrix whose
    column j maps row indices to the nonzero entries of ``columns[j]``;
    ascending, as :func:`snf_diagonal`.  The columns are left unchanged.

    The unit pivots go first (:func:`_unit_pivots`), keeping the sparse
    0/±1 matrices of a λ-graph system sparse.  What remains, the nonempty
    columns restricted to the rows they touch, takes the dense
    elimination; on the Dyck-3 system it is one column at every gap to
    depth 9.  The divisibility chain is repaired on the diagonal alone.
    """
    work = [dict(column) for column in columns]
    units = len(_unit_pivots(work, rows))
    residual = [column for column in work if column]
    a = [[column.get(i, 0) for column in residual] for i in set().union(*residual)]
    divisors = [1] * units + _eliminate(a)
    return _divisor_chain(divisors) + [0] * (min(rows, len(columns)) - len(divisors))


def snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith form, ascending: nonzero divisors in a
    divisibility chain, then zeros.  Exact for every integer matrix.

    The columns of ``m`` go through :func:`sparse_snf_diagonal`, the one
    Smith routine.
    """
    rows, cols = shape(m)
    return sparse_snf_diagonal([{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(cols)], rows)


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
