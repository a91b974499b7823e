"""Exact integer linear algebra: Smith normal form diagonals and abelian groups.

Matrices are lists of lists of Python ints (arbitrary precision).  Every
caller needs only the diagonal of the Smith normal form: ranks, cokernels
and kernels all read off it.  Elimination therefore runs on the matrix
alone, with no transforms kept, and the divisibility chain is repaired on
the diagonal by gcd/lcm steps.  A numpy int64 fast path eliminates large
matrices and falls back to the pure-integer elimination whenever entries
could grow anywhere near overflow, so results are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Matrix = list[list[int]]


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Matrix) -> Matrix:
    r, c = shape(m)
    return [[m[i][j] for i in range(r)] for j in range(c)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} @ {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        ai = a[i]
        oi = out[i]
        for k in range(ca):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cb):
                    oi[j] += x * bk[j]
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    if shape(b) != (ra, ca):
        raise ValueError("shape mismatch")
    return [[a[i][j] - b[i][j] for j in range(ca)] for i in range(ra)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        a[i][j] == b[i][j] for i in range(len(a)) for j in range(len(a[0]) if a else 0)
    )


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
    so one pass over the pairs suffices.
    """
    ds = list(ds)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            if g != ds[i]:
                ds[i], ds[j] = g, ds[i] * ds[j] // g
    return ds


def _exact_snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith form by smallest-pivot elimination on Python ints.

    Each pass clears row t and column t against the pivot by floor
    division; a nonzero remainder is smaller than the pivot and becomes the
    next one.  Once the matrix is diagonal, the chain is repaired on the
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
            dirty = False
            for row in a[t + 1 :]:
                x = row[t]
                if x:
                    q = x // p
                    for j in range(t, cols):
                        y = pivot_row[j]
                        if y:
                            row[j] -= q * y
                    dirty = dirty or row[t] != 0
            for j in range(t + 1, cols):
                x = pivot_row[j]
                if x:
                    q = x // p
                    for row in a[t:]:
                        y = row[t]
                        if y:
                            row[j] -= q * y
                    dirty = dirty or pivot_row[j] != 0
            piv = _find_pivot(a, t, rows, cols) if dirty else None
        divisors.append(abs(a[t][t]))
    return _divisor_chain(divisors) + [0] * (min(rows, cols) - len(divisors))


def _numpy_snf_diagonal(m: Matrix) -> list[int] | None:
    """Diagonal of the Smith form via int64 numpy; None if growth risks overflow.

    Every entry is checked to be below 2^31 before each row pass and each
    column pass.  A multiplier q is an entry divided by the positive pivot,
    so |q·x| < 2^62 and no update can wrap around.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover
        return None
    rows, cols = shape(m)
    if rows == 0 or cols == 0:
        return []
    limit = 1 << 31
    if max((abs(x) for row in m for x in row), default=0) >= limit:
        return None
    a = np.array(m, dtype=np.int64)

    def overflow_risk() -> bool:
        return int(np.abs(a).max(initial=0)) >= limit

    t = 0
    limit_t = min(rows, cols)
    while t < limit_t:
        sub = a[t:, t:]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        vals = np.abs(sub[nz])
        k = int(np.argmin(vals))
        i0, j0 = int(nz[0][k]) + t, int(nz[1][k]) + t
        a[[t, i0], :] = a[[i0, t], :]
        a[:, [t, j0]] = a[:, [j0, t]]
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
        while True:
            if overflow_risk():
                return None
            p = int(a[t, t])
            col = a[t + 1 :, t]
            rows_nz = np.nonzero(col)[0]
            if rows_nz.size:
                q = col[rows_nz] // p
                a[t + 1 + rows_nz, t:] -= q[:, None] * a[t, t:]
                if overflow_risk():
                    return None
            row = a[t, t + 1 :]
            cols_nz = np.nonzero(row)[0]
            if cols_nz.size:
                q = row[cols_nz] // p
                a[:, t + 1 + cols_nz] -= a[:, t, None] * q[None, :]
            if not a[t + 1 :, t].any() and not a[t, t + 1 :].any():
                break
            # remainder became the new smallest entry; reselect pivot
            sub = a[t:, t:]
            nz = np.nonzero(sub)
            vals = np.abs(sub[nz])
            k = int(np.argmin(vals))
            i0, j0 = int(nz[0][k]) + t, int(nz[1][k]) + t
            a[[t, i0], :] = a[[i0, t], :]
            a[:, [t, j0]] = a[:, [j0, t]]
            if a[t, t] < 0:
                a[t, :] = -a[t, :]
        t += 1
    ds = [abs(int(a[i, i])) for i in range(t)]
    return _divisor_chain(ds) + [0] * (min(rows, cols) - t)


def snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith form; exact, with a fast path for big matrices."""
    rows, cols = shape(m)
    if rows * cols > 400:
        fast = _numpy_snf_diagonal(m)
        if fast is not None:
            return fast
    return _exact_snf_diagonal(m)


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
    """Z^rows / (column span of m)."""
    rows, _ = shape(m)
    diag = snf_diagonal(m)
    rank = sum(1 for x in diag if x)
    return AbelianGroup.from_parts(rows - rank, [x for x in diag if x])


def kernel_group(m: Matrix) -> AbelianGroup:
    """Kernel of m: Z^cols -> Z^rows, always free."""
    _, cols = shape(m)
    diag = snf_diagonal(m)
    rank = sum(1 for x in diag if x)
    return AbelianGroup.from_parts(cols - rank, [])


def groups_isomorphic(g1: AbelianGroup, g2: AbelianGroup) -> bool:
    return g1 == g2
