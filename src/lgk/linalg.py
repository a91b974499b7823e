"""Exact integer linear algebra: Smith normal form and abelian groups.

Matrices are lists of lists of Python ints (arbitrary precision).  The
reference Smith normal form keeps full U, D, V with U·M·V = D, U and V
unimodular, D diagonal with nonnegative entries in a divisibility chain.
A numpy int64 fast path computes the diagonal alone for large matrices and
falls back to the exact reference whenever entries could grow anywhere near
overflow, so results are always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Matrix = list[list[int]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0 for a, b >= 0."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
    return a, s, t


def zeros(r: int, c: int) -> Matrix:
    return [[0] * c for _ in range(r)]


def eye(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


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


def mat_vec(m: Matrix, v: list[int]) -> list[int]:
    r, c = shape(m)
    if len(v) != c:
        raise ValueError("shape mismatch")
    return [sum(m[i][j] * v[j] for j in range(c)) for i in range(r)]


def det_int(m: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    r, c = shape(m)
    if r != c:
        raise ValueError("determinant needs a square matrix")
    if r == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(r - 1):
        if a[k][k] == 0:
            for i in range(k + 1, r):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[r - 1][r - 1]


@dataclass
class SmithDecomposition:
    """U·M·V = D with U, V unimodular and D the Smith form of M."""

    u: Matrix
    d: Matrix
    v: Matrix

    @property
    def diagonal(self) -> list[int]:
        r, c = shape(self.d)
        return [self.d[i][i] for i in range(min(r, c))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x)


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


def smith_normal_form(m: Matrix, want_transforms: bool = True) -> SmithDecomposition:
    """Smith normal form with certificates.

    Smallest-pivot elimination; divisibility repaired by folding offending
    entries back into the pivot position.  With want_transforms=False the
    U and V bookkeeping is skipped and the returned u, v are empty.
    """
    rows, cols = shape(m)
    a = [list(row) for row in m]
    u = eye(rows) if want_transforms else []
    v = eye(cols) if want_transforms else []

    def row_axpy(dst: int, src: int, q: int) -> None:
        if not q:
            return
        ad, asrc = a[dst], a[src]
        for j in range(cols):
            x = asrc[j]
            if x:
                ad[j] -= q * x
        if want_transforms:
            ud, us = u[dst], u[src]
            for j in range(rows):
                x = us[j]
                if x:
                    ud[j] -= q * x

    def col_axpy(dst: int, src: int, q: int) -> None:
        if not q:
            return
        for i in range(rows):
            x = a[i][src]
            if x:
                a[i][dst] -= q * x
        if want_transforms:
            for i in range(cols):
                x = v[i][src]
                if x:
                    v[i][dst] -= q * x

    def row_swap(i: int, j: int) -> None:
        if i != j:
            a[i], a[j] = a[j], a[i]
            if want_transforms:
                u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            if want_transforms:
                for row in v:
                    row[i], row[j] = row[j], row[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        if want_transforms:
            u[i] = [-x for x in u[i]]

    def eliminate_at(t: int) -> None:
        """Make a[t][t] the sole nonzero of row t and column t."""
        while True:
            piv = _find_pivot(a, t, rows, cols)
            assert piv is not None
            row_swap(t, piv[0])
            col_swap(t, piv[1])
            if a[t][t] < 0:
                row_negate(t)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    row_axpy(i, t, x // p)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                x = a[t][j]
                if x:
                    col_axpy(j, t, x // p)
                    if a[t][j]:
                        dirty = True
            if not dirty:
                return

    def rows_combine(i: int, j: int, block: tuple[tuple[int, int], tuple[int, int]]) -> None:
        """(row_i, row_j) := block @ (row_i, row_j); block must be unimodular."""
        (p, q), (r_, s_) = block
        for mat, width in ((a, cols), (u, rows)) if want_transforms else ((a, cols),):
            ri, rj = mat[i], mat[j]
            for k in range(width):
                x, y = ri[k], rj[k]
                if x or y:
                    ri[k] = p * x + q * y
                    rj[k] = r_ * x + s_ * y

    def chain_repair(i: int, j: int) -> None:
        """Replace diag entries (d_i, d_j) by (gcd, lcm); touches only rows/cols i, j."""
        p, q = a[i][i], a[j][j]
        g, s, tt = _xgcd(p, q)
        # fold column j into column i, then left-multiply the 2-row block by
        # [[s, tt], [-q/g, p/g]] (det 1), then clear the remaining (i, j) entry
        col_axpy(i, j, -1)
        rows_combine(i, j, ((s, tt), (-q // g, p // g)))
        col_axpy(j, i, a[i][j] // a[i][i])

    t = 0
    limit = min(rows, cols)
    while t < limit and _find_pivot(a, t, rows, cols) is not None:
        eliminate_at(t)
        t += 1
    rank = t

    # repair the divisibility chain; on exit d_i | d_j for all i < j, which
    # also sorts the positive diagonal ascending
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                if a[j][j] % a[i][i]:
                    chain_repair(i, j)
                    changed = True
    for i in range(rank):
        if a[i][i] < 0:
            row_negate(i)
    return SmithDecomposition(u, a, v)


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
    diag = [int(a[i, i]) for i in range(min(rows, cols))]
    rank = sum(1 for x in diag if x)
    ds = [abs(x) for x in diag[:rank]]
    # repair the chain on the diagonal alone (valid once off-diagonals vanish:
    # the multiset of elementary divisors is determined by the diagonal)
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(ds[i], ds[j])
            if g != ds[i]:
                ds[i], ds[j] = g, ds[i] * ds[j] // g
    return ds + [0] * (min(rows, cols) - rank)


def snf_diagonal(m: Matrix) -> list[int]:
    """Diagonal of the Smith form; exact, with a fast path for big matrices."""
    rows, cols = shape(m)
    if rows * cols > 400:
        fast = _numpy_snf_diagonal(m)
        if fast is not None:
            return fast
    return smith_normal_form(m, want_transforms=False).diagonal


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
        changed = True
        while changed:
            changed = False
            for i in range(len(ds)):
                for j in range(i + 1, len(ds)):
                    g = gcd(ds[i], ds[j])
                    if ds[j] % ds[i]:
                        ds[i], ds[j] = g, ds[i] * ds[j] // g
                        changed = True
        ds = [d for d in sorted(ds) if d > 1]
        return AbelianGroup(rank, tuple(ds))

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


def kernel_basis(m: Matrix) -> list[list[int]]:
    """Columns forming a basis of ker(m) (a direct summand of Z^cols)."""
    snf = smith_normal_form(m)
    rank = snf.rank
    _, cols = shape(m)
    return [[snf.v[i][j] for i in range(cols)] for j in range(rank, cols)]


def groups_isomorphic(g1: AbelianGroup, g2: AbelianGroup) -> bool:
    return g1 == g2


def solve_integer(m: Matrix, x: list[int], snf: SmithDecomposition | None = None) -> list[int] | None:
    """Some integer solution of m·s = x, or None."""
    rows, cols = shape(m)
    if snf is None:
        snf = smith_normal_form(m)
    y = mat_vec(snf.u, x)
    diag = snf.diagonal
    rank = snf.rank
    z = [0] * cols
    for i in range(rows):
        d = diag[i] if i < len(diag) else 0
        if i < rank:
            if y[i] % d:
                return None
            if i < cols:
                z[i] = y[i] // d
        elif y[i]:
            return None
    return mat_vec(snf.v, z)


def is_unimodular(m: Matrix) -> bool:
    r, c = shape(m)
    return r == c and abs(det_int(m)) == 1
