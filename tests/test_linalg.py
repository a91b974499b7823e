"""Exact integer linear algebra against independent oracles.

The package computes Smith diagonals only, from dense matrices and from
sparse columns through the same routine.  They are compared with the
transform-carrying Smith form of the test oracles, whose decompositions
are certified in full (transforms multiply out, unimodularity,
divisibility chain), and cokernels of every small 2x2 matrix are compared
against two computations that share no code with the package:
determinantal divisors and an explicit coset census.  Matrices with
entries far beyond 64 bits are compared with the oracle's Smith form and
with sympy's when it is installed.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lgk.linalg import (
    AbelianGroup,
    cokernel,
    kernel_group,
    snf_diagonal,
    sparse_snf_diagonal,
)


def columns_of(m, width):
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(width)]


def assert_smith_certificate(m, width=None):
    """Certify the oracle's U·M·V = D, then require the package's diagonal,
    from the dense entry and from the column entry, to equal the certified
    one.  ``width`` gives the column count of a matrix with no rows, whose
    Smith diagonal is empty."""
    rows = len(m)
    cols = len(m[0]) if m else width or 0
    diag = []
    if rows:
        u, d, v = oracles.smith_normal_form(m)
        assert len(u) == rows and len(v) == cols
        assert oracles.is_unimodular(u)
        assert oracles.is_unimodular(v)
        assert oracles.mat_mul(oracles.mat_mul(u, m), v) == d
        diag = oracles.smith_diagonal(d)
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0
    assert len(diag) == min(rows, cols)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    # zeros only at the tail, and each entry divides the next
    assert diag[: len(nonzero)] == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert snf_diagonal(m) == diag
    columns = columns_of(m, cols)
    assert sparse_snf_diagonal(columns, rows) == diag
    assert columns == columns_of(m, cols)  # the column entry copies its input


@st.composite
def int_matrices(draw, max_dim=6, span=30):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [
        [draw(st.integers(-span, span)) for _ in range(cols)] for _ in range(rows)
    ]


@given(int_matrices())
def test_smith_certificate_property(m):
    assert_smith_certificate(m)


@st.composite
def sparse_int_matrices(draw, max_dim=8):
    """(matrix, width): a few nonzero cells, possibly no rows or no columns,
    some zero rows and columns, and entries beyond ±1 or no unit at all."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    units = draw(st.booleans())
    value = st.sampled_from((1, -1, 1, -1, 2, -3, 4, 7) if units else (2, -2, 3, -4, 6, -9, 12))
    m = [[0] * cols for _ in range(rows)]
    if rows and cols:
        cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for r, c in draw(st.lists(cell, max_size=2 * (rows + cols))):
            m[r][c] = draw(value)
        if draw(st.booleans()):
            m[draw(st.integers(0, rows - 1))] = [0] * cols
        if draw(st.booleans()):
            c = draw(st.integers(0, cols - 1))
            for row in m:
                row[c] = 0
    return m, cols


@settings(max_examples=300)
@given(sparse_int_matrices())
def test_unit_front_end_matches_oracle_on_sparse_matrices(drawn):
    assert_smith_certificate(*drawn)


def test_degenerate_shapes():
    for n in range(4):
        assert_smith_certificate([], n)  # 0 x n
        assert_smith_certificate([[] for _ in range(n)])  # n x 0
    assert_smith_certificate([[0, 0], [0, 0], [0, 0]])


def test_smith_certificate_random_batch():
    rng = random.Random(20260823)
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert_smith_certificate(m)


def test_cokernel_2x2_exhaustive_vs_divisor_oracle():
    for a, b, c, d in product(range(-3, 4), repeat=4):
        m = [[a, b], [c, d]]
        got = cokernel(m)
        rank, torsion = oracles.cokernel_2x2_by_divisors(m)
        assert got == AbelianGroup(rank, torsion), m


def test_cokernel_2x2_exhaustive_vs_coset_census():
    for a, b, c, d in product(range(-3, 4), repeat=4):
        m = [[a, b], [c, d]]
        if oracles.det_small(m) == 0:
            continue
        group = cokernel(m)
        assert group.free_rank == 0
        count, killed = oracles.coset_census(m)
        order = 1
        for t in group.torsion:
            order *= t
        assert count == order == abs(oracles.det_small(m))
        assert killed == oracles.killed_counts(group.torsion, count)


def test_cokernel_3x3_coset_census_sample():
    rng = random.Random(7)
    done = 0
    while done < 20:
        m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        det = oracles.det_small(m)
        if det == 0 or abs(det) > 20:
            continue
        group = cokernel(m)
        count, killed = oracles.coset_census(m)
        order = 1
        for t in group.torsion:
            order *= t
        assert group.free_rank == 0
        assert count == order == abs(det)
        assert killed == oracles.killed_counts(group.torsion, count)
        done += 1


def test_determinant_vs_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert oracles.det_int(m) == oracles.det_small(m)


@given(int_matrices(max_dim=5, span=9))
def test_kernel_basis_spans_and_saturates(m):
    basis = oracles.kernel_basis(m)
    group = kernel_group(m)
    assert group.torsion == ()
    assert len(basis) == group.free_rank
    for vec in basis:
        assert oracles.mat_vec(m, vec) == [0] * len(m)
    if basis:
        # saturation: the basis generates a direct summand, so the matrix
        # of basis columns has all invariant factors equal to 1
        cols = [[basis[j][i] for j in range(len(basis))] for i in range(len(basis[0]))]
        diag = snf_diagonal(cols)
        assert diag == [1] * len(basis)


def in_column_span(m, y) -> bool:
    """Is y in the column span of m?  Decided by cokernels alone.

    With L the column lattice of m and L' that of m with y appended,
    Z^rows/L maps onto Z^rows/L'.  Finitely generated abelian groups are
    Hopfian, so the two cokernels are isomorphic exactly when that
    surjection is injective, that is when L' = L.  This shares no
    transform code with the oracle's solve_integer.
    """
    return cokernel(m) == cokernel([row + [x] for row, x in zip(m, y)])


@given(int_matrices(max_dim=4, span=6), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_integer_agrees_with_membership(m, coeffs):
    cols = len(m[0])
    x = oracles.mat_vec(m, coeffs[:cols] + [0] * max(0, cols - len(coeffs)))
    assert in_column_span(m, x)
    s = oracles.solve_integer(m, x)
    assert s is not None
    assert oracles.mat_vec(m, s) == x


@given(int_matrices(max_dim=4, span=4), st.data())
def test_membership_negative_cases(m, data):
    y = [data.draw(st.integers(-8, 8)) for _ in range(len(m))]
    inside = in_column_span(m, y)
    s = oracles.solve_integer(m, y)
    assert inside == (s is not None)
    if s is not None:
        assert oracles.mat_vec(m, s) == y


# -- large entries -------------------------------------------------------


def overflow_repro() -> list[list[int]]:
    """21x21; one elimination step of the 2^39 entries against the unit
    pivot needs products near 2^78, far past any machine word."""
    n = 21
    m = [[3 * (r == c) for c in range(n)] for r in range(n)]
    m[0][0], m[0][1], m[1][0], m[1][1] = 1, 2**39, 2**39, 5
    return m


def test_snf_never_wraps_around():
    m = overflow_repro()
    # the 2x2 corner has divisors 1 and 2^78 - 5, which is prime to 3
    big = 3 * (2**78 - 5)
    assert big == 906694364710971881029617
    expected = [1, 1] + [3] * 18 + [big]
    assert snf_diagonal(m) == expected
    assert cokernel(m) == AbelianGroup(0, (3,) * 18 + (big,))


@st.composite
def large_entry_matrices(draw):
    """Sparse 21x21 to 24x24 matrices: a small diagonal, a few small
    off-diagonal entries, and a few entries of magnitude 2^20 to 2^40.

    The large entries sit in the top-left corner next to a unit pivot, so
    one elimination step multiplies two of them.  They are near powers of
    two, so a product truncated to a machine word would land on a small,
    plausible value instead of an obviously wrong one.
    """
    rows, cols = draw(st.integers(21, 24)), draw(st.integers(21, 24))
    m = [[0] * cols for _ in range(rows)]
    for k in range(min(rows, cols)):
        m[k][k] = draw(st.integers(-4, 4))
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    for r, c in draw(st.lists(cell, max_size=12)):
        m[r][c] = draw(st.integers(-3, 3))
    big = st.builds(
        lambda sign, e, k: sign * ((1 << e) - k),
        st.sampled_from((1, -1)),
        st.sampled_from(range(20, 41)),
        st.sampled_from((0, 0, 1, 3)),
    )
    m[0][0] = draw(st.sampled_from((1, -1)))
    m[0][1], m[1][0] = draw(big), draw(big)
    for r, c in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2)):
        m[r][c] = draw(big)
    return m


@settings(max_examples=40)
@given(large_entry_matrices())
def test_snf_matches_oracle_on_large_entries(m):
    assert_smith_certificate(m)


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(31)
    samples = [overflow_repro()]
    for _ in range(6):
        m = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(22)] for _ in range(21)]
        for _ in range(3):
            m[rng.randrange(21)][rng.randrange(22)] = rng.randint(-(2**40), 2**40)
        samples.append(m)
    for m in samples:
        d = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
        theirs = [abs(int(d[k, k])) for k in range(min(d.shape))]
        nonzero = sorted(x for x in theirs if x)
        assert snf_diagonal(m) == nonzero + [0] * (len(theirs) - len(nonzero))


def test_group_normalization():
    assert AbelianGroup.from_parts(0, [6, 4]) == AbelianGroup(0, (2, 12))
    assert AbelianGroup.from_parts(0, [2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_parts(1, [1, 1]) == AbelianGroup(1, ())
    assert AbelianGroup.from_parts(0, [0, 2]) == AbelianGroup(1, (2,))
    assert AbelianGroup.from_parts(0, [-4]) == AbelianGroup(0, (4,))
    assert str(AbelianGroup(2, (2,))) == "Z^2 ⊕ Z/2"
    assert str(AbelianGroup(0, ())) == "0"
    assert AbelianGroup(0, ()).is_trivial


def test_unimodular_detection():
    assert oracles.is_unimodular([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert oracles.is_unimodular([[1, 5], [0, -1]])
    assert not oracles.is_unimodular([[2, 0], [0, 1]])
    assert not oracles.is_unimodular([[1, 0, 0], [0, 1, 0]])
