"""Independent oracles the tests compare the package against.

Everything here is written from scratch on purpose, without importing the
package under test, so that agreement between the two codebases is evidence
rather than a tautology.  The implementations favour the most naive correct
method available: determinantal divisors instead of elimination, explicit
coset enumeration instead of normal forms, partial maps on words instead of
a reduction calculus.  The one reduction calculus here, `reduce_brackets`,
is a semantics of its own: the bracket tests hold it, path existence in
the package's built systems and the partial maps against each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd


# -- exact linear algebra, redone the slow way ---------------------------


def det_small(m: list[list[int]]) -> int:
    """Determinant by Laplace expansion; fine for the sizes used in tests."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_small(sub)
    return total


def adjugate(m: list[list[int]]) -> list[list[int]]:
    n = len(m)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [m[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            out[i][j] = (-1) ** (i + j) * det_small(sub)
    return out


def gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def cokernel_2x2_by_divisors(m: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Invariant factors of Z^2 modulo the column lattice of a 2x2 matrix.

    The k-th determinantal divisor (gcd of all k x k minors) equals the
    product of the first k invariant factors, so for a 2x2 matrix the two
    factors are d1 = gcd of the entries and d2 = |det| / d1.  Returns
    (free rank, torsion orders > 1) without any elimination.
    """
    entries = [m[0][0], m[0][1], m[1][0], m[1][1]]
    d1 = gcd_all(entries)
    det = abs(det_small(m))
    if d1 == 0:
        return 2, ()
    if det == 0:
        return 1, (d1,) if d1 > 1 else ()
    d2 = det // d1
    return 0, tuple(d for d in (d1, d2) if d > 1)


def coset_census(m: list[list[int]]) -> tuple[int, dict[int, int]]:
    """Count cosets of the column lattice, and how many each scalar kills.

    Requires det != 0.  Every coset has a representative in [0, |det|)^n
    because det * Z^n lies inside the lattice (M * adj(M) = det * I), and
    x, y are in the same coset iff adj(M) * (x - y) vanishes mod det.  So
    the map x -> adj(M) * x mod |det| separates cosets exactly.

    Returns (#cosets, {k: #cosets c with k*c = 0}) for k = 1..|det|.
    The second value determines a finite abelian group uniquely: a group
    with invariant factors (d_i) has prod gcd(k, d_i) cosets killed by k.
    """
    n = len(m)
    det = det_small(m)
    if det == 0:
        raise ValueError("census needs a nonsingular matrix")
    d = abs(det)
    adj = adjugate(m)
    classes: set[tuple[int, ...]] = set()
    for x in product(range(d), repeat=n):
        v = tuple(sum(adj[i][k] * x[k] for k in range(n)) % d for i in range(n))
        classes.add(v)
    killed = {
        k: sum(1 for v in classes if all((k * c) % d == 0 for c in v))
        for k in range(1, d + 1)
    }
    return len(classes), killed


def killed_counts(torsion: tuple[int, ...], up_to: int) -> dict[int, int]:
    """How many elements of the finite group with these invariant factors
    are killed by each scalar k = 1..up_to."""
    out = {}
    for k in range(1, up_to + 1):
        count = 1
        for t in torsion:
            count *= gcd(k, t)
        out[k] = count
    return out


def invariant_factors(m: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of m, from determinantal divisors.

    The k-th determinantal divisor d_k is the gcd of all k x k minors, and
    the k-th invariant factor is d_k / d_(k-1); the rank is the largest k
    with d_k != 0.  Exponential in the size, so only for small matrices.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    factors: list[int] = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        d = gcd_all(
            det_small([[m[r][c] for c in cs] for r in rs])
            for rs in combinations(range(rows), k)
            for cs in combinations(range(cols), k)
        )
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def four_level_groups(a: list[list[int]], i: list[list[int]]):
    """k0, k1, bf0, bf1 of one level gap, each from its own matrix.

    The cokernel and kernel of I^t - A^t, then the cokernel and kernel of
    I - A, as (free rank, torsion) pairs.  The package reads all four off
    one Smith diagonal; this computes them separately as the reference.
    """
    rows, cols = len(a), len(a[0])
    bf = [[i[r][c] - a[r][c] for c in range(cols)] for r in range(rows)]
    k = [[bf[r][c] for r in range(rows)] for c in range(cols)]
    out = []
    for m, m_rows, m_cols in ((k, cols, rows), (bf, rows, cols)):
        factors = invariant_factors(m)
        rank = len(factors)
        out.append((m_rows - rank, tuple(f for f in factors if f > 1)))
        out.append((m_cols - rank, ()))
    return tuple(out)


# -- Smith normal form with transforms, and what it certifies ------------
#
# The package computes only Smith diagonals.  The transform-carrying form
# below, with the kernel bases, integer solutions and determinants it
# yields, is the reference its diagonals and its mapping-cone
# stabilization test are compared against.


def mat_vec(m: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in m]


def transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*m)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of an r x k and a k x c matrix, by the definition."""
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions differ")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def gap_matrices(sizes, edges, iota):
    """The dense pairs (A_l, I_l) of a leveled system, as two lists.

    A_l[s][t] counts the edges s -> t of layer l, whatever their labels;
    I_l[i][v] is 1 exactly when iota_l maps vertex v of level l + 1 to
    vertex i of level l.  Edges are (source, symbol, target) triples.
    """
    a, i = [], []
    for l in range(len(sizes) - 1):
        counts = [[0] * sizes[l + 1] for _ in range(sizes[l])]
        for s, _, t in edges[l]:
            counts[s][t] += 1
        collapse = [[int(iota[l][v] == r) for v in range(sizes[l + 1])] for r in range(sizes[l])]
        a.append(counts)
        i.append(collapse)
    return a, i


def dense_intertwining(sizes, edges, iota) -> tuple[bool, ...]:
    """Does A_l I_{l+1} = I_l A_{l+1} hold, at each gap l but the last?
    Dense products of the matrices of :func:`gap_matrices`."""
    a, i = gap_matrices(sizes, edges, iota)
    return tuple(mat_mul(a[l], i[l + 1]) == mat_mul(i[l], a[l + 1]) for l in range(len(sizes) - 2))


def det_int(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: list[list[int]]) -> bool:
    return all(len(row) == len(m) for row in m) and abs(det_int(m)) == 1


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


def smith_normal_form(m: list[list[int]]):
    """(U, D, V) with U·M·V = D, U and V unimodular, D the Smith form of M.

    Smallest-pivot elimination that applies every row operation to U and
    every column operation to V; the divisibility chain is repaired by
    unimodular 2x2 blocks on rows and columns i, j.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(row) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def pivot(t):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        return min(nonzero)[1:] if nonzero else None

    def row_axpy(dst, src, q):
        for mat in (a, u):
            mat[dst] = [x - q * y for x, y in zip(mat[dst], mat[src])]

    def col_axpy(dst, src, q):
        for mat in (a, v):
            for row in mat:
                row[dst] -= q * row[src]

    def row_swap(i, j):
        for mat in (a, u):
            mat[i], mat[j] = mat[j], mat[i]

    def col_swap(i, j):
        for mat in (a, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def row_negate(i):
        for mat in (a, u):
            mat[i] = [-x for x in mat[i]]

    t = 0
    while t < min(rows, cols) and pivot(t) is not None:
        while True:
            i0, j0 = pivot(t)
            row_swap(t, i0)
            col_swap(t, j0)
            if a[t][t] < 0:
                row_negate(t)
            p = a[t][t]
            for i in range(t + 1, rows):
                row_axpy(i, t, a[i][t] // p)
            for j in range(t + 1, cols):
                col_axpy(j, t, a[t][j] // p)
            if not any(a[i][t] for i in range(t + 1, rows)) and not any(a[t][t + 1 :]):
                break
        t += 1
    rank = t
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(i + 1, rank):
                p, q = a[i][i], a[j][j]
                if q % p:
                    # fold column j into column i, then left-multiply rows
                    # (i, j) by [[s, t], [-q/g, p/g]] (det 1), then clear the
                    # remaining (i, j) entry
                    g, s, tt = _xgcd(p, q)
                    col_axpy(i, j, -1)
                    for mat in (a, u):
                        ri, rj = mat[i], mat[j]
                        mat[i] = [s * x + tt * y for x, y in zip(ri, rj)]
                        mat[j] = [(-q // g) * x + (p // g) * y for x, y in zip(ri, rj)]
                    col_axpy(j, i, a[i][j] // a[i][i])
                    changed = True
    for i in range(rank):
        if a[i][i] < 0:
            row_negate(i)
    return u, a, v


def smith_diagonal(d: list[list[int]]) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def kernel_basis(m: list[list[int]]) -> list[list[int]]:
    """Columns forming a basis of ker(m) (a direct summand of Z^cols)."""
    _, d, v = smith_normal_form(m)
    rank = sum(1 for x in smith_diagonal(d) if x)
    return [[row[j] for row in v] for j in range(rank, len(v))]


def solve_integer(m: list[list[int]], x: list[int]) -> list[int] | None:
    """Some integer solution of m·s = x, or None."""
    u, d, v = smith_normal_form(m)
    y = mat_vec(u, x)
    diag = [e for e in smith_diagonal(d) if e]
    if any(y[i] % e for i, e in enumerate(diag)) or any(y[len(diag) :]):
        return None
    z = [y[i] // e for i, e in enumerate(diag)] + [0] * (len(v) - len(diag))
    return mat_vec(v, z)


def maps_iso_by_kernel_bases(a, i, l: int) -> bool:
    """Are the induced k0 and k1 maps from gap l to gap l+1 isomorphisms?

    The two-map test, for raw transition matrices a and collapse matrices
    i, granted the intertwining identity and groups of the same shape at
    both gaps.  k0: the pushed generators and the level-(l+2) relations,
    side by side, have a trivial cokernel.  k1: the pushed kernel basis,
    in coordinates of the next kernel basis, is unimodular.
    """

    def relations(k):
        return [[x - y for x, y in zip(ri, ra)] for ri, ra in zip(transpose(i[k]), transpose(a[k]))]

    down, up = relations(l), relations(l + 1)
    augmented = [push + rel for push, rel in zip(transpose(i[l + 1]), up)]
    diag = smith_diagonal(smith_normal_form(augmented)[1])
    if len(augmented) > len(diag) or any(x != 1 for x in diag[: len(augmented)]):
        return False
    basis, target = kernel_basis(down), kernel_basis(up)
    if len(basis) != len(target):
        return False
    if not basis:
        return True
    stacked = transpose(target)
    columns = [solve_integer(stacked, mat_vec(transpose(i[l]), vector)) for vector in basis]
    if any(c is None for c in columns):
        return False
    return is_unimodular(transpose(columns))


# -- bracket words via partial maps on state words -----------------------
#
# The bracket monoid of a 0/1 matrix A acts on one-sided admissible state
# sequences: the opening symbol for state i (id i) deletes a leading i, the
# closing symbol (id n+i) prepends i when A(i, first letter) = 1.  A word
# over the bracket alphabet is nonzero iff the composite partial map is
# nonzero, and because each step changes the length by one, testing all
# admissible state words of length len(word) + 1 is exhaustive: the state
# never empties mid-run, so the truncation is never consulted beyond what
# it holds.  The last letter of the word acts first.


def chain_words(matrix, length: int) -> list[tuple[int, ...]]:
    n = len(matrix)
    return [
        w
        for w in product(range(n), repeat=length)
        if all(matrix[w[i]][w[i + 1]] for i in range(length - 1))
    ]


def apply_bracket(matrix, state: tuple[int, ...], symbol: int):
    """One generator acting on a state word; None when undefined."""
    n = len(matrix)
    if symbol < n:
        if state and state[0] == symbol:
            return state[1:]
        return None
    j = symbol - n
    if state and matrix[j][state[0]]:
        return (j,) + state
    return None


def bracket_word_nonzero(matrix, word: tuple[int, ...]) -> bool:
    for base in chain_words(matrix, len(word) + 1):
        state = base
        for symbol in reversed(word):
            state = apply_bracket(matrix, state, symbol)
            if state is None:
                break
        else:
            return True
    return False


def expanded_word_nonzero(
    matrix, target: int, fresh: int, word: tuple[int, ...], nonzero=bracket_word_nonzero
) -> bool:
    """Is `word` a factor of the expansion target -> fresh·target of the
    bracket shift of `matrix`?

    A factor of an expanded point is cut from a string in which every
    target follows a fresh and every fresh precedes a target.  So inside
    the word a fresh is followed by the target, unless the fresh is last
    and its target lies past the window, and a target follows a fresh,
    unless the target is first and its fresh lies before the window.
    Dropping each fresh, and reading a trailing fresh as its target, gives
    the base factor, which must be nonzero: by the partial maps, or by
    `nonzero(matrix, base)` when a faster exact test is passed.
    """
    base = []
    for i, symbol in enumerate(word):
        if symbol == fresh:
            if i + 1 == len(word):
                base.append(target)
            elif word[i + 1] != target:
                return False
        else:
            if symbol == target and i > 0 and word[i - 1] != fresh:
                return False
            base.append(symbol)
    return nonzero(matrix, tuple(base))


# -- the Cantor-horizon system, from state words keyed in dicts ----------


def horizon_system(matrix, depth: int):
    """The Cantor-horizon system of the bracket shift of `matrix`, as the
    package first built it, from state words keyed in dicts: the alphabet
    names, the levels as (size, tags) pairs, the sorted edge layers and the
    collapses.  A level-(l+1) word y has the opening edge labeled a_{y[0]}
    from y[1:] and, for each k with A(k, y[0]) = 1, the closing edge
    labeled b_k from (k·y)[:l]; it collapses onto y[:-1], and its tag is its
    closing word."""
    n = len(matrix)
    names = tuple(f"a{i + 1}" for i in range(n)) + tuple(f"b{i + 1}" for i in range(n))
    words = [chain_words(matrix, l) for l in range(depth + 1)]
    index = [{w: i for i, w in enumerate(level)} for level in words]
    levels = [(len(level), tuple(" ".join(names[n + s] for s in w) for w in level)) for level in words]
    edges, iota = [], []
    for l in range(depth):
        layer = set()
        for j, y in enumerate(words[l + 1]):
            layer.add((index[l][y[1:]], y[0], j))
            for k in range(n):
                if matrix[k][y[0]] == 1:
                    layer.add((index[l][((k,) + y)[:l]], n + k, j))
        edges.append(tuple(sorted(layer)))
        iota.append(tuple(index[l][y[:-1]] for y in words[l + 1]))
    return names, levels, edges, iota


# -- the bracket reduction calculus, kept as a second semantics ----------


@dataclass(frozen=True)
class DyckReduction:
    """Normal form of a bracket word, or Zero.

    `closes`: bracket indices (0-based) of the unmatched closing symbols, in
    reading order; these form the inert left part of the reduced word.
    `opens`: bracket indices of the pending opening symbols, in reading
    order; the last entry is the innermost (most recently opened).
    `support`: states allowed to start whatever is read next at nesting
    depth zero; None for Zero.
    """

    is_zero: bool
    closes: tuple[int, ...] = ()
    opens: tuple[int, ...] = ()
    support: frozenset[int] | None = None

    def reduced_word(self, n: int) -> tuple[int, ...]:
        """The reduced word over the 2n-symbol bracket alphabet."""
        if self.is_zero:
            raise ValueError("zero has no reduced word")
        return tuple(n + j for j in self.closes) + tuple(self.opens)

    @property
    def is_trivial(self) -> bool:
        return not self.is_zero and not self.closes and not self.opens


def reduce_brackets(matrix, word: tuple[int, ...]) -> DyckReduction:
    """Reduce a bracket word to (unmatched closes)(unmatched opens), with
    exact zero-detection for the Markov case.

    A pending open a_j may only be nested inside a_i when A(j, i) = 1.  A
    cancelled pair a_i b_i, or an unmatched close b_i, leaves a one-step
    constraint: whatever comes next at nesting depth zero must start in a
    state j with A(i, j) = 1.  The support set is the intersection of those
    constraints, and an open on an empty stack or an unmatched close must
    start inside it.  The unmatched closes are kept in sequence.
    """
    n = len(matrix)
    rows = [frozenset(j for j in range(n) if matrix[i][j]) for i in range(n)]
    support = frozenset(range(n))
    closes: list[int] = []
    opens: list[int] = []
    for sym in word:
        if sym < n:
            if opens:
                if not matrix[sym][opens[-1]]:
                    return DyckReduction(True)
            else:
                support &= rows[sym]
                if not support:
                    return DyckReduction(True)
            opens.append(sym)
            continue
        j = sym - n
        if opens:
            if opens.pop() != j:
                return DyckReduction(True)
            if not opens:
                support &= rows[j]
                if not support:
                    return DyckReduction(True)
        else:
            if j not in support:
                return DyckReduction(True)
            closes.append(j)
            support = rows[j]
    return DyckReduction(False, tuple(closes), tuple(opens), support)


# -- symbol expansion, undone --------------------------------------------


def contract_word(word: tuple[int, ...], target: int, fresh: int) -> tuple[int, ...]:
    """Exact inverse of the expansion target -> fresh·target: drop each
    fresh.  A fresh not immediately followed by the target cannot come from
    an expansion and raises ValueError."""
    out: list[int] = []
    i = 0
    while i < len(word):
        if word[i] == fresh:
            if i + 1 >= len(word) or word[i + 1] != target:
                raise ValueError(f"fresh symbol at position {i} is not followed by its target")
            out.append(target)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


# -- shifts of finite type, by padding with extendable windows ---------


def sft_language(k: int, forbidden):
    """Membership in the factor language of the SFT over symbols 0..k-1
    avoiding the `forbidden` words (a full shift when there are none).

    With m = max(1, longest forbidden length - 1), a forbidden factor of a
    word lies inside one of its (m+1)-windows.  A window x of length m
    extends to the right forever exactly when some symbol a keeps x·a
    clean and moves to a window that does; the set of such windows is the
    greatest fixpoint of that rule, found by deleting windows until none
    fails it, and likewise to the left.  A word w is in the language
    exactly when some padding u·w·v with |u| = |v| = m is clean, u extends
    to the left and v to the right: any factor of length <= m+1 of the
    glued point then lies inside u·w·v or inside an extension.
    """
    forbidden = [tuple(f) for f in forbidden]
    m = max([1] + [len(f) - 1 for f in forbidden])

    def clean(word) -> bool:
        return not any(
            word[i : i + len(f)] == f
            for f in forbidden
            for i in range(len(word) - len(f) + 1)
        )

    windows = [x for x in product(range(k), repeat=m) if clean(x)]

    def greatest_fixpoint(step) -> set:
        alive = set(windows)
        while True:
            dead = {x for x in alive if not any(step(x, a) in alive for a in range(k))}
            if not dead:
                return alive
            alive -= dead

    right = greatest_fixpoint(lambda x, a: x[1:] + (a,) if clean(x + (a,)) else None)
    left = greatest_fixpoint(lambda x, a: (a,) + x[:-1] if clean((a,) + x) else None)

    def member(word) -> bool:
        word = tuple(word)
        if any(not 0 <= s < k for s in word):
            return False
        return any(clean(u + word + v) for u in left for v in right)

    return member


# -- past languages of labelled graphs, by path extension ----------------


def past_language(edges, vertex_set, length: int) -> frozenset[tuple[int, ...]]:
    """Label words of the length-`length` paths ending inside `vertex_set`.

    `edges` are (source, symbol, target) triples.  Paths are grown one edge
    at a time at their start; two paths with the same word and the same
    start vertex extend alike, so each (word, start) pair is kept once.
    """
    paths = {((), v) for v in vertex_set}
    for _ in range(length):
        paths = {((a,) + word, s) for word, v in paths for s, a, t in edges if t == v}
    return frozenset(word for word, _ in paths)


def past_classes(n: int, edges, depth: int) -> list[list[int]]:
    """For each length 0..depth, vertex -> class of its past language,
    classes numbered in order of first appearance."""
    levels = []
    for length in range(depth + 1):
        first: dict[frozenset, int] = {}
        levels.append(
            [first.setdefault(past_language(edges, [v], length), len(first)) for v in range(n)]
        )
    return levels


def refined_quotient(names, edges, depth: int):
    """(tags, edge layers, collapses) of a cover's quotient by past classes,
    refined at every level 0..depth with no stop.

    A vertex's class at level l + 1 is keyed by the set of its (symbol,
    class of source at level l) pairs; classes are numbered in order of
    first appearance and tagged by their sorted member names joined by '|'.
    """
    n = len(names)
    classes = [[0] * n]
    for _ in range(depth):
        keys = [frozenset((a, classes[-1][s]) for s, a, t in edges if t == v) for v in range(n)]
        first: dict[frozenset, int] = {}
        classes.append([first.setdefault(key, len(first)) for key in keys])
    tags = [
        ["|".join(sorted(names[v] for v in range(n) if ids[v] == c)) for c in range(max(ids) + 1)]
        for ids in classes
    ]
    layers = [sorted({(low[s], a, high[t]) for s, a, t in edges}) for low, high in zip(classes, classes[1:])]
    collapses = [[low[high.index(c)] for c in range(max(high) + 1)] for low, high in zip(classes, classes[1:])]
    return tags, layers, collapses


# -- strong connectivity, by transitive closure --------------------------


def strongly_connected(n: int, edges) -> bool:
    """Does every vertex of 0..n-1 reach every other along the (source,
    symbol, target) `edges`, labels ignored?  False with no vertices.

    Reachability is Warshall's transitive closure of the edge relation.
    """
    if n == 0:
        return False
    reach = [[v == w for w in range(n)] for v in range(n)]
    for s, _, t in edges:
        reach[s][t] = True
    for m in range(n):
        for v in range(n):
            if reach[v][m]:
                reach[v] = [r or via for r, via in zip(reach[v], reach[m])]
    return all(all(row) for row in reach)


# -- the λ-synchronizing system, from its definition ----------------------


def census_system(k: int, member, sync_len: int, depth: int, keep=None):
    """Raw (sizes, edges, iota) of the λ-synchronizing system of the shift
    whose factor language `member` decides, up to `depth`.

    The candidates are the words of length `sync_len` over 0..k-1 that
    `member` admits (and `keep` accepts, when given).  The caller picks
    them so that every candidate is λ-synchronizing at every level and
    every class is met.  A word's level-l class is its predecessor set, the
    length-l words v with v·w admissible.  The level-l vertices are the
    distinct classes of the candidates, numbered as the candidates first
    meet them in lexicographic order.  The x-edge into the class of a
    candidate μ at level l+1 leaves the level-l class of x·μ, and ι sends
    μ's class at level l+1 to μ's class at level l.  A class of some x·μ
    that no candidate meets raises KeyError: the candidates missed one.
    """
    admits = lru_cache(maxsize=None)(member)

    def past(l: int, word) -> frozenset[tuple[int, ...]]:
        return frozenset(v for v in product(range(k), repeat=l) if admits(v + word))

    candidates = [
        w
        for w in product(range(k), repeat=sync_len)
        if admits(w) and (keep is None or keep(w))
    ]
    index = []
    for l in range(depth + 1):
        ids: dict[frozenset, int] = {}
        for w in candidates:
            ids.setdefault(past(l, w), len(ids))
        index.append(ids)
    sizes = [len(ids) for ids in index]
    edges, iota = [], []
    for l in range(depth):
        layer = set()
        image = [0] * sizes[l + 1]
        for mu in candidates:
            j = index[l + 1][past(l + 1, mu)]
            image[j] = index[l][past(l, mu)]
            for x in range(k):
                if admits((x,) + mu):
                    layer.add((index[l][past(l, (x,) + mu)], x, j))
        edges.append(sorted(layer))
        iota.append(image)
    return sizes, edges, iota


# -- leveled systems, walked by scanning whole edge layers ---------------
#
# A system is given raw: `edges[l]` is the sorted list of (source, symbol,
# target) triples from level l to level l+1, `iota[l][v]` the image at
# level l of vertex v at level l+1, `sizes` the level sizes.  Every walker
# rescans a whole layer on every step, as the package did before it kept
# per-layer lookup tables.


def scan_step_down(edges, level: int, sources, symbol: int) -> frozenset[int]:
    return frozenset(t for s, a, t in edges[level] if a == symbol and s in sources)


def scan_read_down(edges, level: int, sources, word) -> frozenset[int]:
    current = frozenset(sources)
    for offset, symbol in enumerate(word):
        current = scan_step_down(edges, level + offset, current, symbol)
    return current


def scan_read_up(sizes, edges, level: int, targets, word) -> frozenset[int]:
    """The vertices at `level` whose own forward read of `word` meets `targets`."""
    return frozenset(
        v for v in range(sizes[level]) if scan_read_down(edges, level, [v], word) & set(targets)
    )


def scan_iota_fiber(iota, level: int, vertex: int, steps: int) -> frozenset[int]:
    fiber = frozenset([vertex])
    for k in range(steps):
        fiber = frozenset(v for v, image in enumerate(iota[level + k]) if image in fiber)
    return fiber


def scan_iota_image(iota, level: int, vertex: int, steps: int) -> int:
    """Collapse `vertex` at `level` by ι, `steps` times."""
    for l in range(level - 1, level - 1 - steps, -1):
        vertex = iota[l][vertex]
    return vertex


def scan_out_symbols(edges, level: int, sources) -> set[int]:
    return {a for s, a, t in edges[level] if s in sources}


def scan_label_words(edges, level: int, sources, length: int) -> list[tuple[int, ...]]:
    """Distinct label words of exactly `length` readable from the set
    `sources`, depth first by ascending symbol."""

    def walk(l, current, prefix):
        if len(prefix) == length:
            yield prefix
            return
        for a in sorted(scan_out_symbols(edges, l, current)):
            yield from walk(l + 1, scan_step_down(edges, l, current, a), prefix + (a,))

    return list(walk(level, frozenset(sources), ()))


def scan_labeled_paths(edges, level: int, vertex: int, max_len: int):
    """(word, endpoint) of the paths from `vertex` of lengths 1..max_len, in
    the order of a stack walk that pushes each layer's edges in layer order."""
    found = []
    stack = [((), level, vertex)]
    while stack:
        word, l, v = stack.pop()
        if len(word) >= max_len or l >= len(edges):
            continue
        for s, a, t in edges[l]:
            if s == v:
                found.append((word + (a,), t))
                stack.append((word + (a,), l + 1, t))
    return found


def scan_local_property(sizes, edges, iota):
    """First failure (l, u, v, fiber in-labels, out-labels) of the local
    property, or None.

    For each v at level l+1 and u at level l-1, the sorted labels of the
    edges into v from vertices collapsing onto u must equal the sorted
    labels of the edges from u into the collapse image of v.  The pairs
    (u, v) are tried v ascending, then u ascending.
    """
    for l in range(1, len(sizes) - 1):
        for v in range(sizes[l + 1]):
            image = iota[l][v]
            incoming: dict[int, list[int]] = {}
            for s, a, t in edges[l]:
                if t == v:
                    incoming.setdefault(iota[l - 1][s], []).append(a)
            outgoing: dict[int, list[int]] = {}
            for u in range(sizes[l - 1]):
                labels = [a for s, a, t in edges[l - 1] if s == u and t == image]
                if labels:
                    outgoing[u] = labels
            for u in sorted(set(incoming) | set(outgoing)):
                have = sorted(incoming.get(u, []))
                want = sorted(outgoing.get(u, []))
                if have != want:
                    return l, u, v, have, want
    return None


def scan_label_compatible(sizes, edges, iota):
    """First failure (l + 1, v, in-labels of v, in-labels of its collapse
    image) of label-collapse compatibility, or None.

    Each v at level l + 1 (1 <= l < depth) must have the same set of
    in-edge labels as iota_l(v) at level l; the levels are tried top down,
    v ascending, and both label sets come back sorted.
    """
    for l in range(1, len(sizes) - 1):
        for v in range(sizes[l + 1]):
            image = iota[l][v]
            got = sorted({a for s, a, t in edges[l] if t == v})
            want = sorted({a for s, a, t in edges[l - 1] if t == image})
            if got != want:
                return l + 1, v, got, want
    return None


def first_nested_clash(sizes, edges):
    """The first (level, earlier vertex, later vertex) of two vertices of one
    level >= 1 with equal nested predecessor keys, lowest level first, or
    None.  A top vertex's key is empty; below, a vertex's key is the sorted
    set of (symbol, key of source) over its in-edges."""
    keys = [()] * sizes[0]
    for l in range(1, len(sizes)):
        incoming = [set() for _ in range(sizes[l])]
        for s, a, t in edges[l - 1]:
            incoming[t].add((a, keys[s]))
        keys = [tuple(sorted(pairs)) for pairs in incoming]
        first = {}
        for v, key in enumerate(keys):
            if first.setdefault(key, v) != v:
                return l, first[key], v
    return None


def nested_canonical_form(sizes, edges, iota):
    """(sizes, edges, iota) renamed by nested predecessor keys, or None when
    two vertices of a level have equal keys.

    The top level is merged into one root first.  A vertex's key is the
    sorted tuple of (symbol, key of source) over its in-edges, so keys nest
    as deep as the level; vertices are renamed in ascending key order.
    """
    edges = [set(layer) for layer in edges]
    iota = [list(mapping) for mapping in iota]
    sizes = list(sizes)
    if sizes[0] > 1:
        if len(edges) >= 1:
            edges[0] = {(0, a, t) for s, a, t in edges[0]}
            iota[0] = [0] * sizes[1]
        sizes[0] = 1
    keys = [[()] * sizes[0]]
    for l in range(1, len(sizes)):
        incoming = [[] for _ in range(sizes[l])]
        for s, a, t in edges[l - 1]:
            incoming[t].append((a, keys[l - 1][s]))
        level_keys = [tuple(sorted(pairs)) for pairs in incoming]
        if len(set(level_keys)) < len(level_keys):
            return None
        keys.append(level_keys)
    orders = [sorted(range(sizes[l]), key=lambda v: keys[l][v]) for l in range(len(sizes))]
    rename = [{old: new for new, old in enumerate(order)} for order in orders]
    new_edges = [
        sorted((rename[l][s], a, rename[l + 1][t]) for s, a, t in edges[l])
        for l in range(len(sizes) - 1)
    ]
    new_iota = [
        [rename[l][iota[l][orders[l + 1][v]]] for v in range(sizes[l + 1])]
        for l in range(len(sizes) - 1)
    ]
    return sizes, new_edges, new_iota


# -- dynamical checks, as the package first wrote them -------------------
#
# Earlier versions of `lgk.analysis` ran separate walks for constant
# systems (the reader-state closure of the launching search, the cycle
# loop of condition (I)) and read every succession candidate whole from
# the top.  They are kept here on raw systems as references.  A verdict is
# a (kind, witness, note) triple; `names` are the symbol names.


def _text(names, word) -> str:
    return " ".join(names[a] for a in word)


def scan_is_constant(sizes, edges, iota) -> bool:
    return (
        len(set(sizes)) == 1
        and all(layer == edges[0] for layer in edges)
        and all(list(m) == list(range(sizes[0])) for m in iota)
    )


def reference_condition_I(sizes, edges, iota, depth: int):
    """Condition (I): every vertex of levels 0..L-depth forks within
    `depth` steps; constant systems follow a non-forking vertex until its
    state set dies or cycles."""
    L = len(sizes) - 1
    constant = scan_is_constant(sizes, edges, iota)

    def branches_within(level, vertex):
        current = frozenset([vertex])
        for k in range(depth):
            labels = scan_out_symbols(edges, level + k, current)
            if len(labels) >= 2:
                return True
            if not labels:
                return False
            current = scan_step_down(edges, level + k, current, labels.pop())
        return False

    for level in range(L - depth + 1):
        for vertex in range(sizes[level]):
            if branches_within(level, vertex):
                continue
            if not constant:
                return (
                    "unknown",
                    (level, vertex),
                    f"vertex {vertex} at level {level} shows a single label "
                    f"word of length {depth}; deeper levels undecided",
                )
            current = frozenset([vertex])
            seen = {current}
            while True:
                labels = scan_out_symbols(edges, 0, current)
                if len(labels) >= 2:
                    break
                if not labels:
                    return ("no", (level, vertex), f"vertex {vertex} at level {level} emits no label word")
                current = scan_step_down(edges, 0, current, labels.pop())
                if current in seen:
                    return (
                        "no",
                        (level, vertex),
                        f"vertex {vertex} at level {level} has a unique "
                        f"label future (deterministic cycle)",
                    )
                seen.add(current)
    return ("yes", None, "")


def _advance(edges, layer: int, state, a):
    return tuple(
        (v, moved) for v, ends in state if (moved := scan_step_down(edges, layer, ends, a))
    )


def _alive(state) -> frozenset[int]:
    return frozenset().union(*(ends for _, ends in state))


def reference_launching(sizes, edges, iota, depth=None):
    """Does every vertex launch a word?  Non-constant systems search word
    lengths up to `depth` level by level with the determinized reader;
    constant systems exhaust the reader-state closure depth first."""
    L = len(sizes) - 1
    if scan_is_constant(sizes, edges, iota):
        missing = set(range(sizes[0]))
        start = tuple((v, frozenset([v])) for v in range(sizes[0]))
        visited = {start}
        frontier = [start]
        while frontier and missing:
            state = frontier.pop()
            for a in sorted(scan_out_symbols(edges, 0, _alive(state))):
                advanced = _advance(edges, 0, state, a)
                if len(advanced) == 1:
                    missing.discard(advanced[0][0])
                if advanced and advanced not in visited:
                    visited.add(advanced)
                    frontier.append(advanced)
        if missing:
            vertex = min(missing)
            return (
                "no",
                (0, vertex),
                f"vertex {vertex} (every level) is never the unique reader of "
                f"any word; reader-state closure exhausted",
            )
        return ("yes", None, "")

    def unseparated(level, max_len):
        missing = set(range(sizes[level]))
        frontier = [tuple((v, frozenset([v])) for v in range(sizes[level]))]
        for length in range(1, max_len + 1):
            if not missing:
                break
            layer = level + length - 1
            # A state is deduplicated among states of its own length only:
            # the same numbers at another length name vertices of another
            # level.
            next_frontier = {}
            for state in frontier:
                for a in sorted(scan_out_symbols(edges, layer, _alive(state))):
                    advanced = _advance(edges, layer, state, a)
                    if len(advanced) == 1:
                        missing.discard(advanced[0][0])
                    if advanced:
                        next_frontier[advanced] = None
            frontier = list(next_frontier)
        return missing

    if depth is None:
        depth = max(1, L // 2)
    unverified = []
    for level in range(L):
        room = L - level
        missing = unseparated(level, min(depth, room))
        if not missing:
            continue
        vertex = min(missing)
        if level <= min(depth, L - depth):
            return (
                "unknown",
                (level, vertex),
                f"no word of length <= {min(depth, room)} is readable "
                f"from vertex {vertex} at level {level} alone",
            )
        unverified.append((level, vertex))
    if unverified:
        levels = sorted({l for l, _ in unverified})
        return (
            "yes",
            None,
            f"levels {levels} only partially verified: their launching "
            f"words may exceed the remaining truncation room",
        )
    return ("yes", None, "")


def reference_succ_relation(sizes, edges, iota, names, first, second, bound: int):
    """Search the bridges from the endpoints of `first` breadth first by
    ascending symbol, skipping those too long for the truncation, and read
    each `first + bridge + second` from the top.  Like the package before
    it capped the walk, this raises IndexError when the bridge walk runs
    past the last edge layer."""
    L = len(sizes) - 1
    top = frozenset(range(sizes[0]))
    ends_first = scan_read_down(edges, 0, top, first)
    ends_second = scan_read_down(edges, 0, top, second)
    if not ends_first or not ends_second:
        raise ValueError("both words must be readable in the system")

    def bridges():
        layer = [((), ends_first)]
        yield ()
        for length in range(bound):
            next_layer = []
            for word, ends in layer:
                for a in sorted(scan_out_symbols(edges, len(first) + length, ends)):
                    next_layer.append((word + (a,), scan_step_down(edges, len(first) + length, ends, a)))
                    yield word + (a,)
            layer = next_layer

    for bridge in bridges():
        combined = first + bridge + second
        if len(combined) > L:
            continue
        ends_combined = scan_read_down(edges, 0, top, combined)
        if not ends_combined:
            continue
        lifted = frozenset().union(
            *(scan_iota_fiber(iota, len(second), e, len(combined) - len(second)) for e in ends_second)
        )
        if lifted == ends_combined:
            return ("yes", bridge, f"bridge {_text(names, bridge)!r}")
    return ("unknown", None, f"no bridge of length <= {bound} found within the truncation")


def reference_transitivity(sizes, edges, iota, names, word_len: int, bound: int):
    """Run every ordered pair of the words of length 1..word_len readable
    from the top, shortest first and lexicographic within a length, through
    `reference_succ_relation`; the first pair without a bridge is the
    witness.  A walk past the last edge layer counts as no bridge."""
    if 2 * word_len + bound > len(sizes) - 1:
        raise ValueError("truncation too shallow for the requested word length")
    top = range(sizes[0])
    words = [w for n in range(1, word_len + 1) for w in scan_label_words(edges, 0, top, n)]
    for first in words:
        for second in words:
            try:
                kind = reference_succ_relation(sizes, edges, iota, names, first, second, bound)[0]
            except IndexError:
                kind = "unknown"
            if kind != "yes":
                return (
                    "unknown",
                    (first, second),
                    f"no bridge from {_text(names, first)!r} to "
                    f"{_text(names, second)!r} within bound {bound}",
                )
    return ("yes", None, "")


def scan_reachable(edges, start: int, goal: int) -> bool:
    """Path reachability (length 0 included) in the first edge layer."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for s, a, t in edges[0]:
            if s == v and t not in seen:
                seen.add(t)
                frontier.append(t)
    return goal in seen


def reference_lambda_irreducible(sizes, edges, iota):
    """Each vertex v of levels 0..2 must reach, in one exact number of steps
    within the truncation, the whole collapse fiber over each vertex u of
    its level, walking v's reach afresh for every pair; a constant system
    refutes a pair that fails the search when u is unreachable from v."""
    L = len(sizes) - 1
    constant = scan_is_constant(sizes, edges, iota)
    for level in range(min(2, L - 1) + 1):
        for u in range(sizes[level]):
            for v in range(sizes[level]):
                reach = frozenset([v])
                found = False
                for steps in range(1, L - level + 1):
                    reach = frozenset(t for s, a, t in edges[level + steps - 1] if s in reach)
                    fiber = scan_iota_fiber(iota, level, u, steps)
                    if fiber and fiber <= reach:
                        found = True
                        break
                if found:
                    continue
                if not constant:
                    return (
                        "unknown",
                        (level, u, v),
                        f"no step count up to {L - level} lets vertex {v} reach the "
                        f"whole fiber over vertex {u} at level {level}",
                    )
                if not scan_reachable(edges, v, u):
                    return (
                        "no",
                        (level, u, v),
                        f"vertex {u} is unreachable from {v}, so no level can "
                        f"cover the fiber over {u}",
                    )
    return ("yes", None, "")


def reference_iota_irreducible(sizes, edges, iota, names, bound=3, max_level=2, path_len=2):
    """Shadowing of the labeled paths out of u from every other vertex v,
    trying the candidate shadow starts one at a time and walking v's reach
    afresh for every word.  A constant system is decided on its repeated
    graph whatever levels the search would cover, every level being level
    0; any other system with no level to search is unknown."""
    L = len(sizes) - 1
    last = min(max_level, L - 2)
    if L >= 1 and scan_is_constant(sizes, edges, iota):
        for u in range(sizes[0]):
            for v in range(sizes[0]):
                if u != v and not scan_reachable(edges, v, u):
                    return ("no", (0, v, u), f"vertex {u} is unreachable from {v}")
        return ("yes", None, "")
    if last < 0:
        return ("unknown", None, f"no level to search: the level range 0 .. {last} is empty")
    partial = set()
    for level in range(last + 1):
        for u in range(sizes[level]):
            paths = scan_labeled_paths(edges, level, u, path_len)
            for v in range(sizes[level]):
                if u == v:
                    continue
                for word, end in paths:
                    room = L - level - len(word)
                    if room < 1:
                        partial.add(level)
                        continue
                    found = False
                    reach = frozenset([v])
                    for steps in range(1, min(bound, room) + 1):
                        reach = frozenset(t for s, a, t in edges[level + steps - 1] if s in reach)
                        starts = scan_iota_fiber(iota, level, u, steps) & reach
                        over_end = scan_iota_fiber(iota, level + len(word), end, steps)
                        for start in sorted(starts):
                            if scan_read_down(edges, level + steps, [start], word) & over_end:
                                found = True
                                break
                        if found:
                            break
                    if found:
                        continue
                    if room < bound:
                        partial.add(level)
                        continue
                    return (
                        "unknown",
                        (level, v, u, word),
                        f"within {bound} collapse steps, no path from "
                        f"vertex {v} shadows the word {_text(names, word)!r} "
                        f"out of vertex {u} at level {level}",
                    )
    if partial:
        return (
            "yes",
            None,
            f"levels {sorted(partial)} verified only for the word lengths that fit the truncation",
        )
    return ("yes", None, "")


# -- system files, through the generic JSON encoder ----------------------


def system_json(names, levels, edges, iota) -> str:
    """The system file of the alphabet `names`, the levels given as (size,
    tags) pairs, edge layers of (source, symbol index, target) triples and
    collapse arrays: `json.dumps(indent=2, sort_keys=True)` of the payload
    with the edges written as [source, symbol name, target]."""
    payload = {
        "alphabet": list(names),
        "levels": [{"size": size, "tags": list(tags)} for size, tags in levels],
        "edges": [[[s, names[a], t] for s, a, t in layer] for layer in edges],
        "iota": [list(mapping) for mapping in iota],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
