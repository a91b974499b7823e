"""Transition matrices of Dyck and Markov-Dyck shifts.

Alphabet convention: a bracket alphabet over n pairs has opening symbols
a1..an (ids 0..n-1) followed by closing symbols b1..bn (ids n..2n-1).
Reading left to right, a_i opens a bracket that a later b_i must close;
an adjacent pair a_i b_j cancels when i = j and kills the word when i != j.
The Dyck shift on n pairs is the Markov-Dyck shift of the all-ones n x n
matrix; in general a 0/1 matrix A constrains which brackets may follow
one another (consecutive unmatched closes b_i b_j, for one, need
A(i, j) = 1).

This module holds the matrices only.  The language of a bracket shift is
read off its Cantor-horizon system (:mod:`lgk.system`), whose level-l
vertices are the admissible state words of length l: a word is admissible
exactly when some path of the system carries it.
"""

from __future__ import annotations

Matrix01 = tuple[tuple[int, ...], ...]


def all_ones(n: int) -> Matrix01:
    return tuple(tuple(1 for _ in range(n)) for _ in range(n))


def validate_transition_matrix(matrix: Matrix01) -> None:
    n = len(matrix)
    if n < 2:
        raise ValueError("transition matrix must be at least 2x2")
    for row in matrix:
        if len(row) != n:
            raise ValueError("transition matrix must be square")
        for x in row:
            if x not in (0, 1):
                raise ValueError("transition matrix entries must be 0 or 1")
    for i in range(n):
        if not any(matrix[i][j] for j in range(n)):
            raise ValueError(f"zero row {i} in transition matrix")
        if not any(matrix[j][i] for j in range(n)):
            raise ValueError(f"zero column {i} in transition matrix")
