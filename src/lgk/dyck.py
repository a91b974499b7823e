"""The bracket machine of Dyck and Markov-Dyck shifts.

Alphabet convention: a bracket alphabet over n pairs has opening symbols
a1..an (ids 0..n-1) followed by closing symbols b1..bn (ids n..2n-1).
Reading left to right, a_i opens a bracket that a later b_i must close;
an adjacent pair a_i b_j cancels when i = j and kills the word when i != j.

Words reduce to the normal form (unmatched closes)(unmatched opens), which
:class:`BracketMachine` reads incrementally.  In the Markov case a 0/1
transition matrix A constrains three things:

* consecutive unmatched closes b_i b_j need A(i,j) = 1;
* an open pushed on top of a pending open a_i a_j needs A(j,i) = 1
  (the later-read bracket is the inner one);
* cancellation a_i b_i is not the identity: it leaves behind a one-step
  constraint "the next state must be reachable from i".  The reduction
  state therefore carries a support set: the set of states the next
  unmatched close (or the interior of the next open run) may start with.

The support set is what makes zero-detection exact; matching brackets and
checking A alone accepts words that are zero in the underlying monoid
(e.g. over A = [[0,1],[1,0]] the word "a1 b1 a1" forces support
{k: A(1,k)=1} ∩ {k: A(1,k)=1} = {2} and survives, while "a1 b1 a2"
needs a state reachable from both 1 and 2 and dies).
"""

from __future__ import annotations

from .alphabet import Word

Matrix01 = tuple[tuple[int, ...], ...]


def all_ones(n: int) -> Matrix01:
    return tuple(tuple(1 for _ in range(n)) for _ in range(n))


def row_supports(matrix: Matrix01) -> tuple[frozenset[int], ...]:
    return tuple(
        frozenset(j for j, x in enumerate(row) if x) for row in matrix
    )


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


class BracketMachine:
    """Incremental reducer; states are (support, opens).

    The unmatched closes read so far never decide whether a later symbol
    reads, so a state keeps only the support they leave and the pending
    opens.
    """

    def __init__(self, matrix: Matrix01):
        validate_transition_matrix(matrix)
        self.matrix = matrix
        self.n = len(matrix)
        self.rows = row_supports(matrix)
        self.full = frozenset(range(self.n))

    @property
    def start(self) -> tuple[frozenset[int], Word]:
        return (self.full, ())

    def step(
        self, state: tuple[frozenset[int], Word], symbol: int
    ) -> tuple[frozenset[int], Word] | None:
        """Apply one symbol; None means the word is zero."""
        support, opens = state
        n = self.n
        if symbol < n:  # opening bracket
            i = symbol
            if opens:
                if not self.matrix[i][opens[-1]]:
                    return None
                return (support, opens + (i,))
            s = support & self.rows[i]
            if not s:
                return None
            return (s, (i,))
        j = symbol - n  # closing bracket
        if opens:
            if opens[-1] != j:
                return None
            rest = opens[:-1]
            if rest:
                return (support, rest)
            s = support & self.rows[j]
            if not s:
                return None
            return (s, ())
        if j not in support:
            return None
        return (self.rows[j], ())

