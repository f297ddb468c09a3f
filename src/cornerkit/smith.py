"""Dense integer matrices, their sparse form and their Smith normal
forms: U·A·V = D with the transforms, the invariant factors alone, and
cokernels.

Each Smith form is one run of the sparse reduction `elimination._replay`
on the matrix's nonzero entries: snf carries the identity through the
row operations to get U and replays the column log to get V, and
snf_diagonal carries nothing.  Only the jobs that read a dense matrix
load this module: the `quasitoric` subcommands, and a homology whose
column reduction leaves a block that is not all unit pivots (see
`clearing`).  The library's own calls look `snf_diagonal` up through
`homology`, where bench/spans.py wraps it.
"""

from __future__ import annotations

from . import homology
from .elimination import _replay, _replay_columns
from .homology import FGAbelianGroup, SparseMatrix
from .simplicial import _Value


class IntegerMatrix(_Value):
    """Dense immutable integer matrix."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: tuple[tuple[int, ...], ...]):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             tuple(zip(*self.entries)) if self.rows else
                             tuple(() for _ in range(self.cols)))

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def to_sparse(self) -> SparseMatrix:
        return SparseMatrix(self.rows, self.cols, tuple(
            tuple((i, x) for i, x in enumerate(self.column(j)) if x)
            for j in range(self.cols)))

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


class SNFResult(_Value):
    """U·A·V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    _fields = ("U", "D", "V")

    def __init__(self, U: IntegerMatrix, D: IntegerMatrix, V: IntegerMatrix):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D.entries[i][i] for i in range(n)]


def snf(A: IntegerMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms: U·A·V = D.

    U is the replay's row operations applied to the identity; V is its
    column permutation followed by the logged column subtractions.
    """
    b = IntegerMatrix.identity(A.rows).tolists()
    diag, row_at, col_pos, log = _replay(A.to_sparse(), b)
    V = _replay_columns(
        log, [[int(p == q) for q in range(A.cols)] for p in col_pos])
    D = [[0] * A.cols for _ in range(A.rows)]
    for t, d in enumerate(diag):
        D[t][t] = d
    return SNFResult(IntegerMatrix.from_rows([b[r] for r in row_at]),
                     IntegerMatrix(A.rows, A.cols, tuple(map(tuple, D))),
                     IntegerMatrix.from_rows(V))


def snf_diagonal(A: IntegerMatrix) -> list[int]:
    """Just the invariant factors, min(rows, cols) of them, divisor chain
    first and zeros last; no transform is carried."""
    diag = _replay(A.to_sparse(), [[] for _ in range(A.rows)])[0]
    return diag + [0] * (min(A.rows, A.cols) - len(diag))


def cokernel(A: IntegerMatrix) -> FGAbelianGroup:
    """Z^rows modulo the span of A's columns."""
    d = homology.snf_diagonal(A)
    r = sum(1 for x in d if x)
    return FGAbelianGroup(A.rows - r, tuple(x for x in d if x > 1))
