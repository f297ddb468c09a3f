"""Exact integer linear algebra on sparse matrices: simplicial chain
complexes, the Smith reduction behind every invariant factor, solving
over a coefficient group, and finitely generated abelian groups.

Everything here runs over Python's arbitrary-precision integers; there is
no floating point in this module.  Intermediate entries in a Smith
reduction can blow up well past machine width, and fixed-width arithmetic
would silently corrupt torsion coefficients, so exactness is not optional.

Homology is always integral.  Torsion is reported in divisor-chain normal
form (Z/2 ⊕ Z/3 prints as torsion [6]).

Boundary maps are sparse signed columns: a k-simplex has k + 1 faces, so
a dense grid would be almost all zeros.  chain_complex builds simplicial
chain complexes, valid by construction, without the checks of the public
ChainComplex constructor; a dual-cell complex is its nerve's read upside
down, so no job runs them.

Every Smith reduction is one replay on sparse rows that carries a
right-hand side through the row operations and logs the column
operations: a solve over a group carries b, so it returns the preimage
the transforms of snf give without forming them; one pass serves every
coordinate of the group.

A solve job runs only what is here.  Homology groups by the clearing
reduction live in `clearing`, and the dense matrices with their Smith
forms in `smith`.  The library calls `homology.snf_diagonal`, where
bench/spans.py wraps it and snf, so a module `__getattr__` (PEP 562)
binds both from `smith` on first use.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, cycle, repeat

from .simplicial import (EMPTY_SIMPLEX, SimplicialComplex, _Value, _forward,
                         simplices)


class SparseMatrix(_Value):
    """Immutable integer matrix stored by columns: column j holds the
    (row, value) pairs of its nonzero entries in increasing row order."""

    _fields = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int,
                 columns: tuple[tuple[tuple[int, int], ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", columns)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, b in col:
                for i, a in self.columns[k]:
                    acc[i] = acc.get(i, 0) + a * b
            out.append(tuple(sorted((i, x) for i, x in acc.items() if x)))
        return SparseMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols})"


def _replay_pivot(rows: list[dict[int, int]], row_at: list[int],
                  col_pos: list[int], t: int) -> tuple[int, int] | None:
    """The pivot position in the trailing block, read from sparse rows:
    the first ±1 in row-major position order, else the first entry of
    least |x|.  Rows at positions t and beyond hold entries only in
    columns at positions t and beyond, so no column is filtered out."""
    best = None
    for i in range(t, len(row_at)):
        row = rows[row_at[i]]
        if not row:  # an eliminated row offers no pivot
            continue
        units = [col_pos[j] for j, x in row.items() if x == 1 or x == -1]
        if units:
            return i, min(units)
        for j, x in row.items():
            key = (-x if x < 0 else x, i, col_pos[j])
            if best is None or key < best:
                best = key
    return None if best is None else best[1:]


def _add_row(rows: list[dict[int, int]], where: list[set[int]],
             s: int, r: int, f: int) -> None:
    """Row s += f·row r, keeping where (column -> rows holding it) current."""
    target = rows[s]
    for k, x in rows[r].items():
        y = target.get(k, 0) + f * x
        if y:
            if k not in target:
                where[k].add(s)
            target[k] = y
        else:
            del target[k]
            where[k].discard(s)


def _replay(A: SparseMatrix, b: list[list[int]]):
    """Smith-reduce A on sparse rows, applying every row operation to b.

    b holds one integer vector per row of A and is updated in place, so
    afterwards b[row_at[t]] is row t of U·b.  Returns (diag, row_at,
    col_pos, log): the pivots |D_tt| in order, up to where the trailing
    block is zero; the row of A at each position; the position of each
    column of A; and the column subtractions (j, k, q), column k -=
    q·column j, in the order applied.  With y indexed by position,
    _replay_columns(log, [y[p] for p in col_pos]) is V·y.

    Pivoting is by minimal absolute nonzero entry, the first in
    row-major position order, which keeps coefficient growth in check on
    the incidence-style matrices this package produces.  Column swaps
    only move positions.  Once a row pass has cleaned column t, that
    column is zero outside row t, so a column subtraction changes the
    matrix in row t alone.
    """
    rows: list[dict[int, int]] = [{} for _ in range(A.rows)]
    for j, col in enumerate(A.columns):
        for i, x in col:
            rows[i][j] = x
    where = [{i for i, _ in col} for col in A.columns]
    row_at = list(range(A.rows))
    col_at = list(range(A.cols))  # position -> column
    col_pos = list(range(A.cols))
    log = []
    diag = []
    for t in range(min(A.rows, A.cols)):
        at = _replay_pivot(rows, row_at, col_pos, t)
        if at is None:
            break
        while True:
            i, p = at  # swap the pivot to position (t, t)
            row_at[t], row_at[i] = row_at[i], row_at[t]
            j = col_at[p]
            col_at[t], col_at[p] = j, col_at[t]
            col_pos[col_at[p]], col_pos[j] = p, t
            r = row_at[t]
            pivot_row = rows[r]
            pivot = pivot_row[j]
            for s in where[j] - {r}:  # the rows below t, in any order
                q = rows[s][j] // pivot
                if q:
                    _add_row(rows, where, s, r, -q)
                    b[s] = [u - q * v for u, v in zip(b[s], b[r])]
            if len(where[j]) == 1:
                for k, x in list(pivot_row.items()):
                    q = x // pivot
                    if k != j and q:
                        log.append((j, k, q))
                        if x - q * pivot:
                            pivot_row[k] = x - q * pivot
                        else:
                            del pivot_row[k]
                            where[k].discard(r)
                if len(pivot_row) == 1:
                    # force the pivot to divide every remaining entry; a
                    # unit always does
                    offender = None if pivot in (1, -1) else next(
                        (row_at[i] for i in range(t + 1, A.rows)
                         if any(x % pivot for x in rows[row_at[i]].values())),
                        None)
                    if offender is None:
                        break
                    _add_row(rows, where, r, offender, 1)
                    b[r] = [u + v for u, v in zip(b[r], b[offender])]
            at = _replay_pivot(rows, row_at, col_pos, t)
        if pivot < 0:
            b[r] = [-u for u in b[r]]
        diag.append(abs(pivot))
    return diag, row_at, col_pos, log


def _replay_columns(log, x: list[list[int]]) -> list[list[int]]:
    """Apply the logged column subtractions to x, one vector per column
    of A, last first: for x = [y[p] for p in col_pos] this gives V·y."""
    for j, k, q in reversed(log):
        x[j] = [u - q * v for u, v in zip(x[j], x[k])]
    return x


class FGAbelianGroup(_Value):
    """Z^free_rank ⊕ Z/q1 ⊕ ... with q1 | q2 | ... and all qi >= 2.

    Elements are coordinate tuples: free coordinates first, then one
    coordinate mod each torsion divisor.
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        tor = tuple(int(q) for q in torsion)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for q in tor:
            if q < 2:
                raise ValueError(f"torsion coefficient {q} must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"torsion {list(tor)} violates divisibility chain")

    @property
    def num_coords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.num_coords

    def reduce(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.num_coords:
            raise ValueError(f"element needs {self.num_coords} coordinates")
        free = coords[:self.free_rank]
        tor = tuple(c % q for c, q in zip(coords[self.free_rank:], self.torsion))
        return free + tor

    def is_zero_element(self, x) -> bool:
        return self.reduce(x) == self.zero()

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{q}" for q in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FGAbelianGroup({self.describe()})"


TRIVIAL_GROUP = FGAbelianGroup(0, ())
Z = FGAbelianGroup(1, ())


class ChainComplex(_Value):
    """Boundary maps keyed by degree, with named bases.

    boundary[k] maps C_k -> C_{k-1}: rows index basis[k-1], columns index
    basis[k].  Degrees run over sorted(basis); a degree without a map has
    the zero map.  Consecutive composites must vanish.  The constructor
    checks the shapes and the composites, over the sparse columns;
    chain_complex builds simplicial ones without the checks, since the
    sign rule guarantees both.
    """

    _fields = ("boundary", "basis")

    def __init__(self, boundary: dict[int, SparseMatrix],
                 basis: dict[int, tuple]):
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "basis", basis)
        self.__post_init__()

    def __post_init__(self):
        """Check the shapes and ∂∘∂ = 0.  A method of its own, looked up
        on every construction, so bench/spans.py can time it."""
        for k, mat in self.boundary.items():
            n_k = len(self.basis.get(k, ()))
            n_km1 = len(self.basis.get(k - 1, ()))
            if mat.cols != n_k or mat.rows != n_km1:
                raise ValueError(f"boundary map degree {k} has shape "
                                 f"{mat.rows}x{mat.cols}, expected {n_km1}x{n_k}")
        for k in self.boundary:
            if k - 1 in self.boundary:
                if not self.boundary[k - 1].mul(self.boundary[k]).is_zero():
                    raise ValueError(f"∂∘∂ != 0 between degrees {k} and {k-2}")

    def degrees(self) -> list[int]:
        return sorted(self.basis)


def simplicial_boundary_matrix(K: SimplicialComplex, k: int) -> SparseMatrix:
    """∂_k for K: sign (-1)^i on deleting the i-th vertex of a sorted
    simplex.  k = 0 is the augmentation onto the empty simplex.

    Deleting a later vertex leaves a lexicographically smaller face, so
    combinations(vs, k), which deletes the last vertex first, yields each
    column's faces in increasing row order; its t-th face drops vertex
    k - t.  The entries of all columns come in one stream, cut into
    columns of k + 1."""
    lower = simplices(K, k - 1)
    index = dict(zip(lower, range(len(lower))))
    signs = [-1 if (k - t) % 2 else 1 for t in range(k + 1)]
    faces = chain.from_iterable(map(combinations, simplices(K, k), repeat(k)))
    entries = zip(map(index.__getitem__, faces), cycle(signs))
    columns = tuple(zip(*[entries] * (k + 1)))
    return SparseMatrix(len(lower), len(columns), columns)


def chain_complex(K: SimplicialComplex, augmented: bool = False) -> ChainComplex:
    """Simplicial chain complex of K; augmented adds C_{-1} = Z⟨∅⟩.  The
    sign rule makes every shape right and every composite vanish, so it
    is built without the constructor's checks."""
    basis: dict[int, tuple] = {-1: (EMPTY_SIMPLEX,)} if augmented else {}
    boundary: dict[int, SparseMatrix] = {}
    if not K.is_empty():
        for k in range(K.dim + 1):
            basis[k] = simplices(K, k)
        for k in range(1, K.dim + 1):
            boundary[k] = simplicial_boundary_matrix(K, k)
        n_0 = len(basis[0])
        boundary[0] = (simplicial_boundary_matrix(K, 0) if augmented
                       else SparseMatrix(0, n_0, ((),) * n_0))
    C = object.__new__(ChainComplex)
    object.__setattr__(C, "boundary", boundary)
    object.__setattr__(C, "basis", basis)
    return C


def _divide(d: int, c: int, q: int) -> int | None:
    """A y with d·y = c over Z (q = 0) or mod q, or None: c/d over Z, the
    least residue mod q/gcd(d, q) otherwise."""
    if q == 0:
        if d == 0:
            return None if c else 0
        return None if c % d else c // d
    c %= q
    g = math.gcd(d, q)
    if c % g:
        return None
    qq = q // g
    return (c // g) * pow(d // g, -1, qq) % qq


def solve_integer(A: SparseMatrix, b,
                  group: FGAbelianGroup) -> list[tuple[int, ...]] | None:
    """Solve A·x = b over the coefficient group.

    b holds one element of group per row of A; a solution holds one per
    column, torsion-reduced.  Returns None when no solution exists.
    Unsolvability is an answer here, not an error.

    This is the transform solve of snf(A) — with c = U·b, y_i solves
    D_ii·y_i = c_i over Z in a free coordinate and mod q in a Z/q one, and
    x = V·y — with b carried through the same replay, so U and V are
    never formed and one pass serves every coordinate of the group.
    """
    b = [list(group.reduce(e)) for e in b]
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    if group.is_trivial():  # every b is 0 and so is the only x
        return [()] * A.cols
    diag, row_at, col_pos, log = _replay(A, b)
    moduli = (0,) * group.free_rank + group.torsion
    d = diag + [0] * A.rows
    y = []
    for di, r in zip(d, row_at):
        yi = [_divide(di, cj, q) for cj, q in zip(b[r], moduli)]
        if None in yi:
            return None
        y.append(yi)
    # y needs one row per column of A: drop the rows past the diagonal
    # (each solved 0·y = c, so is 0) and set the free columns past it to 0
    y = (y + [[0] * len(moduli)] * A.cols)[:A.cols]
    x = _replay_columns(log, [y[p] for p in col_pos])
    return [group.reduce(e) for e in x]


__getattr__ = _forward(globals(), {"smith": ("snf", "snf_diagonal")})
