"""The Smith replay on sparse rows and the solve over a coefficient
group that it serves.

Every Smith reduction is one replay on sparse rows that carries a
right-hand side through the row operations and logs the column
operations: a solve over a group carries b, so it returns the preimage
the transforms of snf give without forming them; one pass serves every
coordinate of the group.

Only the jobs that solve or read a dense Smith form load this module:
`solve-obstruction` and `acyclicity` (through `dualcells`), the
`quasitoric` subcommands and a homology whose column reduction leaves a
block that is not all unit pivots (through `smith`).  `dualcells`
imports solve_integer from here; `homology` forwards it, since
bench/spans.py wraps it there too.
"""

from __future__ import annotations

import math

from .homology import FGAbelianGroup, SparseMatrix


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
