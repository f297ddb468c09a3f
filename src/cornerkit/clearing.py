"""Homology groups of chain complexes by a sparse column reduction with
clearing, and of graphs and pseudo-surfaces by counting.

A simplicial complex of dimension 0 or 1 (a graph) and a strongly
connected pseudo-surface have their reduced homology in closed form:
components, Euler characteristic and one orientation search decide it,
with no chain complex.  Every other complex is reduced.

The invariant factors of a boundary map come from the standard column
reduction of persistent homology against ±1 pivots, followed by a Smith
reduction of the (usually empty) leftover block.  Homology reduces the
maps from the top degree down with clearing: each degree skips the
columns that the unit pivots of the degree above turned into
boundaries.

Only the jobs that compute homology groups load this module: `homology`,
`check-ghs`, `check-phm`, `betti` and `acyclicity`; a solve job does
not.  The leftover block goes to `homology.snf_diagonal`, looked up
there at call time, where bench/spans.py wraps it; so a job whose
reductions leave no block, or that reduces nothing, loads neither
`smith` nor `elimination`.
"""

from __future__ import annotations

from . import homology
from .homology import (ChainComplex, FGAbelianGroup, SparseMatrix,
                       TRIVIAL_GROUP, chain_complex)
from .simplicial import SimplicialComplex


def _clear(col: dict[int, int], pivot: dict[int, int], i: int) -> None:
    """col -= col[i]·pivot[i]·pivot, which zeroes col[i]: pivot[i] is ±1,
    its own inverse."""
    f = col[i] * pivot[i]
    for r, x in pivot.items():
        y = col.get(r, 0) - f * x
        if y:
            col[r] = y
        else:
            del col[r]


def _reduce(M: SparseMatrix, skip=()) -> tuple[list[int], set[int]]:
    """(the nonzero invariant factors of M, the rows of its unit pivots),
    with the columns whose indices are in skip left out.

    This is the standard column reduction of persistent homology with
    both orders reversed: columns are reduced from the last to the first
    against the pivots found so far, each pivot a column whose first
    entry is ±1 in a row where no other pivot starts.  Reordered by those
    rows, the pivots are triangular with a unit diagonal, so each splits
    off a Smith factor 1.  A column that starts with a non-unit is held
    back; once the rest is reduced, its entries in pivot rows are
    cleared, first row first, and snf_diagonal runs on what is left,
    which on boundary matrices is usually nothing.  (On the top boundary
    of bary²(poincare16), reducing in the forward orders scans about 17
    times as many entries.)
    """
    pivots: dict[int, dict[int, int]] = {}  # first row -> its column
    held = []
    for j in reversed(range(len(M.columns))):
        entries = M.columns[j]
        if not entries or j in skip:
            continue
        col = dict(entries)
        first = min(col)
        while first in pivots:
            _clear(col, pivots[first], first)
            if not col:
                break
            first = min(col)
        else:
            if col[first] in (1, -1):
                pivots[first] = col
            else:
                held.append(col)
    left = []
    for col in held:
        while hit := [i for i in col if i in pivots]:
            _clear(col, pivots[min(hit)], min(hit))
        if col:
            left.append(col)
    factors = [1] * len(pivots)
    if left:
        rows = sorted({i for col in left for i in col})
        from .smith import IntegerMatrix
        factors += [d for d in homology.snf_diagonal(IntegerMatrix(
            len(rows), len(left),
            tuple(tuple(col.get(i, 0) for col in left) for i in rows))) if d]
    return factors, set(pivots)


def homology_all(C: ChainComplex) -> dict[int, FGAbelianGroup]:
    """Homology in every degree from the invariant factors of each map.

    The maps are reduced from the top degree down, and ∂_k skips the
    columns of the unit pivot rows of ∂_{k+1} (clearing, the twist of
    Chen & Kerber).  This is exact over Z: the unit pivots of
    ∂_{k+1}·V are boundaries, each with ±1 in its own pivot row and
    zeros above it, so replacing those basis vectors of C_k by them is a
    unimodular change of basis, and ∂_k is zero on each.
    """
    factors: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for k in sorted(C.boundary, reverse=True):
        factors[k], cleared = _reduce(C.boundary[k],
                                      cleared if k + 1 in factors else ())
    out: dict[int, FGAbelianGroup] = {}
    for k in C.degrees():
        up = factors.get(k + 1, [])
        free = len(C.basis[k]) - len(factors.get(k, ())) - len(up)
        # the factors are a divisor chain already, as the constructor checks
        out[k] = FGAbelianGroup(free, tuple(d for d in up if d > 1))
    return out


def reduced_homology(K: SimplicialComplex, k: int) -> FGAbelianGroup:
    """Reduced integral homology H̃_k(K)."""
    return reduced_homology_all(K).get(k, TRIVIAL_GROUP)


def reduced_homology_all(K: SimplicialComplex) -> dict[int, FGAbelianGroup]:
    """Reduced homology in all degrees -1..dim(K).

    A graph and a strongly connected pseudo-surface have theirs in
    closed form; every other complex goes through the clearing reduction
    of its augmented chain complex."""
    if K.dim in (0, 1):
        return _graph_homology(K)
    hom = _pseudo_surface_homology(K) if K.dim == 2 else None
    return hom or homology_all(chain_complex(K, augmented=True))


def _graph_homology(K: SimplicialComplex) -> dict[int, FGAbelianGroup]:
    """H̃ of a complex of dimension 0 or 1, a graph with V vertices, E
    edges and c components: H̃_0 = Z^(c-1) and H_1 = Z^(E-V+c)."""
    edges = [f + (0,) for f in K.facets if len(f) == 2]
    c, _ = _components(K.num_vertices, edges)
    hom = {-1: TRIVIAL_GROUP, 0: FGAbelianGroup(c - 1)}
    if edges:
        hom[1] = FGAbelianGroup(len(edges) - K.num_vertices + c)
    return hom


def _pseudo_surface_homology(K: SimplicialComplex):
    """H̃ of K when K is a strongly connected pseudo-surface, else None.

    Such a K is pure of dimension 2, every edge lies in exactly two
    triangles, and the triangles are connected through their edges, so K
    is connected.  Each edge row of ∂_2 holds two ±1: ∂_2 is the
    incidence matrix of a connected signed graph on the F triangles,
    whose Smith form is 1^(F-1) followed by 0 when the triangles can be
    signed so that their sum is a cycle (K is orientable) and 2 when they
    cannot.  So H_2 = Z or 0, H_1 = Z^(E-V+1-(F-[orientable])) plus Z/2
    when K is not orientable, and H̃_0 = 0 (Munkres, Elements of
    Algebraic Topology, §43).
    """
    if any(len(f) != 3 for f in K.facets):
        return None
    sides = {}  # edge -> 2t + x for each triangle t, x = 1 where ∂_2 has -1
    for t, (a, b, c) in enumerate(K.facets):  # ∂abc = bc - ac + ab
        t += t
        sides.setdefault((b, c), []).append(t)
        sides.setdefault((a, c), []).append(t + 1)
        sides.setdefault((a, b), []).append(t)
    if any(len(pair) != 2 for pair in sides.values()):
        return None
    # signs (-1)^o of t and u cancel on their edge where o_u = o_t ^ x ^ y ^ 1
    c, orientable = _components(len(K.facets), [
        (p >> 1, q >> 1, (p ^ q ^ 1) & 1) for p, q in sides.values()])
    if c != 1:
        return None
    free = len(sides) - K.num_vertices + orientable + 1 - len(K.facets)
    return {-1: TRIVIAL_GROUP, 0: TRIVIAL_GROUP,
            1: FGAbelianGroup(free, () if orientable else (2,)),
            2: FGAbelianGroup(orientable)}


def _components(n: int, edges) -> tuple[int, int]:
    """(c, balanced) for the graph on range(n) with the edges (u, v, x),
    each x 0 or 1: c is its number of components, and balanced is 1 when
    its vertices take sides o in {0, 1} with o_v = o_u ^ x along every
    edge, else 0.  One search sets the sides."""
    adjacent = [[] for _ in range(n)]
    for u, v, x in edges:
        adjacent[u].append((v, x))
        adjacent[v].append((u, x))
    side = [None] * n
    c, balanced = 0, 1
    for start in range(n):
        if side[start] is None:
            c += 1
            side[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for v, x in adjacent[u]:
                    if side[v] is None:
                        side[v] = side[u] ^ x
                        stack.append(v)
                    elif side[v] != side[u] ^ x:
                        balanced = 0
    return c, balanced
