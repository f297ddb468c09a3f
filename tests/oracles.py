"""Independent oracles the tests check the library against.

Nothing in here calls into the Smith-normal-form / homology machinery
under test: ranks are rational Gaussian elimination over Fractions,
quotient-group orders come from breadth-first coset enumeration keyed by
an adjugate invariant, isomorphism is brute-force over all vertex
bijections, chain counts walk the face poset directly.  dense_snf is a
Smith reduction on a dense grid with the pivot rule the library replays
on sparse rows (least |entry|, first in row-major order), so the two
must agree on U, D and V exactly; it borrows only the library's matrix
types.  The one reference that needs a Smith form, per_coordinate_solve,
takes it as an argument: it pins which solution a solve returns, not
whether one exists, and the tests pass it dense_snf.

chain_complex is the simplicial chain complex as it was built before the
library trusted it: each boundary column sorted by row, the result
through the validating ChainComplex constructor.  homology_all takes
each map's invariant factors from its own dense_snf and clears no
column: the reference for the library's reduction with clearing.
replay is the sparse Smith replay as it was before its pivot search
skipped the rows that elimination emptied, which must give the same
pivots, transforms and right-hand sides.
acyclicity_report is the dual-cell complex's homology as it was computed
before the library read it as its nerve's cohomology: each coboundary
transposed into a boundary map, the result through the validating
constructor and into homology_all.  per_grade_dual_complex is the
dual-cell complex as it was built before it read its nerve's one chain
complex: faces and a boundary map built for every grade up to the top
one, past the nerve's dimension too.

The dense matrix helpers live here too, since only tests need them:
the products matmul and matvec, to_dense, the Bareiss determinant, the
Smith-form postcondition verify_snf (U·A·V = D, |det U| = |det V| = 1,
divisor chain); and for groups, from_invariants, which normalizes any
list of cyclic orders to a divisor chain, and group_order.

The per-candidate nerve and per-facet properness loops run the library's
finiteness classifier (coxeter.is_finite) on every subset with no memo,
and the full-map search checks each candidate against every mapped
vertex in a quadratic min-based order: the slow forms that the library's
pattern memo and neighbour-only search must reproduce exactly.
union_find_is_finite is the classifier as it was written before it read
the diagram's bonds in one scan: a union-find over every pair for the
components, and each component's pairs scanned again for its bonds.  It
shares the path and branch typing (_path_type, _branch_type, _walk)
with the library, so it pins the components, bond checks and orders,
not the catalog.  positive_root_count pins the catalog: it counts the
positive roots of a component by reflecting the simple roots in floats,
with no call into the classifier, and the rank and that count name a
finite type.
recursive_search is the neighbour-only search as it was written before
it kept its path on an explicit stack: one recursion level per vertex,
which exhausts Python's recursion limit on large complexes.  In the
same way scan_link finds a link's facets by scanning every facet and
builds it through the validating constructor, and per_link_check decides
every link on its own with sphere_homology_defects: the references for
the star-index link and the per-shape link memo.

sphere_homology_defects and purity_failures are the ghs comparisons as
they were written before the library sent every check through one
comparison: a branch for d = -1, one for an empty link, a loop over the
degrees 0..max(d, dim L), and a witness table for purity.  The homology
they compare is homology_all of the augmented chain_complex above.

per_label_check is the label-by-label validation that LabeledComplex
runs only when its one-pass comparison with the edges fails; the error
it raises, or the labels it accepts, must be the library's.

The value classes write ==, hash, repr and frozen fields by hand;
DATACLASS_TWINS holds for each the frozen dataclass with the same fields
(and defaults), whose generated methods they must match.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import types
from collections import deque
from fractions import Fraction

from cornerkit.coxeter import (INFINITE, BudgetExceeded, CoxeterMatrix,
                               FinitenessVerdict, _branch_type, _path_type,
                               _walk, coxeter_matrix, is_finite)
from cornerkit.dualcells import Cochain
from cornerkit.ghs import GhsFailure, GhsReport
from cornerkit.homology import (ChainComplex, FGAbelianGroup, SparseMatrix,
                                TRIVIAL_GROUP, Z, simplicial_boundary_matrix)
from cornerkit.quasitoric import CharacteristicPair, Fan
from cornerkit.simplicial import (LabeledComplex, SimplicialComplex, simplex,
                                  simplices)
from cornerkit.smith import IntegerMatrix, SNFResult

DATACLASS_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in {
        SimplicialComplex: ["num_vertices", "facets"],
        LabeledComplex: ["complex", "labels"],
        IntegerMatrix: ["rows", "cols", "entries"],
        SparseMatrix: ["rows", "cols", "columns"],
        SNFResult: ["U", "D", "V"],
        FGAbelianGroup: [("free_rank", int, dataclasses.field(default=0)),
                         ("torsion", tuple, dataclasses.field(default=()))],
        ChainComplex: ["boundary", "basis"],
        Cochain: ["degree", "group", "values"],
        GhsFailure: ["simplex", "degree", "expected", "actual"],
        GhsReport: ["verdict", "dimension", "failures", "links_checked"],
        CoxeterMatrix: ["vertices", "pattern"],
        FinitenessVerdict: ["finite", "components", "order"],
        CharacteristicPair: ["nerve", "n", "lam"],
        Fan: ["rays", "max_cones"],
    }.items()}


def rational_rank(rows: list[list[int]]) -> int:
    """Row rank over Q by fraction-exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    pivot_col = 0
    for _ in range(len(m)):
        while pivot_col < cols:
            pivot_row = next((i for i in range(rank, len(m))
                              if m[i][pivot_col] != 0), None)
            if pivot_row is None:
                pivot_col += 1
                continue
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            pv = m[rank][pivot_col]
            m[rank] = [x / pv for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][pivot_col] != 0:
                    f = m[i][pivot_col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
            rank += 1
            pivot_col += 1
            break
        else:
            break
    return rank


def faces_of(facets: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    found = set()
    for f in facets:
        if len(f) >= k + 1:
            found.update(itertools.combinations(sorted(f), k + 1))
    return sorted(found)


def boundary_rows(facets, k) -> list[list[int]]:
    """Rows indexed by (k-1)-faces, columns by k-faces, standard signs."""
    lower = faces_of(facets, k - 1)
    upper = faces_of(facets, k)
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i, v in enumerate(s):
            face = s[:i] + s[i + 1:]
            rows[index[face]][j] = (-1) ** i
    return rows


def rational_reduced_betti(facets: list, k: int) -> int:
    """Reduced Betti number over Q, straight from rational ranks."""
    facets = [tuple(sorted(f)) for f in facets]
    n_k = len(faces_of(facets, k))
    if n_k == 0:
        return 0
    if k == 0:
        rank_dk = rational_rank([[1] * n_k])  # augmentation
    else:
        rows = boundary_rows(facets, k)
        rank_dk = rational_rank(rows) if rows else 0
    up = boundary_rows(facets, k + 1)
    rank_up = rational_rank(up) if up and up[0] else 0
    return n_k - rank_dk - rank_up


def det_and_adjugate(a: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Cofactor-expansion determinant and adjugate; exact, SNF-free."""
    n = len(a)

    def minor(mat, i, j):
        return [row[:j] + row[j + 1:] for r, row in enumerate(mat) if r != i]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        if len(mat) == 2:
            return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        total = 0
        for j, x in enumerate(mat[0]):
            if x:
                total += (-1) ** j * x * det(minor(mat, 0, j))
        return total

    d = det(a)
    adj = [[(-1) ** (i + j) * det(minor(a, j, i)) for j in range(n)]
           for i in range(n)]
    return d, adj


def coset_count(a: list[list[int]]) -> int:
    """|Z^n / column span| for square nonsingular a, by BFS coset
    enumeration: v and w agree iff adj(a)·(v-w) ≡ 0 mod det(a)."""
    n = len(a)
    d, adj = det_and_adjugate(a)
    if d == 0:
        raise ValueError("coset enumeration needs a nonsingular matrix")
    mod = abs(d)

    def invariant(v):
        return tuple(sum(adj[i][j] * v[j] for j in range(n)) % mod
                     for i in range(n))

    start = tuple([0] * n)
    seen = {invariant(start)}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for i in range(n):
            for step in (1, -1):
                w = list(v)
                w[i] += step
                key = invariant(w)
                if key not in seen:
                    seen.add(key)
                    queue.append(tuple(w))
    return len(seen)


def brute_force_isomorphic(a_facets, b_facets, a_labels=None, b_labels=None):
    """Try every vertex bijection; None or a mapping dict."""
    verts_a = sorted(set(v for f in a_facets for v in f))
    verts_b = sorted(set(v for f in b_facets for v in f))
    if len(verts_a) != len(verts_b) or len(a_facets) != len(b_facets):
        return None
    b_set = {tuple(sorted(f)) for f in b_facets}
    a_canon = [tuple(sorted(f)) for f in a_facets]
    for perm in itertools.permutations(verts_b):
        mapping = dict(zip(verts_a, perm))
        ok = True
        for f in a_canon:
            if tuple(sorted(mapping[v] for v in f)) not in b_set:
                ok = False
                break
        if not ok:
            continue
        if a_labels is not None:
            for (u, v), m in a_labels.items():
                mu, mv = mapping[u], mapping[v]
                if b_labels.get((min(mu, mv), max(mu, mv))) != m:
                    ok = False
                    break
        if ok:
            return mapping
    return None


def count_chains(facets, length: int) -> int:
    """Number of strictly increasing chains of `length` nonempty faces in
    the inclusion poset, counted by dynamic programming."""
    all_faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            all_faces.update(itertools.combinations(f, k))
    faces = sorted(all_faces, key=lambda s: (len(s), s))
    sets = [frozenset(f) for f in faces]
    # chains ending at face i with exactly L elements
    ending = [{1: 1} for _ in faces]
    for i, si in enumerate(sets):
        for j in range(i):
            if sets[j] < si:
                for lng, cnt in ending[j].items():
                    if lng + 1 not in ending[i]:
                        ending[i][lng + 1] = 0
                    ending[i][lng + 1] += cnt
    return sum(e.get(length, 0) for e in ending)


def maximal_cliques(n: int, edges: set[tuple[int, int]]):
    """All maximal cliques of the graph on 0..n-1 (Bron-Kerbosch)."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        for v in sorted(p):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return sorted(out)


def triangle_group_is_finite(p: int, q: int, r: int) -> bool:
    """Rank-3 system with all three bonds labeled: finite iff the angle
    sum exceeds a flat triangle."""
    return Fraction(1, p) + Fraction(1, q) + Fraction(1, r) > 1


def cosine_matrix_is_positive_definite(n: int, pattern) -> bool:
    """Whether the Coxeter group with this label pattern (m(0,1), m(0,2),
    m(1,2), m(0,3), ..., INFINITE as 0) on n generators is finite: exactly
    when its cosine matrix [-cos(π/m_st)], -1 for ∞, is positive definite
    (Humphreys, "Reflection Groups and Coxeter Groups", §6.4).  Decided by
    Cholesky in floats, each pivot more than 1e-9, with no call into the
    classifier."""
    m = [[1] * n for _ in range(n)]
    labels = iter(pattern)
    for j in range(1, n):
        for i in range(j):
            m[i][j] = m[j][i] = next(labels)
    a = [[-1.0 if x == 0 else -math.cos(math.pi / x) for x in row]
         for row in m]
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        pivot = a[j][j] - sum(x * x for x in low[j][:j])
        if pivot <= 1e-9:
            return False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(x * y for x, y in
                                       zip(low[i][:j], low[j][:j]))) / low[j][j]
    return True


def _union_find_component(M: CoxeterMatrix, comp: list[int]):
    """union_find_is_finite's tag and order for one connected component:
    every pair scanned again, the adjacency rebuilt from the bonds."""
    n = len(comp)
    if n == 1:
        return "A1", 2
    edges = []
    for i, j in itertools.combinations(comp, 2):
        m = M.order_of(i, j)
        if m == INFINITE:
            return "infinite", None
        if m >= 3:
            edges.append((i, j, m))
    if len(edges) != n - 1:
        return "infinite", None  # a connected diagram that is not a tree
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in comp}
    for i, j, m in edges:
        adj[i].append((j, m))
        adj[j].append((i, m))
    degrees = sorted((len(adj[v]) for v in comp), reverse=True)
    if degrees[0] >= 4 or (degrees[0] == 3 and degrees[1] == 3):
        return "infinite", None
    if degrees[0] <= 2:
        end = next(v for v in comp if len(adj[v]) == 1)
        result = _path_type(_walk(adj, None, end), n)
        return result if result else ("infinite", None)
    # exactly one branch vertex; D/E types are simply laced
    if any(m != 3 for _, _, m in edges):
        return "infinite", None
    center = next(v for v in comp if len(adj[v]) == 3)
    arms = [1 + len(_walk(adj, center, start)) for start, _ in adj[center]]
    result = _branch_type(sorted(arms, reverse=True), n)
    return result if result else ("infinite", None)


def union_find_is_finite(M: CoxeterMatrix) -> FinitenessVerdict:
    """coxeter.is_finite as it was written with a union-find over every
    pair (m != 2 joins two generators), the components in the order of
    their least vertex, each classified by _union_find_component."""
    n = M.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if M.order_of(i, j) != 2:  # ∞ and m >= 3 both connect
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    results = []
    finite = True
    order = 1
    for comp in sorted(comps.values()):
        tag, comp_order = _union_find_component(M, comp)
        results.append((tuple(M.vertices[i] for i in comp), tag))
        if comp_order is None:
            finite = False
        else:
            order *= comp_order
    return FinitenessVerdict(finite, tuple(results), order if finite else None)


def positive_root_count(pattern, component, cap: int) -> int | None:
    """The number of positive roots of the Coxeter group on the generators
    `component` (indices into this label pattern), or None once it passes
    `cap`.  The simple roots e_i span a space with the bilinear form
    B(e_i, e_j) = -cos(π/m_ij), -1 for ∞; the reflection s_i(v) = v -
    2B(e_i, v)e_i permutes the positive roots other than e_i, and from
    the simple roots these reflections reach every positive root
    (Humphreys, "Reflection Groups and Coxeter Groups", §5.4).  Roots are
    float coordinates, rounded to 6 places for set membership; nothing
    here calls the classifier."""
    k = len(component)

    def label(a, b):
        if a == b:
            return 1
        a, b = min(a, b), max(a, b)
        return pattern[b * (b - 1) // 2 + a]

    form = [[-1.0 if m == INFINITE else -math.cos(math.pi / m)
             for m in (label(a, b) for b in component)] for a in component]
    simple = [tuple(float(i == j) for j in range(k)) for i in range(k)]
    seen = set(simple)
    queue = deque(simple)
    while queue:
        root = queue.popleft()
        for i in range(k):
            if root == simple[i]:
                continue
            step = 2 * sum(x * y for x, y in zip(form[i], root))
            image = root[:i] + (root[i] - step,) + root[i + 1:]
            key = tuple(round(x, 6) for x in image)
            if key not in seen:
                if len(seen) == cap:
                    return None
                seen.add(key)
                queue.append(image)
    return len(seen)


def first_containment(facets) -> tuple[int, int] | None:
    """The first pair (i, j), i != j, in row-major order with facets[i] a
    subset of facets[j], or None: a scan over every ordered pair."""
    sets = [set(f) for f in facets]
    for i, fi in enumerate(sets):
        for j, fj in enumerate(sets):
            if i != j and fi <= fj:
                return i, j
    return None


def maximal_faces(raw) -> list[tuple[int, ...]]:
    """The distinct faces of raw that lie in no other face, as sorted
    tuples in lexicographic order; every face is compared with every other."""
    sets = list(set(map(frozenset, raw)))
    return sorted(tuple(sorted(f)) for f in sets
                  if not any(f < g for g in sets))


def _min_abs_pivot(a: list[list[int]], t: int, rows: int, cols: int):
    """Position of the nonzero entry of smallest |value| in a[t:, t:]."""
    best = None
    best_val = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x:
                v = -x if x < 0 else x
                if best_val is None or v < best_val:
                    best, best_val = (i, j), v
                    if v == 1:
                        return best
    return best


def dense_snf(A: IntegerMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms, U·A·V = D, by
    in-place reduction of a dense grid with every row operation mirrored
    into u and every column operation into v."""
    a = A.tolists()
    u = IntegerMatrix.identity(A.rows).tolists()
    v = IntegerMatrix.identity(A.cols).tolists()
    rows, cols = A.rows, A.cols
    t = 0
    while t < rows and t < cols:
        if _min_abs_pivot(a, t, rows, cols) is None:
            break
        while True:
            # move the smallest nonzero entry to (t, t); any leftover after
            # a reduction pass is strictly smaller, so this terminates
            i, j = _min_abs_pivot(a, t, rows, cols)
            if i != t:
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for r in a + v:
                    r[t], r[j] = r[j], r[t]
            pivot = a[t][t]
            clean = True
            at = a[t]
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    q = x // pivot
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], at)]
                        u[i] = [y - q * z for y, z in zip(u[i], u[t])]
                    if a[i][t]:
                        clean = False
            if not clean:
                continue
            for jj in range(t + 1, cols):
                x = at[jj]
                if x:
                    q = x // pivot
                    if q:
                        for r in a + v:
                            r[jj] -= q * r[t]
                    if at[jj]:
                        clean = False
            if not clean:
                continue
            # force the pivot to divide every remaining entry; a unit
            # always does
            offender = None if pivot in (1, -1) else next(
                (i for i in range(t + 1, rows)
                 if any(a[i][jj] % pivot for jj in range(t + 1, cols))), None)
            if offender is None:
                break
            a[t] = [y + z for y, z in zip(at, a[offender])]
            u[t] = [y + z for y, z in zip(u[t], u[offender])]
        t += 1
    for k in range(min(rows, cols)):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    return SNFResult(
        IntegerMatrix.from_rows(u) if rows else IntegerMatrix(0, 0, ()),
        IntegerMatrix(rows, cols, tuple(tuple(r) for r in a)),
        IntegerMatrix.from_rows(v) if cols else IntegerMatrix(0, 0, ()))


def _scan_pivot(rows: list[dict[int, int]], row_at: list[int],
                  col_pos: list[int], t: int) -> tuple[int, int] | None:
    """The pivot position in the trailing block, read from sparse rows:
    the first ±1 in row-major position order, else the first entry of
    least |x|.  Every row position from t on is visited, the rows that
    elimination emptied included."""
    best = None
    for i in range(t, len(row_at)):
        row = rows[row_at[i]]
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


def replay(A: SparseMatrix, b: list[list[int]]):
    """homology._replay as it was before its pivot search skipped the
    empty rows: the reference for the pivot sequence.

    Smith-reduce A on sparse rows, applying every row operation to b.

    b holds one integer vector per row of A and is updated in place, so
    afterwards b[row_at[t]] is row t of U·b.  Returns (diag, row_at,
    col_pos, log): the pivots |D_tt| in order, up to where the trailing
    block is zero; the row of A at each position; the position of each
    column of A; and the column subtractions (j, k, q), column k -=
    q·column j, in the order applied.  With y indexed by position,
    homology._replay_columns(log, [y[p] for p in col_pos]) is V·y.

    Pivoting is by minimal absolute nonzero entry, the first in
    row-major position order.  Column swaps only move positions.  Once a
    row pass has cleaned column t, that column is zero outside row t, so
    a column subtraction changes the matrix in row t alone.
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
        at = _scan_pivot(rows, row_at, col_pos, t)
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
            at = _scan_pivot(rows, row_at, col_pos, t)
        if pivot < 0:
            b[r] = [-u for u in b[r]]
        diag.append(abs(pivot))
    return diag, row_at, col_pos, log


def boundary_matrix(K: SimplicialComplex, k: int) -> SparseMatrix:
    """∂_k of K with each column sorted by row: sign (-1)^i on deleting
    the i-th vertex, looked up in an index of the (k-1)-faces."""
    lower = simplices(K, k - 1)
    index = {s: i for i, s in enumerate(lower)}
    columns = tuple(tuple(sorted((index[vs[:i] + vs[i + 1:]],
                                  -1 if i % 2 else 1)
                                 for i in range(len(vs))))
                    for vs in simplices(K, k))
    return SparseMatrix(len(lower), len(columns), columns)


def chain_complex(K: SimplicialComplex, augmented: bool = False):
    """The simplicial chain complex of K through the validating
    ChainComplex constructor, which checks the shapes and ∂∘∂ = 0."""
    basis, boundary = {}, {}
    if augmented:
        basis[-1] = ((),)
    if K.is_empty():
        return ChainComplex(boundary, basis)
    for k in range(K.dim + 1):
        basis[k] = simplices(K, k)
    for k in range(1, K.dim + 1):
        boundary[k] = boundary_matrix(K, k)
    n_0 = len(basis[0])
    boundary[0] = (boundary_matrix(K, 0) if augmented
                   else SparseMatrix(0, n_0, ((),) * n_0))
    return ChainComplex(boundary, basis)


def homology_all(C: ChainComplex) -> dict[int, FGAbelianGroup]:
    """Homology in every degree, each map's invariant factors from its own
    dense_snf, with no column cleared."""
    factors = {k: [d for d in dense_snf(to_dense(M)).diagonal() if d]
               for k, M in C.boundary.items()}
    out = {}
    for k in C.degrees():
        up = factors.get(k + 1, [])
        free = len(C.basis[k]) - len(factors.get(k, ())) - len(up)
        out[k] = from_invariants([d for d in up if d > 1], free)
    return out


def group_order(G: FGAbelianGroup) -> int | None:
    """The order of G, or None when G is infinite."""
    return None if G.free_rank else math.prod(G.torsion)


def from_invariants(invariants, free_rank: int = 0) -> FGAbelianGroup:
    """The group of an arbitrary list of cyclic orders (0 meaning Z),
    normalized to a divisor chain."""
    free = free_rank + sum(1 for d in invariants if d == 0)
    tor = [abs(d) for d in invariants if abs(d) > 1]
    # repeatedly replace pairs by (gcd, lcm) until the chain divides
    changed = True
    while changed:
        changed = False
        for i in range(len(tor)):
            for j in range(i + 1, len(tor)):
                if tor[j] % tor[i]:
                    g = math.gcd(tor[i], tor[j])
                    tor[i], tor[j] = g, tor[i] * tor[j] // g
                    changed = True
        tor = [q for q in tor if q > 1]
    return FGAbelianGroup(free, tuple(sorted(tor)))


def acyclicity_report(D) -> dict[int, FGAbelianGroup]:
    """Homology of the dual-cell complex D in every grade, from its own
    boundary maps, the transposes of D.delta, checked and reduced one by
    one."""
    boundary = {d: to_dense(M).transpose().to_sparse()
                for d, M in D.delta.items()}
    return homology_all(ChainComplex(boundary, dict(D.faces)))


def per_grade_dual_complex(N: SimplicialComplex, n: int,
                           include_top: bool = True):
    """The dual-cell complex's faces and delta, grade by grade: faces[d]
    is simplices(N, n - d - 1) and delta[d] is ∂_{n-d} of N, built on its
    own for every grade d up to the top one."""
    top = n if include_top else n - 1
    return types.SimpleNamespace(
        faces={d: simplices(N, n - d - 1) for d in range(top + 1)},
        delta={d: simplicial_boundary_matrix(N, n - d)
               for d in range(1, top + 1)})


def to_dense(S: SparseMatrix) -> IntegerMatrix:
    grid = [[0] * S.cols for _ in range(S.rows)]
    for j, col in enumerate(S.columns):
        for i, x in col:
            grid[i][j] = x
    return IntegerMatrix(S.rows, S.cols, tuple(map(tuple, grid)))


def matmul(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    if A.cols != B.rows:
        raise ValueError("shape mismatch in matrix product")
    bt = list(zip(*B.entries)) if B.rows else [()] * B.cols
    return IntegerMatrix(A.rows, B.cols, tuple(
        tuple(sum(a * b for a, b in zip(r, col)) for col in bt)
        for r in A.entries))


def matvec(A: IntegerMatrix, v) -> list[int]:
    if len(v) != A.cols:
        raise ValueError("vector length mismatch")
    return [sum(a * b for a, b in zip(row, v)) for row in A.entries]


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = A.tolists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def verify_snf(A: IntegerMatrix, result: SNFResult) -> bool:
    """Postcondition check: U·A·V = D, |det U| = |det V| = 1, divisor chain."""
    if matmul(matmul(result.U, A), result.V).entries != result.D.entries:
        return False
    if abs(determinant(result.U)) != 1 or abs(determinant(result.V)) != 1:
        return False
    diag = result.diagonal()
    for i in range(result.D.rows):
        for j in range(result.D.cols):
            if i != j and result.D.entries[i][j] != 0:
                return False
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            return False
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            return False
    return all(d >= 0 for d in diag)


def _solve_coordinate(snf, A, b: list[int], modulus: int | None):
    """A·x = b over Z (modulus None) or mod modulus, from a fresh snf(A)."""
    res = snf(A)
    c = matvec(res.U, b)
    d = res.diagonal()
    y = [0] * A.cols
    for i in range(A.rows):
        di = d[i] if i < len(d) else 0
        if modulus is None:
            if (c[i] % di if di else c[i]):
                return None
            if di:
                y[i] = c[i] // di
            continue
        ci = c[i] % modulus
        g = math.gcd(di, modulus)
        if ci % g:
            return None
        qq = modulus // g
        if di and qq > 1:
            y[i] = ((ci // g) * pow(di // g, -1, qq)) % qq
    x = matvec(res.V, y)
    return x if modulus is None else [xi % modulus for xi in x]


def per_coordinate_solve(snf, A, b, group):
    """A·x = b over group, one coordinate at a time: an exact solve for
    each free coordinate and a modular one for each torsion coordinate,
    each from its own snf(A).  One element of group per column, or None."""
    moduli = [None] * group.free_rank + list(group.torsion)
    per_coord = []
    for coord, q in enumerate(moduli):
        x = _solve_coordinate(snf, A, [int(e[coord]) for e in b], q)
        if x is None:
            return None
        per_coord.append(x)
    return [tuple(x[j] for x in per_coord) for j in range(A.cols)]


def per_candidate_nerve(LK, max_rank=None, budget=1_000_000):
    """Facets of the Coxeter nerve, in lexicographic order, with a fresh
    finiteness test for every candidate clique; BudgetExceeded past
    `budget` candidates."""
    n = LK.complex.num_vertices
    if max_rank is None:
        max_rank = n
    adjacency = {v: set() for v in range(n)}
    for u, v, _ in LK.labels:
        adjacency[u].add(v)
        adjacency[v].add(u)
    tested = 0
    finite_sets = []
    covered = set()
    level = [(v,) for v in range(n)]
    finite_sets.extend(level)
    while level and len(level[0]) < max_rank:
        nxt = []
        for T in level:
            common = set.intersection(*(adjacency[v] for v in T))
            for w in sorted(common):
                if w <= T[-1]:
                    continue
                cand = T + (w,)
                tested += 1
                if tested > budget:
                    raise BudgetExceeded(tested, budget)
                if is_finite(coxeter_matrix(LK, cand)).finite:
                    nxt.append(cand)
                    covered.update(cand[:i] + cand[i + 1:]
                                   for i in range(len(cand)))
        finite_sets.extend(nxt)
        level = nxt
    return sorted(T for T in finite_sets if T not in covered)


def per_label_check(K, labels):
    """(labels, label dict) of a LabeledComplex on K, from a check of each
    label in turn: sorted as (min, max, m) triples, a ValueError at the
    first degenerate pair, repeated pair, non-edge or label below 2, in
    that order within a label, then at edges that carry no label."""
    canon = tuple(sorted((min(u, v), max(u, v), m) for u, v, m in labels))
    edge_set = set(simplices(K, 1))
    seen = set()
    for u, v, m in canon:
        if u == v:
            raise ValueError(f"label on degenerate pair ({u},{v})")
        if (u, v) in seen:
            raise ValueError(f"duplicate label on edge ({u},{v})")
        seen.add((u, v))
        if (u, v) not in edge_set:
            raise ValueError(f"label on non-edge ({u},{v})")
        if m < 2:
            raise ValueError(f"label on edge ({u},{v}) must be >= 2, got {m}")
    missing = sorted(edge_set - seen)
    if missing:
        raise ValueError(f"{len(missing)} edges carry no label, "
                         f"first {missing[:5]}")
    return canon, {(u, v): m for u, v, m in canon}


def per_facet_proper(LK):
    """(proper, witness face or None), testing every facet afresh;
    the witness is the first infinite subset of the first infinite facet,
    smallest size first."""
    for f in LK.complex.facets:
        if not is_finite(coxeter_matrix(LK, f)).finite:
            for size in range(2, len(f) + 1):
                for sub in itertools.combinations(f, size):
                    if not is_finite(coxeter_matrix(LK, sub)).finite:
                        return False, sub
    return True, None


def min_order(adjA, invA, by_inv):
    """The isomorphism search order by a linear min over the unplaced
    vertices at every step: most neighbours already ordered, then the
    smallest invariant class, then the least id."""
    n = len(adjA)
    order = []
    unplaced = set(range(n))
    ordered_nbrs = [0] * n
    while unplaced:
        best = min(unplaced, key=lambda v: (-ordered_nbrs[v],
                                            len(by_inv[invA[v]]), v))
        order.append(best)
        unplaced.remove(best)
        for u in adjA[best]:
            ordered_nbrs[u] += 1
    return order


def full_map_search(KA, KB, invA, by_inv, adjA, adjB, order):
    """Depth-first search in `order` that accepts b for a when a and b
    agree on adjacency and labels with every mapped pair.  Returns the
    first assignment that maps facets onto facets, sorted by vertex, or
    None, and the number of nodes of the search tree visited."""
    n = KA.num_vertices
    b_facets = set(KB.facets)
    mapping = {}
    used = set()
    nodes = 0

    def backtrack(idx):
        nonlocal nodes
        nodes += 1
        if idx == n:
            return {tuple(sorted(mapping[v] for v in f))
                    for f in KA.facets} == b_facets
        a = order[idx]
        for b in by_inv[invA[a]]:
            if b in used:
                continue
            if any(adjA[a].get(a2) != adjB[b].get(b2)
                   for a2, b2 in mapping.items()):
                continue
            mapping[a] = b
            used.add(b)
            if backtrack(idx + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    found = backtrack(0)
    return (dict(sorted(mapping.items())) if found else None), nodes


def recursive_search(KA, KB, invA, by_inv, adjA, adjB, order):
    """The library's neighbour-only search as one recursion level per
    vertex: the first assignment that maps facets onto facets, sorted by
    vertex, or None, and the number of leaves it facet-checked."""
    n = KA.num_vertices
    b_facets = set(KB.facets)
    pos = {a: i for i, a in enumerate(order)}
    earlier = [[(a2, m) for a2, m in adjA[a].items() if pos[a2] < i]
               for i, a in enumerate(order)]
    mapping = {}
    used = set()
    placed_nbrs = [0] * KB.num_vertices
    leaves = 0

    def backtrack(idx):
        nonlocal leaves
        if idx == n:
            leaves += 1
            return {tuple(sorted(mapping[v] for v in f))
                    for f in KA.facets} == b_facets
        a = order[idx]
        need = earlier[idx]
        for b in by_inv[invA[a]]:
            if b in used or placed_nbrs[b] != len(need):
                continue
            adj_b = adjB[b]
            if any(adj_b.get(mapping[a2]) != m for a2, m in need):
                continue
            mapping[a] = b
            used.add(b)
            for b2 in adj_b:
                placed_nbrs[b2] += 1
            if backtrack(idx + 1):
                return True
            for b2 in adj_b:
                placed_nbrs[b2] -= 1
            del mapping[a]
            used.discard(b)
        return False

    found = backtrack(0)
    return (dict(sorted(mapping.items())) if found else None), leaves


def scan_link(K, s):
    """Link of s in K, densely renumbered, with its vertex map: the facets
    that contain s by a scan of every facet, the result through the
    validating constructor."""
    if len(s) == 0:
        return K, tuple(range(K.num_vertices))
    sv = set(s)
    residues = [frozenset(f) - sv for f in K.facets
                if sv.issubset(f)]
    if not residues:
        raise ValueError(f"{s!r} is not a simplex of the complex")
    old_ids = sorted(set().union(*residues))
    renum = {old: new for new, old in enumerate(old_ids)}
    facets = tuple(simplex(renum[v] for v in r) for r in residues)
    return SimplicialComplex(len(old_ids), facets), tuple(old_ids)


def sphere_homology_defects(L, d):
    """(degree, expected, actual) wherever the reduced homology of L
    differs from that of S^d; d = -1 means L must be the empty complex."""
    defects = []
    hom = homology_all(chain_complex(L, augmented=True))
    if d == -1:
        if not L.is_empty():
            for k in range(0, L.dim + 1):
                g = hom.get(k, TRIVIAL_GROUP)
                if not g.is_trivial():
                    defects.append((k, TRIVIAL_GROUP, g))
            if not defects:
                defects.append((-1, Z, TRIVIAL_GROUP))
        return defects
    if L.is_empty():
        defects.append((d, Z, TRIVIAL_GROUP))
        return defects
    for k in range(0, max(d, L.dim) + 1):
        expected = Z if k == d else TRIVIAL_GROUP
        actual = hom.get(k, TRIVIAL_GROUP)
        if actual != expected:
            defects.append((k, expected, actual))
    return defects


def purity_failures(K, m):
    """A witness for each facet f of dimension other than m: Z missing in
    degree m - len(f) >= 0 below m, an extra Z in degree -1 above it."""
    out = []
    for f in K.facets:
        d = m - len(f)
        if d >= 0:
            out.append(GhsFailure(f, d, Z, TRIVIAL_GROUP))
        elif d < -1:
            out.append(GhsFailure(f, -1, TRIVIAL_GROUP, Z))
    return out


def per_link_check(K, m):
    """(failures, links checked) of the link loop with no shape memo:
    every k-simplex, 0 <= k < m, in the library's order, its link from
    scan_link decided on its own."""
    failures = []
    checked = 0
    for k in range(m):
        for s in simplices(K, k):
            checked += 1
            L, _ = scan_link(K, s)
            failures.extend(GhsFailure(s, deg, exp, act) for deg, exp, act
                            in sphere_homology_defects(L, m - k - 1))
    return failures, checked
