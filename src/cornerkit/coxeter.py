"""Coxeter systems read off labeled 1-skeletons.

A labeled complex determines a Coxeter system: one generator per vertex,
m(s,t) = the edge label when {s,t} is an edge and infinity otherwise.
A Coxeter matrix is stored as its label pattern, the upper triangle
column by column (_pattern), so its unit diagonal and its symmetry hold
by construction, and its orders are labels that LabeledComplex has
already checked.  Finiteness of a (special sub)group is decided purely
by pattern-matching the diagram against the classification of finite
irreducible Coxeter groups; no Gram-matrix arithmetic is involved, so
the verdict is exact.  Inside this module every verdict comes from
_finite, once per label pattern.

The nerve of the system collects every generator subset spanning a finite
subgroup.  Equality of that nerve with the input complex is the
asphericity criterion; the test errors on improper labelings rather than
guessing a convention for them.
"""

from __future__ import annotations

import itertools
import math
# simplices is not called here, but bench/spans.py wraps it by this name
from .simplicial import (LabeledComplex, SimplicialComplex, _Value, _complex,
                         simplices)  # noqa: F401

INFINITE = 0  # sentinel for m(s,t) = ∞ inside a label pattern


class BudgetExceeded(ValueError):
    """Clique enumeration exceeded the configured budget: an input error."""

    def __init__(self, count: int, budget: int):
        super().__init__(f"clique enumeration exceeded budget "
                         f"({count} > {budget})")
        self.count = count
        self.budget = budget


class CoxeterMatrix(_Value):
    """The Coxeter matrix of the generators `vertices`, stored as its
    label pattern: m(0,1), m(0,2), m(1,2), m(0,3), ... in the index order
    of `vertices`, INFINITE (0) for infinity.  The diagonal is 1 and the
    matrix symmetric by construction, and no order is checked again.

    vertices names the generators, so a matrix restricted to a vertex
    subset still reports verdicts in the original ids.
    """

    _fields = ("vertices", "pattern")

    def __init__(self, vertices: tuple[int, ...], pattern: tuple[int, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "pattern", pattern)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def order_of(self, i: int, j: int) -> int:
        if i == j:
            return 1
        if i > j:
            i, j = j, i
        return self.pattern[j * (j - 1) // 2 + i]


class FinitenessVerdict(_Value):
    _fields = ("finite", "components", "order")

    def __init__(self, finite: bool,
                 components: tuple[tuple[tuple[int, ...], str], ...],
                 order: int | None):
        if finite != all(tag != "infinite" for _, tag in components):
            raise AssertionError
        if (order is not None) != finite:
            raise AssertionError
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "order", order)


def coxeter_matrix(LK: LabeledComplex,
                   verts: tuple[int, ...]) -> CoxeterMatrix:
    """Coxeter matrix of the special subgroup on verts, a strictly
    increasing tuple of LK's vertices."""
    return CoxeterMatrix(verts, _pattern(LK.label_dict(), verts))


def _path_type(labels: list[int], n: int) -> tuple[str, int] | None:
    """Classify a path diagram with n vertices and the given edge labels."""
    big = [m for m in labels if m >= 4]
    if not big:
        return f"A{n}", math.factorial(n + 1)
    if len(big) > 1:
        return None
    m = big[0]
    if n == 2:
        if m == 4:
            return "B2", 8
        return f"I2({m})", 2 * m
    at_end = labels[0] >= 4 or labels[-1] >= 4
    if m == 4:
        if at_end:
            return f"B{n}", (2 ** n) * math.factorial(n)
        if n == 4 and labels[1] == 4:
            return "F4", 1152
        return None
    if m == 5 and at_end:
        if n == 3:
            return "H3", 120
        if n == 4:
            return "H4", 14400
    return None


def _branch_type(arms: list[int], n: int) -> tuple[str, int] | None:
    """Classify a simply-laced tree with one degree-3 vertex; arms are the
    three arm lengths in edges, sorted descending."""
    a, b, c = arms
    if c != 1:
        return None
    if b == 1:
        return f"D{n}", (2 ** (n - 1)) * math.factorial(n)
    if b == 2:
        if a == 2:
            return "E6", 51840
        if a == 3:
            return "E7", 2903040
        if a == 4:
            return "E8", 696729600
    return None


def _walk(adj: list[list[tuple[int, int]]], prev: int | None,
          cur: int) -> list[int]:
    """The edge labels of the walk that leaves prev through cur and ends
    at a leaf; each vertex after cur has one way on, as on a path or an
    arm."""
    labels = []
    while True:
        nxt = [(w, m) for w, m in adj[cur] if w != prev]
        if not nxt:
            return labels
        prev, cur = cur, nxt[0][0]
        labels.append(nxt[0][1])


def _classify_component(adj: list[list[tuple[int, int]]],
                        comp: list[int]) -> tuple[str, int | None]:
    """Finite-type tag and order of one connected diagram component, a
    sorted index list whose bonds adj lists, or ("infinite", None)."""
    n = len(comp)
    if n == 1:
        return "A1", 2
    labels = [m for v in comp for _, m in adj[v]]  # each bond twice
    if INFINITE in labels or len(labels) != 2 * (n - 1):
        return "infinite", None  # an ∞ bond, or a diagram that is no tree
    degrees = sorted((len(adj[v]) for v in comp), reverse=True)
    if degrees[0] >= 4 or (degrees[0] == 3 and degrees[1] == 3):
        return "infinite", None
    if degrees[0] <= 2:
        end = next(v for v in comp if len(adj[v]) == 1)
        result = _path_type(_walk(adj, None, end), n)
        return result if result else ("infinite", None)
    # exactly one branch vertex; D/E types are simply laced
    if any(m != 3 for m in labels):
        return "infinite", None
    center = next(v for v in comp if len(adj[v]) == 3)
    arms = [1 + len(_walk(adj, center, start)) for start, _ in adj[center]]
    result = _branch_type(sorted(arms, reverse=True), n)
    return result if result else ("infinite", None)


def is_finite(M: CoxeterMatrix) -> FinitenessVerdict:
    """Decide finiteness via the classification of finite Coxeter groups.

    One scan of the pattern lists the diagram's bonds, m >= 3 or m = ∞
    (m = 2 disconnects); components are walked from their least vertex.
    Any ∞ label, cycle, high-degree vertex, or label pattern outside the
    catalog makes the component (hence the group) infinite.
    """
    n = M.size
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j in range(1, n):
        for i in range(j):
            m = M.order_of(i, j)
            if m != 2:  # ∞ and m >= 3 both bond
                adj[i].append((j, m))
                adj[j].append((i, m))
    seen = [False] * n
    results = []
    finite = True
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # reaches what is appended as it runs
            for w, _ in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        tag, comp_order = _classify_component(adj, comp)
        results.append((tuple(M.vertices[i] for i in comp), tag))
        if comp_order is None:
            finite = False
        else:
            order *= comp_order
    return FinitenessVerdict(finite, tuple(results), order if finite else None)


def _pattern(labels: dict[tuple[int, int], int],
             verts: tuple[int, ...]) -> tuple[int, ...]:
    """The labels of a sorted vertex subset, column by column: m(v0,v1),
    m(v0,v2), m(v1,v2), m(v0,v3), ..., INFINITE where no edge joins them.

    The pattern is the stored form of CoxeterMatrix, and finiteness
    depends on it alone.  Rank 0 and rank 1 share the empty pattern; both
    groups are finite.  The pattern of T + (w,) with w above every vertex
    of T is T's pattern followed by m(t, w) for t in T.
    """
    return tuple(labels.get((verts[i], verts[j]), INFINITE)
                 for j in range(1, len(verts)) for i in range(j))


def _finite(verts: tuple[int, ...], pattern: tuple[int, ...],
            memo: dict[tuple[int, ...], bool]) -> bool:
    """is_finite on the subset verts with this label pattern, decided
    once per pattern."""
    finite = memo.get(pattern)
    if finite is None:
        finite = memo[pattern] = is_finite(CoxeterMatrix(verts, pattern)).finite
    return finite


def is_proper_labeling(
        LK: LabeledComplex) -> tuple[bool, tuple[int, ...] | None]:
    """True when every facet spans a finite special subgroup.

    Checking facets suffices: special subgroups of finite Coxeter groups
    are finite, so failure anywhere implies failure at a facet.  On
    failure the witness is a minimal infinite simplex inside the first
    failing facet.  Facets, and the subsets the witness search tries,
    share one verdict per label pattern.
    """
    labels = LK.label_dict()
    memo: dict[tuple[int, ...], bool] = {}
    for f in LK.complex.facets:
        if not _finite(f, _pattern(labels, f), memo):
            for size in range(2, len(f) + 1):
                for sub in itertools.combinations(f, size):
                    if not _finite(sub, _pattern(labels, sub), memo):
                        return False, sub
            raise AssertionError("failing facet with no failing subset")
    return True, None


def coxeter_nerve(LK: LabeledComplex, max_rank: int | None = None,
                  budget: int = 1_000_000) -> SimplicialComplex:
    """The complex of generator subsets spanning finite subgroups.

    A finite subgroup forces all pairwise labels finite, so candidates are
    exactly the cliques of LK's 1-skeleton; the family is closed under
    subsets, which lets the enumeration extend finite cliques only.  Each
    finite clique carries its candidates, the common neighbours of its
    vertices above its last one, so an extension by w gets its own with
    one intersection (Chiba and Nishizeki's clique listing).  Finiteness
    is decided once per label pattern (_pattern).  `budget` caps the
    number of candidate cliques, whether or not their pattern was seen
    before; past it a BudgetExceeded (with the count) is raised rather
    than silently truncating.
    """
    K = LK.complex
    if K.is_empty():
        return K
    if max_rank is None:
        max_rank = K.num_vertices
    if max_rank < K.dim + 1:
        raise ValueError(f"max_rank {max_rank} below dim+1 = {K.dim + 1}")
    # up[v]: the neighbours above v; below[w]: {t: m(t, w)} for t below w
    up: list[set[int]] = [set() for _ in range(K.num_vertices)]
    below: list[dict[int, int]] = [{} for _ in range(K.num_vertices)]
    for u, v, m in LK.labels:  # exactly the edges, with u < v
        up[u].add(v)
        below[v][u] = m
    memo: dict[tuple[int, ...], bool] = {}
    tested = 0
    finite_sets: list[tuple[int, ...]] = []
    covered: set[tuple[int, ...]] = set()  # sets with a finite extension
    # each finite clique carries its label pattern and its candidates
    level = [((v,), (), up[v]) for v in range(K.num_vertices)]
    finite_sets.extend(T for T, _, _ in level)  # rank-1 groups are Z/2
    while level and len(level[0][0]) < max_rank:
        nxt = []
        for T, pattern, common in level:
            for w in sorted(common):
                cand = T + (w,)
                tested += 1
                if tested > budget:
                    raise BudgetExceeded(tested, budget)
                extended = pattern + tuple(map(below[w].__getitem__, T))
                if _finite(cand, extended, memo):
                    nxt.append((cand, extended, common & up[w]))
                    covered.update(itertools.combinations(cand, len(T)))
        finite_sets.extend(T for T, _, _ in nxt)
        level = nxt
    # the uncovered sets are the maximal ones, so pairwise incomparable,
    # and every vertex is a rank-1 set: a valid complex as it stands
    maximal = [T for T in finite_sets if T not in covered]
    return _complex(K.num_vertices, maximal)


def is_aspherical(LK: LabeledComplex, budget: int = 1_000_000) -> bool:
    """Nerve-equality asphericity criterion.

    Requires a proper labeling (the criterion presumes the input complex
    sits inside the nerve); errors otherwise.  Enumerating one rank above
    the input dimension is exhaustive: the finite-subgroup family is
    subset-closed, so absence at rank dim+2 rules out anything larger.
    """
    proper, witness = is_proper_labeling(LK)
    if not proper:
        raise ValueError(f"labeling is not proper (offending simplex "
                         f"{list(witness)})")
    nerve = coxeter_nerve(LK, max_rank=LK.complex.dim + 2, budget=budget)
    return nerve == LK.complex
