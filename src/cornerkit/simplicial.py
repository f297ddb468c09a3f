"""Finite abstract simplicial complexes and the constructions built on them.

A complex is stored as its list of facets (maximal simplices) over a dense
0-based vertex range; all other faces are enumerated on demand.  Vertices
inside a simplex are kept strictly increasing, which fixes the orientation
conventions used by the homology and dual-cell machinery.  The empty simplex
is a first-class value: it is the unique face of dimension -1, the link of a
facet is the complex ``{empty}`` on zero vertices, and joining with that
complex is the identity.

All values are immutable after construction and every operation is a pure
function, so concurrent reads are safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Simplex:
    """A face: strictly increasing tuple of non-negative vertex ids."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        for v in vs:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise ValueError(f"vertices must be strictly increasing, got {vs}")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    def is_face_of(self, other: "Simplex") -> bool:
        return set(self.vertices) <= set(other.vertices)

    def without(self, v: int) -> "Simplex":
        return Simplex(tuple(u for u in self.vertices if u != v))

    def union(self, other: "Simplex") -> "Simplex":
        return Simplex(tuple(sorted(set(self.vertices) | set(other.vertices))))

    def __repr__(self):
        return f"Simplex({list(self.vertices)})"


EMPTY_SIMPLEX = Simplex(())


def simplex(vertices) -> Simplex:
    """Build a Simplex from any iterable of distinct vertex ids."""
    vs = sorted(vertices)
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated vertex in {vertices!r}")
    return Simplex(tuple(vs))


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list over vertices 0..num_vertices-1.

    Invariants: no facet contains another, every id is < num_vertices, and
    every id in range occurs in some facet.  The empty complex (only face
    the empty simplex) has num_vertices 0 and facet list ``(EMPTY_SIMPLEX,)``.
    """

    num_vertices: int
    facets: tuple[Simplex, ...]

    def __post_init__(self):
        facets = tuple(sorted(self.facets, key=lambda s: s.vertices))
        object.__setattr__(self, "facets", facets)
        if not facets:
            raise ValueError("facet list may not be empty; use the empty complex {∅}")
        seen: set[int] = set()
        for f in facets:
            seen.update(f.vertices)
        if seen:
            if max(seen) >= self.num_vertices:
                raise ValueError("facet vertex id exceeds num_vertices")
            missing = sorted(set(range(self.num_vertices)) - seen)
            if missing:
                raise ValueError(f"{len(missing)} vertex ids appear in no "
                                 f"facet, first {missing[:5]}")
        elif self.num_vertices != 0:
            raise ValueError("complex with no facet vertices must have num_vertices 0")
        facet_sets = [set(f.vertices) for f in facets]
        for i, fi in enumerate(facet_sets):
            for j, fj in enumerate(facet_sets):
                if i != j and fi <= fj:
                    raise ValueError(f"facet {facets[i]} is contained in {facets[j]}")

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.facets)

    def is_empty(self) -> bool:
        return self.num_vertices == 0

    def __contains__(self, s: Simplex) -> bool:
        sv = set(s.vertices)
        return any(sv <= set(f.vertices) for f in self.facets)

    def __repr__(self):
        return (f"SimplicialComplex(num_vertices={self.num_vertices}, "
                f"facets={[list(f.vertices) for f in self.facets]})")


EMPTY_COMPLEX = SimplicialComplex(0, (EMPTY_SIMPLEX,))


@dataclass(frozen=True)
class LabeledComplex:
    """A complex together with one integer label m >= 2 on every edge."""

    complex: SimplicialComplex
    labels: tuple[tuple[int, int, int], ...]  # (u, v, m) with u < v, sorted

    def __post_init__(self):
        canon = tuple(sorted((min(u, v), max(u, v), m) for u, v, m in self.labels))
        object.__setattr__(self, "labels", canon)
        edge_set = {e.vertices for e in simplices(self.complex, 1)}
        seen: set[tuple[int, int]] = set()
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
        missing = edge_set - seen
        if missing:
            raise ValueError(f"edges {sorted(missing)} carry no label")
        object.__setattr__(self, "_label_map",
                           {(u, v): m for u, v, m in canon})

    def label_of(self, u: int, v: int) -> int | None:
        """Label of edge {u,v}, or None when {u,v} is not an edge."""
        return self._label_map.get((min(u, v), max(u, v)))

    def label_dict(self) -> dict[tuple[int, int], int]:
        """The edge -> label mapping; treat as read-only."""
        return self._label_map

    def __repr__(self):
        return f"LabeledComplex({self.complex!r}, labels={list(self.labels)})"


def label_all(K: SimplicialComplex, m: int) -> LabeledComplex:
    """Label every edge of K with the same integer m."""
    return LabeledComplex(K, tuple((e.vertices[0], e.vertices[1], m)
                                   for e in simplices(K, 1)))


def build_complex(raw_facets) -> SimplicialComplex:
    """Canonicalize a raw facet list into a SimplicialComplex.

    Deduplicates, sorts, prunes non-maximal faces, and sets num_vertices to
    max id + 1.  Rejects negative ids, an empty facet list, and vertex-id
    gaps (an id in range that occurs in no facet).
    """
    raw = list(raw_facets)
    if not raw:
        raise ValueError("empty facet list")
    sets = []
    for f in raw:
        fs = frozenset(f)
        if any(v < 0 for v in fs):
            raise ValueError(f"negative vertex id in facet {sorted(f)}")
        sets.append(fs)
    sets = list(set(sets))
    maximal = [f for f in sets
               if not any(f < g for g in sets)]
    simplexes = tuple(simplex(f) for f in maximal)
    used = set().union(*maximal) if maximal else set()
    n = max(used) + 1 if used else 0
    return SimplicialComplex(n, simplexes)


@lru_cache(maxsize=4096)
def simplices(K: SimplicialComplex, k: int) -> tuple[Simplex, ...]:
    """All k-simplices of K in lexicographic order; k = -1 gives (∅,)."""
    if k < -1:
        raise ValueError(f"dimension must be >= -1, got {k}")
    if k == -1:
        return (EMPTY_SIMPLEX,)
    found: set[tuple[int, ...]] = set()
    for f in K.facets:
        if f.dim >= k:
            found.update(itertools.combinations(f.vertices, k + 1))
    return tuple(Simplex(t) for t in sorted(found))


def all_simplices(K: SimplicialComplex) -> tuple[Simplex, ...]:
    """Every nonempty simplex of K, ordered by (dimension, lex)."""
    out: list[Simplex] = []
    for k in range(K.dim + 1):
        out.extend(simplices(K, k))
    return tuple(out)


def f_vector(K: SimplicialComplex) -> tuple[int, ...]:
    """(f0, ..., f_dim); the empty complex has the empty f-vector."""
    if K.is_empty():
        return ()
    return tuple(len(simplices(K, k)) for k in range(K.dim + 1))


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** k * fk for k, fk in enumerate(f_vector(K)))


def link(K: SimplicialComplex, s: Simplex) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Link of s in K, densely renumbered.

    Returns (L, vertex_map) where vertex_map[i] is the original id of L's
    vertex i.  The link of the empty simplex is K itself (identity map);
    the link of a facet is the empty complex.
    """
    if s not in K:
        raise ValueError(f"{s!r} is not a simplex of the complex")
    if s is EMPTY_SIMPLEX or len(s) == 0:
        return K, tuple(range(K.num_vertices))
    sv = set(s.vertices)
    residues = [frozenset(f.vertices) - sv for f in K.facets if sv <= set(f.vertices)]
    old_ids = sorted(set().union(*residues)) if residues else []
    renum = {old: new for new, old in enumerate(old_ids)}
    facets = tuple(simplex(renum[v] for v in r) for r in residues)
    return SimplicialComplex(len(old_ids), facets), tuple(old_ids)


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Join K * L; L's vertices are shifted up by K.num_vertices."""
    shift = K.num_vertices
    facets = tuple(
        Simplex(f.vertices + tuple(v + shift for v in g.vertices))
        for f in K.facets for g in L.facets
    )
    return SimplicialComplex(K.num_vertices + L.num_vertices, facets)


def point_complex(count: int = 1) -> SimplicialComplex:
    """count isolated vertices; count=2 is S⁰."""
    if count < 1:
        raise ValueError("need at least one point")
    return SimplicialComplex(count, tuple(Simplex((v,)) for v in range(count)))


def cone(K: SimplicialComplex) -> SimplicialComplex:
    """Cone on K; the apex is the new last vertex."""
    return join(K, point_complex(1))


def suspension(K: SimplicialComplex) -> SimplicialComplex:
    """Suspension of K; the two apexes are the new last vertices."""
    return join(K, point_complex(2))


def boundary_simplex(n: int) -> SimplicialComplex:
    """∂Δⁿ: all proper faces of the n-simplex (an (n-1)-sphere)."""
    if n < 1:
        raise ValueError("boundary of a simplex needs n >= 1")
    verts = range(n + 1)
    return SimplicialComplex(
        n + 1, tuple(simplex(c) for c in itertools.combinations(verts, n)))


def barycentric(K: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: vertices are the nonempty faces of K,
    facets are the maximal chains under inclusion.

    Vertex i of the output is all_simplices(K)[i] (dimension-then-lex
    order).  The result is always a flag complex.
    """
    if K.is_empty():
        return K
    faces = all_simplices(K)
    index = {f.vertices: i for i, f in enumerate(faces)}
    facets = []
    for f in K.facets:
        if f.dim == 0:
            facets.append(Simplex((index[f.vertices],)))
            continue
        for order in itertools.permutations(f.vertices):
            chain = [index[tuple(sorted(order[:j + 1]))] for j in range(len(order))]
            facets.append(simplex(chain))
    return SimplicialComplex(len(faces), tuple(facets))


def barycentric_all_two(K: SimplicialComplex) -> LabeledComplex:
    """Barycentric subdivision with every edge labeled 2."""
    return label_all(barycentric(K), 2)


def complexes_equal_as_sets(A: SimplicialComplex, B: SimplicialComplex) -> bool:
    """True when A and B have literally the same simplex set."""
    return (A.num_vertices == B.num_vertices
            and {f.vertices for f in A.facets} == {f.vertices for f in B.facets})
