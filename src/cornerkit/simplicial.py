"""Finite abstract simplicial complexes and the constructions built on them.

A face is a plain tuple of vertex ids, strictly increasing: the sorted
vertex word a simplex tree stores.  That order fixes the orientation
conventions used by the homology and dual-cell machinery, and a face of
dimension k has k + 1 ids.  A complex is stored as its tuple of facets
(maximal faces) over a dense 0-based vertex range; all other faces are
enumerated on demand.  The empty face ``()`` is a first-class value: it is
the unique face of dimension -1, the link of a facet is the complex
``{()}`` on zero vertices, and joining with that complex is the identity.

Outside input is checked once: `simplex`, `build_complex` and the public
`SimplicialComplex` constructor validate every id and facet.  Constructions
whose results are valid by construction (links, joins, subdivisions, the
Coxeter nerve and `build_complex` after pruning) are trusted and go through
the unchecked `_complex`.  Every complex holds its facets sorted, so `==`
compares complexes as sets of faces.

All values are immutable after construction and every operation is a pure
function.  The value classes of every module derive from `_Value`, which
gives them ==, hash and repr over their fields and forbids assignment, as
frozen dataclasses would, without importing `dataclasses` (and with it
`inspect`) into every job.  A complex computes its hash and derived
tables, such as its vertex-to-facet star index, the first time they are
needed and keeps them outside its fields, so equality and repr never see
them.  Concurrent reads stay safe: two threads that both build a table
store equal ones.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter


class _Value:
    """Base of the immutable value classes.

    A subclass names its fields, in order, in `_fields`, and its __init__
    sets them with object.__setattr__; afterwards no attribute can be set
    or deleted.  ==, hash and the default repr read the fields only: ==
    holds between instances of the same class with equal fields (any other
    operand gets NotImplemented), the hash is that of the tuple of fields,
    and the repr reads ``Name(field=value, ...)``.  Tables that `_cached`
    keeps on an instance are not fields, so none of the three sees them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the tuple of field values, for two fields or more
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


EMPTY_SIMPLEX = ()


def _check_face(vs: tuple) -> None:
    """Reject a face whose ids are not non-negative integers or not
    strictly increasing."""
    for v in vs:
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex ids must be non-negative integers, "
                             f"got {v!r}")
    if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
        raise ValueError(f"vertices must be strictly increasing, got {vs}")


def simplex(vertices) -> tuple[int, ...]:
    """The face on any iterable of distinct vertex ids: their sorted
    tuple, checked."""
    vs = tuple(sorted(vertices))
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated vertex in {vertices!r}")
    _check_face(vs)
    return vs


class SimplicialComplex(_Value):
    """Facet list over vertices 0..num_vertices-1.

    Invariants: no facet contains another, every id is < num_vertices, and
    every id in range occurs in some facet.  The empty complex (only face
    the empty one) has num_vertices 0 and facet tuple ``((),)``.  The
    constructor checks each facet as `simplex` does, a strictly increasing
    tuple of non-negative integer ids, before the invariants.
    """

    _fields = ("num_vertices", "facets")

    def __init__(self, num_vertices: int, facets: tuple[tuple[int, ...], ...]):
        facets = tuple(map(tuple, facets))
        for f in facets:
            _check_face(f)
        facets = tuple(sorted(facets))
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "facets", facets)
        if not facets:
            raise ValueError("facet list may not be empty; use the empty complex {∅}")
        seen: set[int] = set()
        for f in facets:
            seen.update(f)
        if seen:
            if max(seen) >= num_vertices:
                raise ValueError("facet vertex id exceeds num_vertices")
            _check_no_gaps(seen, num_vertices)
        elif num_vertices != 0:
            raise ValueError("complex with no facet vertices must have num_vertices 0")
        for i, j in enumerate(_containers(facets)):
            if j is not None:
                raise ValueError(f"facet {facets[i]} is contained in {facets[j]}")

    @property
    def dim(self) -> int:
        return max(map(len, self.facets)) - 1

    def is_empty(self) -> bool:
        return self.num_vertices == 0

    def __contains__(self, s: tuple[int, ...]) -> bool:
        return not s or bool(_containing_facets(self, s))

    def __hash__(self):
        return _cached(self, "_hash", lambda K: hash((K.num_vertices, K.facets)))

    def __repr__(self):
        return (f"SimplicialComplex(num_vertices={self.num_vertices}, "
                f"facets={[list(f) for f in self.facets]})")


def _check_no_gaps(used: set[int], num_vertices: int) -> None:
    """Reject ids in 0..num_vertices-1 that are not in used, a set of ids
    all below num_vertices."""
    missing = num_vertices - len(used)
    if missing:
        # the first five gaps lie below len(used) + 5, so the scan stays
        # short however large the ids are
        first = list(itertools.islice(
            (v for v in range(num_vertices) if v not in used), 5))
        raise ValueError(f"{missing} vertex ids appear in no facet, "
                         f"first {first}")


def _cached(obj, name: str, build):
    """The table `name` of obj: build(obj) on first use, then kept on obj
    as a plain attribute outside its fields, so its ==, hash and repr do
    not see it.  Meant for tables (and the hash) that depend on obj's value
    only."""
    table = getattr(obj, name, None)
    if table is None:
        table = build(obj)
        object.__setattr__(obj, name, table)
    return table


def _stars(faces) -> dict[int, set[int]]:
    """{v: indices of the faces (collections of vertex ids) that hold v}."""
    at: dict[int, set[int]] = {}
    for i, f in enumerate(faces):
        for v in f:
            at.setdefault(v, set()).add(i)
    return at


def _star_index(K: SimplicialComplex) -> dict[int, set[int]]:
    return _stars(K.facets)


def _containing_facets(K: SimplicialComplex, vertices) -> set[int]:
    """Indices of the facets of K that contain every one of the (at least
    one) given vertex ids: the intersection of their stars, smallest
    first.  Empty when the ids span no face, an id out of range included."""
    at = _cached(K, "_star_index", _star_index)
    try:
        stars = sorted((at[v] for v in vertices), key=len)
    except KeyError:
        return set()
    return stars[0].intersection(*stars[1:])


def _containers(faces) -> list[int | None]:
    """For each face (a collection of vertex ids), the least index of
    another face in the list that contains it, or None.

    A repeated face is contained in its copy, and the empty face in any
    other face.  The faces that contain a face are the intersection of the
    faces at each of its vertices, taken smallest set first, so a face
    costs the size of its rarest vertex's star, not the length of the list.
    """
    at = _stars(faces)
    out: list[int | None] = []
    for i, f in enumerate(faces):
        if not f:  # contained in every other face; the least of them is 0 or 1
            out.append(None if len(faces) == 1 else int(i == 0))
            continue
        stars = sorted((at[v] for v in f), key=len)
        others = stars[0].intersection(*stars[1:]) - {i}
        out.append(min(others) if others else None)
    return out


EMPTY_COMPLEX = SimplicialComplex(0, ((),))


class LabeledComplex(_Value):
    """A complex together with one integer label m >= 2 on every edge.

    The labels are checked in one pass: sorted with each pair as (u, v),
    u < v, they must run along simplices(complex, 1) edge for edge, each
    with m >= 2.  Only when they do not does the per-label loop run, to
    name the first fault.
    """

    _fields = ("complex", "labels")

    def __init__(self, complex: SimplicialComplex,
                 labels: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "complex", complex)
        # (u, v, m) with u < v, sorted, once __post_init__ has run
        object.__setattr__(self, "labels", labels)
        self.__post_init__()

    def __post_init__(self):
        """Canonicalize and check the labels.  A method of its own, looked
        up on every construction, so bench/spans.py can time it."""
        canon = tuple(sorted((min(u, v), max(u, v), m) for u, v, m in self.labels))
        object.__setattr__(self, "labels", canon)
        edges = simplices(self.complex, 1)
        # a label on the next edge passes every check of the loop below,
        # and m is compared as there (m < 2)
        if not (len(canon) == len(edges)
                and all((u, v) == e and not m < 2
                        for (u, v, m), e in zip(canon, edges))):
            # label by label, to name the first fault
            edge_set = set(edges)
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
                    raise ValueError(f"label on edge ({u},{v}) must be "
                                     f">= 2, got {m}")
            missing = sorted(edge_set - seen)
            if missing:
                raise ValueError(f"{len(missing)} edges carry no label, "
                                 f"first {missing[:5]}")
        object.__setattr__(self, "_label_map",
                           {(u, v): m for u, v, m in canon})

    def label_dict(self) -> dict[tuple[int, int], int]:
        """The edge -> label mapping; treat as read-only."""
        return self._label_map

    def __repr__(self):
        return f"LabeledComplex({self.complex!r}, labels={list(self.labels)})"


def label_all(K: SimplicialComplex, m: int) -> LabeledComplex:
    """Label every edge of K with the same integer m."""
    return LabeledComplex(K, tuple((u, v, m) for u, v in simplices(K, 1)))


def build_complex(raw_facets) -> SimplicialComplex:
    """Canonicalize a raw facet list into a SimplicialComplex.

    Deduplicates, sorts, prunes non-maximal faces, and sets num_vertices to
    max id + 1.  Rejects, in this order, an empty facet list, negative ids,
    non-integer ids and vertex-id gaps (an id in range that occurs in no
    facet).  Once the sets are distinct, none lies in another of the same
    size, so a pure input (one facet size) skips the containment test and
    builds no star index.  What is left after pruning is valid, so it is
    not checked again.
    """
    raw = list(raw_facets)
    if not raw:
        raise ValueError("empty facet list")
    sets = []
    for f in raw:
        fs = frozenset(f)
        if any(v < 0 for v in fs):
            raise ValueError(f"negative vertex id in a facet of {len(fs)} "
                             f"vertices, first {sorted(fs)[:5]}")
        sets.append(fs)
    sets = list(set(sets))
    top = max(map(len, sets))
    if any(len(f) < top for f in sets):
        sets = [f for f, j in zip(sets, _containers(sets)) if j is None]
    maximal = [tuple(sorted(f)) for f in sets]
    used = set().union(*maximal)
    if not all(isinstance(v, int) for v in used):
        # the first one a scan of the facets in turn meets
        v = next(v for f in maximal for v in f if not isinstance(v, int))
        raise ValueError(f"vertex ids must be non-negative integers, "
                         f"got {v!r}")
    n = max(used) + 1 if used else 0
    _check_no_gaps(used, n)
    return _complex(n, maximal)


@lru_cache(maxsize=4096)
def simplices(K: SimplicialComplex, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-faces of K in lexicographic order; k = -1 gives ((),).

    A face of top dimension is a facet, so k = K.dim gives those facets,
    which K holds sorted already; every id in range is a vertex."""
    if k < -1:
        raise ValueError(f"dimension must be >= -1, got {k}")
    if k == -1:
        return (EMPTY_SIMPLEX,)
    if k == 0:
        return tuple((v,) for v in range(K.num_vertices))
    if k == K.dim:
        return tuple(f for f in K.facets if len(f) == k + 1)
    found: set[tuple[int, ...]] = set()
    for f in K.facets:
        if len(f) > k:
            found.update(itertools.combinations(f, k + 1))
    return tuple(sorted(found))


def all_simplices(K: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Every nonempty face of K, ordered by (dimension, lex)."""
    out: list[tuple[int, ...]] = []
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


def _complex(num_vertices: int, facets) -> SimplicialComplex:
    """The complex with the given facets, without the constructor's checks.

    For results that are valid by construction only: the facets are
    strictly increasing tuples of vertex ids, pairwise incomparable (so
    also distinct), and together they cover exactly 0..num_vertices-1.
    """
    K = object.__new__(SimplicialComplex)
    object.__setattr__(K, "num_vertices", num_vertices)
    object.__setattr__(K, "facets", tuple(sorted(facets)))
    return K


def link(K: SimplicialComplex,
         s: tuple[int, ...]) -> tuple[SimplicialComplex, tuple[int, ...]]:
    """Link of s in K, densely renumbered.

    Returns (L, vertex_map) where vertex_map[i] is the original id of L's
    vertex i.  The link of the empty simplex is K itself (identity map);
    the link of a facet is the empty complex.

    The facets that contain s come from K's star index.  Their residues
    need no checks: distinct facets that contain s leave distinct
    residues, none inside another, and the renumbering leaves no gap.
    """
    if not s:
        return K, tuple(range(K.num_vertices))
    containing = _containing_facets(K, s)
    if not containing:
        raise ValueError(f"{s!r} is not a simplex of the complex")
    star = [K.facets[i] for i in containing]
    old_ids = sorted(set().union(*star).difference(s))
    renum = dict(zip(old_ids, range(len(old_ids))))
    facets = [tuple([renum[v] for v in f if v in renum]) for f in star]
    return _complex(len(old_ids), facets), tuple(old_ids)


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Join K * L; L's vertices are shifted up by K.num_vertices.

    f ∪ g lies in f' ∪ g' only when f lies in f' and g in g', so facets of
    the factors give incomparable facets of the join."""
    shift = K.num_vertices
    facets = [f + tuple(v + shift for v in g)
              for f in K.facets for g in L.facets]
    return _complex(K.num_vertices + L.num_vertices, facets)


def point_complex(count: int = 1) -> SimplicialComplex:
    """count isolated vertices; count=2 is S⁰."""
    if count < 1:
        raise ValueError("need at least one point")
    return _complex(count, [(v,) for v in range(count)])


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
    return _complex(n + 1, itertools.combinations(range(n + 1), n))


def barycentric(K: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: vertices are the nonempty faces of K,
    facets are the maximal chains under inclusion.

    Vertex i of the output is all_simplices(K)[i] (dimension-then-lex
    order), so a chain's ids increase along it.  The full flags of distinct
    facets are distinct and none contains another.  The result is always a
    flag complex.
    """
    faces = all_simplices(K)
    index = {f: i for i, f in enumerate(faces)}
    facets = []
    for f in K.facets:
        for order in itertools.permutations(f):
            facets.append(tuple(index[tuple(sorted(order[:j + 1]))]
                                for j in range(len(order))))
    return _complex(len(faces), facets)


def barycentric_all_two(K: SimplicialComplex) -> LabeledComplex:
    """Barycentric subdivision with every edge labeled 2."""
    return label_all(barycentric(K), 2)
