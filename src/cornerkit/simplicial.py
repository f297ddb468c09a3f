"""Finite abstract simplicial complexes, their faces and f-vectors.

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

Every job loads this module, so it holds only what every job runs.  The
constructions live in `constructions` and links in `ghs`, which reads
them from one pass over the facets.  `_bind` imports a module and binds
names from it, and `_forward` builds on it the module `__getattr__`
(PEP 562) through which `cli`, `dualcells`, `homology` and `jsonio` bind
names on first use.

All values are immutable after construction and every operation is a pure
function.  The value classes of every module derive from `_Value`, which
gives them ==, hash and repr over their fields and forbids assignment, as
frozen dataclasses would, without importing `dataclasses` (and with it
`inspect`) into every job.  A complex computes its hash the first time it
is needed and keeps it outside its fields, as `_cached` keeps any table
derived from a value, so equality and repr never see it.  Concurrent
reads stay safe: two threads that both build a table store equal ones.
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


def _containers(faces) -> list[int | None]:
    """For each face (a collection of vertex ids), the least index of
    another face in the list that contains it, or None.

    A repeated face is contained in its copy, and the empty face in any
    other face.  The faces that contain a face are the intersection of the
    faces at each of its vertices, taken smallest set first, so a face
    costs the size of its rarest vertex's star, not the length of the list.
    """
    at: dict[int, set[int]] = {}  # vertex id -> indices of its faces
    for i, f in enumerate(faces):
        for v in f:
            at.setdefault(v, set()).add(i)
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


def build_complex(raw_facets) -> SimplicialComplex:
    """Canonicalize a raw facet list into a SimplicialComplex.

    Deduplicates, sorts, prunes non-maximal faces, and sets num_vertices to
    max id + 1.  Rejects, in this order, an empty facet list, negative ids,
    non-integer ids and vertex-id gaps (an id in range that occurs in no
    facet).  Once the sets are distinct, none lies in another of the same
    size, so a pure input (one facet size) skips the containment test.
    What is left after pruning is valid, so it is not checked again.
    """
    raw = list(raw_facets)
    if not raw:
        raise ValueError("empty facet list")
    # distinct facets in order of first occurrence; pruning keeps the union
    sets = list(dict.fromkeys(map(frozenset, raw)))
    used = set().union(*sets)
    if min(used, default=0) < 0:
        # the first facet with one, as a scan of the facets in turn meets it
        fs = next(fs for fs in sets if min(fs, default=0) < 0)
        raise ValueError(f"negative vertex id in a facet of {len(fs)} "
                         f"vertices, first {sorted(fs)[:5]}")
    top = max(map(len, sets))
    if min(map(len, sets)) < top:
        sets = [f for f, j in zip(sets, _containers(sets)) if j is None]
    maximal = list(map(tuple, map(sorted, sets)))
    if not all(map(isinstance, used, itertools.repeat(int))):
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
    return tuple(sorted(set(itertools.chain.from_iterable(map(
        itertools.combinations, K.facets, itertools.repeat(k + 1))))))


def f_vector(K: SimplicialComplex) -> tuple[int, ...]:
    """(f0, ..., f_dim); the empty complex has the empty f-vector."""
    if K.is_empty():
        return ()
    return tuple(len(simplices(K, k)) for k in range(K.dim + 1))


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


# --- names bound on first use ----------------------------------------------

def _bind(namespace: dict, module: str, names) -> None:
    """Import the package's `module` and bind each of `names` from it in
    `namespace`, a module's globals, where it is not bound yet: a name
    bound already, such as a wrapper installed beforehand, stays."""
    # __import__ returns the package; unlike importlib.import_module it
    # goes through the import statement's path, which -X importtime reports
    source = getattr(__import__(f"{__package__}.{module}"), module)
    for name in names:
        namespace.setdefault(name, getattr(source, name))


def _forward(namespace: dict, table: dict):
    """A module `__getattr__` (PEP 562) for the globals `namespace`: the
    first access to a name that `table` (module -> names) lists imports
    that module and binds its names there."""
    def __getattr__(name: str):
        for module, names in table.items():
            if name in names:
                _bind(namespace, module, names)
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no "
                             f"attribute {name!r}")
    return __getattr__
