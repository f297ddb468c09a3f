"""Constructions on complexes: joins, cones, suspensions, boundaries of
simplices and barycentric subdivisions.

Every result here is valid by construction, so each goes through the
unchecked `simplicial._complex`.  Only `construct` runs these, and only
its jobs load this module.  Faces are looked up as
`simplicial.simplices` at call time, where bench/spans.py wraps it.
"""

from __future__ import annotations

import itertools

from . import simplicial
from .simplicial import LabeledComplex, SimplicialComplex, _complex


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


def all_simplices(K: SimplicialComplex) -> tuple[tuple[int, ...], ...]:
    """Every nonempty face of K, ordered by (dimension, lex)."""
    out: list[tuple[int, ...]] = []
    for k in range(K.dim + 1):
        out.extend(simplicial.simplices(K, k))
    return tuple(out)


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


def label_all(K: SimplicialComplex, m: int) -> LabeledComplex:
    """Label every edge of K with the same integer m."""
    return LabeledComplex(K, tuple((u, v, m)
                                   for u, v in simplicial.simplices(K, 1)))


def barycentric_all_two(K: SimplicialComplex) -> LabeledComplex:
    """Barycentric subdivision with every edge labeled 2."""
    return label_all(barycentric(K), 2)
