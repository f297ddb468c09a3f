"""Polyhedral homology manifold and generalized homology sphere checks.

A complex is a polyhedral homology m-manifold when the link of every
k-simplex has the reduced integral homology of S^{m-k-1}; it is a
generalized homology (n-1)-sphere when additionally the complex itself has
the homology of S^{n-1}.  Verdicts come with either a clean pass or a full
list of failing (simplex, degree, expected, actual) witnesses.

Check order: purity first (a facet of the wrong dimension already
falsifies everything below it), then global homology, then links by
increasing simplex dimension.  All three ask one question, whether a link
has the reduced homology of a sphere, and go through one comparison: a
facet's link is {∅}, K is the link of the empty simplex.  Every check
runs to the end, so a report lists every failing link.

Each link shape is decided once per check.  `link` renumbers densely in
increasing order, so links with equal facet tuples are equal complexes
with equal homology; the link loop keys its verdicts on (facets, sphere
dimension), and every simplex whose link has a failing shape still gets
its own witnesses.
"""

from __future__ import annotations

from .homology import FGAbelianGroup, TRIVIAL_GROUP, Z, reduced_homology_all
from .simplicial import (EMPTY_SIMPLEX, SimplicialComplex, _Value, link,
                         simplices)


class GhsFailure(_Value):
    _fields = ("simplex", "degree", "expected", "actual")

    def __init__(self, simplex: tuple[int, ...], degree: int,
                 expected: FGAbelianGroup, actual: FGAbelianGroup):
        object.__setattr__(self, "simplex", simplex)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)


class GhsReport(_Value):
    _fields = ("verdict", "dimension", "failures", "links_checked")

    def __init__(self, verdict: bool, dimension: int,
                 failures: tuple[GhsFailure, ...], links_checked: int):
        if verdict != (not failures):
            raise AssertionError
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "links_checked", links_checked)


def _compare(hom: dict[int, FGAbelianGroup], d: int):
    """(degree, expected, actual) wherever hom, a reduced homology by
    degree, differs from that of S^d (Z in degree d >= -1, else nothing).
    Only d and the degrees in hom are compared, in increasing order, and
    degree -1 only when d < 0: for d >= 0, {∅} lacks the Z in degree d."""
    defects = []
    for k in sorted({d, *hom}):
        if k == -1 and d >= 0:
            continue
        expected = Z if k == d and d >= -1 else TRIVIAL_GROUP
        actual = hom.get(k, TRIVIAL_GROUP)
        if actual != expected:
            defects.append((k, expected, actual))
    return defects


def sphere_homology_defects(L: SimplicialComplex, d: int):
    """Degrees where the reduced homology of L differs from that of S^d,
    as (degree, expected, actual) triples; empty means L passes.

    S^-1 is {∅}, with H̃_{-1} = Z; below -1 nothing is asked for.  Only d
    and the degrees -1..dim L are compared, degree -1 only when d < 0.
    """
    return _compare(reduced_homology_all(L), d)


def _purity_failures(K: SimplicialComplex, m: int) -> list[GhsFailure]:
    """A witness for each facet f of dimension other than m.  The link of
    f is {∅}, with H̃_{-1} = Z and nothing else, where S^d for
    d = m - dim f - 1 = m - len(f) is asked for; facets of one size share
    one comparison."""
    sizes = {len(f) for f in K.facets}
    by_size = {n: _compare({-1: Z}, m - n) for n in sizes}
    return [GhsFailure(f, deg, exp, act)
            for f in K.facets for deg, exp, act in by_size[len(f)]]


def _link_defects(K: SimplicialComplex, s: tuple[int, ...], m: int,
                  memo: dict):
    """sphere_homology_defects of the link of s, which must look like
    S^{m - dim s - 1}, looked up in memo by link shape and computed only
    on a miss."""
    L, _ = link(K, s)
    key = (L.facets, m - len(s))
    defects = memo.get(key)
    if defects is None:
        defects = memo[key] = sphere_homology_defects(L, key[1])
    return defects


def _check_links(K: SimplicialComplex, m: int) -> tuple[list[GhsFailure], int]:
    """Link homology of every k-simplex, 0 <= k < m (facet links are
    empty by maximality once purity holds, so k = m is vacuous)."""
    failures: list[GhsFailure] = []
    checked = 0
    memo: dict = {}
    for k in range(0, m):
        for s in simplices(K, k):
            checked += 1
            failures.extend(GhsFailure(s, deg, exp, act)
                            for deg, exp, act in _link_defects(K, s, m, memo))
    return failures, checked


def _report(K: SimplicialComplex, m: int, whole: bool) -> GhsReport:
    """Purity; then, when whole, K itself against S^m (the link of the
    empty simplex); then the links of its simplices."""
    failures = _purity_failures(K, m)
    checked = 0
    if not failures:
        if whole:
            checked += 1
            failures.extend(GhsFailure(EMPTY_SIMPLEX, deg, exp, act)
                            for deg, exp, act in sphere_homology_defects(K, m))
        link_failures, link_checked = _check_links(K, m)
        failures.extend(link_failures)
        checked += link_checked
    return GhsReport(not failures, m, tuple(failures), checked)


def is_polyhedral_homology_manifold(K: SimplicialComplex, m: int) -> GhsReport:
    """Check that every k-simplex link looks homologically like S^{m-k-1}."""
    if m < 0:
        raise ValueError("manifold dimension must be non-negative")
    if K.is_empty():
        raise ValueError("the empty complex is not a candidate manifold")
    return _report(K, m, whole=False)


def is_ghs(K: SimplicialComplex, n: int) -> GhsReport:
    """Generalized homology (n-1)-sphere test.

    The link of the empty simplex is K itself; that clause is the explicit
    global homology check rather than an entry in the link loop.
    """
    if n < 1:
        raise ValueError("resolution dimension must be >= 1")
    if K.is_empty():
        raise ValueError("the empty complex is not a candidate sphere")
    return _report(K, n - 1, whole=True)
