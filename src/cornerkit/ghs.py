"""Polyhedral homology manifold and generalized homology sphere checks.

A complex is a polyhedral homology m-manifold when the link of every
k-simplex has the reduced integral homology of S^{m-k-1}; it is a
generalized homology (n-1)-sphere when additionally the complex itself has
the homology of S^{n-1}.  Verdicts come with either a clean pass or a full
list of failing (simplex, degree, expected, actual) witnesses.

Check order: purity first (a facet of the wrong dimension already
falsifies everything below it), then global homology, then links by
increasing simplex dimension.  Full enumeration is the default so reports
are complete; fail_fast trades completeness for speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .homology import FGAbelianGroup, TRIVIAL_GROUP, Z, reduced_homology_all
from .simplicial import EMPTY_SIMPLEX, Simplex, SimplicialComplex, link, simplices


@dataclass(frozen=True)
class GhsFailure:
    simplex: Simplex
    degree: int
    expected: FGAbelianGroup
    actual: FGAbelianGroup


@dataclass(frozen=True)
class GhsReport:
    verdict: bool
    dimension: int
    failures: tuple[GhsFailure, ...]
    links_checked: int
    wall_time: float

    def __post_init__(self):
        assert self.verdict == (not self.failures)


def sphere_homology_defects(L: SimplicialComplex, d: int):
    """Degrees where the reduced homology of L differs from that of S^d.

    d = -1 means L must be the empty complex.  Returns a list of
    (degree, expected, actual) triples; empty means L passes.
    """
    defects = []
    hom = reduced_homology_all(L)
    if d == -1:
        if not L.is_empty():
            for k in range(0, L.dim + 1):
                g = hom.get(k, TRIVIAL_GROUP)
                if not g.is_trivial():
                    defects.append((k, TRIVIAL_GROUP, g))
            if not defects:
                # right homology in degrees >= 0 but nonempty: the
                # H̃_{-1} = Z requirement is what fails
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


def _purity_failures(K: SimplicialComplex, m: int) -> list[GhsFailure]:
    out = []
    for f in K.facets:
        if f.dim != m:
            d = m - f.dim - 1
            out.append(GhsFailure(f, d, Z if d >= 0 else TRIVIAL_GROUP,
                                  TRIVIAL_GROUP))
    return out


def _link_defects(K: SimplicialComplex, s: Simplex, m: int):
    L, _ = link(K, s)
    return sphere_homology_defects(L, m - s.dim - 1)


def _check_links(K: SimplicialComplex, m: int,
                 fail_fast: bool) -> tuple[list[GhsFailure], int]:
    """Link homology of every k-simplex, 0 <= k < m (facet links are
    empty by maximality once purity holds, so k = m is vacuous)."""
    failures: list[GhsFailure] = []
    checked = 0
    for k in range(0, m):
        for s in simplices(K, k):
            checked += 1
            failures.extend(GhsFailure(s, deg, exp, act)
                            for deg, exp, act in _link_defects(K, s, m))
            if failures and fail_fast:
                return failures, checked
    return failures, checked


def is_polyhedral_homology_manifold(K: SimplicialComplex, m: int,
                                    fail_fast: bool = False) -> GhsReport:
    """Check that every k-simplex link looks homologically like S^{m-k-1}."""
    if m < 0:
        raise ValueError("manifold dimension must be non-negative")
    if K.is_empty():
        raise ValueError("the empty complex is not a candidate manifold")
    start = time.monotonic()
    failures = _purity_failures(K, m)
    checked = 0
    if not failures:
        failures, checked = _check_links(K, m, fail_fast)
    return GhsReport(not failures, m, tuple(failures), checked,
                     time.monotonic() - start)


def is_ghs(K: SimplicialComplex, n: int,
           fail_fast: bool = False) -> GhsReport:
    """Generalized homology (n-1)-sphere test.

    The link of the empty simplex is K itself; that clause is the explicit
    global homology check rather than an entry in the link loop.
    """
    if n < 1:
        raise ValueError("resolution dimension must be >= 1")
    if K.is_empty():
        raise ValueError("the empty complex is not a candidate sphere")
    start = time.monotonic()
    m = n - 1
    failures = _purity_failures(K, m)
    checked = 0
    if not failures:
        checked += 1
        failures.extend(GhsFailure(EMPTY_SIMPLEX, deg, exp, act)
                        for deg, exp, act in sphere_homology_defects(K, m))
        if not (failures and fail_fast):
            link_failures, link_checked = _check_links(K, m, fail_fast)
            failures.extend(link_failures)
            checked += link_checked
    return GhsReport(not failures, m, tuple(failures), checked,
                     time.monotonic() - start)
