import random

import pytest

from cornerkit.ghs import (is_ghs, is_polyhedral_homology_manifold,
                           sphere_homology_defects)
from cornerkit.simplicial import (EMPTY_COMPLEX, barycentric,
                                  boundary_simplex, build_complex, join,
                                  point_complex, suspension)


def test_boundary_simplices_are_ghs():
    for n in range(2, 6):
        report = is_ghs(boundary_simplex(n), n)
        assert report.verdict
        assert report.failures == ()


def test_solid_triangle_is_not_a_manifold():
    report = is_ghs(build_complex([[0, 1, 2]]), 3)
    assert not report.verdict
    degrees = {f.degree for f in report.failures}
    assert 2 in degrees  # missing top homology of S^2


def test_disjoint_cycles_fail_global_homology():
    two = build_complex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    report = is_ghs(two, 2)
    assert not report.verdict
    empty_failures = [f for f in report.failures if f.simplex.dim == -1]
    assert empty_failures  # the complex itself, i.e. the empty-simplex link
    # but it is a perfectly good homology 1-manifold
    assert is_polyhedral_homology_manifold(two, 1).verdict


def test_impure_complex_fails_purity():
    K = build_complex([[0, 1, 2], [2, 3]])
    report = is_polyhedral_homology_manifold(K, 2)
    assert not report.verdict
    assert any(f.simplex.vertices == (2, 3) for f in report.failures)


def test_facet_deletion_breaks_sphere():
    B4 = boundary_simplex(4)
    facets = [list(f.vertices) for f in B4.facets]
    for skip in range(len(facets)):
        K = build_complex(facets[:skip] + facets[skip + 1:])
        assert not is_ghs(K, 4).verdict


def test_joins_of_spheres_are_spheres():
    pairs = [(boundary_simplex(1), 1, boundary_simplex(2), 2),
             (boundary_simplex(2), 2, boundary_simplex(2), 2),
             (boundary_simplex(1), 1, boundary_simplex(4), 4)]
    for K, n, L, m in pairs:
        assert is_ghs(K, n).verdict and is_ghs(L, m).verdict
        assert is_ghs(join(K, L), n + m).verdict


def test_ghs_invariant_under_barycentric_subdivision():
    for K, n in [(boundary_simplex(2), 2), (boundary_simplex(3), 3)]:
        assert is_ghs(K, n).verdict
        assert is_ghs(barycentric(K), n).verdict
    # and a non-sphere stays a non-sphere
    disk = build_complex([[0, 1, 2]])
    assert not is_ghs(barycentric(disk), 3).verdict


def test_s0_is_ghs_1():
    assert is_ghs(point_complex(2), 1).verdict
    assert not is_ghs(point_complex(3), 1).verdict


def test_poincare_sphere_and_suspension(poincare16):
    assert is_ghs(poincare16, 4).verdict
    susp = suspension(poincare16)
    report = is_ghs(susp, 5)
    assert report.verdict
    # the apex links are the Poincaré sphere itself: homology S^3 despite
    # the nontrivial fundamental group, which this test cannot (and must
    # not try to) see
    assert report.links_checked > 900


def test_sphere_defect_helper():
    assert sphere_homology_defects(EMPTY_COMPLEX, -1) == []
    assert sphere_homology_defects(boundary_simplex(2), 1) == []
    assert sphere_homology_defects(boundary_simplex(2), 2) != []
    assert sphere_homology_defects(EMPTY_COMPLEX, 0) != []


def test_bad_arguments():
    with pytest.raises(ValueError):
        is_ghs(boundary_simplex(2), 0)
    with pytest.raises(ValueError):
        is_polyhedral_homology_manifold(boundary_simplex(2), -1)
    with pytest.raises(ValueError):
        is_ghs(EMPTY_COMPLEX, 1)


def test_fail_fast_stops_at_the_first_failing_link(rp2_6):
    bowtie = build_complex([[0, 1, 2], [0, 3, 4]])
    full = is_polyhedral_homology_manifold(bowtie, 2)
    fast = is_polyhedral_homology_manifold(bowtie, 2, fail_fast=True)
    assert not fast.verdict and fast.links_checked == 1
    assert {f.simplex for f in fast.failures} == {full.failures[0].simplex}
    assert set(fast.failures) <= set(full.failures)
    assert full.links_checked == 11
    # a failing global check ends the sphere test before any link
    assert is_ghs(rp2_6, 3, fail_fast=True).links_checked == 1


def test_seven_vertex_torus_is_manifold_but_not_sphere():
    # Császár torus: complete 1-skeleton on 7 vertices, 14 triangles
    facets = [sorted({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)] + \
             [sorted({i % 7, (i + 2) % 7, (i + 3) % 7}) for i in range(7)]
    K = build_complex(facets)
    from cornerkit.simplicial import f_vector
    from cornerkit.homology import FGAbelianGroup, reduced_homology_all
    assert f_vector(K) == (7, 21, 14)
    assert is_polyhedral_homology_manifold(K, 2).verdict
    report = is_ghs(K, 3)
    assert not report.verdict
    hom = reduced_homology_all(K)
    assert hom[1] == FGAbelianGroup(2, ()) and hom[2].free_rank == 1


def test_rp2_is_manifold_but_not_sphere(rp2_6):
    assert is_polyhedral_homology_manifold(rp2_6, 2).verdict
    report = is_ghs(rp2_6, 3)
    assert not report.verdict
    bad = [f for f in report.failures if f.degree == 1]
    assert bad and bad[0].actual.torsion == (2,)
