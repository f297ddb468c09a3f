import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cornerkit import ghs
from cornerkit.constructions import (barycentric, boundary_simplex, join,
                                     point_complex, suspension)
from cornerkit.ghs import (is_ghs, is_polyhedral_homology_manifold,
                           sphere_homology_defects)
from cornerkit.homology import TRIVIAL_GROUP, Z
from cornerkit.simplicial import EMPTY_COMPLEX, build_complex
from conftest import TORUS, reports_and_oracle_reports
from oracles import per_link_check


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
    empty_failures = [f for f in report.failures if f.simplex == ()]
    assert empty_failures  # the complex itself, i.e. the empty-simplex link
    # but it is a perfectly good homology 1-manifold
    assert is_polyhedral_homology_manifold(two, 1).verdict


def test_impure_complex_fails_purity():
    K = build_complex([[0, 1, 2], [2, 3]])
    report = is_polyhedral_homology_manifold(K, 2)
    assert not report.verdict
    assert any(f.simplex == (2, 3) for f in report.failures)
    # a facet above the dimension: its link {∅} has H̃_{-1} = Z, where a
    # "sphere" of dimension -3 has nothing
    for report in (is_polyhedral_homology_manifold(boundary_simplex(3), 0),
                   is_ghs(boundary_simplex(3), 1)):
        assert [(len(f.simplex) - 1, f.degree, f.expected, f.actual)
                for f in report.failures] == [(2, -1, TRIVIAL_GROUP, Z)] * 4


def test_facet_deletion_breaks_sphere():
    B4 = boundary_simplex(4)
    facets = [list(f) for f in B4.facets]
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


def test_sphere_defects_below_dimension_zero():
    # S^-1 is {∅}: ∂Δ² lacks its Z in degree -1 and has an extra one in
    # degree 1
    assert sphere_homology_defects(boundary_simplex(2), -1) == [
        (-1, Z, TRIVIAL_GROUP), (1, TRIVIAL_GROUP, Z)]
    # below -1 nothing is asked for, so {∅}'s Z in degree -1 is extra: the
    # witness purity gives a facet one dimension above m
    assert sphere_homology_defects(EMPTY_COMPLEX, -2) == [
        (-1, TRIVIAL_GROUP, Z)]
    assert sphere_homology_defects(EMPTY_COMPLEX, -1) == []
    assert sphere_homology_defects(EMPTY_COMPLEX, 3) == [(3, Z, TRIVIAL_GROUP)]


def test_bad_arguments():
    with pytest.raises(ValueError):
        is_ghs(boundary_simplex(2), 0)
    with pytest.raises(ValueError):
        is_polyhedral_homology_manifold(boundary_simplex(2), -1)
    with pytest.raises(ValueError):
        is_ghs(EMPTY_COMPLEX, 1)


def test_seven_vertex_torus_is_manifold_but_not_sphere():
    K = TORUS
    from cornerkit.simplicial import f_vector
    from cornerkit.clearing import reduced_homology_all
    from cornerkit.homology import FGAbelianGroup
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


SPHERES = (boundary_simplex(2), boundary_simplex(3), boundary_simplex(4),
           suspension(boundary_simplex(2)), barycentric(boundary_simplex(2)))


@st.composite
def check_cases(draw):
    """(K, m, sphere): a known sphere, or a random complex on at most 7
    vertices, pure with m its dimension half the time and otherwise of
    mixed dimensions with a random m in 0..3; half the time next to a
    disjoint copy of itself, so that every link shape repeats; and
    whether to run the sphere test (n = m + 1) or the manifold test."""
    if draw(st.booleans()):
        K = draw(st.sampled_from(SPHERES))
        faces = [list(f) for f in K.facets]
        m = K.dim
    else:
        pure = draw(st.booleans())
        size = draw(st.integers(1, 4))
        sizes = st.just(size) if pure else st.integers(1, 4)
        faces = draw(st.lists(sizes.flatmap(lambda k: st.lists(
            st.integers(0, 6), min_size=k, max_size=k, unique=True)),
            min_size=1, max_size=8))
        m = size - 1 if pure else draw(st.integers(0, 3))
    if draw(st.booleans()):
        shift = 1 + max(v for f in faces for v in f)
        faces = faces + [[v + shift for v in f] for f in faces]
    used = sorted(set().union(*map(set, faces)))
    dense = {old: new for new, old in enumerate(used)}
    K = build_complex([[dense[v] for v in f] for f in faces])
    return K, m, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(check_cases())
def test_shape_memo_reports_equal_per_link_reports(case):
    K, m, sphere = case

    def check():
        if sphere:
            return is_ghs(K, m + 1)
        return is_polyhedral_homology_manifold(K, m)

    memoized = check()
    with mock.patch.object(ghs, "_check_links", per_link_check):
        reference = check()
    assert memoized == reference


@settings(max_examples=200, deadline=None)
@given(check_cases())
def test_every_witness_differs_from_what_was_expected(case):
    K, _, _ = case
    for m in range(K.dim + 2):
        for report in (is_ghs(K, m + 1),
                       is_polyhedral_homology_manifold(K, m)):
            assert all(f.expected != f.actual for f in report.failures), m


@settings(max_examples=200, deadline=None)
@given(check_cases())
def test_reports_equal_the_oracle_comparisons(case):
    ours, reference = reports_and_oracle_reports(case[0])
    assert ours == reference


@pytest.mark.parametrize("name", ["spheres", "poincare16", "torus", "rp2_6",
                                  "pinched", "impure"])
def test_fixed_reports_equal_the_oracle_comparisons(name, poincare16, rp2_6):
    cases = {
        "spheres": SPHERES,
        "poincare16": [poincare16],
        "torus": [TORUS],
        "rp2_6": [rp2_6, suspension(rp2_6)],
        "pinched": [build_complex([[0, 1, 2], [0, 3, 4]])],
        "impure": [build_complex([[0, 1, 2], [2, 3]]),
                   build_complex([[0, 1, 2, 3], [3, 4], [5]])],
    }
    for K in cases[name]:
        ours, reference = reports_and_oracle_reports(K)
        assert ours == reference


@pytest.mark.parametrize("name", ["poincare16", "rp2_6", "pinched"])
def test_no_check_calls_link(name, poincare16, rp2_6, monkeypatch):
    # the checks read every link from the link loop's residue pass, so
    # ghs.link, which bench/spans.py wraps, times no part of a check
    K = {"poincare16": poincare16, "rp2_6": rp2_6,
         "pinched": build_complex([[0, 1, 2], [0, 3, 4]])}[name]

    def no_link(_, s):
        raise AssertionError(f"a check asked ghs.link for {s!r}")

    monkeypatch.setattr(ghs, "link", no_link)
    verdicts = {"poincare16": (True, True), "rp2_6": (False, True),
                "pinched": (False, False)}[name]
    assert (is_ghs(K, K.dim + 1).verdict,
            is_polyhedral_homology_manifold(K, K.dim).verdict) == verdicts
    ours, reference = reports_and_oracle_reports(K)
    assert ours == reference


def test_bary_poincare_decides_each_link_shape_once(poincare16, monkeypatch):
    B = barycentric(poincare16)
    runs = [0]
    homology = ghs.reduced_homology_all

    def counted(L):
        runs[0] += 1
        return homology(L)

    monkeypatch.setattr(ghs, "reduced_homology_all", counted)
    start = time.perf_counter()
    report = is_ghs(B, 4)
    wall = time.perf_counter() - start
    assert report.verdict and report.links_checked == 7265
    # one run per link, 7,265, without the shape memo
    assert runs[0] <= 96
    # 7.2 s without the star index and the memo, 0.55 s with them, on a
    # 2-core x86-64 Linux host
    assert wall < 3.0
