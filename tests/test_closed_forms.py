"""The closed forms of `clearing.reduced_homology_all` against the clearing
reduction of the augmented chain complex, torsion included: graphs
(dimension 0 or 1) and strongly connected pseudo-surfaces are decided by
counting, everything else falls back to the reduction.  Named surfaces
and named fallback cases first, then random complexes of dimension 0, 1
and 2 and random subdivisions of the named surfaces.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cornerkit import clearing, homology
from cornerkit.cli import main
from cornerkit.clearing import homology_all, reduced_homology_all
from cornerkit.constructions import barycentric, suspension
from cornerkit.homology import FGAbelianGroup, TRIVIAL_GROUP, Z, chain_complex
from cornerkit.jsonio import complex_to_obj, dumps
from cornerkit.simplicial import build_complex, f_vector
from conftest import DATA, TORUS
import oracles


def by_reduction(K):
    return homology_all(chain_complex(K, augmented=True))


def grid_surface(a: int, b: int, twist: bool):
    """The a×b grid of squares, each cut along its diagonal, with the
    left side glued to the right and the top to the bottom: a torus, or
    with the top glued to the bottom reversed, a Klein bottle."""
    def vertex(i, j):
        if j == b:
            i, j = (-i if twist else i), 0
        return (i % a) * b + j

    return build_complex(
        [[vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)]
         for i in range(a) for j in range(b)]
        + [[vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1)]
           for i in range(a) for j in range(b)])


def identified(K, u: int, v: int):
    """K with vertex v glued onto vertex u, renumbered densely."""
    ids = [w for w in range(K.num_vertices) if w != v]
    new = {w: i for i, w in enumerate(ids)}
    new[v] = new[u]
    return build_complex([[new[w] for w in f] for f in K.facets])


def boundary_tetrahedron(vertices):
    a, b, c, d = vertices
    return [[a, b, c], [a, b, d], [a, c, d], [b, c, d]]


with open(DATA / "rp2_6.json") as fh:
    RP2_6 = build_complex(json.load(fh)["facets"])
KLEIN = grid_surface(4, 4, twist=True)
# the 6×6 torus with the opposite corners (0, 0) and (3, 3) of one
# fundamental square glued: their stars share no vertex
PINCHED_TORUS = identified(grid_surface(6, 6, twist=False), 0, 3 * 6 + 3)
SPHERE = build_complex(boundary_tetrahedron(range(4)))

SURFACES = {
    # name: (complex, H̃_1, H_2)
    "rp2_6": (RP2_6, FGAbelianGroup(0, (2,)), TRIVIAL_GROUP),
    "torus_7": (TORUS, FGAbelianGroup(2), Z),
    "klein": (KLEIN, FGAbelianGroup(1, (2,)), TRIVIAL_GROUP),
    "pinched_torus": (PINCHED_TORUS, FGAbelianGroup(3), Z),
    "sphere": (SPHERE, TRIVIAL_GROUP, Z),
}
FALLBACKS = {
    "wedge": build_complex(boundary_tetrahedron(range(4))
                           + boundary_tetrahedron(range(3, 7))),
    "fin": build_complex(boundary_tetrahedron(range(4)) + [[0, 1, 4]]),
    "disjoint": build_complex(boundary_tetrahedron(range(4))
                              + boundary_tetrahedron(range(4, 8))),
    "impure": build_complex(boundary_tetrahedron(range(4)) + [[3, 4]]),
    "open_disc": build_complex([[0, 1, 2], [0, 2, 3]]),
}


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_each_named_surface_is_counted_to_its_groups(name):
    K, h1, h2 = SURFACES[name]
    counted = clearing._pseudo_surface_homology(K)
    assert counted is not None
    assert counted == {-1: TRIVIAL_GROUP, 0: TRIVIAL_GROUP, 1: h1, 2: h2}
    assert list(counted.items()) == list(by_reduction(K).items())
    assert reduced_homology_all(K) == oracles.homology_all(
        oracles.chain_complex(K, augmented=True))


@pytest.mark.parametrize("name", ["rp2_6", "klein"])
def test_the_reduction_catches_the_z2_mutant(name, monkeypatch):
    # the Z/2 mutant of the closed form, `() if orientable else (2,)` →
    # `()`: a non-orientable surface loses the torsion of its H_1, and
    # the comparison with the reduction must report it
    counted = clearing._pseudo_surface_homology

    def mutant(K):
        hom = counted(K)
        hom[1] = FGAbelianGroup(hom[1].free_rank)
        return hom

    monkeypatch.setattr(clearing, "_pseudo_surface_homology", mutant)
    K, h1, _ = SURFACES[name]
    hom = reduced_homology_all(K)
    assert h1.torsion == (2,) and hom[1] == FGAbelianGroup(h1.free_rank)
    assert list(hom.items()) != list(by_reduction(K).items())


def test_the_named_surfaces_have_their_face_counts():
    assert f_vector(RP2_6) == (6, 15, 10)
    assert f_vector(TORUS) == (7, 21, 14)
    assert f_vector(KLEIN) == (16, 48, 32)
    assert f_vector(PINCHED_TORUS) == (35, 108, 72)


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_each_named_fallback_goes_to_the_reduction(name, monkeypatch):
    K = FALLBACKS[name]
    assert clearing._pseudo_surface_homology(K) is None
    reduced = []
    monkeypatch.setattr(clearing, "homology_all",
                        lambda C: reduced.append(C) or homology_all(C))
    assert reduced_homology_all(K) == by_reduction(K)
    assert len(reduced) == 1


def complexes_of_dimension_at_most_two():
    """A random complex on at most 8 vertices of dimension 0 (points), 1
    (a graph, isolated vertices included) or 2 (triangles with or
    without loose edges and points)."""
    faces = st.integers(1, 3).flatmap(lambda size: st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=size, unique=True),
        min_size=1, max_size=12))
    return faces.map(lambda fs: build_complex(dense(fs)))


def dense(faces):
    used = sorted(set().union(*map(set, faces)))
    new = {old: i for i, old in enumerate(used)}
    return [[new[v] for v in f] for f in faces]


@st.composite
def subdivided_surfaces(draw):
    """A named surface (two times in three) or fallback, its vertices
    permuted, with up to six triangles subdivided at a new vertex of
    their own, and a time in four next to a disjoint copy of itself."""
    pool = [K for K, _, _ in SURFACES.values()] * 2 + [
        K for K in FALLBACKS.values() if K.dim == 2]
    K = draw(st.sampled_from(pool))
    perm = draw(st.permutations(range(K.num_vertices)))
    facets = [sorted(perm[v] for v in f) for f in K.facets]
    n = K.num_vertices
    for _ in range(draw(st.integers(0, 6))):
        t = facets.pop(draw(st.integers(0, len(facets) - 1)))
        if len(t) == 3:
            a, b, c = t
            facets += [[a, b, n], [a, c, n], [b, c, n]]
            n += 1
        else:
            facets.append(t)
    if draw(st.integers(0, 3)) == 0:
        facets += [[v + n for v in f] for f in facets]
    return build_complex(facets)


@settings(max_examples=300, deadline=None)
@given(st.one_of(complexes_of_dimension_at_most_two(),
                 subdivided_surfaces()))
def test_the_closed_forms_equal_the_reduction(K):
    assert list(reduced_homology_all(K).items()) == \
        list(by_reduction(K).items())


def test_the_random_surfaces_reach_both_closed_forms_and_the_fallback():
    counted = {"graph": 0, "surface": 0, "fallback": 0}

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(st.one_of(complexes_of_dimension_at_most_two(),
                     subdivided_surfaces()))
    def tally(K):
        if K.dim < 2:
            counted["graph"] += 1
        elif clearing._pseudo_surface_homology(K) is None:
            counted["fallback"] += 1
        else:
            counted["surface"] += 1
    tally()
    assert min(counted.values()) >= 10, counted


def test_bary_rp2_twice_is_counted_without_a_reduction(monkeypatch):
    K = barycentric(barycentric(RP2_6))
    monkeypatch.setattr(clearing, "homology_all", None)  # never called
    assert reduced_homology_all(K)[1] == FGAbelianGroup(0, (2,))


def test_a_3_manifold_check_builds_no_boundary_matrix(capsys, tmp_path,
                                                      monkeypatch):
    # every link of a 3-manifold is a graph or a pseudo-surface: the
    # barycentric subdivision of the boundary of the 4-cross-polytope
    # (1,312 links) is decided by counting alone
    S0 = build_complex([[0], [1]])
    K = barycentric(suspension(suspension(suspension(S0))))
    path = tmp_path / "boct4.json"
    path.write_text(dumps(complex_to_obj(K)))
    build, calls = homology.simplicial_boundary_matrix, []

    def counted(L, k):
        calls.append(k)
        return build(L, k)

    monkeypatch.setattr(homology, "simplicial_boundary_matrix", counted)
    assert main(["check-phm", "-n", "3", "-i", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True and calls == []
    # the global check of check-ghs reduces K itself through the counter
    assert main(["check-ghs", "-n", "4", "-i", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True
    assert sorted(set(calls)) == [0, 1, 2, 3]
