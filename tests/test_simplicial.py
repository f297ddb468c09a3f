import random
import re
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cornerkit.coxeter import coxeter_nerve
from cornerkit.homology import reduced_homology
from cornerkit.simplicial import (EMPTY_COMPLEX, EMPTY_SIMPLEX, Simplex,
                                  SimplicialComplex, all_simplices,
                                  barycentric, barycentric_all_two,
                                  boundary_simplex, build_complex,
                                  cone,
                                  euler_characteristic, f_vector, join,
                                  label_all, link, point_complex, simplex,
                                  simplices, suspension)
from conftest import random_complex, random_labeled
from oracles import (count_chains, faces_of, first_containment,
                     maximal_cliques, maximal_faces, scan_link)


def test_simplex_canonical_form():
    s = simplex([3, 1, 2])
    assert s.vertices == (1, 2, 3)
    assert s.dim == 2
    with pytest.raises(ValueError):
        Simplex((2, 1))
    with pytest.raises(ValueError):
        Simplex((-1, 0))
    assert EMPTY_SIMPLEX.dim == -1


def test_build_three_cycle():
    K = build_complex([[0, 1], [1, 2], [0, 2]])
    assert K.num_vertices == 3
    assert len(K.facets) == 3


def test_build_prunes_contained_faces():
    K = build_complex([[0, 1, 2], [0, 1]])
    assert [list(f.vertices) for f in K.facets] == [[0, 1, 2]]


@st.composite
def facet_families(draw):
    """Vertex lists over 0..7, plus copies and sub-faces (the empty face
    among them) of faces already drawn."""
    faces = draw(st.lists(st.lists(st.integers(0, 7), max_size=5, unique=True),
                          min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 5))):
        f = draw(st.sampled_from(faces))
        faces.append([v for v in f if draw(st.booleans())])
    return faces


@settings(max_examples=300, deadline=None)
@given(facet_families())
def test_build_keeps_exactly_the_maximal_faces(raw):
    expected = maximal_faces(raw)
    used = set().union(*expected)
    if used != set(range(len(used))):
        with pytest.raises(ValueError, match="appear in no facet"):
            build_complex(raw)
        return
    assert [f.vertices for f in build_complex(raw).facets] == expected


@settings(max_examples=300, deadline=None)
@given(facet_families())
def test_constructor_rejects_exactly_the_contained_facets(raw):
    used = sorted(set().union(*map(set, raw)))
    dense = {old: new for new, old in enumerate(used)}
    facets = sorted((simplex(dense[v] for v in f) for f in raw),
                    key=lambda s: s.vertices)
    hit = first_containment([f.vertices for f in facets])
    if hit is None:
        assert SimplicialComplex(len(used), tuple(facets)).facets == tuple(facets)
        return
    i, j = hit
    assert set(facets[i].vertices) <= set(facets[j].vertices)
    with pytest.raises(ValueError) as exc:
        SimplicialComplex(len(used), tuple(reversed(facets)))
    assert str(exc.value) == f"facet {facets[i]} is contained in {facets[j]}"


def test_constructor_rejects_contained_and_repeated_facets():
    with pytest.raises(ValueError,
                       match=r"facet Simplex\(\[0, 1\]\) is contained in "
                             r"Simplex\(\[0, 1, 2\]\)"):
        SimplicialComplex(3, (simplex([0, 1, 2]), simplex([0, 1])))
    with pytest.raises(ValueError,
                       match=r"facet Simplex\(\[0, 1\]\) is contained in "
                             r"Simplex\(\[0, 1\]\)"):
        SimplicialComplex(3, (simplex([0, 1]), simplex([1, 2]), simplex([0, 1])))


@settings(max_examples=300, deadline=None)
@given(facet_families())
def test_unvalidated_faces_equal_validated_ones(raw):
    used = sorted(set().union(*map(set, raw)))
    dense = {old: new for new, old in enumerate(used)}
    facets = [[dense[v] for v in f] for f in raw]
    K = build_complex(facets)
    for k in range(-1, K.dim + 2):
        faces = simplices(K, k)
        validated = tuple(Simplex(t) for t in faces_of(facets, k))
        assert faces == validated
        for f, g in zip(faces, validated):
            assert type(f) is Simplex
            assert Simplex(f.vertices) == f == g
            assert hash(f) == hash(g)


def test_build_detects_vertex_gap():
    with pytest.raises(ValueError):
        build_complex([[0], [2]])


def test_vertex_gap_check_allocates_nothing_per_id():
    message = "1999999 vertex ids appear in no facet, first [1, 2, 3, 4, 5]"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            build_complex([[0, 2_000_000]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_build_rejects_bad_input():
    # in the order of the checks: an empty list, negative ids, non-integer
    # ids, then gaps
    for raw, message in [
            ([], "empty facet list"),
            ([[0, -1]],
             "negative vertex id in a facet of 2 vertices, first [-1, 0]"),
            ([[0.5], [-1]],
             "negative vertex id in a facet of 1 vertices, first [-1]"),
            ([[0, 0.5]], "vertex ids must be non-negative integers, got 0.5"),
            ([[0.5], [3]], "vertex ids must be non-negative integers, got 0.5"),
            ([[0], [2]], "1 vertex ids appear in no facet, first [1]")]:
        with pytest.raises(ValueError) as exc:
            build_complex(raw)
        assert str(exc.value) == message


def test_constructor_rejects_bad_input():
    for n, facets, message in [
            (3, (), "facet list may not be empty; use the empty complex {∅}"),
            (2, ((0,), (2,)), "facet vertex id exceeds num_vertices"),
            (3, ((0,), (2,)), "1 vertex ids appear in no facet, first [1]"),
            (2, ((),), "complex with no facet vertices must have num_vertices 0"),
            (3, ((0, 1, 2), (0, 1)),
             "facet Simplex([0, 1]) is contained in Simplex([0, 1, 2])")]:
        with pytest.raises(ValueError) as exc:
            SimplicialComplex(n, tuple(map(Simplex, facets)))
        assert str(exc.value) == message


def test_build_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        K = random_complex(rng, rng.randrange(3, 9))
        again = build_complex([list(f.vertices) for f in K.facets])
        assert again == K


def test_simplices_counts():
    B3 = boundary_simplex(3)
    assert len(simplices(B3, 1)) == 6
    assert simplices(B3, 3) == ()
    assert simplices(B3, -1) == (EMPTY_SIMPLEX,)
    with pytest.raises(ValueError):
        simplices(B3, -2)


def test_link_of_vertex_in_tetrahedron_boundary():
    B3 = boundary_simplex(3)
    L, vmap = link(B3, simplex([0]))
    assert f_vector(L) == (3, 3)  # a 3-cycle
    assert vmap == (1, 2, 3)


def test_link_of_edge_is_two_points():
    B3 = boundary_simplex(3)
    L, vmap = link(B3, simplex([0, 1]))
    assert f_vector(L) == (2,)
    assert vmap == (2, 3)


def test_link_conventions():
    B3 = boundary_simplex(3)
    L, vmap = link(B3, EMPTY_SIMPLEX)
    assert L == B3 and vmap == (0, 1, 2, 3)
    L, vmap = link(B3, B3.facets[0])
    assert L == EMPTY_COMPLEX
    with pytest.raises(ValueError):
        link(B3, simplex([0, 1, 2, 3]))


def test_link_rejects_a_non_face_on_existing_vertices():
    K = build_complex([[0, 1], [1, 2], [0, 2]])
    with pytest.raises(ValueError, match="is not a simplex"):
        link(K, simplex([0, 1, 2]))


def test_link_of_facet_always_empty():
    rng = random.Random(5)
    for _ in range(10):
        K = random_complex(rng, rng.randrange(3, 8))
        for f in K.facets:
            assert link(K, f)[0] == EMPTY_COMPLEX


@st.composite
def complexes_and_queries(draw):
    """A complex built from facet_families, renumbered densely, with every
    face of it (the empty one included) and up to eight random simplices
    on the ids 0..9, which may be non-faces or out of range."""
    raw = draw(facet_families())
    used = sorted(set().union(*map(set, raw)))
    dense = {old: new for new, old in enumerate(used)}
    K = build_complex([[dense[v] for v in f] for f in raw])
    queries = [EMPTY_SIMPLEX, *all_simplices(K)]
    queries += draw(st.lists(st.builds(simplex, st.sets(st.integers(0, 9),
                                                        max_size=4)),
                             max_size=8))
    return K, queries


@settings(max_examples=300, deadline=None)
@given(complexes_and_queries())
def test_star_index_link_equals_the_scan(case):
    K, queries = case
    for s in queries:
        try:
            L0, vmap0 = scan_link(K, s)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                link(K, s)
            assert str(got.value) == str(exc)
            continue
        L, vmap = link(K, s)
        assert (L.facets, L.num_vertices, vmap) == \
            (L0.facets, L0.num_vertices, vmap0)


def test_star_index_link_equals_the_scan_on_poincare16(poincare16):
    # 90 facets, so the star intersections are sets whose iteration order
    # is not the order of their facet indices
    for s in all_simplices(poincare16):
        L, vmap = link(poincare16, s)
        L0, vmap0 = scan_link(poincare16, s)
        assert L.facets == L0.facets and vmap == vmap0


@settings(max_examples=300, deadline=None)
@given(complexes_and_queries())
def test_trusted_link_complex_equals_the_validated_one(case):
    K, queries = case
    for s in queries:
        if s not in K:
            continue
        L, _ = link(K, s)
        validated = SimplicialComplex(L.num_vertices, L.facets)
        assert L.facets == validated.facets  # already in sorted order
        assert L == validated and hash(L) == hash(validated)
        assert repr(L) == repr(validated)
        for f in L.facets:
            assert type(f) is Simplex and Simplex(f.vertices) == f


@settings(max_examples=300, deadline=None)
@given(complexes_and_queries())
def test_contains_equals_a_scan(case):
    K, queries = case
    for s in queries:
        assert (s in K) == any(set(s.vertices) <= set(f.vertices)
                               for f in K.facets)


def test_star_index_is_outside_the_fields():
    K = build_complex([[0, 1, 2], [1, 2, 3]])
    fresh = build_complex([[0, 1, 2], [1, 2, 3]])
    link(K, simplex([1]))
    assert simplex([0, 3]) not in K
    assert K == fresh and hash(K) == hash(fresh) and repr(K) == repr(fresh)


def test_hash_is_computed_once_outside_the_fields():
    K = build_complex([[0, 1, 2], [1, 2, 3]])
    fresh = build_complex([[0, 1, 2], [1, 2, 3]])
    assert "_hash" not in vars(K)
    h = hash(K)
    assert vars(K)["_hash"] == h == hash((K.num_vertices, K.facets))
    assert "_hash" not in K._fields
    assert K == fresh and hash(K) == hash(fresh) and repr(K) == repr(fresh)


def assert_equals_the_validated_complex(K):
    """K is the complex that the validating constructor builds from K's
    facets, re-checked and given in reverse order; its facets are
    already sorted, and it hashes and prints the same."""
    validated = SimplicialComplex(
        K.num_vertices, tuple(Simplex(f.vertices) for f in reversed(K.facets)))
    assert K.facets == validated.facets
    assert K == validated and hash(K) == hash(validated)
    assert repr(K) == repr(validated)
    assert all(type(f) is Simplex for f in K.facets)


@settings(max_examples=200, deadline=None)
@given(facet_families(), st.integers(0, 2**32 - 1))
def test_constructions_equal_the_validated_complex(raw, seed):
    rng = random.Random(seed)
    used = sorted(set().union(*map(set, raw)))
    dense = {old: new for new, old in enumerate(used)}
    facets = [[dense[v] for v in f] for f in raw]
    shuffled = [f[::-1] for f in facets + facets[:2]]  # repeated faces too
    rng.shuffle(shuffled)
    K, again = build_complex(facets), build_complex(shuffled)
    assert again == K
    LK = random_labeled(rng, rng.randrange(2, 7), labels=(2, 3, 4))
    L = LK.complex
    built = [K, again, join(K, L), join(L, K), cone(K), suspension(L),
             barycentric(K), barycentric(L),
             point_complex(rng.randrange(1, 5)), coxeter_nerve(LK),
             coxeter_nerve(LK, max_rank=L.dim + 1)]
    built += [boundary_simplex(n) for n in range(1, 7)]
    built += [link(M, s)[0] for M in (K, L) for s in all_simplices(M)]
    for M in built:
        assert_equals_the_validated_complex(M)


def test_constructions_skip_the_validating_constructors(poincare16,
                                                        monkeypatch):
    runs = []

    def counted(init):
        def run(self, *args):
            runs.append(self)
            init(self, *args)
        return run

    for cls in (Simplex, SimplicialComplex):
        monkeypatch.setattr(cls, "__init__", counted(cls.__init__))
    LK = label_all(boundary_simplex(3), 2)
    raw = [list(f.vertices) for f in barycentric(poincare16).facets]
    for build in (lambda: barycentric(poincare16),
                  lambda: join(poincare16, poincare16),
                  lambda: coxeter_nerve(LK),
                  lambda: build_complex(raw)):
        runs.clear()
        build()
        assert runs == []
    SimplicialComplex(1, (Simplex((0,)),))  # the counter sees both
    assert len(runs) == 2


def test_concurrent_first_links_agree(poincare16):
    # every thread may build the star index of the same fresh complex;
    # whichever table is kept, each link must come out the same
    expected = [scan_link(poincare16, simplex([v]))
                for v in range(poincare16.num_vertices)]
    fresh = build_complex([f.vertices for f in poincare16.facets])
    results, errors = [], []

    def work():
        try:
            results.append([link(fresh, simplex([v]))
                            for v in range(fresh.num_vertices)])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(results) == 8
    for got in results:
        assert [(L.facets, vmap) for L, vmap in got] == \
            [(L.facets, vmap) for L, vmap in expected]


def test_join_examples():
    s0 = boundary_simplex(1)
    square = join(s0, s0)
    assert f_vector(square) == (4, 4)
    assert reduced_homology(square, 1).describe() == "Z"
    # join of full simplices is a full simplex
    full = join(build_complex([[0, 1]]), build_complex([[0, 1, 2]]))
    assert f_vector(full) == f_vector(build_complex([[0, 1, 2, 3, 4]]))
    assert join(boundary_simplex(2), EMPTY_COMPLEX) == boundary_simplex(2)
    assert join(EMPTY_COMPLEX, boundary_simplex(2)) == boundary_simplex(2)


def test_join_associative_up_to_renumbering():
    from cornerkit.equivalence import find_isomorphism
    a, b, c = boundary_simplex(1), boundary_simplex(2), point_complex(1)
    left = join(join(a, b), c)
    right = join(a, join(b, c))
    assert find_isomorphism(left, right) is not None


def test_cone_and_suspension():
    C = cone(boundary_simplex(2))
    assert f_vector(C) == (4, 6, 3)
    S = suspension(boundary_simplex(2))
    assert f_vector(S) == (5, 9, 6)
    assert reduced_homology(S, 2).describe() == "Z"
    assert reduced_homology(S, 1).is_trivial()
    assert suspension(EMPTY_COMPLEX) == point_complex(2)


def test_barycentric_small():
    path = barycentric(build_complex([[0, 1]]))
    assert f_vector(path) == (3, 2)
    hexagon = barycentric(build_complex([[0, 1], [1, 2], [0, 2]]))
    assert f_vector(hexagon) == (6, 6)


def test_barycentric_f_vector_matches_chain_counts():
    B3 = boundary_simplex(3)
    facets = [list(f.vertices) for f in B3.facets]
    expected = tuple(count_chains(facets, L) for L in (1, 2, 3))
    assert expected == (14, 36, 24)  # frozen from the chain-count oracle
    assert f_vector(barycentric(B3)) == expected


def test_barycentric_is_flag():
    rng = random.Random(3)
    for K in [boundary_simplex(2), boundary_simplex(3),
              random_complex(rng, 5), random_complex(rng, 6)]:
        sd = barycentric(K)
        edges = {e.vertices for e in simplices(sd, 1)}
        cliques = maximal_cliques(sd.num_vertices, edges)
        assert sorted(cliques) == sorted(f.vertices for f in sd.facets)


def test_barycentric_all_two():
    LK = barycentric_all_two(build_complex([[0, 1], [1, 2], [0, 2]]))
    assert f_vector(LK.complex) == (6, 6)
    assert all(m == 2 for _, _, m in LK.labels)
    from cornerkit.coxeter import is_proper_labeling
    assert is_proper_labeling(LK)[0]


def test_f_vector_examples():
    assert f_vector(boundary_simplex(3)) == (4, 6, 4)
    assert f_vector(build_complex([[0, 1], [1, 2], [0, 2]])) == (3, 3)


def test_poincare_f_vector(poincare16):
    assert f_vector(poincare16) == (16, 106, 180, 90)


def test_euler_characteristic_against_betti():
    from cornerkit.homology import chain_complex, homology_all
    rng = random.Random(9)
    for _ in range(12):
        K = random_complex(rng, rng.randrange(3, 8))
        hom = homology_all(chain_complex(K))
        chi_betti = sum((-1) ** k * g.free_rank for k, g in hom.items())
        assert euler_characteristic(K) == chi_betti


def test_labeled_complex_validation():
    K = build_complex([[0, 1], [1, 2]])
    with pytest.raises(ValueError):  # missing edge label
        from cornerkit.simplicial import LabeledComplex
        LabeledComplex(K, ((0, 1, 2),))
    with pytest.raises(ValueError):  # label on a non-edge
        from cornerkit.simplicial import LabeledComplex
        LabeledComplex(K, ((0, 1, 2), (1, 2, 2), (0, 2, 2)))
    with pytest.raises(ValueError):  # label below 2
        label_all(K, 1)
    LK = label_all(K, 3)
    assert LK.label_dict() == {(0, 1): 3, (1, 2): 3}
