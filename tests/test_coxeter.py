import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from cornerkit import coxeter
from cornerkit.coxeter import (BudgetExceeded, CoxeterMatrix, INFINITE,
                               coxeter_matrix, coxeter_nerve, is_aspherical,
                               is_finite, is_proper_labeling)
from cornerkit.jsonio import complex_from_obj
from cornerkit.simplicial import (LabeledComplex, barycentric,
                                  barycentric_all_two, boundary_simplex,
                                  build_complex, label_all, point_complex,
                                  simplices, suspension)
from conftest import DATA, random_labeled
from oracles import (maximal_cliques, per_candidate_nerve, per_facet_proper,
                     triangle_group_is_finite)

PENTAGON = build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
TRIANGLE = build_complex([[0, 1, 2]])
THREE_CYCLE = build_complex([[0, 1], [1, 2], [0, 2]])


def diagram(n, edges):
    m = {(min(u, v), max(u, v)): lab for u, v, lab in edges}
    return CoxeterMatrix(tuple(range(n)), tuple(
        m.get((i, j), 2) for j in range(1, n) for i in range(j)))


def path(labels):
    return diagram(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)])


def test_coxeter_matrix_from_pentagon():
    M = coxeter_matrix(label_all(PENTAGON, 2), tuple(range(5)))
    assert M.size == 5
    for i, j in itertools.combinations(range(5), 2):
        expected = 2 if (min(i, j), max(i, j)) in {(0, 1), (1, 2), (2, 3),
                                                   (3, 4), (0, 4)} else INFINITE
        assert M.order_of(i, j) == expected


def test_coxeter_matrix_single_edge_and_subset():
    LK = LabeledComplex(build_complex([[0, 1]]), ((0, 1, 5),))
    M = coxeter_matrix(LK, (0, 1))
    assert M.pattern == (5,)
    assert [[M.order_of(i, j) for j in range(2)] for i in range(2)] == \
        [[1, 5], [5, 1]]
    sub = coxeter_matrix(label_all(PENTAGON, 2), (0, 2))
    assert sub.order_of(0, 1) == INFINITE
    assert sub.vertices == (0, 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.data())
def test_coxeter_matrix_reads_every_label(seed, n, data):
    LK = random_labeled(random.Random(seed), n)
    verts = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    labels = {(u, v): m for u, v, m in LK.labels}
    M = coxeter_matrix(LK, verts)
    assert M.vertices == verts
    for i, a in enumerate(verts):
        for j, b in enumerate(verts):
            expected = (1 if a == b else
                        labels.get((min(a, b), max(a, b)), INFINITE))
            assert M.order_of(i, j) == expected, (verts, i, j)


def test_triangle_classification_matches_angle_oracle():
    for p in range(2, 13):
        for q in range(p, 13):
            for r in range(q, 13):
                LK = LabeledComplex(TRIANGLE, ((0, 1, p), (0, 2, q), (1, 2, r)))
                verdict = is_finite(coxeter_matrix(LK, (0, 1, 2)))
                assert verdict.finite == triangle_group_is_finite(p, q, r), \
                    (p, q, r)


def test_named_type_orders():
    cases = [
        (path([5, 3]), "H3", 120),
        (path([5, 3, 3]), "H4", 14400),
        (path([3, 4, 3]), "F4", 1152),
        (diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)]),
         "E6", 51840),
        (diagram(7, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3),
                     (2, 6, 3)]), "E7", 2903040),
        (diagram(8, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3),
                     (5, 6, 3), (2, 7, 3)]), "E8", 696729600),
        (path([3, 3, 3]), "A4", 120),
        (path([4, 3, 3]), "B4", 384),
        (diagram(4, [(0, 1, 3), (0, 2, 3), (0, 3, 3)]), "D4", 192),
        (path([5]), "I2(5)", 10),
        (diagram(1, []), "A1", 2),
    ]
    for M, tag, order in cases:
        verdict = is_finite(M)
        assert verdict.finite and verdict.order == order, (tag, verdict)
        assert verdict.components[0][1] == tag


def test_infinite_patterns():
    for M in [
        diagram(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)]),        # cycle
        diagram(2, [(0, 1, INFINITE)]),                        # ∞ bond
        path([4, 3, 4]),                                       # two heavy bonds
        path([3, 5, 3]),                                       # interior 5
        path([5, 3, 3, 3]),                                    # H5
        path([3, 4, 3, 3]),                                    # affine F4
        diagram(9, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3),
                    (5, 6, 3), (6, 7, 3), (2, 8, 3)]),         # E9
        diagram(5, [(0, 1, 3), (1, 2, 3), (1, 3, 3), (1, 4, 3)]),  # degree 4
    ]:
        assert not is_finite(M).finite


def test_product_of_components():
    # A1 x I2(5) x A2 with blocks disconnected by 2-bonds
    M = diagram(5, [(1, 2, 5), (3, 4, 3)])
    verdict = is_finite(M)
    assert verdict.finite
    assert verdict.order == 2 * 10 * 6
    assert len(verdict.components) == 3


def test_finiteness_invariant_under_generator_permutation():
    rng = random.Random(13)
    base_edges = [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)]
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v], m) for u, v, m in base_edges]
        assert is_finite(diagram(6, edges)).order == 51840


def test_proper_labeling_facet_check():
    assert is_proper_labeling(label_all(PENTAGON, 2)) == (True, None)
    # a single 2-simplex labeled (2,3,6) generates an affine (infinite)
    # triangle group; the minimal witness is the whole facet
    bad = LabeledComplex(TRIANGLE, ((0, 1, 2), (0, 2, 3), (1, 2, 6)))
    proper, witness = is_proper_labeling(bad)
    assert not proper and witness == (0, 1, 2)
    # on the hollow triangle the same labels are proper: its facets are
    # edges, and rank-2 groups are always finite
    hollow = LabeledComplex(THREE_CYCLE, ((0, 1, 2), (0, 2, 3), (1, 2, 6)))
    assert is_proper_labeling(hollow) == (True, None)


def test_proper_matches_exhaustive_all_simplices():
    rng = random.Random(29)
    for _ in range(25):
        LK = random_labeled(rng, rng.randrange(3, 8))
        facet_only = is_proper_labeling(LK)[0]
        exhaustive = all(
            is_finite(coxeter_matrix(LK, s)).finite
            for k in range(LK.complex.dim + 1)
            for s in simplices(LK.complex, k))
        assert facet_only == exhaustive


def test_verdicts_come_from_the_label_patterns(monkeypatch):
    # a proper labeling, and improper ones whose witness search meets
    # patterns that the facets already decided
    cases = [barycentric_all_two(boundary_simplex(3)),
             label_all(boundary_simplex(3), 3),
             LabeledComplex(TRIANGLE, ((0, 1, 2), (0, 2, 3), (1, 2, 6)))]
    expected = [(per_facet_proper(LK), per_candidate_nerve(LK))
                for LK in cases]

    def refuse(*args):
        raise AssertionError("coxeter_matrix called inside the module")

    patterns = []
    real_is_finite = coxeter.is_finite

    def counted(M):
        patterns.append(M.pattern)
        return real_is_finite(M)

    monkeypatch.setattr(coxeter, "coxeter_matrix", refuse)
    monkeypatch.setattr(coxeter, "is_finite", counted)
    for LK, (proper, nerve) in zip(cases, expected):
        for run, want in ((is_proper_labeling, proper),
                          (lambda LK: sorted(coxeter_nerve(LK).facets),
                           nerve)):
            patterns.clear()
            assert run(LK) == want
            assert patterns and len(patterns) == len(set(patterns))


def test_barycentric_all_two_always_proper():
    for K in [boundary_simplex(2), boundary_simplex(3)]:
        assert is_proper_labeling(barycentric_all_two(K))[0]


with open(DATA / "rp2_6.json") as _fh:
    _RP2_6 = complex_from_obj(json.load(_fh))

# ∂Δ³, ∂Δ⁴, RP², the boundary of the 4-cross-polytope (the threefold
# suspension of S⁰) and barycentric(∂Δ³)
MEMO_COMPLEXES = [
    boundary_simplex(3), boundary_simplex(4), _RP2_6,
    suspension(suspension(suspension(point_complex(2)))),
    barycentric(boundary_simplex(3)),
]


@st.composite
def labelings(draw):
    """A complex from MEMO_COMPLEXES with labels in {2, ..., 6}: each edge
    gets 2 or a label from a random palette, so that proper and improper
    labelings both come up."""
    K = draw(st.sampled_from(MEMO_COMPLEXES))
    palette = draw(st.lists(st.integers(2, 6), min_size=1, max_size=5,
                            unique=True))
    label = st.one_of(st.just(2), st.sampled_from(palette))
    return LabeledComplex(K, tuple((*e, draw(label))
                                   for e in simplices(K, 1)))


def exceeded_at(nerve, LK, max_rank, budget):
    """The count a BudgetExceeded reports, or None if the nerve is done."""
    try:
        nerve(LK, max_rank=max_rank, budget=budget)
    except BudgetExceeded as exc:
        return exc.count
    return None


@settings(max_examples=300, deadline=None)
@given(labelings(), st.sampled_from([None, 1, 2]), st.integers(1, 50))
def test_pattern_memo_matches_per_candidate_tests(LK, extra_rank, budget):
    max_rank = None if extra_rank is None else LK.complex.dim + extra_rank
    assert per_facet_proper(LK) == is_proper_labeling(LK)
    nerve = coxeter_nerve(LK, max_rank=max_rank)
    assert sorted(nerve.facets) == \
        per_candidate_nerve(LK, max_rank=max_rank)
    assert exceeded_at(coxeter_nerve, LK, max_rank, budget) == \
        exceeded_at(per_candidate_nerve, LK, max_rank, budget)


def test_pattern_memo_matches_per_candidate_tests_at_workload_scale(
        poincare16):
    # the labeled-nerves benchmark inputs: barycentric(poincare16) labeled
    # all 2 and labeled from 2..6 by a seeded draw per edge
    bary = barycentric(poincare16)
    rng = random.Random(16)
    seeded = LabeledComplex(bary, tuple((*e, rng.choice(range(2, 7)))
                                        for e in simplices(bary, 1)))
    for LK in (label_all(bary, 2), seeded):
        nerve = coxeter_nerve(LK)
        assert sorted(nerve.facets) == \
            per_candidate_nerve(LK)
        for budget in (1, 2552, 7000):
            count = exceeded_at(coxeter_nerve, LK, None, budget)
            assert count == budget + 1
            assert count == exceeded_at(per_candidate_nerve, LK, None, budget)


def test_coxeter_nerve_pentagon():
    nerve = coxeter_nerve(label_all(PENTAGON, 2))
    assert nerve == PENTAGON


def test_coxeter_nerve_completes_three_cycle():
    nerve = coxeter_nerve(label_all(THREE_CYCLE, 2))
    assert nerve == TRIANGLE


def test_coxeter_nerve_single_edge():
    LK = LabeledComplex(build_complex([[0, 1]]), ((0, 1, 3),))
    assert coxeter_nerve(LK) == LK.complex


def test_coxeter_nerve_contains_complex_when_proper():
    rng = random.Random(37)
    for _ in range(10):
        LK = random_labeled(rng, rng.randrange(3, 7), labels=(2, 3))
        if not is_proper_labeling(LK)[0]:
            continue
        nerve = coxeter_nerve(LK)
        for k in range(LK.complex.dim + 1):
            for s in simplices(LK.complex, k):
                assert s in nerve


def test_all_two_nerve_is_clique_complex():
    rng = random.Random(43)
    for _ in range(10):
        K = random_labeled(rng, rng.randrange(3, 8), labels=(2,)).complex
        LK = label_all(K, 2)
        nerve = coxeter_nerve(LK)
        edges = set(simplices(K, 1))
        cliques = maximal_cliques(K.num_vertices, edges)
        assert sorted(nerve.facets) == cliques


def test_coxeter_nerve_idempotent():
    LK = label_all(PENTAGON, 2)
    nerve = coxeter_nerve(LK)
    again = coxeter_nerve(label_all(nerve, 2))
    assert nerve == again


def test_nerve_budget_guard():
    LK = label_all(boundary_simplex(4), 2)
    with pytest.raises(BudgetExceeded) as info:
        coxeter_nerve(LK, budget=3)
    assert info.value.count > 3


def test_nerve_max_rank_guard():
    LK = label_all(boundary_simplex(3), 2)
    with pytest.raises(ValueError):
        coxeter_nerve(LK, max_rank=2)  # below dim+1


def test_aspherical_examples(poincare16):
    assert is_aspherical(label_all(PENTAGON, 2))
    assert not is_aspherical(label_all(THREE_CYCLE, 2))
    for K in [boundary_simplex(3), suspension(boundary_simplex(2))]:
        assert is_aspherical(barycentric_all_two(K))


def test_aspherical_from_infinite_triangle_subgroup():
    # hollow triangle with labels (2,3,6): proper (facets are edges), and
    # the full vertex set generates an infinite group, so the nerve never
    # fills in the 2-simplex
    hollow = LabeledComplex(THREE_CYCLE, ((0, 1, 2), (0, 2, 3), (1, 2, 6)))
    assert is_proper_labeling(hollow)[0]
    assert is_aspherical(hollow)
    # same labels on a finite-type triangle fill in, killing asphericity
    filled = LabeledComplex(THREE_CYCLE, ((0, 1, 2), (0, 2, 3), (1, 2, 5)))
    assert not is_aspherical(filled)


def test_aspherical_rejects_improper():
    bad = LabeledComplex(TRIANGLE, ((0, 1, 2), (0, 2, 3), (1, 2, 6)))
    with pytest.raises(ValueError):
        is_aspherical(bad)
