"""A census of small complexes: every simplicial complex on 1 to 4
labelled vertices, plus {∅}, checked against the oracles, and every
ordered pair of them against the brute-force isomorphism test; every
small labeling of them against the Coxeter oracles; and every small label
pattern against the cosine-matrix test of finiteness, against the
classifier's union-find reference, and, component by component, against
the type that its count of positive roots names.

A complex on the vertices 0..n-1 is an antichain of nonempty subsets
that covers them, its facets; there are 1, 2, 9 and 114 of them for
n = 1..4.  The random strategies reach the edge cases late or never; the
census reaches every small one by construction.
"""

import math
import random
from functools import cache
from itertools import combinations, permutations, product

import pytest

from cornerkit import elimination, ghs
from cornerkit.clearing import reduced_homology_all
from cornerkit.coxeter import (INFINITE, CoxeterMatrix, FinitenessVerdict,
                               coxeter_nerve, is_finite, is_proper_labeling)
from cornerkit.dualcells import acyclicity_report, dual_complex
from cornerkit.equivalence import find_isomorphism, verify_isomorphism
from cornerkit.simplicial import (EMPTY_COMPLEX, LabeledComplex,
                                  build_complex, simplices)
import oracles
from conftest import reports_and_oracle_reports


def covering_antichains(n: int):
    """Every antichain of nonempty subsets of range(n) whose union is
    range(n), each as a list of sorted tuples."""
    subsets = [c for k in range(1, n + 1) for c in combinations(range(n), k)]

    def extend(i, chosen):
        if i == len(subsets):
            if set().union(*chosen) == set(range(n)):
                yield [tuple(sorted(s)) for s in chosen]
            return
        yield from extend(i + 1, chosen)
        s = set(subsets[i])
        if all(not (s <= t or t <= s) for t in chosen):
            yield from extend(i + 1, chosen + [s])

    return extend(0, [])


CENSUS = [build_complex(facets) for n in range(1, 5)
          for facets in covering_antichains(n)]


def test_the_census_has_every_complex_on_four_vertices():
    assert len(CENSUS) == len(set(CENSUS)) == 126
    assert [sum(K.num_vertices == n for K in CENSUS)
            for n in range(1, 5)] == [1, 2, 9, 114]


def test_census_reduced_homology_matches_the_dense_oracle():
    for K in [EMPTY_COMPLEX] + CENSUS:
        assert reduced_homology_all(K) == oracles.homology_all(
            oracles.chain_complex(K, augmented=True)), K


def test_census_link_loop_matches_the_per_link_check():
    for K in [EMPTY_COMPLEX] + CENSUS:
        for m in range(K.dim + 2):
            assert ghs._check_links(K, m) == oracles.per_link_check(K, m), \
                (K, m)


def test_census_ghs_and_manifold_reports_match_the_oracle_comparisons():
    for K in CENSUS:
        ours, reference = reports_and_oracle_reports(K)
        assert ours == reference, K
    for check in (ghs.is_ghs, ghs.is_polyhedral_homology_manifold):
        with pytest.raises(ValueError, match="empty complex"):
            check(EMPTY_COMPLEX, 1)


def test_census_acyclicity_matches_the_per_grade_build():
    for K in [EMPTY_COMPLEX] + CENSUS:
        for n in range(K.dim + 1, K.dim + 4):
            for include_top in (True, False):
                ours = acyclicity_report(dual_complex(K, n, include_top))
                reference = oracles.acyclicity_report(
                    oracles.per_grade_dual_complex(K, n, include_top))
                assert ours == reference, (K, n, include_top)


def test_census_coboundary_replays_take_the_pivots_of_the_full_row_scan():
    for K in [EMPTY_COMPLEX] + CENSUS:
        for n in range(K.dim + 1, K.dim + 3):
            for A in dual_complex(K, n).delta.values():
                b = [[i % 5 - 2, i % 3] for i in range(A.rows)]
                ours, reference = [list(v) for v in b], [list(v) for v in b]
                assert elimination._replay(A, ours) == \
                    oracles.replay(A, reference), (K, n)
                assert ours == reference, (K, n)


def up_to_isomorphism(complexes):
    """One complex of each isomorphism class, the first in the list: two
    complexes are isomorphic when some vertex permutation carries the
    facets of one onto those of the other."""
    seen, out = set(), []
    for K in complexes:
        n = K.num_vertices
        forms = {tuple(sorted(tuple(sorted(p[v] for v in f))
                              for f in K.facets))
                 for p in permutations(range(n))}
        if not forms & seen:
            seen.add(min(forms))
            out.append(K)
    return out


FOUR_VERTEX_CLASSES = up_to_isomorphism(
    [K for K in CENSUS if K.num_vertices == 4])


def labelings(K, labels):
    """Every labeling of K's edges from labels."""
    edges = simplices(K, 1)
    for choice in product(labels, repeat=len(edges)):
        yield LabeledComplex(K, tuple((u, v, m)
                                     for (u, v), m in zip(edges, choice)))


def test_the_four_vertex_census_has_twenty_isomorphism_classes():
    assert len(FOUR_VERTEX_CLASSES) == 20


def test_census_coxeter_properness_and_nerve_match_the_per_subset_tests():
    small = [(K, range(2, 7)) for K in CENSUS if K.num_vertices <= 3]
    four = [(K, range(2, 5)) for K in FOUR_VERTEX_CLASSES]
    count = 0
    for K, labels in small + four:
        for LK in labelings(K, labels):
            assert is_proper_labeling(LK) == oracles.per_facet_proper(LK), LK
            assert sorted(coxeter_nerve(LK).facets) == \
                oracles.per_candidate_nerve(LK), LK
            count += 1
    assert count == 348 + 5476


def test_census_isomorphism_search_matches_brute_force():
    # every ordered pair: the search finds a mapping exactly when some
    # vertex bijection carries facets onto facets, and every mapping it
    # returns passes the independent check
    found = 0
    for A in [EMPTY_COMPLEX] + CENSUS:
        for B in [EMPTY_COMPLEX] + CENSUS:
            mapping = find_isomorphism(A, B)
            reference = oracles.brute_force_isomorphic(A.facets, B.facets)
            assert (mapping is None) == (reference is None), (A, B)
            if mapping is not None:
                assert verify_isomorphism(A, B, mapping), (A, B, mapping)
                found += 1
    # {∅} with itself, and each census complex with every member of its
    # isomorphism class
    assert found == 991


def forest_patterns(n: int, labels):
    """Every label pattern on n generators whose bonds (the pairs not
    labeled 2) form a forest, each bond labeled from labels."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for chosen in product((False, True), repeat=len(pairs)):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x
        for (i, j), bond in zip(pairs, chosen):
            if bond:
                ri, rj = find(i), find(j)
                if ri == rj:  # a cycle
                    break
                parent[ri] = rj
        else:
            for bonds in product(labels, repeat=sum(chosen)):
                it = iter(bonds)
                yield tuple(next(it) if bond else 2 for bond in chosen)


@cache
def classifier_census() -> list[tuple[CoxeterMatrix, FinitenessVerdict]]:
    """(matrix, is_finite verdict) of every label pattern that the
    classifier tests below read, each decided once: every pattern over ∞
    and 2..6 on 1 to 4 generators, the 39,801 five-generator forests with
    bonds labeled 3 to 6, and 5,000 seeded five-generator patterns."""
    rng = random.Random(5)
    small = [CoxeterMatrix(tuple(range(n)), pattern) for n in range(1, 5)
             for pattern in product((INFINITE, 2, 3, 4, 5, 6),
                                    repeat=n * (n - 1) // 2)]
    forests = [CoxeterMatrix(tuple(range(5)), pattern)
               for pattern in forest_patterns(5, (3, 4, 5, 6))]
    assert len(forests) == 39801
    sample = [CoxeterMatrix(tuple(range(5)), tuple(
        rng.choice((INFINITE, 2, 3, 4, 5, 6)) for _ in range(10)))
        for _ in range(5000)]
    return [(M, is_finite(M)) for M in small + forests + sample]


def assert_the_cosine_matrix_agrees(generators, count):
    """The census verdicts on `generators` generators against an oracle
    that does not call the classifier."""
    census = [(M, verdict) for M, verdict in classifier_census()
              if len(M.vertices) in generators]
    assert len(census) == count
    for M, verdict in census:
        assert verdict.finite == oracles.cosine_matrix_is_positive_definite(
            len(M.vertices), M.pattern), M.pattern


def test_the_classifier_agrees_with_the_cosine_matrix_on_four_generators():
    # labels ∞ and 2..6 on every pair of 1 to 4 generators
    assert_the_cosine_matrix_agrees((1, 2, 3, 4), 1 + 6 + 6 ** 3 + 6 ** 6)


def test_the_classifier_agrees_with_the_cosine_matrix_on_five_generators():
    # every finite type of rank 5 is a forest of bonds labeled 3 to 6 (A5,
    # B5, D5 and the products of smaller types), so the 39,801 forests
    # cover them all; the 5,000 seeded patterns reach ∞ labels and cycles
    assert_the_cosine_matrix_agrees((5,), 39801 + 5000)


def test_the_classifier_matches_its_union_find_reference():
    # components, their order and tags, and the group order
    census = classifier_census()
    assert len(census) == 1 + 6 + 6 ** 3 + 6 ** 6 + 39801 + 5000
    for M, verdict in census:
        assert verdict == oracles.union_find_is_finite(M), M.pattern


# (rank, number of positive roots): (tag, |W|) of every finite irreducible
# Coxeter group of rank 5 or less; no two share a key
ROOT_COUNT_TYPES = {
    **{(r, r * (r + 1) // 2): (f"A{r}", math.factorial(r + 1))
       for r in range(1, 6)},
    **{(r, r * r): (f"B{r}", 2 ** r * math.factorial(r)) for r in range(2, 6)},
    **{(r, r * (r - 1)): (f"D{r}", 2 ** (r - 1) * math.factorial(r))
       for r in (4, 5)},
    (4, 24): ("F4", 1152), (3, 15): ("H3", 120), (4, 60): ("H4", 14400),
    **{(2, m): (f"I2({m})", 2 * m) for m in (5, 6)},
}


def test_each_finite_component_has_the_type_its_roots_name():
    # the tag and order against an oracle that does not call the
    # classifier; infinite components are the cosine-matrix test's
    assert len(ROOT_COUNT_TYPES) == 5 + 4 + 2 + 3 + 2
    by_pattern = {}  # a component's own label pattern: its type
    for M, verdict in classifier_census():
        order = 1
        for comp, tag in verdict.components:
            if tag == "infinite":
                continue
            own = tuple(M.order_of(a, b)
                        for j, b in enumerate(comp) for a in comp[:j])
            if own not in by_pattern:
                count = oracles.positive_root_count(M.pattern, comp, 200)
                assert (len(comp), count) in ROOT_COUNT_TYPES, \
                    (M.pattern, comp, count)
                by_pattern[own] = ROOT_COUNT_TYPES[len(comp), count]
            expected, group_order = by_pattern[own]
            assert tag == expected, (M.pattern, comp)
            order *= group_order
        assert verdict.order == (order if verdict.finite else None), \
            M.pattern
    assert len(by_pattern) == 336
