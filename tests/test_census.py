"""A census of small complexes: every simplicial complex on 1 to 4
labelled vertices, plus {∅}, checked against the oracles, and every
small labeling of them against the Coxeter oracles.

A complex on the vertices 0..n-1 is an antichain of nonempty subsets
that covers them, its facets; there are 1, 2, 9 and 114 of them for
n = 1..4.  The random strategies reach the edge cases late or never; the
census reaches every small one by construction.
"""

from itertools import combinations, permutations, product

import pytest

from cornerkit import ghs
from cornerkit.coxeter import coxeter_nerve, is_proper_labeling
from cornerkit.dualcells import acyclicity_report, dual_complex
from cornerkit.homology import reduced_homology_all
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
