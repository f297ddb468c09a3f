"""A census of small complexes: every simplicial complex on 1 to 4
labelled vertices, plus {∅}, checked against the oracles.

A complex on the vertices 0..n-1 is an antichain of nonempty subsets
that covers them, its facets; there are 1, 2, 9 and 114 of them for
n = 1..4.  The random strategies reach the edge cases late or never; the
census reaches every small one by construction.
"""

from itertools import combinations

import pytest

from cornerkit import ghs
from cornerkit.dualcells import acyclicity_report, dual_complex
from cornerkit.homology import reduced_homology_all
from cornerkit.simplicial import EMPTY_COMPLEX, build_complex
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
