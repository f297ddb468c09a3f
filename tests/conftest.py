import functools
import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cornerkit import clearing, ghs, homology, smith
from cornerkit.dualcells import Cochain
from cornerkit.jsonio import complex_from_obj
from cornerkit.quasitoric import pair_from_obj
from cornerkit.simplicial import build_complex
import oracles
from oracles import verify_snf

# modules that hold snf(): smith defines it, homology forwards it
SNF_CALLERS = (homology, smith)


def verify_every_snf(snf):
    """snf() that asserts U·A·V = D, unimodularity and the divisor chain
    on every result; it calls whatever its __wrapped__ attribute holds."""
    @functools.wraps(snf)
    def checked(A):
        result = checked.__wrapped__(A)
        assert verify_snf(A, result), "SNF postcondition violated"
        return result
    return checked


# installed before any test module imports snf
_checked_snf = verify_every_snf(smith.snf)
for _module in SNF_CALLERS:
    _module.snf = _checked_snf

DATA = Path(__file__).parent.parent / "src" / "cornerkit" / "data"


@pytest.fixture(scope="session")
def poincare16():
    with open(DATA / "poincare16.json") as fh:
        return complex_from_obj(json.load(fh))


@pytest.fixture(scope="session")
def rp2_6():
    with open(DATA / "rp2_6.json") as fh:
        return complex_from_obj(json.load(fh))


@pytest.fixture(scope="session")
def cp2_pair():
    with open(DATA / "cp2_pair.json") as fh:
        return pair_from_obj(json.load(fh))


def invariant_factors(M):
    """The nonzero invariant factors of a SparseMatrix, in divisor-chain
    order: unit pivots from a sparse column reduction, then snf_diagonal
    on the (usually empty) leftover block."""
    return clearing._reduce(M)[0]


def incidence(D, G, F) -> int:
    """[D_G : D_F] in the dual complex D, zero unless D_G lies one grade
    below D_F, that is, unless G has one vertex more than F: the entry of
    D.delta[d] in row F and column G."""
    if len(G) != len(F) + 1:
        return 0
    d = D.n - len(F)
    i, j = D.faces[d].index(F), D.faces[d - 1].index(G)
    return next((x for r, x in D.delta[d].columns[j] if r == i), 0)


def zero_cochain(D, degree, group):
    return Cochain.build(D, degree, group)


def indicator_cochain(D, G, gamma, group):
    """The cochain assigning gamma to the single dual face D_G and zero
    elsewhere."""
    return Cochain.build(D, D.n - len(G), group, {G: gamma})


def reports_and_oracle_reports(K):
    """Both checks of K at every m from 0 to dim K + 1, from the library
    and with the oracle comparisons patched in: purity, the global check
    and every link decided on its own."""
    checks = ((ghs.is_ghs, 1), (ghs.is_polyhedral_homology_manifold, 0))

    def reports():
        return [check(K, m + extra)
                for m in range(K.dim + 2) for check, extra in checks]

    ours = reports()
    with mock.patch.multiple(
            ghs, sphere_homology_defects=oracles.sphere_homology_defects,
            _purity_failures=oracles.purity_failures,
            _check_links=oracles.per_link_check):
        return ours, reports()


# Császár torus: complete 1-skeleton on 7 vertices, 14 triangles
TORUS = build_complex(
    [sorted({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)]
    + [sorted({i % 7, (i + 2) % 7, (i + 3) % 7}) for i in range(7)])


def random_complex(rng: random.Random, n: int, max_facet: int = 4):
    """A valid complex using exactly the vertices 0..n-1."""
    while True:
        facets = []
        for _ in range(rng.randrange(2, 2 * n + 1)):
            size = rng.randrange(1, min(n, max_facet) + 1)
            facets.append(rng.sample(range(n), size))
        try:
            K = build_complex(facets)
        except ValueError:
            continue
        if K.num_vertices == n:
            return K


def shuffled_copy(K, rng: random.Random):
    """Same complex with vertices renamed by a random permutation."""
    perm = list(range(K.num_vertices))
    rng.shuffle(perm)
    return build_complex([[perm[v] for v in f]
                          for f in K.facets]), perm


def random_labeled(rng: random.Random, n: int, labels=(2, 3, 4, 5)):
    from cornerkit.simplicial import LabeledComplex, simplices
    K = random_complex(rng, n)
    lab = tuple((u, v, rng.choice(labels)) for u, v in simplices(K, 1))
    return LabeledComplex(K, lab)


def shuffle_labeled(LK, rng: random.Random):
    from cornerkit.simplicial import LabeledComplex
    perm = list(range(LK.complex.num_vertices))
    rng.shuffle(perm)
    K = build_complex([[perm[v] for v in f]
                       for f in LK.complex.facets])
    labels = tuple((min(perm[u], perm[v]), max(perm[u], perm[v]), m)
                   for u, v, m in LK.labels)
    return LabeledComplex(K, labels), perm
