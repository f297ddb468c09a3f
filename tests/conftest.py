import functools
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cornerkit import homology, quasitoric
from cornerkit.jsonio import complex_from_obj, pair_from_obj
from oracles import verify_snf

# modules that look up snf() by name
SNF_CALLERS = (homology, quasitoric)


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
_checked_snf = verify_every_snf(homology.snf)
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


def random_complex(rng: random.Random, n: int, max_facet: int = 4):
    """A valid complex using exactly the vertices 0..n-1."""
    from cornerkit.simplicial import build_complex
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
    from cornerkit.simplicial import build_complex
    perm = list(range(K.num_vertices))
    rng.shuffle(perm)
    return build_complex([[perm[v] for v in f.vertices]
                          for f in K.facets]), perm


def random_labeled(rng: random.Random, n: int, labels=(2, 3, 4, 5)):
    from cornerkit.simplicial import LabeledComplex, simplices
    K = random_complex(rng, n)
    lab = tuple((e.vertices[0], e.vertices[1], rng.choice(labels))
                for e in simplices(K, 1))
    return LabeledComplex(K, lab)


def shuffle_labeled(LK, rng: random.Random):
    from cornerkit.simplicial import LabeledComplex, build_complex
    perm = list(range(LK.complex.num_vertices))
    rng.shuffle(perm)
    K = build_complex([[perm[v] for v in f.vertices]
                       for f in LK.complex.facets])
    labels = tuple((min(perm[u], perm[v]), max(perm[u], perm[v]), m)
                   for u, v, m in LK.labels)
    return LabeledComplex(K, labels), perm
