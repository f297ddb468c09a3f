import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cornerkit import equivalence
from cornerkit.constructions import boundary_simplex, join, label_all
from cornerkit.equivalence import (_search, _static_order, _vertex_data,
                                   find_isomorphism, invariant_fingerprint,
                                   verify_isomorphism)
from cornerkit.jsonio import complex_to_obj, dumps
from cornerkit.simplicial import LabeledComplex, build_complex
from conftest import (random_complex, random_labeled, shuffle_labeled,
                      shuffled_copy)
from oracles import (brute_force_isomorphic, full_map_search, min_order,
                     recursive_search)

PENTAGON = build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])


def test_shuffled_copies_are_found_and_verified():
    rng = random.Random(101)
    for _ in range(40):
        K = random_complex(rng, rng.randrange(3, 11))
        L, _ = shuffled_copy(K, rng)
        mapping = find_isomorphism(K, L)
        assert mapping is not None
        assert verify_isomorphism(K, L, mapping)


def test_label_multiset_mismatch_is_rejected():
    A = label_all(PENTAGON, 2)
    B = LabeledComplex(PENTAGON, ((0, 1, 3), (1, 2, 2), (2, 3, 2),
                                  (3, 4, 2), (0, 4, 2)))
    assert find_isomorphism(A, B) is None


def test_full_simplex_join_identity():
    J = join(build_complex([[0, 1]]), build_complex([[0, 1, 2]]))
    mapping = find_isomorphism(J, build_complex([[0, 1, 2, 3, 4]]))
    assert mapping is not None
    # and the factor-order swap on sphere joins is a nontrivial isomorphism
    A = join(boundary_simplex(1), boundary_simplex(2))
    B = join(boundary_simplex(2), boundary_simplex(1))
    mapping = find_isomorphism(A, B)
    assert mapping is not None and verify_isomorphism(A, B, mapping)


def test_spheres_of_different_kind_are_not_isomorphic():
    # S^2 as a join of boundaries vs S^3 as a simplex boundary: different
    # dimension, and the search must say so
    A = join(boundary_simplex(1), boundary_simplex(2))
    assert find_isomorphism(A, boundary_simplex(4)) is None


def test_verify_isomorphism_rejects_bad_maps():
    K = boundary_simplex(2)
    assert verify_isomorphism(K, K, {0: 0, 1: 1, 2: 2})
    assert not verify_isomorphism(K, K, {0: 0, 1: 0, 2: 2})  # not bijective
    assert not verify_isomorphism(K, K, {0: 0, 1: 1})        # not total
    # swapping one pair on a distinctly-labeled pentagon breaks labels
    labels = ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 6))
    A = LabeledComplex(PENTAGON, labels)
    good = find_isomorphism(A, A)
    assert good is not None and verify_isomorphism(A, A, good)
    perturbed = dict(good)
    perturbed[0], perturbed[1] = perturbed[1], perturbed[0]
    assert not verify_isomorphism(A, A, perturbed)


def test_fingerprint_invariance_and_separation():
    rng = random.Random(103)
    for _ in range(20):
        K = random_complex(rng, rng.randrange(3, 9))
        L, _ = shuffled_copy(K, rng)
        assert invariant_fingerprint(K) == invariant_fingerprint(L)
    hexagon = build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]])
    assert invariant_fingerprint(PENTAGON) != invariant_fingerprint(hexagon)


def test_labeled_shuffles_and_perturbations():
    rng = random.Random(107)
    for _ in range(30):
        LK = random_labeled(rng, rng.randrange(3, 9))
        shuffled, _ = shuffle_labeled(LK, rng)
        assert find_isomorphism(LK, shuffled) is not None
        u, v, m = LK.labels[rng.randrange(len(LK.labels))]
        perturbed_labels = tuple(
            (a, b, mm + 1 if (a, b) == (u, v) else mm)
            for a, b, mm in LK.labels)
        perturbed = LabeledComplex(LK.complex, perturbed_labels)
        assert find_isomorphism(LK, perturbed) is None


def test_agreement_with_brute_force():
    rng = random.Random(109)
    for _ in range(30):
        n = rng.randrange(3, 8)
        K = random_complex(rng, n)
        if rng.random() < 0.5:
            L, _ = shuffled_copy(K, rng)
        else:
            L = random_complex(rng, n)
        ours = find_isomorphism(K, L)
        brute = brute_force_isomorphic(
            list(K.facets), list(L.facets))
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert verify_isomorphism(K, L, ours)


def test_symmetry_of_search():
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randrange(3, 8)
        A = random_complex(rng, n)
        B = random_complex(rng, n)
        assert (find_isomorphism(A, B) is None) == \
            (find_isomorphism(B, A) is None)


def test_determinism():
    rng = random.Random(127)
    K = random_complex(rng, 9)
    L, _ = shuffled_copy(K, rng)
    assert find_isomorphism(K, L) == find_isomorphism(K, L)


def test_vertex_data_is_built_once_per_complex(monkeypatch):
    builds = []

    def counted(X):
        builds.append(X)
        return _vertex_data(X)

    monkeypatch.setattr(equivalence, "_vertex_data", counted)
    rng = random.Random(12)
    A = random_complex(rng, 7)
    B, _ = shuffled_copy(A, rng)
    assert find_isomorphism(A, B) is not None
    LA = random_labeled(rng, 6)
    LB, _ = shuffle_labeled(LA, rng)
    assert find_isomorphism(LA, LB) is not None
    # the fingerprint and the search share one build per complex
    assert [id(X) for X in builds] == [id(A), id(B), id(LA), id(LB)]


def test_mixed_labeledness_finds_no_isomorphism():
    assert find_isomorphism(label_all(PENTAGON, 2), PENTAGON) is None
    assert find_isomorphism(PENTAGON, label_all(PENTAGON, 2)) is None


def _shuffled(X, rng):
    if isinstance(X, LabeledComplex):
        return shuffle_labeled(X, rng)[0]
    return shuffled_copy(X, rng)[0]


def _facets_and_labels(X):
    if isinstance(X, LabeledComplex):
        return list(X.complex.facets), X.label_dict()
    return list(X.facets), None


@functools.cache
def fingerprint_twins() -> list[tuple]:
    """Non-isomorphic pairs with equal invariant fingerprints, found by
    rejection sampling small random complexes (labels 2 and 3 on half of
    them) and confirmed by brute force."""
    rng = random.Random(2)
    seen: dict[tuple, list] = {}
    twins = []
    while len(twins) < 24:
        n = rng.randrange(4, 8)
        if rng.random() < 0.5:
            X = random_complex(rng, n, max_facet=rng.choice([2, 3]))
        else:
            X = random_labeled(rng, n, labels=(2, 3))
        key = (type(X), invariant_fingerprint(X))
        fa, la = _facets_and_labels(X)
        for Y in seen.get(key, []):
            fb, lb = _facets_and_labels(Y)
            if brute_force_isomorphic(fa, fb, la, lb) is None:
                twins.append((X, Y))
                break
        seen.setdefault(key, []).append(X)
    return twins


@st.composite
def search_cases(draw):
    """(A, B) with equal fingerprints: a random complex, labeled or not,
    and a relabeling of it; or a shuffled fingerprint twin."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        A, B = draw(st.sampled_from(fingerprint_twins()))
        if draw(st.booleans()):
            A, B = B, A
        return A, _shuffled(B, rng)
    n = draw(st.integers(3, 9))
    if draw(st.booleans()):
        A = random_labeled(rng, n, labels=draw(st.sampled_from(
            [(2,), (2, 3), (2, 3, 4, 5)])))
    else:
        A = random_complex(rng, n)
    return A, _shuffled(A, rng)


def count_calls(names, search, *args):
    """search(*args) and the number of calls of the equivalence functions
    named in names."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name in names \
                and frame.f_code.co_filename == equivalence.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = search(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def search_inputs(A, B):
    """The arguments find_isomorphism(A, B) hands _search."""
    KA, adjA, invA = _vertex_data(A)
    KB, adjB, invB = _vertex_data(B)
    by_inv: dict[tuple, list[int]] = {}
    for v in range(KB.num_vertices):
        by_inv.setdefault(invB[v], []).append(v)
    return KA, KB, invA, by_inv, adjA, adjB, _static_order(adjA, invA, by_inv)


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_neighbour_search_matches_full_map_search(case):
    A, B = case
    assert invariant_fingerprint(A) == invariant_fingerprint(B)
    args = search_inputs(A, B)
    KA, KB, invA, by_inv, adjA, adjB, order = args
    assert order == min_order(adjA, invA, by_inv)
    expected, nodes = full_map_search(*args)
    # a node is an inner one, whose candidates are drawn, or a leaf
    result, calls = count_calls(("candidates", "complexes_match"),
                                _search, *args)
    assert result == expected
    assert calls == nodes  # the same depth-first tree, node for node
    assert find_isomorphism(A, B) == expected


@settings(max_examples=200, deadline=None)
@given(search_cases())
def test_iterative_search_matches_the_recursive_one(case):
    args = search_inputs(*case)
    assert count_calls(("complexes_match",), _search, *args) == \
        recursive_search(*args)


def test_equiv_of_a_3000_cycle_runs_no_recursion(tmp_path):
    # one depth per vertex: a recursive search would exceed Python's
    # recursion limit here and end in a traceback
    n = 3000
    perm = list(range(n))
    random.Random(3000).shuffle(perm)
    A = build_complex([[i, (i + 1) % n] for i in range(n)])
    B = build_complex([[perm[i], perm[(i + 1) % n]] for i in range(n)])
    (tmp_path / "a.json").write_text(dumps(complex_to_obj(A)))
    (tmp_path / "b.json").write_text(dumps(complex_to_obj(B)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "cornerkit", "equiv", "a.json", "b.json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert run.returncode == 0, run.stderr
    mapping = dict(json.loads(run.stdout)["mapping"])
    assert verify_isomorphism(A, B, mapping)
