import random

import pytest

from cornerkit.homology import (FGAbelianGroup, IntegerMatrix, TRIVIAL_GROUP,
                                Z, chain_complex, cokernel, determinant,
                                homology, homology_all, reduced_homology,
                                reduced_homology_all, snf, snf_diagonal,
                                solve_integer, unimodular_inverse, verify_snf)
from cornerkit.simplicial import boundary_simplex, build_complex, point_complex
from conftest import random_complex
from oracles import coset_count, rational_reduced_betti


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntegerMatrix.from_rows(
        [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)])


def test_snf_identity_and_zero():
    res = snf(IntegerMatrix.identity(3))
    assert res.diagonal() == [1, 1, 1]
    res = snf(IntegerMatrix.zeros(2, 3))
    assert res.diagonal() == [0, 0]


def test_snf_self_check_is_on_in_tests():
    # conftest turns on the postcondition check inside every snf() call
    assert snf.__globals__["VERIFY_EVERY_SNF"] is True


def test_snf_divisor_chain_example():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors:
    # minors of [[2,4],[6,8]] -> det = -8, so d2 = 4
    res = snf(IntegerMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.diagonal() == [2, 4]
    assert verify_snf(IntegerMatrix.from_rows([[2, 4], [6, 8]]), res)


def test_snf_postconditions_random():
    rng = random.Random(17)
    for _ in range(250):
        A = rand_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        res = snf(A)
        assert verify_snf(A, res)


def test_snf_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(23)
    for _ in range(40):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        A = rand_matrix(rng, r, c)
        ours = [d for d in snf_diagonal(A) if d]
        S = smith_normal_form(sympy.Matrix(A.tolists()))
        theirs = sorted(abs(S[i, i]) for i in range(min(r, c)) if S[i, i] != 0)
        assert sorted(ours) == theirs


def test_chain_complex_shapes():
    C = chain_complex(build_complex([[0, 1], [1, 2], [0, 2]]))
    assert C.boundary[1].rows == 3 and C.boundary[1].cols == 3
    assert len(snf_diagonal(C.boundary[1])) == 3
    assert sum(1 for d in snf_diagonal(C.boundary[1]) if d) == 2
    B3 = chain_complex(boundary_simplex(3))
    assert C.boundary[1].rows == 3
    assert B3.boundary[2].rows == 6 and B3.boundary[2].cols == 4
    assert B3.boundary[1].rows == 4 and B3.boundary[1].cols == 6
    pt = chain_complex(point_complex(1))
    assert all(m.is_zero() for m in pt.boundary.values())


def test_boundary_squares_to_zero():
    rng = random.Random(2)
    for _ in range(10):
        C = chain_complex(random_complex(rng, rng.randrange(4, 8)))
        for k in C.boundary:
            if k - 1 in C.boundary:
                assert C.boundary[k - 1].mul(C.boundary[k]).is_zero()


def test_reduced_homology_spheres_and_cycles():
    hom = reduced_homology_all(boundary_simplex(3))
    assert hom[2] == Z
    assert hom[0].is_trivial() and hom[1].is_trivial()
    assert reduced_homology(build_complex([[0, 1], [1, 2], [0, 2]]), 1) == Z


def test_rp2_torsion(rp2_6):
    hom = reduced_homology_all(rp2_6)
    assert hom[1] == FGAbelianGroup(0, (2,))
    assert hom[2].is_trivial()
    # rational-rank cross-check: betti_1 = 0 over Q despite the torsion
    facets = [list(f.vertices) for f in rp2_6.facets]
    assert rational_reduced_betti(facets, 1) == 0
    assert rational_reduced_betti(facets, 2) == 0


def test_homology_matches_rational_betti_on_random_complexes():
    rng = random.Random(31)
    for _ in range(10):
        K = random_complex(rng, rng.randrange(3, 8))
        facets = [list(f.vertices) for f in K.facets]
        hom = reduced_homology_all(K)
        for k in range(0, K.dim + 1):
            assert hom[k].free_rank == rational_reduced_betti(facets, k)


def test_unreduced_h0_counts_components():
    K = build_complex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    assert homology(chain_complex(K), 0) == FGAbelianGroup(2, ())


def test_cokernel_examples():
    assert cokernel(IntegerMatrix.identity(4)) == TRIVIAL_GROUP
    assert cokernel(IntegerMatrix.from_rows([[2, 0], [0, 3]])) == \
        FGAbelianGroup(0, (6,))
    assert cokernel(IntegerMatrix.from_rows([[2], [0]])) == \
        FGAbelianGroup(1, (2,))


def test_cokernel_order_equals_det():
    rng = random.Random(41)
    done = 0
    while done < 60:
        A = rand_matrix(rng, 3, 3, -4, 4)
        d = determinant(A)
        if d == 0 or abs(d) > 50:
            continue
        group = cokernel(A)
        assert group.order() == abs(d)
        assert coset_count(A.tolists()) == abs(d)
        done += 1


def test_solve_integer_examples():
    I3 = IntegerMatrix.identity(3)
    assert solve_integer(I3, [5, -2, 7]) == [5, -2, 7]
    assert solve_integer(IntegerMatrix.from_rows([[2]]), [3]) is None
    assert solve_integer(IntegerMatrix.from_rows([[2]]), [3], 5) == [4]


def test_solve_integer_verified_and_box_checked():
    rng = random.Random(55)
    for _ in range(100):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        A = rand_matrix(rng, r, c, -4, 4)
        b = [rng.randrange(-6, 7) for _ in range(r)]
        x = solve_integer(A, b)
        if x is not None:
            assert A.mul_vector(x) == b
        else:
            box = range(-6, 7)
            import itertools
            assert not any(
                A.mul_vector(list(cand)) == b
                for cand in itertools.product(box, repeat=c))


def test_solve_mod_matches_exhaustive():
    rng = random.Random(56)
    import itertools
    for _ in range(60):
        q = rng.choice([2, 3, 4, 6])
        r, c = rng.randrange(1, 3), rng.randrange(1, 3)
        A = rand_matrix(rng, r, c, -3, 3)
        b = [rng.randrange(q) for _ in range(r)]
        x = solve_integer(A, b, q)
        brute = [cand for cand in itertools.product(range(q), repeat=c)
                 if all(v % q == w % q
                        for v, w in zip(A.mul_vector(list(cand)), b))]
        if x is None:
            assert not brute
        else:
            assert all(v % q == w % q for v, w in zip(A.mul_vector(x), b))


def test_snf_agrees_with_bareiss_determinant_at_scale():
    # two unrelated algorithms must agree on |det|; nonsingular 8x8 with
    # large entries pushes intermediate values well past machine width
    rng = random.Random(58)
    import math
    done = 0
    while done < 15:
        A = rand_matrix(rng, 8, 8, -999, 999)
        d = determinant(A)
        if d == 0:
            continue
        diag = snf_diagonal(A)
        assert math.prod(diag) == abs(d)
        done += 1


def test_group_normalization():
    g = FGAbelianGroup.from_invariants([2, 3])
    assert g == FGAbelianGroup(0, (6,))
    g = FGAbelianGroup.from_invariants([4, 6])
    assert g.torsion == (2, 12)
    g = FGAbelianGroup.from_invariants([0, 2, 0], free_rank=1)
    assert g == FGAbelianGroup(3, (2,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (3, 2))  # violates the divisor chain


def test_group_element_arithmetic():
    g = FGAbelianGroup(1, (2, 4))
    assert g.reduce((5, 3, 7)) == (5, 1, 3)
    assert g.add((1, 1, 3), (2, 1, 2)) == (3, 0, 1)
    assert g.neg((1, 1, 1)) == (-1, 1, 3)
    assert g.order() is None
    assert FGAbelianGroup(0, (2, 4)).order() == 8


def test_euler_poincare_alternating_sums():
    rng = random.Random(77)
    for _ in range(8):
        K = random_complex(rng, rng.randrange(3, 7))
        C = chain_complex(K)
        hom = homology_all(C)
        chain_sum = sum((-1) ** k * len(C.basis[k]) for k in C.basis)
        betti_sum = sum((-1) ** k * g.free_rank for k, g in hom.items())
        assert chain_sum == betti_sum


def test_suspension_shifts_reduced_homology():
    # suspension isomorphism: H~_{k+1}(susp K) = H~_k(K); a machinery-wide
    # consistency check with torsion included
    from cornerkit.simplicial import suspension
    rng = random.Random(99)
    complexes = [build_complex([[0, 1], [1, 2], [0, 2]]),
                 boundary_simplex(3)]
    complexes += [random_complex(rng, rng.randrange(3, 7)) for _ in range(6)]
    for K in complexes:
        base = reduced_homology_all(K)
        lifted = reduced_homology_all(suspension(K))
        for k in range(-1, K.dim + 1):
            assert lifted.get(k + 1, TRIVIAL_GROUP) == \
                base.get(k, TRIVIAL_GROUP), (K, k)


def test_suspension_of_rp2_carries_torsion_up(rp2_6):
    from cornerkit.simplicial import suspension
    hom = reduced_homology_all(suspension(rp2_6))
    assert hom[2] == FGAbelianGroup(0, (2,))
    assert hom[1].is_trivial() and hom[3].is_trivial()


def test_cones_are_acyclic():
    from cornerkit.simplicial import cone
    rng = random.Random(98)
    for _ in range(8):
        K = random_complex(rng, rng.randrange(3, 7))
        hom = reduced_homology_all(cone(K))
        assert all(g.is_trivial() for k, g in hom.items() if k >= 0), K


def test_unimodular_inverse():
    rng = random.Random(91)
    found = 0
    while found < 10:
        A = rand_matrix(rng, 3, 3, -2, 2)
        if abs(determinant(A)) != 1:
            continue
        inv = unimodular_inverse(A)
        assert A.mul(inv).entries == IntegerMatrix.identity(3).entries
        found += 1
