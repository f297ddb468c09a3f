import json
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from cornerkit import elimination
from cornerkit.clearing import (homology_all, reduced_homology,
                                reduced_homology_all)
from cornerkit.constructions import (barycentric, boundary_simplex, cone,
                                     join, point_complex, suspension)
from cornerkit.dualcells import (Cochain, acyclicity_report, coboundary,
                                 dual_complex, solve_obstruction)
from cornerkit.homology import (ChainComplex, FGAbelianGroup, TRIVIAL_GROUP,
                                Z, chain_complex, solve_integer)
from cornerkit.jsonio import complex_from_obj
from cornerkit.simplicial import build_complex, f_vector
from cornerkit.smith import (IntegerMatrix, SNFResult, cokernel, snf,
                             snf_diagonal)
from conftest import DATA, SNF_CALLERS, invariant_factors, random_complex
import oracles
from oracles import (coset_count, dense_snf, determinant, matmul, matvec,
                     per_coordinate_solve, rational_reduced_betti,
                     to_dense, verify_snf)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntegerMatrix.from_rows(
        [[rng.randrange(lo, hi + 1) for _ in range(cols)] for _ in range(rows)])


def test_snf_identity_and_zero():
    res = snf(IntegerMatrix.identity(3))
    assert res.diagonal() == [1, 1, 1]
    res = snf(IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    assert res.diagonal() == [0, 0]


def test_package_attributes_are_its_modules():
    import cornerkit.homology as H
    assert isinstance(H, types.ModuleType) and H.solve_integer is solve_integer


def test_snf_self_check_is_on_in_tests(monkeypatch):
    # conftest wraps snf() in a postcondition check wherever it is looked up
    checked = SNF_CALLERS[0].snf
    for module in SNF_CALLERS:
        assert module.snf is checked
    assert snf is checked and hasattr(checked, "__wrapped__")
    A = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    honest = checked.__wrapped__
    assert checked(A).diagonal() == [2, 4]

    def tampered(M):
        res = honest(M)
        return SNFResult(res.U, IntegerMatrix.from_rows([[2, 0], [0, 8]]),
                         res.V)

    monkeypatch.setattr(checked, "__wrapped__", tampered)
    with pytest.raises(AssertionError, match="SNF postcondition violated"):
        checked(A)


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
    assert len(snf_diagonal(to_dense(C.boundary[1]))) == 3
    assert sum(1 for d in snf_diagonal(to_dense(C.boundary[1])) if d) == 2
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


def test_chain_complex_rejects_nonzero_composite():
    one = IntegerMatrix.identity(1).to_sparse()
    with pytest.raises(ValueError, match="∂∘∂ != 0"):
        ChainComplex({1: one, 2: one}, {0: ("a",), 1: ("b",), 2: ("c",)})


def test_public_constructor_messages_are_pinned():
    one = IntegerMatrix.identity(1).to_sparse()
    row = IntegerMatrix.from_rows([[1, -1]]).to_sparse()
    with pytest.raises(ValueError) as shape:
        ChainComplex({1: row}, {0: ("a",), 1: ("b",)})
    assert str(shape.value) == \
        "boundary map degree 1 has shape 1x2, expected 1x1"
    with pytest.raises(ValueError) as composite:
        ChainComplex({1: one, 2: one}, {0: ("a",), 1: ("b",), 2: ("c",)})
    assert str(composite.value) == "∂∘∂ != 0 between degrees 2 and 0"


RP2_6 = complex_from_obj(json.loads((DATA / "rp2_6.json").read_text()))


@st.composite
def small_complexes(draw):
    """Random complexes, and rp2_6 with up to three facets of up to three
    vertices added, each suspended up to twice: torsion Z/2 in degrees 1
    to 3 when the added facets leave it."""
    if draw(st.booleans()):
        K = random_complex(random.Random(draw(st.integers(0, 2**32 - 1))),
                           draw(st.integers(1, 7)))
    else:
        extra = draw(st.lists(st.lists(st.integers(0, 6), min_size=1,
                                       max_size=3, unique=True),
                              max_size=3))
        K = build_complex([*RP2_6.facets, *extra])
    for _ in range(draw(st.integers(0, 2))):
        K = suspension(K)
    return K


@settings(max_examples=150, deadline=None)
@given(small_complexes(), st.booleans())
def test_trusted_chain_complex_equals_the_validated_one(K, augmented):
    C = chain_complex(K, augmented)
    for k in C.boundary:
        if k - 1 in C.boundary:
            assert C.boundary[k - 1].mul(C.boundary[k]).is_zero()
    assert C == oracles.chain_complex(K, augmented)


@settings(max_examples=150, deadline=None)
@given(small_complexes(), st.booleans())
def test_clearing_gives_the_groups_of_every_map_on_its_own(K, augmented):
    C = chain_complex(K, augmented)
    assert homology_all(C) == oracles.homology_all(C)


@settings(max_examples=100, deadline=None)
@given(small_complexes(), st.integers(1, 2), st.booleans())
def test_clearing_on_dual_complexes(N, extra, include_top):
    D = dual_complex(N, N.dim + extra, include_top)
    assert acyclicity_report(D) == oracles.acyclicity_report(D)


POINCARE16 = complex_from_obj(json.loads((DATA / "poincare16.json").read_text()))
NERVES = {
    "poincare16": POINCARE16, "rp2_6": RP2_6,
    "susp-poincare16": suspension(POINCARE16), "susp-rp2_6": suspension(RP2_6),
    "rp2_6-join-rp2_6": join(RP2_6, RP2_6),
    "boundary-simplex-3": boundary_simplex(3), "three-points": point_complex(3),
    "empty": complex_from_obj({"num_vertices": 0, "facets": [[]]})}


@pytest.mark.parametrize("include_top", [True, False])
@pytest.mark.parametrize("nerve,n", [
    ("poincare16", 4), ("poincare16", 5), ("poincare16", 7), ("rp2_6", 3),
    ("rp2_6", 4), ("susp-poincare16", 5), ("susp-rp2_6", 4),
    ("rp2_6-join-rp2_6", 6), ("boundary-simplex-3", 3), ("three-points", 1),
    ("three-points", 2), ("empty", 0), ("empty", 1)])
def test_acyclicity_of_fixed_nerves_equals_the_oracle(nerve, n, include_top):
    D = dual_complex(NERVES[nerve], n, include_top)
    assert acyclicity_report(D) == oracles.acyclicity_report(D)


def test_only_unit_pivots_clear():
    # ∂_2 = (2, 1)^T starts with a non-unit, so row 0 is no pivot; were
    # column 0 of ∂_1 = (1, -2) skipped, H_0 would read Z/2
    C = ChainComplex(
        {1: IntegerMatrix.from_rows([[1, -2]]).to_sparse(),
         2: IntegerMatrix.from_rows([[2], [1]]).to_sparse()},
        {0: ("p",), 1: ("a", "b"), 2: ("t",)})
    assert homology_all(C) == oracles.homology_all(C) == {
        0: TRIVIAL_GROUP, 1: TRIVIAL_GROUP, 2: TRIVIAL_GROUP}


def test_clearing_keeps_torsion():
    # the torsion of the property tests above, pinned
    hom = homology_all(chain_complex(suspension(suspension(RP2_6)), True))
    assert hom[3] == FGAbelianGroup(0, (2,))
    assert hom == oracles.homology_all(
        oracles.chain_complex(suspension(suspension(RP2_6)), True))


def test_only_the_public_constructor_checks(monkeypatch):
    calls = []
    check = ChainComplex.__post_init__

    def spy(self):
        calls.append(self)
        return check(self)
    monkeypatch.setattr(ChainComplex, "__post_init__", spy)
    chain_complex(RP2_6, augmented=True)
    reduced_homology_all(suspension(RP2_6))
    D = dual_complex(RP2_6, 4)
    acyclicity_report(D)
    d = Cochain.build(D, 1, Z, {f: (1,) for f in D.faces[1]})
    assert solve_obstruction(D, coboundary(D, d)) is not None
    assert calls == []
    one = IntegerMatrix.identity(1).to_sparse()
    ChainComplex({1: one}, {0: ("a",), 1: ("b",)})
    assert len(calls) == 1


@st.composite
def unimodular(draw, n):
    """A product of random elementary row operations on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=3 * n)):
        if i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntegerMatrix.from_rows(rows)


@st.composite
def torsion_matrices(draw, square=False, factors=(0, 1, 2, 3, 4, 6)):
    """U·diag(d)·V with U, V unimodular and at least one d > 1."""
    # the coset oracle's cofactor expansion starts at 2x2
    r = draw(st.integers(2, 4) if square else st.integers(1, 6))
    c = r if square else draw(st.integers(1, 6))
    d = draw(st.lists(st.sampled_from(factors), min_size=min(r, c),
                      max_size=min(r, c)))
    d[draw(st.integers(0, len(d) - 1))] = draw(st.sampled_from((2, 3, 4)))
    D = IntegerMatrix.from_rows([[d[i] if i == j else 0 for j in range(c)]
                                 for i in range(r)])
    return matmul(matmul(draw(unimodular(r)), D), draw(unimodular(c)))


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices with small entries, as boundaries are."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3))
    return IntegerMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                      min_size=r, max_size=r)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(torsion_matrices(), sparse_matrices()))
def test_sparse_invariants_match_dense_snf(A):
    assert invariant_factors(A.to_sparse()) == \
        [d for d in snf_diagonal(A) if d]


@st.composite
def smith_cases(draw):
    """Matrices from 0x0 to 7x7, empty rows or columns included, whose
    entries include non-units, so pivots > 1 and the offender step occur."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -6))
    return IntegerMatrix(r, c, tuple(draw(st.lists(
        st.tuples(*[entry] * c), min_size=r, max_size=r))))


@settings(max_examples=400, deadline=None)
@given(smith_cases())
def test_sparse_smith_form_equals_the_dense_oracle(A):
    res, ref = snf(A), dense_snf(A)
    assert (res.U, res.D, res.V) == (ref.U, ref.D, ref.V)
    assert snf_diagonal(A) == ref.diagonal()


@st.composite
def replay_cases(draw):
    """(A, b): mostly-zero matrices up to 12x10, often with most rows
    zero or repeated, so that elimination empties rows, and one vector of
    0 to 2 integers per row."""
    r, c = draw(st.integers(0, 12)), draw(st.integers(0, 10))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -6))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if rows and draw(st.booleans()):
        # keep a few rows, and make each other row zero or a copy of one
        kept = draw(st.integers(1, len(rows)))
        rows = [rows[i] if i < kept else
                draw(st.sampled_from([[0] * c] + rows[:kept]))
                for i in range(r)]
    width = draw(st.integers(0, 2))
    b = draw(st.lists(st.lists(st.integers(-5, 5), min_size=width,
                               max_size=width), min_size=r, max_size=r))
    A = IntegerMatrix(r, c, tuple(map(tuple, rows)))
    return A.to_sparse(), b


@settings(max_examples=400, deadline=None)
@given(replay_cases())
def test_the_replay_takes_the_pivots_of_the_full_row_scan(case):
    A, b = case
    ours, reference = [list(v) for v in b], [list(v) for v in b]
    assert elimination._replay(A, ours) == oracles.replay(A, reference)
    assert ours == reference


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), sparse_matrices())
def test_sparse_matrix_ops_match_dense(A, B):
    S = A.to_sparse()
    assert to_dense(S) == A
    assert all(next((x for r, x in S.columns[j] if r == i), 0) ==
               A.entries[i][j]
               for i in range(A.rows) for j in range(A.cols))
    if A.cols == B.rows:
        product = S.mul(B.to_sparse())
        assert to_dense(product) == matmul(A, B)
        assert product.is_zero() == (not any(map(any, matmul(A, B).entries)))


@settings(max_examples=100, deadline=None)
@given(torsion_matrices(square=True, factors=(1, 2, 3, 4)))
def test_sparse_invariants_multiply_to_the_coset_count(A):
    import math
    assert math.prod(invariant_factors(A.to_sparse())) == \
        coset_count(A.tolists())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_homology_all_matches_rational_betti(seed, n):
    K = random_complex(random.Random(seed), n)
    facets = [list(f) for f in K.facets]
    hom = homology_all(chain_complex(K))
    for k in range(K.dim + 1):
        # unreduced H_0 has one more Z than the reduced one
        assert hom[k].free_rank == rational_reduced_betti(facets, k) + (k == 0)


def test_barycentric_poincare_sphere_has_sphere_homology(poincare16):
    K = barycentric(poincare16)
    assert f_vector(K) == (392, 2552, 4320, 2160)
    C = chain_complex(K)
    assert [len(invariant_factors(C.boundary[k])) for k in (1, 2, 3)] == \
        [391, 2161, 2159]
    hom = reduced_homology_all(K)
    assert hom == {-1: TRIVIAL_GROUP, 0: TRIVIAL_GROUP, 1: TRIVIAL_GROUP,
                   2: TRIVIAL_GROUP, 3: Z}


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
    facets = [list(f) for f in rp2_6.facets]
    assert rational_reduced_betti(facets, 1) == 0
    assert rational_reduced_betti(facets, 2) == 0


def test_homology_matches_rational_betti_on_random_complexes():
    rng = random.Random(31)
    for _ in range(10):
        K = random_complex(rng, rng.randrange(3, 8))
        facets = [list(f) for f in K.facets]
        hom = reduced_homology_all(K)
        for k in range(0, K.dim + 1):
            assert hom[k].free_rank == rational_reduced_betti(facets, k)


def test_unreduced_h0_counts_components():
    K = build_complex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    assert homology_all(chain_complex(K))[0] == FGAbelianGroup(2, ())


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
        assert oracles.group_order(group) == abs(d)
        assert coset_count(A.tolists()) == abs(d)
        done += 1


def test_solve_integer_examples():
    I3 = IntegerMatrix.identity(3).to_sparse()
    assert solve_integer(I3, [(5,), (-2,), (7,)], Z) == [(5,), (-2,), (7,)]
    two = IntegerMatrix.from_rows([[2]]).to_sparse()
    assert solve_integer(two, [(3,)], Z) is None
    assert solve_integer(two, [(3,)], FGAbelianGroup(0, (5,))) == [(4,)]


def test_solve_integer_verified_and_box_checked():
    rng = random.Random(55)
    for _ in range(100):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        A = rand_matrix(rng, r, c, -4, 4)
        b = [rng.randrange(-6, 7) for _ in range(r)]
        x = solve_integer(A.to_sparse(), [(v,) for v in b], Z)
        if x is not None:
            assert matvec(A, [e for e, in x]) == b
        else:
            box = range(-6, 7)
            import itertools
            assert not any(
                matvec(A, list(cand)) == b
                for cand in itertools.product(box, repeat=c))


def test_solve_mod_matches_exhaustive():
    rng = random.Random(56)
    import itertools
    for _ in range(60):
        q = rng.choice([2, 3, 4, 6])
        r, c = rng.randrange(1, 3), rng.randrange(1, 3)
        A = rand_matrix(rng, r, c, -3, 3)
        b = [rng.randrange(q) for _ in range(r)]
        x = solve_integer(A.to_sparse(), [(v,) for v in b],
                          FGAbelianGroup(0, (q,)))
        brute = [cand for cand in itertools.product(range(q), repeat=c)
                 if all(v % q == w % q
                        for v, w in zip(matvec(A, list(cand)), b))]
        if x is None:
            assert not brute
        else:
            assert all(v % q == w % q
                       for v, w in zip(matvec(A, [e for e, in x]), b))


SOLVE_GROUPS = (Z, FGAbelianGroup(0, (2,)), FGAbelianGroup(0, (6,)),
                FGAbelianGroup(2, ()), FGAbelianGroup(1, (6,)),
                FGAbelianGroup(0, (2, 4)), TRIVIAL_GROUP)


def apply_to_elements(A, x, group):
    """A·x for x one element of group per column, coordinate-wise."""
    return [group.reduce([sum(a * e[k] for a, e in zip(row, x))
                          for k in range(group.num_coords)])
            for row in A.entries]


@st.composite
def solve_cases(draw):
    """(A, b, group, solvable): A tall, wide or square with small
    invariant factors; b either arbitrary or A·x for a drawn x."""
    small = draw(st.integers(1, 4))
    big = draw(st.integers(small + 1, 6))
    r, c = {"tall": (big, small), "wide": (small, big),
            "square": (small, small)}[draw(st.sampled_from(
                ("tall", "wide", "square")))]
    d = draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6)),
                      min_size=min(r, c), max_size=min(r, c)))
    D = IntegerMatrix.from_rows([[d[i] if i == j else 0 for j in range(c)]
                                 for i in range(r)])
    A = matmul(matmul(draw(unimodular(r)), D), draw(unimodular(c)))
    group = draw(st.sampled_from(SOLVE_GROUPS))
    element = st.tuples(*[st.integers(-8, 8)] * group.num_coords)
    solvable = draw(st.booleans())
    if solvable:
        b = apply_to_elements(
            A, draw(st.lists(element, min_size=c, max_size=c)), group)
    else:
        b = draw(st.lists(element, min_size=r, max_size=r))
    return A, b, group, solvable


@settings(max_examples=300, deadline=None)
@given(solve_cases())
def test_solve_integer_matches_the_per_coordinate_reference(case):
    A, b, group, solvable = case
    x = solve_integer(A.to_sparse(), b, group)
    assert x == per_coordinate_solve(dense_snf, A, b, group)
    if solvable:
        assert x is not None
    if x is not None:
        assert len(x) == A.cols
        assert apply_to_elements(A, x, group) == [group.reduce(v) for v in b]


@st.composite
def incidence_solve_cases(draw):
    """(A, b, group): mostly-zero matrices up to 10x12 whose entries
    include non-units, so pivots > 1 and the offender step both occur."""
    r, c = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3, -6))
    A = IntegerMatrix.from_rows(draw(st.lists(
        st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)))
    group = draw(st.sampled_from(SOLVE_GROUPS))
    element = st.tuples(*[st.integers(-8, 8)] * group.num_coords)
    if draw(st.booleans()):
        b = apply_to_elements(
            A, draw(st.lists(element, min_size=c, max_size=c)), group)
    else:
        b = draw(st.lists(element, min_size=r, max_size=r))
    return A, b, group


@settings(max_examples=300, deadline=None)
@given(incidence_solve_cases())
def test_sparse_solve_matches_the_reference_on_incidence_like_matrices(case):
    A, b, group = case
    assert solve_integer(A.to_sparse(), b, group) == \
        per_coordinate_solve(dense_snf, A, b, group)


def test_solve_over_the_trivial_group_needs_no_snf(monkeypatch):
    import cornerkit.homology as homology_module
    monkeypatch.setattr(homology_module, "snf", None)
    A = IntegerMatrix.from_rows([[2, 0], [0, 0], [1, 3]])
    assert solve_integer(A.to_sparse(), [(), (), ()],
                         TRIVIAL_GROUP) == [(), ()]


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
    g = oracles.from_invariants([2, 3])
    assert g == FGAbelianGroup(0, (6,))
    g = oracles.from_invariants([4, 6])
    assert g.torsion == (2, 12)
    g = oracles.from_invariants([0, 2, 0], free_rank=1)
    assert g == FGAbelianGroup(3, (2,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (3, 2))  # violates the divisor chain


def test_group_element_arithmetic():
    g = FGAbelianGroup(1, (2, 4))
    assert g.reduce((5, 3, 7)) == (5, 1, 3)
    assert oracles.group_order(g) is None
    assert oracles.group_order(FGAbelianGroup(0, (2, 4))) == 8
    assert oracles.group_order(TRIVIAL_GROUP) == 1


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
    hom = reduced_homology_all(suspension(rp2_6))
    assert hom[2] == FGAbelianGroup(0, (2,))
    assert hom[1].is_trivial() and hom[3].is_trivial()


def test_cones_are_acyclic():
    rng = random.Random(98)
    for _ in range(8):
        K = random_complex(rng, rng.randrange(3, 7))
        hom = reduced_homology_all(cone(K))
        assert all(g.is_trivial() for k, g in hom.items() if k >= 0), K
