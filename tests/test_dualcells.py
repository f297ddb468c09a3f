import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cornerkit import dualcells
from cornerkit.constructions import boundary_simplex, point_complex
from cornerkit.dualcells import (Cochain, NotACocycle, acyclicity_report,
                                 coboundary, dual_complex, is_cocycle,
                                 is_resolution_ready, solve_obstruction)
from cornerkit.homology import FGAbelianGroup, Z, solve_integer
from cornerkit.jsonio import complex_from_obj
from cornerkit.simplicial import build_complex
import oracles
from conftest import (incidence, indicator_cochain, random_complex,
                      zero_cochain)
from oracles import dense_snf, per_coordinate_solve, to_dense

Z2 = FGAbelianGroup(0, (2,))
Z4 = FGAbelianGroup(0, (4,))
THREE_CYCLE = build_complex([[0, 1], [1, 2], [0, 2]])


def all_z2_cochains(D, degree):
    faces = D.faces[degree]
    for bits in itertools.product((0, 1), repeat=len(faces)):
        yield Cochain.build(D, degree, Z2,
                            {f: (b,) for f, b in zip(faces, bits)})


def test_dual_of_triangle_boundary_is_a_disk():
    D = dual_complex(THREE_CYCLE, 2)
    assert {d: len(fs) for d, fs in D.faces.items()} == {0: 3, 1: 3, 2: 1}
    hom = acyclicity_report(D)
    assert hom[0] == Z
    assert hom[1].is_trivial() and hom[2].is_trivial()
    assert is_resolution_ready(acyclicity_report(D))


def test_dual_of_s0_is_an_interval():
    D = dual_complex(point_complex(2), 1)
    assert {d: len(fs) for d, fs in D.faces.items()} == {0: 2, 1: 1}
    assert is_resolution_ready(acyclicity_report(D))


def test_boundary_composite_vanishes():
    for N, n in [(boundary_simplex(3), 3), (boundary_simplex(4), 4),
                 (THREE_CYCLE, 2)]:
        D = dual_complex(N, n)
        for d in range(2, D.top_dim + 1):
            assert D.delta[d].mul(D.delta[d - 1]).is_zero()


def test_incidence_is_the_sign_of_the_added_vertex(poincare16, rp2_6):
    # straight from the definition: [D_τ : D_σ] = (-1)^(position of v in
    # τ) for τ = σ ∪ {v} a face of the nerve, and 0 otherwise
    for N, n, top in [(poincare16, 4, True), (rp2_6, 3, True),
                      (rp2_6, 5, True), (rp2_6, 3, False)]:
        D = dual_complex(N, n, include_top=top)
        for d in range(1, D.top_dim + 1):
            lower = {f: i for i, f in enumerate(D.faces[d - 1])}
            for j, F in enumerate(D.faces[d]):
                sigma = F
                expected = {}
                for v in range(N.num_vertices):
                    tau = tuple(sorted(sigma + (v,)))
                    if v not in sigma and tau in lower:
                        expected[lower[tau]] = (-1) ** tau.index(v)
                # row j of δ into grade d: the faces of grade d-1 below F
                assert {i: x for i, col in enumerate(D.delta[d].columns)
                        for r, x in col if r == j} == expected


def assert_equals_the_per_grade_build(N, n, include_top):
    D = dual_complex(N, n, include_top)
    old = oracles.per_grade_dual_complex(N, n, include_top)
    assert D.faces == old.faces
    assert D.delta == old.delta  # rows, cols and columns
    assert acyclicity_report(D) == oracles.acyclicity_report(old)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 4),
       st.booleans())
def test_dual_cells_equal_the_per_grade_build(seed, size, extra, include_top):
    # grades past dim N + 1 are empty and their δ has no columns
    N = random_complex(random.Random(seed), size)
    assert_equals_the_per_grade_build(N, N.dim + extra, include_top)


@pytest.mark.parametrize("include_top", [True, False])
@pytest.mark.parametrize("extra", [1, 2, 3, 4])
@pytest.mark.parametrize("nerve", ["empty", "three-points"])
def test_degenerate_dual_cells_equal_the_per_grade_build(nerve, extra,
                                                         include_top):
    N = (complex_from_obj({"num_vertices": 0, "facets": [[]]})
         if nerve == "empty" else point_complex(3))
    assert_equals_the_per_grade_build(N, N.dim + extra, include_top)


def test_dimension_guard():
    with pytest.raises(ValueError):
        dual_complex(boundary_simplex(3), 2)


def test_top_cell_boundary_signs():
    D = dual_complex(THREE_CYCLE, 2)
    top = D.faces[2][0]
    assert top == ()
    for v_face in D.faces[1]:
        assert incidence(D, v_face, top) == 1


def test_include_top_flag_models_the_boundary():
    D = dual_complex(boundary_simplex(3), 3, include_top=False)
    assert D.top_dim == 2
    hom = acyclicity_report(D)
    # boundary of the resolution is the sphere: H_0 = Z, H_2 = Z
    assert hom[0] == Z and hom[2] == Z and hom[1].is_trivial()
    assert not is_resolution_ready(acyclicity_report(D))


def test_coboundary_of_zero_and_indicator():
    D = dual_complex(boundary_simplex(3), 3)
    assert coboundary(D, zero_cochain(D, 1, Z4)).is_zero()
    G = D.faces[1][2]
    ind = indicator_cochain(D, G, (3,), Z4)
    db = coboundary(D, ind)
    for F, coords in db.values:
        assert coords == Z4.reduce((incidence(D, G, F) * 3,))


def test_coboundary_squares_to_zero_z4():
    rng = random.Random(19)
    D = dual_complex(boundary_simplex(3), 3)
    for _ in range(50):
        k = rng.randrange(0, 2)
        d = Cochain.build(D, k, Z4,
                          {f: (rng.randrange(4),) for f in D.faces[k]})
        assert coboundary(D, coboundary(D, d)).is_zero()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coboundary_is_the_dense_incidence_product(rp2_6, data):
    N = data.draw(st.sampled_from((boundary_simplex(3), rp2_6)))
    D = dual_complex(N, data.draw(st.sampled_from((N.dim + 1, N.dim + 2))),
                     include_top=data.draw(st.booleans()))
    k = data.draw(st.integers(1, D.top_dim))
    group = FGAbelianGroup(1, (6,))
    faces = D.faces[k - 1]
    x = data.draw(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                           min_size=len(faces), max_size=len(faces)))
    d = Cochain.build(D, k - 1, group,
                      dict(zip(faces, x)))
    dense = to_dense(D.delta[k])  # rows: grade k, columns: grade k-1
    values = [coords for _, coords in d.values]
    expected = [group.reduce([sum(row[j] * values[j][c]
                                  for j in range(dense.cols))
                              for c in range(2)])
                for row in dense.entries]
    assert [coords for _, coords in coboundary(D, d).values] == expected


def test_coboundary_degree_range():
    D = dual_complex(boundary_simplex(3), 3)
    with pytest.raises(ValueError):
        coboundary(D, zero_cochain(D, 3, Z2))


def test_cocycle_detection_with_witness():
    D = dual_complex(boundary_simplex(3), 3)
    assert is_cocycle(D, zero_cochain(D, 1, Z2)) == (True, None)
    rng = random.Random(23)
    d = Cochain.build(D, 1, Z2, {f: (rng.randrange(2),) for f in D.faces[1]})
    ok, witness = is_cocycle(D, coboundary(D, d))
    assert ok and witness is None
    single = indicator_cochain(D, D.faces[1][0], (1,), Z2)
    ok, witness = is_cocycle(D, single)
    assert not ok
    # the first dual face, in label order, where δc is nonzero
    assert witness == next(F for F, v in coboundary(D, single).values
                           if v != (0,))


def test_exhaustive_z2_solving_on_tetrahedron_dual():
    D = dual_complex(boundary_simplex(3), 3)
    for degree in (1, 2, 3):
        cocycles = 0
        for c in all_z2_cochains(D, degree):
            ok, _ = is_cocycle(D, c)
            if not ok:
                continue
            cocycles += 1
            d = solve_obstruction(D, c)
            assert d is not None
            check = coboundary(D, d)
            assert [v for _, v in check.values] == [v for _, v in c.values]
        assert cocycles > 0


def test_boundary_sum_rule_for_cocycles():
    # Σ [F:E]·c(F) over the boundary of every higher face E vanishes
    D = dual_complex(boundary_simplex(3), 3)
    for degree in (1, 2):
        for c in all_z2_cochains(D, degree):
            ok, _ = is_cocycle(D, c)
            if not ok:
                continue
            for E in D.faces[degree + 1]:
                total = 0
                for i, F in enumerate(D.faces[degree]):
                    total += incidence(D, F, E) * c.values[i][1][0]
                assert total % 2 == 0


def test_cocycles_closed_under_indicator_adjustment():
    D = dual_complex(boundary_simplex(3), 3)
    rng = random.Random(29)
    for c in itertools.islice(all_z2_cochains(D, 2), 16):
        before, _ = is_cocycle(D, c)
        G = D.faces[1][rng.randrange(len(D.faces[1]))]
        adjustment = coboundary(D, indicator_cochain(D, G, (1,), Z2))
        summed = Cochain.build(D, 2, Z2,
                               {key: Z2.reduce((v[0] + w[0],))
                                for (key, v), (_, w)
                                in zip(c.values, adjustment.values)})
        after, _ = is_cocycle(D, summed)
        assert before == after


def test_solver_rejects_non_cocycles():
    D = dual_complex(boundary_simplex(3), 3)
    bad = indicator_cochain(D, D.faces[1][0], (1,), Z2)
    ok, witness = is_cocycle(D, bad)
    assert not ok
    with pytest.raises(NotACocycle) as exc:
        solve_obstruction(D, bad)
    assert isinstance(exc.value, ValueError)
    assert exc.value.witness == witness == (0,)
    assert str(exc.value) == ("input cochain is not a cocycle; δc is "
                              "nonzero on (0,)")


def test_solver_checks_the_cocycle_before_the_degree():
    D = dual_complex(boundary_simplex(3), 3)
    bad = indicator_cochain(D, (0, 1, 2), (1,), Z)
    assert bad.degree == 0
    with pytest.raises(NotACocycle) as exc:
        solve_obstruction(D, bad)
    assert exc.value.witness == is_cocycle(D, bad)[1] == (0, 1)
    with pytest.raises(ValueError) as exc:
        solve_obstruction(D, zero_cochain(D, 0, Z))
    assert type(exc.value) is ValueError
    assert str(exc.value) == "obstruction solving needs degree >= 1"


def test_one_solve_checks_the_cocycle_once(monkeypatch):
    calls = []
    check = dualcells.is_cocycle
    monkeypatch.setattr(dualcells, "is_cocycle",
                        lambda D, c: calls.append(c) or check(D, c))
    D = dual_complex(boundary_simplex(3), 3)
    for c in (zero_cochain(D, 2, Z),
              indicator_cochain(D, D.faces[1][0], (1,), Z2)):
        calls.clear()
        try:
            solve_obstruction(D, c)
        except NotACocycle:
            pass
        assert calls == [c]


WRONG_PREIMAGE = """
import sys
from cornerkit import dualcells
from cornerkit.dualcells import (Cochain, coboundary, dual_complex,
                                 solve_obstruction)
from cornerkit.homology import Z
from cornerkit.constructions import boundary_simplex
D = dual_complex(boundary_simplex(3), 3)
c = coboundary(D, Cochain.build(D, 1, Z, {D.faces[1][0]: (1,)}))
dualcells.solve_integer = lambda A, b, group: [group.zero()] * A.cols
try:
    solve_obstruction(D, c)
except AssertionError as exc:
    print(sys.flags.optimize, repr(exc))
"""


def test_solver_postcondition_survives_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    run = subprocess.run([sys.executable, "-O", "-c", WRONG_PREIMAGE],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "1 AssertionError('solver postcondition')\n"


def test_solver_returns_none_on_non_acyclic_complex():
    two_cycles = build_complex([[0, 1], [1, 2], [0, 2],
                                [3, 4], [4, 5], [3, 5]])
    D = dual_complex(two_cycles, 2)
    assert not is_resolution_ready(acyclicity_report(D))
    unsolved = 0
    for degree in (1, 2):
        for c in all_z2_cochains(D, degree):
            ok, _ = is_cocycle(D, c)
            if ok and solve_obstruction(D, c) is None:
                unsolved += 1
    assert unsolved > 0


def test_degenerate_disconnected_input_not_ready():
    D = dual_complex(point_complex(3), 1)
    assert not is_resolution_ready(acyclicity_report(D))


def test_random_coboundaries_round_trip_many_groups(poincare16):
    rng = random.Random(31)
    D = dual_complex(boundary_simplex(4), 4)
    groups = [Z, FGAbelianGroup(0, (6,)), FGAbelianGroup(1, (2,))]
    for group in groups:
        for _ in range(25):
            k = rng.randrange(1, 5)
            d0 = Cochain.build(
                D, k - 1, group,
                {f: tuple(rng.randrange(-4, 5)
                          for _ in range(group.num_coords))
                 for f in D.faces[k - 1]})
            c = coboundary(D, d0)
            d1 = solve_obstruction(D, c)
            assert d1 is not None
            assert [v for _, v in coboundary(D, d1).values] == \
                [v for _, v in c.values]


def test_ghs_dual_complexes_are_resolution_ready(poincare16):
    assert is_resolution_ready(acyclicity_report(
        dual_complex(boundary_simplex(4), 4)))
    assert is_resolution_ready(acyclicity_report(dual_complex(poincare16, 4)))


def test_solver_complete_on_poincare_dual(poincare16):
    rng = random.Random(41)
    D = dual_complex(poincare16, 4)
    for group in (Z, FGAbelianGroup(1, (2,))):
        for k in (2, 3, 4):
            d0 = Cochain.build(
                D, k - 1, group,
                {f: tuple(rng.randrange(-3, 4)
                          for _ in range(group.num_coords))
                 for f in D.faces[k - 1]})
            c = coboundary(D, d0)
            d1 = solve_obstruction(D, c)
            assert d1 is not None
            assert [v for _, v in coboundary(D, d1).values] == \
                [v for _, v in c.values]


def test_solve_runs_no_dense_smith_form(poincare16, monkeypatch):
    import cornerkit.homology as homology
    calls = []
    for name in ("snf", "snf_diagonal"):
        monkeypatch.setattr(homology, name, lambda A, name=name,
                            f=getattr(homology, name): calls.append(name)
                            or f(A))
    rng = random.Random(43)
    D = dual_complex(poincare16, 4)
    group = FGAbelianGroup(1, (6,))
    d0 = Cochain.build(D, 1, group, {
        f: (rng.randrange(-3, 4), rng.randrange(6))
        for f in D.faces[1]})
    c = coboundary(D, d0)
    assert c.degree == 2
    assert solve_obstruction(D, c) is not None
    assert calls == []


@pytest.mark.parametrize("nerve,n,include_top", [
    ("boundary-simplex-3", 3, True), ("rp2_6", 3, True),
    ("rp2_6", 3, False), ("poincare16", 4, True)])
def test_sparse_solve_matches_the_reference_on_every_dual_grade(
        request, nerve, n, include_top):
    N = (boundary_simplex(3) if nerve == "boundary-simplex-3"
         else request.getfixturevalue(nerve))
    D = dual_complex(N, n, include_top)
    group = FGAbelianGroup(1, (6,))
    rng = random.Random(f"{nerve}:{n}:{include_top}")
    unsolvable = 0
    for k in range(1, D.top_dim + 1):
        delta = D.delta[k]
        dense = to_dense(delta)
        x = [(rng.randrange(-3, 4), rng.randrange(6))
             for _ in range(delta.cols)]
        image = [group.reduce([sum(a * e[i] for a, e in zip(row, x))
                               for i in range(2)]) for row in dense.entries]
        arbitrary = [(rng.randrange(-3, 4), rng.randrange(6))
                     for _ in range(delta.rows)]
        for b in (image, arbitrary):
            got = solve_integer(delta, b, group)
            assert got == per_coordinate_solve(dense_snf, dense, b, group)
            assert got is not None or b is arbitrary
            unsolvable += got is None
    assert unsolvable > 0


def test_cochain_json_round_trip():
    from cornerkit.dualcells import cochain_from_obj, cochain_to_obj
    D = dual_complex(boundary_simplex(3), 3)
    rng = random.Random(37)
    group = FGAbelianGroup(1, (2,))
    c = Cochain.build(D, 2, group,
                      {f: (rng.randrange(-3, 4), rng.randrange(2))
                       for f in D.faces[2]})
    assert cochain_from_obj(cochain_to_obj(c), D) == c


def test_cochain_build_validation():
    D = dual_complex(boundary_simplex(3), 3)
    with pytest.raises(ValueError):
        Cochain.build(D, 9, Z2)
    with pytest.raises(ValueError):
        Cochain.build(D, 1, Z2, {(0, 1, 2, 3): (1,)})
