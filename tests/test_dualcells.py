import itertools
import random

import pytest

from cornerkit.dualcells import (Cochain, acyclicity_report, coboundary,
                                 dual_complex, indicator_cochain, is_cocycle,
                                 is_resolution_ready, solve_obstruction,
                                 zero_cochain)
from cornerkit.homology import FGAbelianGroup, Z
from cornerkit.simplicial import (Simplex, boundary_simplex, build_complex,
                                  point_complex)

Z2 = FGAbelianGroup(0, (2,))
Z4 = FGAbelianGroup(0, (4,))
THREE_CYCLE = build_complex([[0, 1], [1, 2], [0, 2]])


def all_z2_cochains(D, degree):
    faces = D.faces[degree]
    for bits in itertools.product((0, 1), repeat=len(faces)):
        yield Cochain.build(D, degree, Z2,
                            {f.label.vertices: (b,)
                             for f, b in zip(faces, bits)})


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
            assert D.boundary[d - 1].mul(D.boundary[d]).is_zero()


def test_dimension_guard():
    with pytest.raises(ValueError):
        dual_complex(boundary_simplex(3), 2)


def test_top_cell_boundary_signs():
    D = dual_complex(THREE_CYCLE, 2)
    top = D.faces[2][0]
    assert top.label.vertices == ()
    for v_face in D.faces[1]:
        assert D.incidence(v_face, top) == 1


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
    for key, coords in db.values:
        F = D.face(Simplex(key))
        assert coords == Z4.reduce((D.incidence(G, F) * 3,))


def test_coboundary_squares_to_zero_z4():
    rng = random.Random(19)
    D = dual_complex(boundary_simplex(3), 3)
    for _ in range(50):
        k = rng.randrange(0, 2)
        d = Cochain.build(D, k, Z4,
                          {f.label.vertices: (rng.randrange(4),)
                           for f in D.faces[k]})
        assert coboundary(D, coboundary(D, d)).is_zero()


def test_coboundary_degree_range():
    D = dual_complex(boundary_simplex(3), 3)
    with pytest.raises(ValueError):
        coboundary(D, zero_cochain(D, 3, Z2))


def test_cocycle_detection_with_witness():
    D = dual_complex(boundary_simplex(3), 3)
    assert is_cocycle(D, zero_cochain(D, 1, Z2)) == (True, None)
    rng = random.Random(23)
    d = Cochain.build(D, 1, Z2, {f.label.vertices: (rng.randrange(2),)
                                 for f in D.faces[1]})
    ok, witness = is_cocycle(D, coboundary(D, d))
    assert ok and witness is None
    single = indicator_cochain(D, D.faces[1][0], (1,), Z2)
    ok, witness = is_cocycle(D, single)
    assert not ok
    assert witness is not None and witness.dim == 2


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
                    total += D.incidence(F, E) * c.values[i][1][0]
                assert total % 2 == 0


def test_cocycles_closed_under_indicator_adjustment():
    D = dual_complex(boundary_simplex(3), 3)
    rng = random.Random(29)
    for c in itertools.islice(all_z2_cochains(D, 2), 16):
        before, _ = is_cocycle(D, c)
        G = D.faces[1][rng.randrange(len(D.faces[1]))]
        adjustment = coboundary(D, indicator_cochain(D, G, (1,), Z2))
        summed = Cochain.build(D, 2, Z2,
                               {key: Z2.add(v, w) for (key, v), (_, w)
                                in zip(c.values, adjustment.values)})
        after, _ = is_cocycle(D, summed)
        assert before == after


def test_solver_rejects_non_cocycles():
    D = dual_complex(boundary_simplex(3), 3)
    bad = indicator_cochain(D, D.faces[1][0], (1,), Z2)
    with pytest.raises(ValueError):
        solve_obstruction(D, bad)


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
                {f.label.vertices: tuple(rng.randrange(-4, 5)
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
                {f.label.vertices: tuple(rng.randrange(-3, 4)
                                         for _ in range(group.num_coords))
                 for f in D.faces[k - 1]})
            c = coboundary(D, d0)
            d1 = solve_obstruction(D, c)
            assert d1 is not None
            assert [v for _, v in coboundary(D, d1).values] == \
                [v for _, v in c.values]


def test_cochain_json_round_trip():
    from cornerkit.jsonio import cochain_from_obj, cochain_to_obj
    D = dual_complex(boundary_simplex(3), 3)
    rng = random.Random(37)
    group = FGAbelianGroup(1, (2,))
    c = Cochain.build(D, 2, group,
                      {f.label.vertices: (rng.randrange(-3, 4),
                                          rng.randrange(2))
                       for f in D.faces[2]})
    assert cochain_from_obj(cochain_to_obj(c), D) == c


def test_cochain_build_validation():
    D = dual_complex(boundary_simplex(3), 3)
    with pytest.raises(ValueError):
        Cochain.build(D, 9, Z2)
    with pytest.raises(ValueError):
        Cochain.build(D, 1, Z2, {(0, 1, 2, 3): (1,)})
