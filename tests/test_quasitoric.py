import random
import warnings

import pytest

from cornerkit.ghs import is_ghs
from cornerkit.homology import FGAbelianGroup, IntegerMatrix
from cornerkit.quasitoric import (CharacteristicPair, Fan, even_betti_report,
                                  from_fan, h_vector, is_characteristic,
                                  pi1_orbit_union, unimodular_span)
from cornerkit.simplicial import (EMPTY_COMPLEX, boundary_simplex,
                                  build_complex, point_complex)
from oracles import coset_count, determinant

TRIANGLE_NERVE = build_complex([[0, 1], [0, 2], [1, 2]])


def cp2():
    return CharacteristicPair(TRIANGLE_NERVE, 2,
                              IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))


def test_unimodular_span_examples():
    assert unimodular_span([[1, 0, 0], [0, 1, 0]])
    assert not unimodular_span([[2, 0]])
    assert unimodular_span([[1, 0], [1, 1]])
    assert unimodular_span([])
    # three vectors of Z^2: two invariant factors, never three ones
    assert not unimodular_span([[1, 0], [0, 1], [1, 1]])


def test_cp2_pair_is_characteristic(cp2_pair):
    assert is_characteristic(cp2()) == (True, None)
    assert is_characteristic(cp2_pair) == (True, None)


def test_det2_perturbation_fails_with_witness():
    bad = CharacteristicPair(TRIANGLE_NERVE, 2,
                             IntegerMatrix.from_rows([[2, 0], [0, 1], [1, 1]]))
    ok, witness = is_characteristic(bad)
    assert not ok and witness == (0, 1)


def test_identity_pair_on_simplex_boundary():
    for n in (2, 3, 4):
        lam = IntegerMatrix.identity(n)
        pair = CharacteristicPair(boundary_simplex(n - 1), n, lam)
        assert is_characteristic(pair) == (True, None)


def test_pair_validation():
    with pytest.raises(ValueError):  # zero row
        CharacteristicPair(TRIANGLE_NERVE, 2,
                           IntegerMatrix.from_rows([[0, 0], [0, 1], [1, 1]]))
    with pytest.raises(ValueError):  # m < n
        CharacteristicPair(point_complex(1), 2,
                           IntegerMatrix.from_rows([[1, 0]]))
    with pytest.raises(ValueError):  # row count mismatch
        CharacteristicPair(TRIANGLE_NERVE, 2,
                           IntegerMatrix.from_rows([[1, 0], [0, 1]]))


def test_pair_of_torus_rank_below_one_is_rejected():
    # the rank is checked first, whatever lambda holds
    for nerve, n, rows in [(EMPTY_COMPLEX, 0, []),
                           (TRIANGLE_NERVE, 0, [[], [], []]),
                           (TRIANGLE_NERVE, -1, [[1], [0], [1]])]:
        with pytest.raises(ValueError) as exc:
            CharacteristicPair(nerve, n, IntegerMatrix.from_rows(rows))
        assert str(exc.value) == f"torus rank n must be >= 1, got {n}"


def test_pi1_orbit_union():
    assert pi1_orbit_union(cp2()).is_trivial()
    two_pts = point_complex(2)
    assert pi1_orbit_union(
        CharacteristicPair(two_pts, 2,
                           IntegerMatrix.from_rows([[1, 0], [1, 0]]))
    ) == FGAbelianGroup(1, ())
    assert pi1_orbit_union(
        CharacteristicPair(two_pts, 2,
                           IntegerMatrix.from_rows([[2, 0], [0, 1]]))
    ) == FGAbelianGroup(0, (2,))


def test_pi1_trivial_whenever_characteristic_with_full_facet():
    rng = random.Random(61)
    for n in (2, 3):
        for _ in range(20):
            rows = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n + 1)]
            try:
                pair = CharacteristicPair(
                    boundary_simplex(n), n, IntegerMatrix.from_rows(rows))
            except ValueError:
                continue
            ok, _ = is_characteristic(pair)
            if ok:
                assert pi1_orbit_union(pair).is_trivial()


def test_from_fan_cp2():
    fan = Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    pair = from_fan(fan)
    assert is_characteristic(pair) == (True, None)
    assert is_ghs(pair.nerve, 2).verdict
    assert pair.lam.entries == ((1, 0), (0, 1), (-1, -1))


def test_from_fan_rejects_singular_cones():
    fan = Fan(((1, 0), (1, 2)), ((0, 1),))
    with pytest.raises(ValueError, match="singular cones"):
        from_fan(fan)


def test_from_fan_one_dimensional():
    pair = from_fan(Fan(((1,), (-1,)), ((0,), (1,))))
    assert pair.nerve == point_complex(2)
    assert is_characteristic(pair) == (True, None)
    assert is_ghs(pair.nerve, 1).verdict


def test_fan_normalizes_rays_with_warning():
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        fan = Fan(((2, 0), (0, 1)), ((0,), (1,)))
    assert fan.rays[0] == (1, 0)
    assert any("not primitive" in str(w.message) for w in captured)


def test_h_vector_and_betti_report(cp2_pair):
    assert even_betti_report(cp2_pair) == (1, 1, 1)
    cp3ish = CharacteristicPair(
        boundary_simplex(3), 3,
        IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                 [-1, -1, -1]]))
    assert even_betti_report(cp3ish) == (1, 1, 1, 1)


def test_h_vector_sums_to_facet_count():
    cp3ish = CharacteristicPair(
        boundary_simplex(3), 3,
        IntegerMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                 [-1, -1, -1]]))
    for pair in [cp2(), cp3ish]:
        assert sum(h_vector(pair)) == len(pair.nerve.facets)


def test_h_vector_symmetry_on_spheres(poincare16):
    cases = [cp2(),
             CharacteristicPair(boundary_simplex(3), 3,
                                IntegerMatrix.from_rows(
                                    [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                     [-1, -1, -1]])),
             CharacteristicPair(poincare16, 4,
                                IntegerMatrix.from_rows(
                                    [[1, 0, 0, 0]] * 16))]
    for pair in cases:
        if not is_ghs(pair.nerve, pair.n).verdict:
            continue
        h = h_vector(pair)
        assert h == tuple(reversed(h))


def test_betti_report_preconditions():
    disk_pair = CharacteristicPair(build_complex([[0, 1, 2]]), 3,
                                   IntegerMatrix.identity(3))
    with pytest.raises(ValueError, match="homology"):
        even_betti_report(disk_pair)
    bad = CharacteristicPair(TRIANGLE_NERVE, 2,
                             IntegerMatrix.from_rows([[2, 0], [0, 1], [1, 1]]))
    with pytest.raises(ValueError, match="offending"):
        even_betti_report(bad)


def test_facet_check_agrees_with_all_simplices(cp2_pair):
    from cornerkit.simplicial import simplices
    rng = random.Random(79)
    pairs = [cp2(), cp2_pair]
    for n in (2, 3):
        for _ in range(15):
            rows = [[rng.randrange(-3, 4) for _ in range(n)]
                    for _ in range(n + 1)]
            try:
                pairs.append(CharacteristicPair(
                    boundary_simplex(n), n, IntegerMatrix.from_rows(rows)))
            except ValueError:
                continue
    for pair in pairs:
        per_facet = is_characteristic(pair)[0]
        exhaustive = all(
            unimodular_span([pair.row(v) for v in s])
            for k in range(min(pair.nerve.dim, pair.n - 1) + 1)
            for s in simplices(pair.nerve, k))
        assert per_facet == exhaustive


def test_sign_flip_invariance(cp2_pair):
    rng = random.Random(71)
    for pair in [cp2(), cp2_pair]:
        base_verdict = is_characteristic(pair)
        base_pi1 = pi1_orbit_union(pair)
        base_h = h_vector(pair)
        for _ in range(5):
            rows = [list(r) for r in pair.lam.entries]
            i = rng.randrange(len(rows))
            rows[i] = [-x for x in rows[i]]
            flipped = CharacteristicPair(pair.nerve, pair.n,
                                         IntegerMatrix.from_rows(rows))
            assert is_characteristic(flipped) == base_verdict
            assert pi1_orbit_union(flipped) == base_pi1
            assert h_vector(flipped) == base_h


def test_cokernel_order_against_coset_oracle():
    rng = random.Random(73)
    done = 0
    while done < 50:
        n = rng.choice((2, 3))
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        M = IntegerMatrix.from_rows(rows)
        d = determinant(M)
        if d == 0 or abs(d) > 60:
            continue
        from cornerkit.homology import cokernel
        assert cokernel(M).order() == coset_count(rows) == abs(d)
        done += 1
