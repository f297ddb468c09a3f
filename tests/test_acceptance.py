"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Stated runtime ceilings are asserted, not just
reported.
"""

import itertools
import json
import random
import time
from pathlib import Path

from cornerkit.coxeter import (CoxeterMatrix, coxeter_matrix, is_aspherical,
                               is_finite, is_proper_labeling)
from cornerkit.dualcells import (Cochain, coboundary, dual_complex,
                                 is_cocycle, solve_obstruction)
from cornerkit.equivalence import find_isomorphism, verify_isomorphism
from cornerkit.ghs import is_ghs
from cornerkit.homology import (FGAbelianGroup, IntegerMatrix, Z, cokernel,
                                reduced_homology, snf)
from cornerkit.quasitoric import (CharacteristicPair, even_betti_report,
                                  h_vector, is_characteristic,
                                  pi1_orbit_union)
from cornerkit.simplicial import (LabeledComplex, barycentric_all_two,
                                  boundary_simplex, build_complex, join,
                                  label_all, point_complex, suspension)
from conftest import incidence, random_labeled, shuffle_labeled
from oracles import (brute_force_isomorphic, coset_count, determinant,
                     rational_reduced_betti, triangle_group_is_finite,
                     verify_snf)

DATA = Path(__file__).parent.parent / "src" / "cornerkit" / "data"


def report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def test_criterion_1_ghs_suite():
    start = time.monotonic()
    verdicts = [is_ghs(boundary_simplex(n), n).verdict for n in range(2, 7)]
    elapsed = time.monotonic() - start
    report(1, "boundary-simplex GHS suite", all(verdicts) and elapsed < 10.0,
           f"n=2..6 in {elapsed:.2f}s < 10s")


def test_criterion_2_poincare_pipeline(poincare16):
    start = time.monotonic()
    ghs4 = is_ghs(poincare16, 4).verdict
    susp = suspension(poincare16)
    ghs5 = is_ghs(susp, 5).verdict
    # independent rational-rank oracle on the global homology
    facets = [list(f) for f in poincare16.facets]
    oracle_ok = (rational_reduced_betti(facets, 3) == 1
                 and all(rational_reduced_betti(facets, k) == 0
                         for k in (0, 1, 2)))
    # the suspension is literally the join with two points, while the
    # reversed join needs an actual vertex bijection
    joined = join(point_complex(2), poincare16)
    same = join(poincare16, point_complex(2)) == susp
    mapping = find_isomorphism(joined, susp)
    equiv = mapping is not None and verify_isomorphism(joined, susp, mapping)
    elapsed = time.monotonic() - start
    report(2, "Poincaré-sphere pipeline",
           ghs4 and ghs5 and oracle_ok and same and equiv and elapsed < 60.0,
           f"GHS4={ghs4} GHS5={ghs5} oracle={oracle_ok} join≅susp={equiv} "
           f"in {elapsed:.1f}s < 60s")


def test_criterion_3_torsion_and_snf(rp2_6):
    h1 = reduced_homology(rp2_6, 1)
    exact = (h1 == FGAbelianGroup(0, (2,)) and h1 != Z
             and not h1.is_trivial())
    rng = random.Random(20240)
    snf_ok = True
    for _ in range(1000):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        A = IntegerMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(cols)]
             for _ in range(rows)])
        res = snf(A)
        if not verify_snf(A, res):
            snf_ok = False
            break
    report(3, "torsion exactness and SNF postconditions", exact and snf_ok,
           f"H1(RP2)={h1.describe()}, 1000 random SNFs verified={snf_ok}")


def test_criterion_4_coxeter_classification():
    agree = True
    for p in range(2, 13):
        for q in range(p, 13):
            for r in range(q, 13):
                LK = LabeledComplex(build_complex([[0, 1, 2]]),
                                    ((0, 1, p), (0, 2, q), (1, 2, r)))
                if is_finite(coxeter_matrix(LK, (0, 1, 2))).finite != \
                        triangle_group_is_finite(p, q, r):
                    agree = False

    def diagram(n, edges):
        m = {(min(u, v), max(u, v)): lab for u, v, lab in edges}
        return CoxeterMatrix(tuple(range(n)), tuple(
            m.get((i, j), 2) for j in range(1, n) for i in range(j)))

    catalog = [
        (diagram(3, [(0, 1, 5), (1, 2, 3)]), 120),            # H3
        (diagram(4, [(0, 1, 5), (1, 2, 3), (2, 3, 3)]), 14400),  # H4
        (diagram(4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)]), 1152),   # F4
        (diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3),
                     (2, 5, 3)]), 51840),                     # E6
        (diagram(7, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3),
                     (4, 5, 3), (2, 6, 3)]), 2903040),        # E7
        (diagram(8, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3),
                     (4, 5, 3), (5, 6, 3), (2, 7, 3)]), 696729600),  # E8
    ]
    orders_ok = all(is_finite(M).order == want for M, want in catalog)
    report(4, "finite Coxeter classification",
           agree and orders_ok,
           "66 triangle diagrams vs angle oracle, exceptional orders")


def test_criterion_5_asphericity(poincare16):
    pentagon = label_all(
        build_complex([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]), 2)
    hollow_triangle = label_all(build_complex([[0, 1], [1, 2], [0, 2]]), 2)
    results = [is_aspherical(pentagon), not is_aspherical(hollow_triangle)]
    for K in (boundary_simplex(3), suspension(boundary_simplex(2)),
              poincare16):
        LK = barycentric_all_two(K)
        results.append(is_proper_labeling(LK)[0])
        results.append(is_aspherical(LK))
    report(5, "asphericity criterion", all(results),
           "pentagon yes, filled triangle no, subdivide-and-label-2 always")


def test_criterion_6_equivalence_campaign():
    rng = random.Random(20246)
    found = rejected = brute_checked = 0
    ok = True
    for _ in range(200):
        n = rng.randrange(3, 11)
        LK = random_labeled(rng, n)
        shuffled, _ = shuffle_labeled(LK, rng)
        mapping = find_isomorphism(LK, shuffled)
        if mapping is None or not verify_isomorphism(LK, shuffled, mapping):
            ok = False
            break
        found += 1
        idx = rng.randrange(len(LK.labels))
        u, v, m = LK.labels[idx]
        perturbed = LabeledComplex(
            LK.complex,
            tuple((a, b, mm + 1 if (a, b) == (u, v) else mm)
                  for a, b, mm in LK.labels))
        if find_isomorphism(LK, perturbed) is not None:
            ok = False
            break
        rejected += 1
        if n <= 8:
            a_labels = LK.label_dict()
            for other, expect in ((shuffled, True), (perturbed, False)):
                brute = brute_force_isomorphic(
                    list(LK.complex.facets),
                    list(other.complex.facets),
                    a_labels, other.label_dict())
                if (brute is not None) != expect:
                    ok = False
                brute_checked += 1
    report(6, "equivalence campaign", ok and found == rejected == 200,
           f"200 shuffles found, 200 perturbations rejected, "
           f"{brute_checked} brute-force agreements")


def test_criterion_7_obstruction_algebra():
    from concurrent.futures import ThreadPoolExecutor
    Z2 = FGAbelianGroup(0, (2,))
    D3 = dual_complex(boundary_simplex(3), 3)

    def sweep_one(task):
        # everything here reads shared immutable structures concurrently
        degree, bits = task
        faces = D3.faces[degree]
        c = Cochain.build(D3, degree, Z2,
                          {f: (b,) for f, b in zip(faces, bits)})
        good = True
        if degree + 2 <= D3.top_dim:
            good &= coboundary(D3, coboundary(D3, c)).is_zero()
        cocycle, _ = is_cocycle(D3, c)
        solved_here = 0
        if cocycle and degree >= 1:
            d = solve_obstruction(D3, c)
            good &= (d is not None and
                     [v for _, v in coboundary(D3, d).values] ==
                     [v for _, v in c.values])
            solved_here = 1
        if cocycle and degree < D3.top_dim:
            for E in D3.faces[degree + 1]:
                total = sum(incidence(D3, F, E) * c.values[i][1][0]
                            for i, F in enumerate(D3.faces[degree]))
                good &= total % 2 == 0
        return good, solved_here

    # exhaustive Z/2 sweep, parallelized per cochain: δδ = 0 wherever
    # defined, all cocycles in degrees 1..3 solved, boundary-sum rule at
    # every face above
    tasks = [(degree, bits)
             for degree in range(0, 4)
             for bits in itertools.product((0, 1),
                                           repeat=len(D3.faces[degree]))]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(sweep_one, tasks))
    ok = all(good for good, _ in results)
    solved = sum(s for _, s in results)
    # 500 random coboundaries per coefficient group on dual(∂Δ⁴, 4)
    rng = random.Random(20247)
    D4 = dual_complex(boundary_simplex(4), 4)
    groups = [Z, FGAbelianGroup(0, (6,)), FGAbelianGroup(1, (2,))]
    round_trips = 0
    for group in groups:
        for _ in range(500):
            k = rng.randrange(1, 5)
            d0 = Cochain.build(
                D4, k - 1, group,
                {f: tuple(rng.randrange(-6, 7)
                          for _ in range(group.num_coords))
                 for f in D4.faces[k - 1]})
            c = coboundary(D4, d0)
            d1 = solve_obstruction(D4, c)
            if d1 is None or [v for _, v in coboundary(D4, d1).values] != \
                    [v for _, v in c.values]:
                ok = False
                break
            round_trips += 1
    report(7, "obstruction algebra", ok,
           f"{solved} Z/2 cocycles solved exhaustively, "
           f"{round_trips} random round-trips over Z, Z/6, Z+Z/2")


def test_criterion_8_quasitoric(cp2_pair):
    ok_cp2 = (is_characteristic(cp2_pair) == (True, None)
              and pi1_orbit_union(cp2_pair).is_trivial()
              and even_betti_report(cp2_pair) == (1, 1, 1))
    bad = CharacteristicPair(cp2_pair.nerve, 2,
                             IntegerMatrix.from_rows([[2, 0], [0, 1], [1, 1]]))
    verdict, witness = is_characteristic(bad)
    ok_witness = (not verdict) and witness == (0, 1)
    rng = random.Random(20248)
    done = 0
    ok_coker = True
    while done < 500:
        size = rng.choice((2, 3))
        rows = [[rng.randrange(-6, 7) for _ in range(size)]
                for _ in range(size)]
        M = IntegerMatrix.from_rows(rows)
        det = determinant(M)
        if det == 0 or abs(det) > 60:
            continue
        if cokernel(M).order() != coset_count(rows) or \
                cokernel(M).order() != abs(det):
            ok_coker = False
            break
        done += 1
    ok_signs = True
    for i in range(3):
        rows = [list(r) for r in cp2_pair.lam.entries]
        rows[i] = [-x for x in rows[i]]
        flipped = CharacteristicPair(cp2_pair.nerve, 2,
                                     IntegerMatrix.from_rows(rows))
        if is_characteristic(flipped) != (True, None) or \
                not pi1_orbit_union(flipped).is_trivial() or \
                h_vector(flipped) != h_vector(cp2_pair):
            ok_signs = False
    report(8, "quasitoric checks",
           ok_cp2 and ok_witness and ok_coker and ok_signs,
           f"CP2 pass, det-2 witness (0,1), {done} cokernel/|det| "
           f"agreements, sign flips invariant")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    from cornerkit.cli import main as cli_main
    pentagon = tmp_path / "pentagon.json"
    pentagon.write_text(json.dumps(
        {"num_vertices": 5,
         "facets": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
         "labels": [[0, 1, 2], [1, 2, 2], [2, 3, 2], [3, 4, 2], [0, 4, 2]]}))
    zero_cochain = tmp_path / "zero.json"
    zero_cochain.write_text(json.dumps(
        {"degree": 2, "group": {"rank": 0, "torsion": [2]}, "values": {}}))
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, -1]],
                               "cones": [[0, 1], [1, 2], [0, 2]]}))
    b3 = tmp_path / "b3.json"
    cli_main(["construct", "boundary-simplex", "3"])
    b3.write_text(capsys.readouterr().out)
    poincare = str(DATA / "poincare16.json")
    rp2 = str(DATA / "rp2_6.json")
    cp2 = str(DATA / "cp2_pair.json")
    commands = [
        ["check-ghs", "-i", poincare, "-n", "4"],
        ["check-ghs", "-i", rp2, "-n", "3"],
        ["check-phm", "-i", rp2, "-n", "2"],
        ["homology", "-i", rp2],
        ["homology", "-i", poincare],
        ["check-proper", "-i", str(pentagon)],
        ["check-aspherical", "-i", str(pentagon)],
        ["coxeter-nerve", "-i", str(pentagon)],
        ["equiv", str(b3), str(b3)],
        ["solve-obstruction", "--complex", str(b3), "-n", "3",
         "--cochain", str(zero_cochain)],
        ["acyclicity", "-i", poincare, "-n", "4"],
        ["check-charfun", "-i", cp2],
        ["from-fan", "-i", str(fan)],
        ["betti", "-i", cp2],
        ["construct", "boundary-simplex", "5"],
        ["construct", "barycentric", "-i", str(b3)],
        ["construct", "barycentric-all-2", "-i", str(b3)],
        ["construct", "cone", "-i", str(b3)],
        ["construct", "suspension", "-i", str(b3)],
        ["construct", "join", str(b3), str(b3)],
    ]
    ok = True
    for argv in commands:
        outputs = []
        codes = []
        for _ in range(2):
            codes.append(cli_main(list(argv)))
            outputs.append(capsys.readouterr().out)
        if outputs[0] != outputs[1] or codes[0] != codes[1]:
            ok = False
    report(9, "CLI determinism", ok,
           f"{len(commands)} commands byte-identical across two runs")
