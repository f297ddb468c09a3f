import argparse
import ast
import contextlib
import errno
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import cornerkit.cli as cli
from cornerkit.cli import main
from cornerkit.constructions import suspension
from cornerkit.dualcells import (Cochain, coboundary, cochain_to_obj,
                                 dual_complex)
from cornerkit.homology import FGAbelianGroup
from cornerkit.jsonio import complex_from_obj, complex_to_obj, dumps
from cornerkit.quasitoric import pair_from_obj

DATA = Path(__file__).parent.parent / "src" / "cornerkit" / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ghs_data_corpus(capsys):
    code, out, _ = run_cli(capsys, "check-ghs", "-i", str(DATA / "poincare16.json"),
                           "-n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["links_checked"] == 303
    code, out, _ = run_cli(capsys, "check-ghs", "-i", str(DATA / "rp2_6.json"),
                           "-n", "3")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert any(f["actual"] == {"rank": 0, "torsion": [2]}
               for f in report["failures"])


def test_data_directory_resolution(capsys, monkeypatch):
    monkeypatch.setenv("CORNERKIT_DATA", str(DATA))
    code, out, _ = run_cli(capsys, "homology", "-i", "rp2_6.json")
    assert code == 0
    assert json.loads(out)["reduced_homology"]["1"] == {"rank": 0,
                                                        "torsion": [2]}


def test_homology_degree_out_of_range_is_trivial(capsys):
    for degree in ("9", "-3"):
        code, out, _ = run_cli(capsys, "homology", "-i",
                               str(DATA / "poincare16.json"),
                               "--degree", degree)
        assert code == 0
        assert json.loads(out)["reduced_homology"] == {
            degree: {"rank": 0, "torsion": []}}
        code, out, _ = run_cli(capsys, "homology", "-i",
                               str(DATA / "poincare16.json"),
                               "--degree", degree, "--format", "text")
        assert code == 0
        assert out == f"H~_{degree} = 0\n"


def test_construct_boundary_simplex(capsys):
    code, out, _ = run_cli(capsys, "construct", "boundary-simplex", "3")
    assert code == 0
    K = complex_from_obj(json.loads(out))
    assert K.num_vertices == 4 and len(K.facets) == 4


def test_construct_join_and_pipe_equivalent(capsys, tmp_path):
    code, s0, _ = run_cli(capsys, "construct", "boundary-simplex", "1")
    a = tmp_path / "s0.json"
    a.write_text(s0)
    code, out, _ = run_cli(capsys, "construct", "join",
                           str(DATA / "poincare16.json"), str(a))
    assert code == 0
    joined = complex_from_obj(json.loads(out))
    assert joined.num_vertices == 18
    code, out2, _ = run_cli(capsys, "construct", "suspension",
                            "-i", str(DATA / "poincare16.json"))
    assert out == out2  # suspension is join with two points, verbatim


def test_construct_arity_errors(capsys):
    code, _, err = run_cli(capsys, "construct", "boundary-simplex")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "construct", "join", "only-one.json")
    assert code == 2


def test_malformed_json_exits_2_with_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_vertices": 3, "facets": [[0,1],')
    code, _, err = run_cli(capsys, "check-ghs", "-i", str(bad), "-n", "2")
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("path, message", [
    pytest.param("nope.json", "input file not found: {}", id="missing"),
    pytest.param(None, "cannot read input file {}: Is a directory",
                 id="directory")])
def test_missing_input_exits_2(capsys, tmp_path, path, message):
    path = path or str(tmp_path)
    code, out, err = run_cli(capsys, "check-ghs", "-i", path, "-n", "2")
    assert (code, out, err) == (2, "", f"error: {message.format(path)}\n")


def test_check_proper_and_aspherical(capsys, tmp_path):
    pentagon = {"num_vertices": 5,
                "facets": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
                "labels": [[0, 1, 2], [1, 2, 2], [2, 3, 2], [3, 4, 2],
                           [0, 4, 2]]}
    path = tmp_path / "pentagon.json"
    path.write_text(dumps(pentagon))
    code, out, _ = run_cli(capsys, "check-proper", "-i", str(path))
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run_cli(capsys, "check-aspherical", "-i", str(path))
    assert code == 0 and json.loads(out)["verdict"] is True

    triangle = {"num_vertices": 3, "facets": [[0, 1, 2]],
                "labels": [[0, 1, 2], [0, 2, 3], [1, 2, 6]]}
    path2 = tmp_path / "triangle.json"
    path2.write_text(dumps(triangle))
    code, out, _ = run_cli(capsys, "check-proper", "-i", str(path2))
    assert code == 1
    assert json.loads(out)["offending"] == [0, 1, 2]
    # asphericity on an improper labeling is an error, not a verdict
    code, _, err = run_cli(capsys, "check-aspherical", "-i", str(path2))
    assert code == 2 and "proper" in err


def test_check_aspherical_negative(capsys, tmp_path):
    cyc = {"num_vertices": 3, "facets": [[0, 1], [0, 2], [1, 2]],
           "labels": [[0, 1, 2], [0, 2, 2], [1, 2, 2]]}
    path = tmp_path / "cyc.json"
    path.write_text(dumps(cyc))
    code, out, _ = run_cli(capsys, "check-aspherical", "-i", str(path))
    assert code == 1 and json.loads(out)["verdict"] is False


def test_coxeter_nerve_output_is_composable(capsys, tmp_path):
    cyc = {"num_vertices": 3, "facets": [[0, 1], [0, 2], [1, 2]],
           "labels": [[0, 1, 2], [0, 2, 2], [1, 2, 2]]}
    path = tmp_path / "cyc.json"
    path.write_text(dumps(cyc))
    code, out, _ = run_cli(capsys, "coxeter-nerve", "-i", str(path))
    assert code == 0
    nerve = complex_from_obj(json.loads(out))
    assert [list(f) for f in nerve.facets] == [[0, 1, 2]]


def test_equiv_command(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dumps({"num_vertices": 4,
                        "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    b.write_text(dumps({"num_vertices": 4,
                        "facets": [[0, 2], [1, 2], [1, 3], [0, 3]]}))
    code, out, _ = run_cli(capsys, "equiv", str(a), str(b))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True and len(report["mapping"]) == 4
    c = tmp_path / "c.json"
    c.write_text(dumps({"num_vertices": 4,
                        "facets": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]}))
    code, out, _ = run_cli(capsys, "equiv", str(a), str(c), "--format", "text")
    assert code == 1 and out.strip() == "NOT EQUIVALENT"


def test_solve_obstruction_command(capsys, tmp_path):
    complex_path = tmp_path / "b3.json"
    run = main(["construct", "boundary-simplex", "3"])
    out = capsys.readouterr().out
    complex_path.write_text(out)
    cochain = {"degree": 2, "group": {"rank": 0, "torsion": [2]},
               "values": {}}  # the zero cochain is a cocycle
    cpath = tmp_path / "c.json"
    cpath.write_text(dumps(cochain))
    code, out, _ = run_cli(capsys, "solve-obstruction",
                           "--complex", str(complex_path), "-n", "3",
                           "--cochain", str(cpath))
    assert code == 0
    assert json.loads(out)["status"] == "solved"
    # a single-face indicator in low degree is not a cocycle; degree-1
    # dual faces of dual(∂Δ³, 3) are labeled by edges of the nerve
    bad = {"degree": 1, "group": {"rank": 0, "torsion": [2]},
           "values": {"0 1": [1]}}
    bpath = tmp_path / "bad.json"
    bpath.write_text(dumps(bad))
    code, out, _ = run_cli(capsys, "solve-obstruction",
                           "--complex", str(complex_path), "-n", "3",
                           "--cochain", str(bpath))
    assert code == 1
    assert json.loads(out)["status"] == "not-a-cocycle"
    assert json.loads(out)["witness"]


def test_acyclicity_command(capsys):
    code, out, _ = run_cli(capsys, "acyclicity",
                           "-i", str(DATA / "poincare16.json"), "-n", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["homology"]["0"] == {"rank": 1, "torsion": []}
    # without the top cell the complex models the boundary sphere instead
    code, out, _ = run_cli(capsys, "acyclicity",
                           "-i", str(DATA / "poincare16.json"), "-n", "4",
                           "--no-top")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] is False
    assert report["homology"]["3"] == {"rank": 1, "torsion": []}


def test_equiv_requires_matching_labeledness(capsys, tmp_path):
    plain = tmp_path / "plain.json"
    labeled = tmp_path / "labeled.json"
    plain.write_text(dumps({"num_vertices": 2, "facets": [[0, 1]]}))
    labeled.write_text(dumps({"num_vertices": 2, "facets": [[0, 1]],
                              "labels": [[0, 1, 2]]}))
    code, out, _ = run_cli(capsys, "equiv", str(plain), str(labeled))
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_check_charfun_and_betti(capsys):
    code, out, _ = run_cli(capsys, "check-charfun",
                           "-i", str(DATA / "cp2_pair.json"))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["pi1_orbit_union"] == {"rank": 0, "torsion": []}
    code, out, _ = run_cli(capsys, "betti", "-i", str(DATA / "cp2_pair.json"))
    assert code == 0
    report = json.loads(out)
    assert report["h_vector"] == [1, 1, 1]
    assert report["betti_even"] == {"0": 1, "2": 1, "4": 1}
    assert report["sphere_certificate"] == "ghs"


def test_from_fan_command(capsys, tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(dumps({"rays": [[1, 0], [0, 1], [-1, -1]],
                          "cones": [[0, 1], [1, 2], [0, 2]]}))
    code, out, _ = run_cli(capsys, "from-fan", "-i", str(fan))
    assert code == 0
    pair = pair_from_obj(json.loads(out))
    assert pair.n == 2
    singular = tmp_path / "singular.json"
    singular.write_text(dumps({"rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}))
    code, out, _ = run_cli(capsys, "from-fan", "-i", str(singular))
    assert code == 1
    assert "singular" in json.loads(out)["error"]


@pytest.mark.parametrize("filters", ["", "error"])
def test_from_fan_writes_a_non_primitive_ray_as_one_warning_line(tmp_path,
                                                                 filters):
    # the same bytes under any warning filter, and no source path in them
    fan = tmp_path / "fan.json"
    fan.write_text(dumps({"rays": [[2, 0], [0, 1], [-1, 0], [0, -1]],
                          "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    env = dict(os.environ, PYTHONWARNINGS=filters,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    run = subprocess.run([sys.executable, "-m", "cornerkit", "from-fan", "-i",
                          str(fan)], capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert run.stderr == ("warning: ray 0 = [2, 0] is not primitive; "
                          "dividing by gcd 2\n")
    assert pair_from_obj(json.loads(run.stdout)).lam.entries == (
        (1, 0), (0, 1), (-1, 0), (0, -1))


@pytest.mark.parametrize("filters", ["", "error"])
def test_from_fan_counts_the_non_primitive_rays_past_the_fifth(tmp_path,
                                                                filters):
    # a smooth complete fan of 300 rays, each doubled: five warning lines,
    # byte for byte as before, then one that counts the other 295
    rays = [[1, k] for k in range(297)] + [[0, 1], [-1, 0], [0, -1]]
    fan = tmp_path / "fan.json"
    fan.write_text(dumps({"rays": [[2 * x, 2 * y] for x, y in rays],
                          "cones": [[i, (i + 1) % 300] for i in range(300)]}))
    env = dict(os.environ, PYTHONWARNINGS=filters,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    run = subprocess.run([sys.executable, "-m", "cornerkit", "from-fan", "-i",
                          str(fan)], capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert run.stderr.splitlines() == [
        *(f"warning: ray {i} = [2, {2 * i}] is not primitive; dividing by "
          f"gcd 2" for i in range(5)),
        "warning: 295 more rays are not primitive"]
    assert len(run.stderr.encode()) < 1024


def test_emitted_json_round_trips(capsys):
    for name in ("poincare16.json", "rp2_6.json"):
        code, out, _ = run_cli(capsys, "construct", "barycentric-all-2",
                               "-i", str(DATA / name))
        assert code == 0
        parsed = json.loads(out)
        assert dumps(parsed) == out  # canonical form round-trips verbatim


def test_exit_codes_match_library_verdicts(capsys, cp2_pair):
    from cornerkit.quasitoric import is_characteristic
    code, out, _ = run_cli(capsys, "check-charfun",
                           "-i", str(DATA / "cp2_pair.json"))
    assert (code == 0) == is_characteristic(cp2_pair)[0]


def test_unknown_construct_kind_is_usage_error(capsys):
    code = main(["construct", "frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_double_run_byte_identical(capsys):
    pairs = []
    for argv in [
        ("check-ghs", "-i", str(DATA / "poincare16.json"), "-n", "4"),
        ("check-ghs", "-i", str(DATA / "rp2_6.json"), "-n", "3",
         "--format", "text"),
        ("homology", "-i", str(DATA / "rp2_6.json")),
        ("homology", "-i", str(DATA / "rp2_6.json"), "--format", "text"),
        ("check-charfun", "-i", str(DATA / "cp2_pair.json")),
        ("betti", "-i", str(DATA / "cp2_pair.json")),
        ("construct", "boundary-simplex", "4"),
        ("acyclicity", "-i", str(DATA / "rp2_6.json"), "-n", "3"),
    ]:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        pairs.append((first, second))
    assert all(a == b for a, b in pairs)


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_subprocess_determinism_across_hash_seeds(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    cmd = [sys.executable, "-m", "cornerkit", "check-ghs",
           "-i", str(DATA / "rp2_6.json"), "-n", "3"]
    runs = [subprocess.run(cmd, capture_output=True, env=env)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode == 1
    test_subprocess_determinism_across_hash_seeds.outputs = \
        getattr(test_subprocess_determinism_across_hash_seeds, "outputs", [])
    test_subprocess_determinism_across_hash_seeds.outputs.append(
        runs[0].stdout)
    outs = test_subprocess_determinism_across_hash_seeds.outputs
    assert len(set(outs)) == 1  # identical across different hash seeds too


@pytest.mark.parametrize("argv", [
    ("check-ghs", "-n", "2"), ("check-phm", "-n", "2"), ("check-proper",),
    ("check-aspherical",), ("coxeter-nerve",), ("equiv", "a.json", "b.json"),
    ("homology",), ("acyclicity", "-n", "2"), ("check-charfun",),
    ("from-fan",), ("betti",), ("construct", "boundary-simplex", "2"),
    ("solve-obstruction", "--complex", "k.json", "-n", "2",
     "--cochain", "c.json"),
])
def test_seed_and_jobs_are_not_options(capsys, argv):
    for flag in ("--seed", "--jobs"):
        code, out, err = run_cli(capsys, *argv, flag, "1")
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err


B3 = {"num_vertices": 4, "facets": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]}


@pytest.mark.parametrize("complex_doc,cochain_doc,message", [
    ({"facets": [1, 2]}, None, '"facets": expected lists of integers'),
    ({"facets": [["a"]]}, None, '"facets": expected lists of integers'),
    ({"facets": [[True, 2]]}, None, '"facets": expected lists of integers'),
    ({"facets": [[0, True]]}, None, '"facets": expected lists of integers'),
    ({"num_vertices": "2", "facets": [[0, 1]]}, None,
     '"num_vertices": expected an integer'),
    ({"facets": [[0, 1000000]]}, None,
     "999999 vertex ids appear in no facet, first [1, 2, 3, 4, 5]"),
    (B3, {"degree": 1, "group": {"rank": 1}, "values": [[1]]},
     '"values" must be a JSON object'),
    (B3, {"degree": 1, "group": {"rank": None}, "values": {}},
     '"rank": expected an integer'),
    # raw text: json.dumps itself cannot nest this deep
    pytest.param("[" * 100_000 + "]" * 100_000, None, "nested too deeply",
                 id="nested-1e5"),
    pytest.param({"facets": [[0, 1]], "labels": [[0, 1]]}, None,
                 '"labels": expected [u, v, m] triples', id="label-pair"),
    pytest.param({"facets": [[0, 1]], "labels": [[0, 1, 2, 3]]}, None,
                 '"labels": expected [u, v, m] triples', id="label-quadruple"),
    pytest.param(B3, {"degree": 1, "group": {"rank": 1}, "values": {
        f"{u} {v}": [1] for u, v in itertools.combinations(range(10, 70), 2)}},
        "1770 values on unknown faces, first [(10, 11), (10, 12), (10, 13), "
        "(10, 14), (10, 15)]", id="unknown-faces"),
    # keys that name one face: a dict of the faces would keep one value
    pytest.param(B3, {"degree": 1, "group": {"rank": 1}, "values": {
        "0 1": [1], " 0  1": [2]}}, '"values": 1 keys repeat a face, first '
        "(0, 1)", id="repeated-face-spaces"),
    pytest.param(B3, {"degree": 1, "group": {"rank": 1}, "values": {
        "0 1": [1], "+0 1": [2], "0 2": [1], "0 +2": [0], "0 02": [3]}},
        '"values": 3 keys repeat a face, first (0, 1)',
        id="repeated-face-signs"),
    pytest.param({"facets": [[-1, *range(1000, 1300)]]}, None,
                 "negative vertex id in a facet of 301 vertices, first "
                 "[-1, 1000, 1001, 1002, 1003]", id="negative-id-long-facet"),
    pytest.param({"facets": [[i, i + 1] for i in range(300)], "labels": []},
                 None, "300 edges carry no label, first [(0, 1), (1, 2), "
                 "(2, 3), (3, 4), (4, 5)]", id="unlabeled-edges"),
])
def test_malformed_documents_exit_2_briefly(capsys, tmp_path, complex_doc,
                                            cochain_doc, message):
    kpath = tmp_path / "k.json"
    kpath.write_text(complex_doc if isinstance(complex_doc, str)
                     else json.dumps(complex_doc))
    if cochain_doc is None:
        argv = ("homology", "-i", str(kpath))
    else:
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(cochain_doc))
        argv = ("solve-obstruction", "--complex", str(kpath), "-n", "3",
                "--cochain", str(cpath))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("fan_doc,message", [
    pytest.param({"rays": [[1, 0], [0, 1]], "cones": [list(range(400))]},
                 "a cone of 400 rays references 398 missing rays, first "
                 "[2, 3, 4, 5, 6]", id="missing-rays"),
    pytest.param({"rays": [[1, 0], [0, 1]], "cones": [[0, *range(300)]]},
                 "a cone of 301 rays repeats 1 rays, first [0]",
                 id="repeated-ray"),
    pytest.param({"rays": [[1, 0]] * 300, "cones": [list(range(300))]},
                 "a cone of 300 rays is not simplicial in Z^2, first "
                 "[0, 1, 2, 3, 4]", id="long-cone"),
])
def test_malformed_fans_exit_2_briefly(capsys, tmp_path, fan_doc, message):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(fan_doc))
    code, out, err = run_cli(capsys, "from-fan", "-i", str(path))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert len(err.encode()) < 1024


# sha256 of solve-obstruction's stdout on fixed cochains over Z ⊕ Z/6.
# Which preimage prints depends on the Smith reduction's pivot order, so
# these pin it; they were recorded from the dense transform solve.
PREIMAGE_DIGESTS = {
    ("poincare16", 4, 1):
        "1e31cc3f63ebc17bac582e7a3006118990c749daa1900e06614e34bdb9943e46",
    ("poincare16", 4, 2):
        "c3ee996562861a1d13b90b892b48ca3e5649bc6fffde9b6eb357c753ffb04177",
    ("poincare16", 4, 3):
        "524355356e855e2998fddad77f631bf28f48ae188bd0892abb396db23a7bca2e",
    ("poincare16", 4, 4):
        "57d1537c8ef332347967d698cbe4a0f3bbfd220b2a0f3a8d13391dbdcdb712be",
    ("suspension", 5, 2):
        "d3e4b12ffbd6290b324243e3f1717b33ea7ddcbd95648d3dc4f81ef49d6dc0fe",
}


@pytest.mark.parametrize("nerve,n,grade", list(PREIMAGE_DIGESTS))
def test_printed_preimages_are_pinned(capsys, tmp_path, monkeypatch,
                                      poincare16, nerve, n, grade):
    monkeypatch.chdir(tmp_path)  # input paths are part of the report
    if nerve == "suspension":
        K, path = suspension(poincare16), "susp.json"
        Path(path).write_text(dumps(complex_to_obj(K)))
    else:
        K, path = poincare16, "poincare16.json"  # from the data directory
    D = dual_complex(K, n)
    group = FGAbelianGroup(1, (6,))
    d0 = Cochain.build(D, grade - 1, group, {
        f: (7 * i % 9 - 4, (5 * i + 1) % 6)
        for i, f in enumerate(D.faces[grade - 1])})
    Path("c.json").write_text(dumps(cochain_to_obj(coboundary(D, d0))))
    code, out, _ = run_cli(capsys, "solve-obstruction", "--complex", path,
                           "-n", str(n), "--cochain", "c.json")
    assert code == 0 and json.loads(out)["status"] == "solved"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PREIMAGE_DIGESTS[nerve, n, grade]


# --- every report, pinned ---------------------------------------------------
# Inputs go under bare names into a directory that CORNERKIT_DATA points
# at, so the "inputs" labels of the reports do not depend on where the
# checkout lives.  The shipped corpus is copied there byte for byte.

REPORT_INPUTS = {
    "pentagon.json": {"num_vertices": 5,
                      "facets": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
                      "labels": [[0, 1, 2], [1, 2, 2], [2, 3, 2], [3, 4, 2],
                                 [0, 4, 2]]},
    "triangle.json": {"num_vertices": 3, "facets": [[0, 1, 2]],
                      "labels": [[0, 1, 2], [0, 2, 3], [1, 2, 6]]},
    "cycle.json": {"num_vertices": 3, "facets": [[0, 1], [0, 2], [1, 2]],
                   "labels": [[0, 1, 2], [0, 2, 2], [1, 2, 2]]},
    "edge-labeled.json": {"num_vertices": 2, "facets": [[0, 1]],
                          "labels": [[0, 1, 2]]},
    "b3.json": B3,
    "pinched.json": {"num_vertices": 5, "facets": [[0, 1, 2], [0, 3, 4]]},
    # two copies of pinched: every failing link shape occurs at two
    # simplices, and each must keep its own witness
    "pinched-twice.json": {"num_vertices": 10, "facets": [
        [0, 1, 2], [0, 3, 4], [5, 6, 7], [5, 8, 9]]},
    "square.json": {"num_vertices": 4,
                    "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    "square-moved.json": {"num_vertices": 4,
                          "facets": [[0, 2], [1, 2], [1, 3], [0, 3]]},
    "square-diagonal.json": {"num_vertices": 4, "facets": [
        [0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]},
    "edge.json": {"num_vertices": 2, "facets": [[0, 1]]},
    # δ of a grade-1 cochain of dual(∂Δ³, 3)
    "solvable.json": {"degree": 2, "group": {"rank": 1, "torsion": [6]},
                      "values": {"0": [3, 0], "1": [-5, 2], "2": [-3, 4],
                                 "3": [5, 0]}},
    "non-cocycle.json": {"degree": 1, "group": {"rank": 0, "torsion": [2]},
                         "values": {"0 1": [1]}},
    # degree 0 on dual(∂Δ³, 3): one face, and the zero cochain
    "non-cocycle-0.json": {"degree": 0, "group": {"rank": 1, "torsion": []},
                           "values": {"0 1 2": [1]}},
    "zero-0.json": {"degree": 0, "group": {"rank": 1, "torsion": []},
                    "values": {}},
    # the empty triangle 013 of rp2_6: a loop that bounds over Q only
    "unsolvable.json": {"degree": 1, "group": {"rank": 1, "torsion": []},
                        "values": {"0 1": [1], "1 3": [1], "0 3": [-1]}},
    "bad-pair.json": {"n": 2, "lambda": [[1, 0], [0, 1], [1, 2]],
                      "nerve": {"num_vertices": 3,
                                "facets": [[0, 1], [0, 2], [1, 2]]}},
    "rank-0-pair.json": {"n": 0, "lambda": [], "nerve": {"facets": [[]]}},
    "fan.json": {"rays": [[1, 0], [0, 1], [-1, -1]],
                 "cones": [[0, 1], [1, 2], [0, 2]]},
    "singular-fan.json": {"rays": [[1, 0], [1, 2], [-1, -1]],
                          "cones": [[0, 1], [1, 2], [0, 2]]},
    "malformed.json": '{"num_vertices": 3, "facets": [[0,1],',
    # {∅}, the complex with no vertices
    "empty.json": {"facets": [[]]},
    "empty-labeled.json": {"facets": [[]], "labels": []},
    # H̃_2 = Z/2
    "rp2_6-suspension.json": complex_to_obj(suspension(complex_from_obj(
        json.loads((DATA / "rp2_6.json").read_text())))),
}

# name: (argv without --format, exit code)
REPORT_CASES = {
    "check-ghs-pass": (("check-ghs", "-i", "poincare16.json", "-n", "4"), 0),
    "check-ghs-fail": (("check-ghs", "-i", "rp2_6.json", "-n", "3"), 1),
    "check-phm-pass": (("check-phm", "-i", "rp2_6.json", "-n", "2"), 0),
    "check-phm-fail": (("check-phm", "-i", "pinched.json", "-n", "2"), 1),
    "check-phm-fail-repeated": (("check-phm", "-i", "pinched-twice.json",
                                 "-n", "2"), 1),
    "check-proper-pass": (("check-proper", "-i", "pentagon.json"), 0),
    "check-proper-fail": (("check-proper", "-i", "triangle.json"), 1),
    "check-aspherical-pass": (("check-aspherical", "-i", "pentagon.json"), 0),
    "check-aspherical-fail": (("check-aspherical", "-i", "cycle.json"), 1),
    "coxeter-nerve": (("coxeter-nerve", "-i", "cycle.json",
                       "--max-rank", "3"), 0),
    "equiv-pass": (("equiv", "square.json", "square-moved.json"), 0),
    "equiv-fail": (("equiv", "square.json", "square-diagonal.json"), 1),
    "equiv-labeledness": (("equiv", "edge.json", "edge-labeled.json"), 1),
    "homology": (("homology", "-i", "rp2_6.json"), 0),
    "homology-degree": (("homology", "-i", "pentagon.json", "--degree", "1"),
                        0),
    "acyclicity-pass": (("acyclicity", "-i", "b3.json", "-n", "3"), 0),
    "acyclicity-fail": (("acyclicity", "-i", "b3.json", "-n", "3",
                         "--no-top"), 1),
    "solve-solved": (("solve-obstruction", "--complex", "b3.json", "-n", "3",
                      "--cochain", "solvable.json"), 0),
    "solve-not-a-cocycle": (("solve-obstruction", "--complex", "b3.json",
                             "-n", "3", "--cochain", "non-cocycle.json"), 1),
    "solve-unsolvable": (("solve-obstruction", "--complex", "rp2_6.json",
                          "-n", "3", "--cochain", "unsolvable.json"), 1),
    # the cocycle check comes before the degree check
    "solve-not-a-cocycle-degree-0": (("solve-obstruction", "--complex",
                                      "b3.json", "-n", "3", "--cochain",
                                      "non-cocycle-0.json"), 1),
    "error-solve-degree-0": (("solve-obstruction", "--complex", "b3.json",
                              "-n", "3", "--cochain", "zero-0.json"), 2),
    "check-charfun-pass": (("check-charfun", "-i", "cp2_pair.json"), 0),
    "check-charfun-fail": (("check-charfun", "-i", "bad-pair.json"), 1),
    "betti-pass": (("betti", "-i", "cp2_pair.json"), 0),
    "betti-fail": (("betti", "-i", "bad-pair.json"), 1),
    "error-check-charfun-rank-0": (("check-charfun", "-i",
                                    "rank-0-pair.json"), 2),
    "error-betti-rank-0": (("betti", "-i", "rank-0-pair.json"), 2),
    "from-fan": (("from-fan", "-i", "fan.json"), 0),
    "from-fan-singular": (("from-fan", "-i", "singular-fan.json"), 1),
    "construct-boundary-simplex": (("construct", "boundary-simplex", "3"), 0),
    "construct-cone": (("construct", "cone", "-i", "b3.json"), 0),
    "construct-suspension": (("construct", "suspension", "-i", "b3.json"), 0),
    "construct-join": (("construct", "join", "square.json", "edge.json"), 0),
    "construct-barycentric": (("construct", "barycentric", "-i", "b3.json"),
                              0),
    "construct-barycentric-all-2": (("construct", "barycentric-all-2", "-i",
                                     "pentagon.json"), 0),
    "error-missing-input": (("homology", "-i", "nope.json"), 2),
    "error-malformed-json": (("check-ghs", "-i", "malformed.json", "-n", "2"),
                             2),
    "error-unlabeled": (("check-proper", "-i", "b3.json"), 2),
    "error-improper": (("check-aspherical", "-i", "triangle.json"), 2),
    "error-budget": (("coxeter-nerve", "-i", "pentagon.json", "--budget", "2"),
                     2),
    "error-construct-arity": (("construct", "join", "b3.json"), 2),
    "error-construct-positional": (("construct", "cone", "b3.json"), 2),
    "error-not-an-integer": (("construct", "boundary-simplex", "x"), 2),
    # 2**63 and up fail before anything is allocated; an n just below
    # would try to enumerate its faces
    "error-too-large": (("construct", "boundary-simplex",
                         "99999999999999999999"), 2),
}

# {∅} through the general paths: the search's one leaf, and the
# subdivision's loop over its one (empty) facet.  Kept apart from
# REPORT_CASES, whose order numbers the parameters of
# test_a_job_builds_only_its_own_subparser.
EMPTY_CASES = {
    "equiv-empty": (("equiv", "empty.json", "empty.json"), 0),
    "equiv-empty-labeled": (("equiv", "empty-labeled.json",
                             "empty-labeled.json"), 0),
    "construct-barycentric-empty": (("construct", "barycentric", "-i",
                                     "empty.json"), 0),
    "construct-barycentric-all-2-empty": (("construct", "barycentric-all-2",
                                           "-i", "empty.json"), 0),
}
# a homology that the closed forms leave to the reduction, whose leftover
# block goes to smith's snf_diagonal
TORSION_CASES = {
    "homology-torsion-block": (("homology", "-i", "rp2_6-suspension.json"),
                               0),
}
PINNED_CASES = {**REPORT_CASES, **EMPTY_CASES, **TORSION_CASES}

# sha256 of json.dumps([exit code, stdout, stderr]) with --format json and
# with --format text, recorded from the CLI before its handlers shared one
# report writer (check-phm-fail-repeated: before the link loop decided
# each link shape once; error-too-large: once it exited 2, where it had
# ended in a traceback; the four cases on empty.json: while find_isomorphism
# and barycentric had a branch of their own for the empty complex)
REPORT_DIGESTS = {
    "acyclicity-fail": [
        "9250c8890b75022a4d79efd67a0313cef05a7910a80ca9dde76ef5eb95576d6f",
        "7008db842d646429cbbc2ff54c4204b88b0c8fdab38c4687e1ca20f543fc5626"],
    "acyclicity-pass": [
        "e0dfa0bf78120383d858460322d7fdb0f03f49e00a6936fe03baa5d34ec86405",
        "1867d7f886b53e08b8a5fd608d1d6c35f1093a388e4bd6e50733f092d6eaae77"],
    "betti-fail": [
        "9ab33b198e0119e5510a38a4ea079480b1853b7adc2e6abcbebf020397d4215a",
        "bd5c2dd2588507729483ef2b7670460f17db21db1aef0a0b4d31cc347dda5d55"],
    "betti-pass": [
        "f8e053ea76447f1ebf98649aecb740d038613dea4a470d4f7c0a20ba92bf95f5",
        "19431a7e54d520546a8e490947913fc14a33e6cc8b935fe6972cfd01c4ed9564"],
    "check-aspherical-fail": [
        "a43a5dd92f68809b2cabdde7060a93b6173fda7169f88a3bbbc0ed3e27f1bd9f",
        "c8931a5454e1e3fe705d0d1a7ca7dea61b3daece9bf3e22d8c2ef4008790dd38"],
    "check-aspherical-pass": [
        "6c17b6c1c8c187c845e4d2e52cdc46476a2f76552d5b7292c26068f61b02c255",
        "720f0edf7ff6ca8f35ad411783f2812eb67f545c5a9f968c7603f4676097bd49"],
    "check-charfun-fail": [
        "f1477e6ed741e99ce5a382a6cd4dcddf305856b868cc5212feee1c1cf384fd79",
        "02e7b99ca622acb4c9989dca77782e69e1aa9a00f0d26f83386f478ff21fe4f3"],
    "check-charfun-pass": [
        "dea57007253ab816ddb78d7d0adaa8a21e6cd1a87102497c07b6f5defccf991b",
        "a09aaac78d71bfdd818e102d0a98f364c0ecee6efac5170939fc3231b8ee531b"],
    "check-ghs-fail": [
        "c4f00aaa4d7e0893ac02f2b873ffddff1ffa12c5ccf0c4a49812863d4d66ed92",
        "50ad2ab8f06ecb276c9b270ddc7b7cc879676d1fb8b94a88abfac1543555b91c"],
    "check-ghs-pass": [
        "54e446cee573857f7539150628022853572de011f129f52838df8f4921deda2d",
        "c18b67a3be61956a9e44d5bf2a117d048159334188d00d9a98d9637d3aa851fb"],
    "check-phm-fail": [
        "6c164496c7a738851db0b4ba09d27583b2fae1aaaccca9322158551d0d22b0a5",
        "2b6aa5af09d8b683ee69c86749179dcbac24f6932c6b0f4796d3bbb75da91762"],
    "check-phm-fail-repeated": [
        "e020888b51ca9df1d293057a1b54d107250778a59eb55c866d5d88a4354db95e",
        "ade34d782afafc16e1b30008d8922df6b8f3f6f3850d5a245572c70bc39872e3"],
    "check-phm-pass": [
        "257f765b90b38f0a19cd2e334ef807598f1857a194fb3618a43fd69b834f1c9f",
        "d72f3d895843d457797fbfcd679d64e80b864b436097f5c19dff5efd7275f9b9"],
    "check-proper-fail": [
        "20b69ed1557f2c4841e3f383835a4e72dd14293df38a334dd2af54a86e99e235",
        "f1ce027ae9769b0f9d53b1a85fd16b5c12bc81e1e7e64015480c78f1b9ebbddf"],
    "check-proper-pass": [
        "2b5c7eb7bc9237e6225c69b884da236a45fb77704c50045d1a9a89fc8ce665e6",
        "5367d14b56196d5e2d21f0b90bc9a1e069090b46c6a82df3f2bef56850e2fbc5"],
    "construct-barycentric": [
        "c8db39598d309a1965a9c82181fb92febc26a8e90fd83ee4dc01c845cc9a0dd5",
        "c8db39598d309a1965a9c82181fb92febc26a8e90fd83ee4dc01c845cc9a0dd5"],
    "construct-barycentric-all-2": [
        "e6094163ad6698aa22f8c25b54143d22f1a3231a67eb51ac77fd628e12b29a64",
        "e6094163ad6698aa22f8c25b54143d22f1a3231a67eb51ac77fd628e12b29a64"],
    "construct-barycentric-all-2-empty": [
        "57585c6d4834a8e9ffed3ffcc4cd4fb071f29de28145c987b795aaf4c8268f00",
        "57585c6d4834a8e9ffed3ffcc4cd4fb071f29de28145c987b795aaf4c8268f00"],
    "construct-barycentric-empty": [
        "d38272e67d021fb1638f6d9a02e3c67c99eeabcff834ef221b4993f37402e4fa",
        "d38272e67d021fb1638f6d9a02e3c67c99eeabcff834ef221b4993f37402e4fa"],
    "construct-boundary-simplex": [
        "dc6ffd4bd8021fd87e74fb18558c6a465040f18685e46d03c1f18f42d260d682",
        "dc6ffd4bd8021fd87e74fb18558c6a465040f18685e46d03c1f18f42d260d682"],
    "construct-cone": [
        "81c6ae24368939e940f2522c2cc706a10d92b4f0442244a4ee87584a41b9e8a5",
        "81c6ae24368939e940f2522c2cc706a10d92b4f0442244a4ee87584a41b9e8a5"],
    "construct-join": [
        "6e916a409f6a70d5b91241da30570030d9a1982d2de1b97c519461e71bd8e2cd",
        "6e916a409f6a70d5b91241da30570030d9a1982d2de1b97c519461e71bd8e2cd"],
    "construct-suspension": [
        "f391e82ab7ce0da433c6e0ddc32f85fdd50f6a4e5bccdd5bc114ffd0a717aeb2",
        "f391e82ab7ce0da433c6e0ddc32f85fdd50f6a4e5bccdd5bc114ffd0a717aeb2"],
    "coxeter-nerve": [
        "d45174e5ad694f6a88941208c0cc42dc6cef6dfd34e7d7d973cbc7e6df3cec4f",
        "d45174e5ad694f6a88941208c0cc42dc6cef6dfd34e7d7d973cbc7e6df3cec4f"],
    "equiv-empty": [
        "8d61e10586d3bc9c0593062b158fbf6827ffce6de352e37cc19ec46de9e38f6e",
        "6cc431ca49b5960aabb437a3691ef8cad4c55175a144cc171193cab183379e80"],
    "equiv-empty-labeled": [
        "b03c2e503bf1063635c4eeff96f30b1aa0a87ccad4654f5d974456e0efeb5981",
        "6cc431ca49b5960aabb437a3691ef8cad4c55175a144cc171193cab183379e80"],
    "equiv-fail": [
        "0e5c3f53bc556c7464377d743215fe2aeb5b95e81ad56e0c3057fbb425df96dd",
        "da280d8368476840ea62e34db9aa69aebc6947792558470d66ecfff3ae0840e5"],
    "equiv-labeledness": [
        "47e9be7ba67460b8886c19dd9c3fb5bad90ba7b811884856529da7952a15030e",
        "da280d8368476840ea62e34db9aa69aebc6947792558470d66ecfff3ae0840e5"],
    "equiv-pass": [
        "c5d10eb76ab7ff08de6ea60bc79090b1a73e3d06ddc3e61e7fee1f96d2bf9a2e",
        "17f19ee25bd06e1022e1bb8740be38d13641e4dfd2d4ccde56bb6871531bcaa8"],
    "error-betti-rank-0": [
        "9380faa8449c428ec7f1c1557bdaf3af36dc7f6b9462477f104b4cfb7ff47cf0",
        "9380faa8449c428ec7f1c1557bdaf3af36dc7f6b9462477f104b4cfb7ff47cf0"],
    "error-budget": [
        "349142ad486b0e5da92a39679222c4e86210b2a25a7339265034f2f9f108bb22",
        "349142ad486b0e5da92a39679222c4e86210b2a25a7339265034f2f9f108bb22"],
    "error-check-charfun-rank-0": [
        "9380faa8449c428ec7f1c1557bdaf3af36dc7f6b9462477f104b4cfb7ff47cf0",
        "9380faa8449c428ec7f1c1557bdaf3af36dc7f6b9462477f104b4cfb7ff47cf0"],
    "error-construct-arity": [
        "e7168635297f0118dbfbf9d78218253e1ee6bf2fdae80a32eb738ba135355c07",
        "e7168635297f0118dbfbf9d78218253e1ee6bf2fdae80a32eb738ba135355c07"],
    "error-construct-positional": [
        "b2852d6e0283d0ce06311ddb2c53eb97085d36072c71c49bd186eedcac1b2ecf",
        "b2852d6e0283d0ce06311ddb2c53eb97085d36072c71c49bd186eedcac1b2ecf"],
    "error-improper": [
        "debc24385316a9497f07af24cba66e5d3775ec690093e7d10ba55b3d71bfe715",
        "debc24385316a9497f07af24cba66e5d3775ec690093e7d10ba55b3d71bfe715"],
    "error-malformed-json": [
        "01199c006e0ff614273e17acec87922a2c17d2268d65069223de206c95739667",
        "01199c006e0ff614273e17acec87922a2c17d2268d65069223de206c95739667"],
    "error-missing-input": [
        "c5c16b03016c7a89060f2c07fae616c9a95823b22d79e756fac350465d9599af",
        "c5c16b03016c7a89060f2c07fae616c9a95823b22d79e756fac350465d9599af"],
    "error-not-an-integer": [
        "71912be11655c0619fd15b89ff72206e2374e81b7f03f7e6cd19c2ab3de0e715",
        "71912be11655c0619fd15b89ff72206e2374e81b7f03f7e6cd19c2ab3de0e715"],
    "error-solve-degree-0": [
        "4ffc89c0080d67ed095f66bdfc4f5ca033b890673f4abaf250393f966ef9e22a",
        "4ffc89c0080d67ed095f66bdfc4f5ca033b890673f4abaf250393f966ef9e22a"],
    "error-too-large": [
        "9065c628d8d684e97837079f04935714dbc737fdb93421dfa32700ccc84afa65",
        "9065c628d8d684e97837079f04935714dbc737fdb93421dfa32700ccc84afa65"],
    "error-unlabeled": [
        "159f94f6c3cec314e4dddf4618b4bb356b9dccaa63ec6d109a29b70ee493a48a",
        "159f94f6c3cec314e4dddf4618b4bb356b9dccaa63ec6d109a29b70ee493a48a"],
    "from-fan": [
        "9c5a527c580ca5282c1dec9a0c34e12cc27e278ee48abfff65e469c850633f8a",
        "9c5a527c580ca5282c1dec9a0c34e12cc27e278ee48abfff65e469c850633f8a"],
    "from-fan-singular": [
        "ec001b0cef6ce09491b5de74fd7c046c7cdfe469e0b180c22d1f9412bde1052c",
        "47e0f6918d4b509dcae794902d74ce66e8531a4e63eb64ce4c19d6ea7dcb56f3"],
    "homology": [
        "91e446af739a3aaf490d8be4fab93e837c834020a8a0b12b1abd6fff52f38333",
        "3ed34c969786c52a0f2a95ab175caef6a6a927b42ef96d761cef794f62048a1c"],
    "homology-torsion-block": [
        "0cd2961e0af5d77ed8c06faec2102a43f0aab75c666c61fabc0e80d28e2ff2cf",
        "45985052b53be80c3a89c62c5709c074b38ac6b31d27885fff7d86dae3c45754"],
    "homology-degree": [
        "6bc666abcee884101ac42afb77028fce8ca03bdc396229ca2b49ebbd8023fa83",
        "ed9f4c17a7ee8d2311079f603a87a6b178bc833e5809cbfee5f6ad1123e6096e"],
    "solve-not-a-cocycle": [
        "9cb825ccc854f800315ed15079d38ce222102452030aa2ebc8411d84c8e4833e",
        "a4429d90b49e30811d65299455e6b869e7c47459a79d991f3ab60f807e46d5a7"],
    "solve-not-a-cocycle-degree-0": [
        "4e0d20b72a92197fd0c1accc4c404d41fe32ce6f7c75b754f9e2a095d3886aba",
        "28b5daf44ad2a91638d3fd8f450afd5c68d36f440f663c298e5a813cb86ffa4b"],
    "solve-solved": [
        "b05e19229f5b2f85fa84254673932c4f9a39b52e33fd3210e2b999154cc2f938",
        "eff6716f4cc23c198630c6055a3e7ab3ebbb1f5bd6d2b904397f7ce1d568d472"],
    "solve-unsolvable": [
        "2ba3ea4c1758d90fca90f1208f84c9cc81dc8a8471a12c1ffb6dd51ca92ec506",
        "826d3f0ea14275e5101181d168eb054a07c62c9ff0e10e3f517d8875a207d43c"],
}


# sha256 of json.dumps([exit code, stdout, stderr]) of check-ghs with
# -n 99999999999999999999 on poincare16.json, with --format json and with
# --format text, recorded while purity took its witnesses from a table of
# its own
HUGE_N_DIGESTS = [
    "3a96850089f8331760d29bc87d25fbb4abf13d051b9dbe15792cddccb279e55b",
    "5d66ee3bc48195ac1818b76c7f77495422ca35e45cb59d60288a234e35ce64bf"]

# the same digests of acyclicity -n 1000 on rp2_6.json, recorded while the
# dual-cell complex built faces and a boundary map for every grade
LARGE_N_ACYCLICITY_DIGESTS = [
    "99c7d81235f978a644b73e955d2492486f160a2ac852580d7786babd7189caf7",
    "83cc27697cd12677a3048d21b91684b827babfef5141ad6240d16755f94efadb"]


def report_inputs(tmp_path) -> Path:
    """A data directory with the shipped corpus and REPORT_INPUTS."""
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    for name in ("poincare16.json", "rp2_6.json", "cp2_pair.json"):
        (data / name).write_bytes((DATA / name).read_bytes())
    for name, doc in REPORT_INPUTS.items():
        (data / name).write_text(doc if isinstance(doc, str) else dumps(doc))
    return data


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_every_report_is_pinned(capsys, tmp_path, monkeypatch, case):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("CORNERKIT_DATA", str(report_inputs(tmp_path)))
    monkeypatch.chdir(cwd)  # so no input resolves as a literal path
    argv, exit_code = PINNED_CASES[case]
    digests = []
    for fmt in ("json", "text"):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == exit_code
        digests.append(hashlib.sha256(
            json.dumps([code, out, err]).encode()).hexdigest())
    assert digests == REPORT_DIGESTS[case]


def run_module(tmp_path, *argv, timeout):
    """A `python -m cornerkit` run on report_inputs, from a directory of
    its own."""
    cwd = tmp_path / "cwd"
    cwd.mkdir(exist_ok=True)
    env = dict(os.environ, CORNERKIT_DATA=str(report_inputs(tmp_path)),
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "cornerkit", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=timeout)


def test_check_ghs_at_a_huge_n_fails_purity_at_once(tmp_path):
    # every facet's link {∅} is compared with S^d for d near 10^20: the
    # comparison must not walk the degrees up to d
    digests = []
    for fmt in ("json", "text"):
        run = run_module(tmp_path, "check-ghs", "-n", "99999999999999999999",
                         "-i", "poincare16.json", "--format", fmt, timeout=20)
        assert run.returncode == 1
        digests.append(hashlib.sha256(json.dumps(
            [run.returncode, run.stdout, run.stderr]).encode()).hexdigest())
    assert digests == HUGE_N_DIGESTS


def test_acyclicity_at_a_large_n_is_pinned(tmp_path):
    digests = []
    for fmt in ("json", "text"):
        run = run_module(tmp_path, "acyclicity", "-n", "1000", "-i",
                         "rp2_6.json", "--format", fmt, timeout=20)
        digests.append(hashlib.sha256(json.dumps(
            [run.returncode, run.stdout, run.stderr]).encode()).hexdigest())
    assert digests == LARGE_N_ACYCLICITY_DIGESTS


def test_acyclicity_and_solve_at_n_20000_finish_in_seconds(tmp_path):
    # 20000 grades, of which rp2_6 fills four: a boundary map built per
    # grade made these runs quadratic in n, over 20 s each
    run = run_module(tmp_path, "acyclicity", "-n", "20000", "-i",
                     "rp2_6.json", timeout=10)
    assert run.returncode == 1
    assert json.loads(run.stdout)["verdict"] is False
    (tmp_path / "zero.json").write_text(dumps(
        {"degree": 19999, "group": {"rank": 1, "torsion": []},
         "values": {}}))
    run = run_module(tmp_path, "solve-obstruction", "-n", "20000",
                     "--complex", "rp2_6.json", "--cochain",
                     str(tmp_path / "zero.json"), timeout=10)
    assert run.returncode == 0
    assert json.loads(run.stdout)["status"] == "solved"


# The parser's own bytes: help, usage and error lines, at a fixed help
# width.  name: argv
SUBCOMMANDS = ("check-ghs", "check-phm", "check-proper", "check-aspherical",
               "coxeter-nerve", "equiv", "homology", "solve-obstruction",
               "acyclicity", "check-charfun", "from-fan", "betti",
               "construct")
PARSER_CASES = {
    "help": ("-h",),
    "no-command": (),
    "unknown-command": ("frobnicate",),
    "missing-option": ("check-ghs", "-i", "b3.json"),
    "missing-options": ("solve-obstruction", "-n", "3"),
    "invalid-kind": ("construct", "frobnicate"),
    # reported by the top-level parser, whose usage line names every
    # subcommand
    "unrecognized-argument": ("homology", "-i", "b3.json", "--seed", "1"),
    **{f"help-{name}": (name, "-h") for name in SUBCOMMANDS},
}

# sha256 of json.dumps([exit code, stdout, stderr]), recorded from the CLI
# while it built every subparser for every job
PARSER_DIGESTS = {
    "help":
        "96c945b1c233a17b3d2fa831a43916ad210e9dad073d8581a953db94804ffcbb",
    "help-acyclicity":
        "40ccd2fe962e2d10fb3a9a0246713a469f10fa50f90cc268d23b4ed6ad0ba7f6",
    "help-betti":
        "5d6582c77370d23af31c00a71932c86aadd576529f5d79fc04d06e6576a2c9dd",
    "help-check-aspherical":
        "7fb1b2ccbd48b8c852399bfe7faecd37071c9cc8e7bd060192719c59d1ed6e9c",
    "help-check-charfun":
        "023256958bb4eba7ac9966f208d17f24b701912ea4d3aae2feb48385c4157506",
    "help-check-ghs":
        "ff9ace2accc7193dc9388d03011b99d2abca1cc74cfbe43e15b151752af6bc9f",
    "help-check-phm":
        "601f6513fd2252ef9b9da466a82cbc1e00f680555b571e9185bbd277fdef43ce",
    "help-check-proper":
        "b2603681bbbb14422c4b6aff20e258a438a5b0539e7455ce9a982750f6677779",
    "help-construct":
        "ab95fd1ba25217f5748edf2cce0168737b476cf139d6df34b97fa038f40de8d4",
    "help-coxeter-nerve":
        "39a59ae9d7271aaa330eb94d6c0cce68c173b67da9805a7510d3a2ae89ecdb4a",
    "help-equiv":
        "b407223706a3b33d54f45f3211e6cfdfe15715e41d865ef5b4e4ea46c5e9a740",
    "help-from-fan":
        "811354014f53ac7026965e955ecd96b134d6a6975043fd598b05eeb8204ed65c",
    "help-homology":
        "540906cd9bd5f5153b5208d72995497dcc091a12d99c9419b54cd1e5527e98ab",
    "help-solve-obstruction":
        "d538f0f3b455492eae96c6939284a09d3e9f0cd399a2d6a7f31a7699376dde37",
    "invalid-kind":
        "fc582b991894c62bad81bc98437e4868358a2a38627449a149b5f32ce5382bd8",
    "missing-option":
        "a3ceb5f1e64e4e0bdf8f2ecc6535252a6490f361b13488ea72791b3a2aa84949",
    "missing-options":
        "0f7e448bd1d39f335b68618f1f41132053f253246c637a59456aac022e450df7",
    "no-command":
        "1a8982a8a59c6baeb43ca32364d835696bbc5e328db35ebcc233b9aa71e15690",
    "unknown-command":
        "b754f6ec2c90707eedc52e9394e89cb116a4312aba2b0401b29bd406ba4cbfff",
    "unrecognized-argument":
        "e22b4dede2e6bffefd040ea1e430959e5c96f922d14d04c084f9306b6b4d1b10",
}


@pytest.mark.parametrize("case", sorted(PARSER_CASES))
def test_parser_output_is_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *PARSER_CASES[case])
    assert hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest() \
        == PARSER_DIGESTS[case]


# built: the subparsers that argparse builds for the job; a canonical
# command line (every job of REPORT_CASES) builds none
@pytest.mark.parametrize("argv,built", [
    *[(argv, 1) for argv, _ in REPORT_CASES.values()],
    (("-h",), len(SUBCOMMANDS)), ((), len(SUBCOMMANDS)),
    (("frobnicate",), len(SUBCOMMANDS)),
    # the subcommand's own parse, then every subparser for the error
    (PARSER_CASES["unrecognized-argument"], 1 + len(SUBCOMMANDS)),
])
def test_a_job_builds_only_its_own_subparser(capsys, tmp_path, monkeypatch,
                                             argv, built):
    monkeypatch.setenv("CORNERKIT_DATA", str(report_inputs(tmp_path)))
    monkeypatch.chdir(tmp_path)
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    run_cli(capsys, *argv)
    if built == 1:
        # a canonical command line is parsed without argparse; written
        # with --format=json, it goes to argparse, which builds the
        # subcommand's own subparser alone
        assert names == []
        run_cli(capsys, *argv, "--format=json")
        assert names == [argv[0]]
    else:
        assert len(names) == built


# --- loader fuzzing ---------------------------------------------------------
# Documents are mostly valid, so most runs get past the loaders to a
# verdict, and each field is now and then corrupted.  Facets stay at four
# vertices or fewer: face enumeration has no budget yet, and a facet of
# size s has 2^s faces.

JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                         st.text(max_size=3), st.floats(-2, 2))
SPHERES = ([[0, 1], [1, 2], [0, 2]], [[0, 1], [1, 2], [2, 3], [0, 3]],
           [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def rarely(draw, odds):
    """True one time in odds (integer draws would favour the endpoints)."""
    return draw(st.sampled_from((False,) * (odds - 1) + (True,)))


def corrupt(draw, value, odds=10):
    """value, or one time in odds a JSON value of some other shape."""
    if not rarely(draw, odds):
        return value
    return draw(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                          st.dictionaries(st.text(max_size=2), JSON_SCALARS,
                                          max_size=2)))


def fuzz_facets(draw):
    raw = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4),
                        min_size=1, max_size=6))
    ids = sorted({v for f in raw for v in f})
    dense = [[ids.index(v) for v in f] for f in raw]
    return draw(st.sampled_from(SPHERES * 2 + (dense,) * 4 + (
        raw, raw + [[-1]], raw + [[]], [])))


def faces_of_size(facets, size):
    return sorted({face for f in facets if all(type(v) is int for v in f)
                   for face in itertools.combinations(sorted(set(f)), size)})


def complex_document(draw, facets, labeled):
    doc = {"facets": corrupt(draw, facets)}
    if draw(st.booleans()):
        doc["num_vertices"] = corrupt(draw, len(faces_of_size(facets, 1)))
    if labeled:
        labels = [[u, v, draw(st.integers(2, 6))]
                  for u, v in faces_of_size(facets, 2)]
        if rarely(draw, 10):
            labels = labels[1:] + draw(st.lists(
                st.lists(st.integers(-1, 7), max_size=4), max_size=2))
        doc["labels"] = corrupt(draw, labels)
    return doc


def matrix_rows(draw, rows, cols):
    return draw(st.lists(st.lists(st.integers(-1, 1), min_size=cols,
                                  max_size=cols), min_size=rows, max_size=rows))


@st.composite
def fuzz_case(draw):
    """(argv, {file name: bytes}) for one CLI run on fuzzed documents."""
    facets = fuzz_facets(draw)
    m = len(faces_of_size(facets, 1))
    n = max(map(len, facets), default=0)  # dimension + 1
    dim = str(draw(st.integers(-1, 1)) + n)
    kind = draw(st.sampled_from(("complex", "labeled", "pair", "fan",
                                 "cochain", "equiv")))
    if kind in ("complex", "labeled"):
        docs = [complex_document(draw, facets, kind == "labeled")]
        argv = draw(st.sampled_from((
            ("check-ghs", "-n", dim), ("check-phm", "-n", dim),
            ("acyclicity", "-n", dim), ("acyclicity", "--no-top", "-n", dim),
            ("homology",), ("homology", "--degree", dim),
            ("construct", "cone"), ("construct", "suspension"),
            ("construct", "barycentric"), ("construct", "barycentric-all-2"))
            + (("check-proper",), ("check-aspherical", "--budget", "200"),
               ("coxeter-nerve", "--budget", "200")) * (kind == "labeled")))
    elif kind == "pair":
        docs = [{"n": corrupt(draw, n),
                 "lambda": corrupt(draw, matrix_rows(draw, m, n)),
                 "nerve": complex_document(draw, facets, False)}]
        argv = draw(st.sampled_from((("check-charfun",), ("betti",))))
    elif kind == "fan":
        docs = [{"rays": corrupt(draw, matrix_rows(draw, m, n)),
                 "cones": corrupt(draw, facets)}]
        argv = ("from-fan",)
    elif kind == "equiv":
        docs = [complex_document(draw, facets, True),
                complex_document(draw, fuzz_facets(draw), True)]
        argv = ("equiv",)
    else:
        degree = draw(st.integers(0, n + 1))
        group = draw(st.sampled_from((
            {"rank": 1}, {"torsion": [2]}, {"rank": 1, "torsion": [6]},
            {"rank": 0, "torsion": [2, 4]}, {"torsion": [3, 2]},
            {"rank": -1}, {"torsion": [1]})))
        coords = max(group.get("rank", 0), 0) + len(group.get("torsion", []))
        keys = faces_of_size(facets, max(int(dim) - degree, 0))
        values = {" ".join(map(str, key)): draw(st.lists(
            st.integers(-7, 7), min_size=coords, max_size=coords))
            for key in draw(st.lists(st.sampled_from(keys), max_size=4))
            } if keys else {}
        if rarely(draw, 10):
            values[draw(st.text(max_size=3))] = [1]
        docs = [complex_document(draw, facets, False),
                {"degree": corrupt(draw, degree),
                 "group": corrupt(draw, group),
                 "values": corrupt(draw, values)}]
        argv = ("solve-obstruction", "-n", dim)
    for doc in docs:
        if rarely(draw, 20):
            del doc[draw(st.sampled_from(sorted(doc)))]
    files = {f"{i}.json": draw(st.binary(max_size=30))
             if rarely(draw, 20) else json.dumps(doc).encode()
             for i, doc in enumerate(docs)}
    names = list(files)
    if kind == "cochain":
        argv += ("--complex", names[0], "--cochain", names[1])
    elif kind == "equiv":
        argv += tuple(names)
    else:
        argv += ("-i", names[0])
    return argv, files


@settings(max_examples=300, deadline=None)
@given(fuzz_case())
def test_fuzzed_documents_exit_0_1_or_2_with_a_short_message(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files.items():
            Path(tmp, name).write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(Path(tmp, a)) if a in files else a
                         for a in argv])
    assert code in (0, 1, 2), (argv, code)
    assert len(err.getvalue().encode()) < 1024, err.getvalue()[:200]


# --- what each subcommand imports ------------------------------------------
# A job pays for compiling and running every module it imports, so each
# subcommand loads only its own.  Each case runs in a fresh interpreter.
# A job imports none of the standard modules in WATCHED: a canonical
# command line is parsed without argparse (and so without gettext and
# locale), and a report hashes its inputs with CPython's _sha256.  Only
# where the interpreter has no _sha256 may a job that writes a JSON run
# report with input hashes (REPORTLESS cases write none) load hashlib.

STARTUP = {"cli", "jsonio", "simplicial"}
MODULES_BY_CASE = {
    "construct-boundary-simplex": STARTUP | {"constructions"},
    "construct-cone": STARTUP | {"constructions"},
    "construct-join": STARTUP | {"constructions"},
    "construct-barycentric-all-2": STARTUP | {"constructions"},
    "check-aspherical-pass": STARTUP | {"coxeter"},
    "check-proper-fail": STARTUP | {"coxeter"},
    "coxeter-nerve": STARTUP | {"coxeter"},
    "error-budget": STARTUP | {"coxeter"},
    "equiv-pass": STARTUP | {"equivalence"},
    # rp2_6 is a pseudo-surface, whose homology is read off in closed form
    "homology": STARTUP | {"homology", "clearing"},
    # the 2-torsion of its suspension leaves a block for smith's snf_diagonal
    "homology-torsion-block": STARTUP | {"homology", "clearing", "smith",
                                         "elimination"},
    "acyclicity-pass": STARTUP | {"homology", "clearing", "dualcells"},
    "solve-solved": STARTUP | {"homology", "dualcells", "elimination"},
    "check-ghs-fail": STARTUP | {"homology", "clearing", "ghs"},
    "check-phm-pass": STARTUP | {"homology", "clearing", "ghs"},
    "from-fan": STARTUP | {"homology", "smith", "elimination", "quasitoric"},
    "check-charfun-pass": STARTUP | {"homology", "smith", "elimination",
                                     "quasitoric"},
    "betti-pass": STARTUP | {"homology", "clearing", "smith", "elimination",
                             "ghs", "quasitoric"},
}
WATCHED = ("dataclasses", "inspect", "hashlib", "_hashlib", "argparse",
           "gettext", "locale")
REPORTLESS = {"construct-boundary-simplex", "construct-cone", "construct-join",
              "construct-barycentric-all-2", "coxeter-nerve", "error-budget",
              "from-fan"}
HASHLIB = (set() if importlib.util.find_spec("_sha256")
           else {"hashlib", "_hashlib"})
LOADED = """
import contextlib, io, sys
before = set(sys.modules)  # site hooks may have loaded watched modules
from cornerkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("cornerkit.")))
print(*sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("case", sorted(MODULES_BY_CASE))
def test_each_subcommand_imports_only_its_modules(tmp_path, case):
    argv, exit_code = PINNED_CASES[case]
    env = dict(os.environ, CORNERKIT_DATA=str(report_inputs(tmp_path)),
               PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    run = subprocess.run([sys.executable, "-c", LOADED, *argv],
                         capture_output=True, text=True, env=env,
                         cwd=tmp_path, check=True)
    ours, new = run.stdout.splitlines()
    code, *loaded = ours.split()
    assert int(code) == exit_code
    assert set(loaded) == {f"cornerkit.{m}" for m in MODULES_BY_CASE[case]}
    watched = set(new.split()).intersection(WATCHED)
    assert watched <= (set() if case in REPORTLESS else HASHLIB)


def test_library_names_resolve_to_their_modules(capsys, monkeypatch):
    for module, names in cli.LIBRARY.items():
        source = importlib.import_module(f"cornerkit.{module}")
        for name in names:
            assert getattr(cli, name) is getattr(source, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    is_ghs, calls = cli.is_ghs, []

    def wrapper(K, n):
        calls.append(n)
        return is_ghs(K, n)
    monkeypatch.setattr(cli, "is_ghs", wrapper)
    code, _, _ = run_cli(capsys, "check-ghs", "-i", str(DATA / "rp2_6.json"),
                         "-n", "3")
    assert code == 1 and calls == [3]


# Names that moved out of the modules that every job, every solve job or
# every acyclicity job compiles, and that bench/spans.py still wraps on
# the old module: old module -> (new module, names).  The old module
# binds each on first use.
MOVED = {
    "dualcells": (("elimination", ("solve_integer",)),),
    "homology": (("smith", ("snf", "snf_diagonal")),
                 ("elimination", ("solve_integer",))),
    "jsonio": (("dualcells", ("cochain_from_obj", "cochain_to_obj")),
               ("quasitoric", ("fan_from_obj", "pair_from_obj",
                               "pair_to_obj"))),
}


@pytest.mark.parametrize("old", sorted(MOVED))
def test_a_moved_name_is_one_object_through_both_modules(old):
    before = importlib.import_module(f"cornerkit.{old}")
    for new, names in MOVED[old]:
        after = importlib.import_module(f"cornerkit.{new}")
        for name in names:
            assert getattr(before, name) is getattr(after, name), name
            assert name in vars(before)  # bound on first use
    with pytest.raises(AttributeError, match=f"cornerkit.{old}.*no_such_name"):
        before.no_such_name


def test_a_moved_name_imports_its_module_on_first_use():
    # a fresh interpreter, where nothing has bound the names yet
    run = subprocess.run([sys.executable, "-c", """
import sys
from cornerkit import homology, jsonio
before = set(sys.modules)
from cornerkit.homology import solve_integer
print(*sorted(m for m in set(sys.modules) - before
              if m.startswith("cornerkit.")))
from cornerkit.homology import snf
from cornerkit.jsonio import cochain_from_obj, pair_from_obj
print(*sorted(m for m in set(sys.modules) - before
              if m.startswith("cornerkit.")))
"""], capture_output=True, text=True, check=True, env=dict(
        os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src")))
    assert run.stdout.splitlines() == ["cornerkit.elimination", " ".join([
        "cornerkit.dualcells", "cornerkit.elimination", "cornerkit.quasitoric",
        "cornerkit.smith"])]


def test_every_forwarded_name_is_one_the_benchmark_wraps_there(monkeypatch):
    # a forward table keeps a name on a second module only for a wrapper
    # that bench/spans.py installs there; a module without a __getattr__
    # forwards nothing
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    spans = importlib.import_module("spans")
    with spans.Tracer() as tracer:
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
    for name in ("simplicial", "homology", "jsonio", "dualcells"):
        module = importlib.import_module(f"cornerkit.{name}")
        hook = vars(module).get("__getattr__")
        table = inspect.getclosurevars(hook).nonlocals["table"] if hook else {}
        for names in table.values():
            for attr in names:
                assert (module, attr) in patched, f"{name}.{attr}"


# --- the start-up layer: parsing and hashing ---------------------------------
# cli._match parses a canonical command line without argparse, which
# stays the oracle for what the matcher accepts and the only parser of
# everything else.

def test_every_pinned_command_line_takes_the_matcher():
    for argv, _ in PINNED_CASES.values():
        for line in (list(argv), [*argv, "--format", "text"]):
            matched = cli._match(line)
            assert matched is not None, line
            assert vars(matched) == vars(cli.build_parser().parse_args(line))


@pytest.mark.parametrize("argv", [
    (), ("-h",), ("frobnicate",), ("homology", "-h"),
    ("homology", "--inp", "b3.json"), ("homology", "--input=b3.json"),
    ("check-ghs", "-i", "b3.json", "-n4"), ("homology", "-ib3.json"),
    ("homology", "-i", "a.json", "-i", "b.json"),
    ("acyclicity", "-n", "3", "--no-top", "--no-top"),
    ("homology", "-i", "-x"), ("check-ghs", "-n", "-1"),
    ("homology", "--", "-i", "b3.json"), ("check-ghs", "-i", "b3.json"),
    ("homology", "--format", "xml"), ("check-ghs", "-n", "three"),
    ("equiv", "a.json"), ("equiv", "a.json", "b.json", "c.json"),
    ("homology", "-i", "b3.json", "extra"), ("construct", "frobnicate"),
    ("construct", "-i", "b3.json", "cone"), ("homology", "--seed", "1"),
])
def test_the_matcher_leaves_other_forms_to_argparse(argv):
    # help, errors, abbreviations, --opt=value, attached values, repeats,
    # values that start with '-' and positionals out of place
    assert cli._match(list(argv)) is None


def values_for(keywords):
    """Values for an argument, most of them valid for it."""
    if keywords.get("type") is int:
        good = ("3", "0", "007", " 4", "1_0")
    elif "choices" in keywords:
        good = tuple(keywords["choices"])
    else:
        good = ("b3.json", "-", "", "a b", "x=y")
    return st.sampled_from(good * 6 + ("-1", "-x", "--", "x", "json", "cone"))


# what only argparse parses: abbreviations, --opt=value, attached short
# values, help, the separator and unknown options
ARGPARSE_ONLY = ("--inp", "--form", "--no", "--comp", "--co", "--dim=3",
                 "--format=json", "--input=b3.json", "-n4", "-ib3.json",
                 "-h", "--", "--seed", "-x")


@st.composite
def command_lines(draw):
    """A subcommand's command line: either any of its tokens in any order,
    or positionals then options with values, some left out, with strays
    inserted (repeats, positionals after options, argparse-only forms)."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    arguments = cli.COMMANDS[command][4]
    options = [(flags, keywords) for flags, keywords in arguments
               if flags[0].startswith("-")]
    token = st.one_of(st.sampled_from([f for flags, _ in options
                                       for f in flags] + list(ARGPARSE_ONLY)),
                      *[values_for(keywords) for _, keywords in arguments])
    if draw(st.integers(0, 3)) == 0:
        return [command, *draw(st.lists(token, max_size=8))]
    line = [command]
    for flags, keywords in arguments:
        if not flags[0].startswith("-"):
            count = draw(st.integers(0, 3)) if "nargs" in keywords else 1
            line += draw(st.lists(values_for(keywords), min_size=count,
                                  max_size=count))
    for flags, keywords in draw(st.permutations(options)):
        if draw(st.integers(0, 9)):
            line.append(draw(st.sampled_from(flags)))
            if keywords.get("action") != "store_true":
                line.append(draw(values_for(keywords)))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        line.insert(draw(st.integers(1, len(line))), draw(token))
    return line


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_a_matched_command_line_parses_as_argparse_parses_it(argv):
    matched = cli._match(argv)
    if matched is not None:
        assert vars(matched) == vars(cli.build_parser().parse_args(argv))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300))
def test_content_hash_is_sha256_with_and_without_the_fast_module(raw):
    expected = "sha256:" + hashlib.sha256(raw).hexdigest()
    assert cli.content_hash(raw) == expected
    if importlib.util.find_spec("_sha256"):
        # the fast path loads no hashlib (and so no OpenSSL)
        with mock.patch.dict(sys.modules, {"hashlib": None}):
            assert cli.content_hash(raw) == expected
    # the fallback where the interpreter has no _sha256
    with mock.patch.dict(sys.modules, {"_sha256": None}):
        assert cli.content_hash(raw) == expected


def test_a_pinned_report_is_the_same_through_the_hashlib_fallback(
        capsys, tmp_path, monkeypatch):
    # an interpreter without _sha256 (Python 3.12 renames it) hashes each
    # input through hashlib, into the same report
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("CORNERKIT_DATA", str(report_inputs(tmp_path)))
    monkeypatch.chdir(cwd)
    sha256, hashed = hashlib.sha256, []
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(hashlib, "sha256",
                        lambda raw: hashed.append(raw) or sha256(raw))
    argv, exit_code = REPORT_CASES["solve-solved"]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == exit_code
    assert len(hashed) == 2  # the complex and the cochain
    assert sha256(json.dumps([code, out, err]).encode()).hexdigest() == \
        REPORT_DIGESTS["solve-solved"][0]


# Simplicial chain complexes are valid by construction and skip the
# public constructor's checks, and dual complexes are read through their
# nerves' ones, so no job runs the checks.
@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_no_job_runs_the_chain_complex_checks(capsys, tmp_path, monkeypatch,
                                              case):
    from cornerkit.homology import ChainComplex
    monkeypatch.setenv("CORNERKIT_DATA", str(report_inputs(tmp_path)))
    monkeypatch.chdir(tmp_path)
    calls = []
    check = ChainComplex.__post_init__

    def spy(self):
        calls.append(self)
        return check(self)
    monkeypatch.setattr(ChainComplex, "__post_init__", spy)
    argv, exit_code = REPORT_CASES[case]
    assert run_cli(capsys, *argv)[0] == exit_code
    assert calls == []


def test_the_package_has_no_assert_statements():
    # python -O strips assert statements, so a self-check written as one
    # would silently not run; the package raises AssertionError instead
    found = []
    for path in sorted(DATA.parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# --- the process entry -------------------------------------------------------
# `python -m cornerkit` and the console script run a job through
# cornerkit.__main__.run: the cyclic collector off, main, a flush of stdout
# and stderr, the exit hooks, then os._exit with main's code and no
# interpreter teardown.

SRC = str(Path(__file__).parent.parent / "src")


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_every_pinned_report_is_the_same_through_the_process_entry(tmp_path,
                                                                   case):
    argv, exit_code = PINNED_CASES[case]
    digests = []
    for fmt in ("json", "text"):
        run = run_module(tmp_path, *argv, "--format", fmt, timeout=60)
        assert run.returncode == exit_code
        digests.append(hashlib.sha256(json.dumps(
            [run.returncode, run.stdout, run.stderr]).encode()).hexdigest())
    assert digests == REPORT_DIGESTS[case]


def module_env(unbuffered: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# a short output, one past the stdout buffer that fails inside main, and
# help, which argparse writes
WRITES = [("construct", "boundary-simplex", "2"),
          ("construct", "barycentric", "-i", "poincare16.json"),
          ("-h",), ("check-ghs", "-h")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", WRITES)
@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_write_to_a_full_device_exits_2_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        run = subprocess.run([sys.executable, "-m", "cornerkit", *argv],
                             stdout=full, stderr=subprocess.PIPE,
                             env=module_env(unbuffered), timeout=60)
    assert (run.returncode, run.stderr.decode()) == (
        2, f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("argv", WRITES)
@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_write_to_a_closed_pipe_exits_2_with_one_line(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # closed before the job starts: every write fails
    try:
        run = subprocess.run([sys.executable, "-m", "cornerkit", *argv],
                             stdout=write, stderr=subprocess.PIPE,
                             env=module_env(unbuffered), timeout=60)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr.decode()) == (
        2, f"error: cannot write output: {os.strerror(errno.EPIPE)}\n")


def test_an_error_with_stdout_closed_exits_2_with_its_line():
    # with fd 1 closed, sys.stdout is None: nothing to write or flush
    run = subprocess.run(
        ["sh", "-c", 'exec "$0" -m cornerkit construct boundary-simplex x '
         '>&-', sys.executable], stderr=subprocess.PIPE,
        env=module_env(False), timeout=60)
    assert (run.returncode, run.stderr) == (2, b"error: not an integer: 'x'\n")


def test_run_flushes_then_runs_the_exit_hooks_then_leaves(monkeypatch):
    entry = importlib.import_module("cornerkit.__main__")
    steps = []

    class Left(Exception):
        pass

    def leave(code):
        steps.append(("_exit", code))
        raise Left

    # the recorded stub also keeps the test process's collector on
    monkeypatch.setattr(entry.gc, "disable", lambda: steps.append("gc off"))
    monkeypatch.setattr(entry, "main", lambda: steps.append("main") or 1)
    for name in ("stdout", "stderr"):
        monkeypatch.setattr(sys, name, mock.Mock(
            flush=lambda name=name: steps.append(f"flush {name}")))
    monkeypatch.setattr(entry.atexit, "_run_exitfuncs",
                        lambda: steps.append("hooks"))
    monkeypatch.setattr(entry.os, "_exit", leave)
    with pytest.raises(Left):
        entry.run()
    assert steps == ["gc off", "main", "flush stdout", "flush stderr",
                     "hooks", ("_exit", 1)]


def test_the_exit_hooks_still_run(tmp_path):
    # a sitecustomize on PYTHONPATH registers a hook, as a site hook or a
    # coverage run does
    site, mark = tmp_path / "site", tmp_path / "hook-ran"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        f"import atexit, pathlib\n"
        f"atexit.register(pathlib.Path({str(mark)!r}).write_text, 'ran')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), SRC]))
    run = subprocess.run([sys.executable, "-m", "cornerkit", "construct",
                          "boundary-simplex", "1"], capture_output=True,
                         text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (
        0, '{"facets":[[0],[1]],"num_vertices":2}\n', "")
    assert mark.read_text() == "ran"


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"cornerkit": "cornerkit.__main__:run"}
    module, _, name = scripts["cornerkit"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))
