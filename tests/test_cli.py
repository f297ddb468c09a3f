import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cornerkit.cli import main
from cornerkit.jsonio import complex_from_obj, dumps, pair_from_obj

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


def test_missing_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "check-ghs", "-i", "nope.json", "-n", "2")
    assert code == 2
    assert "not found" in err


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
    assert [list(f.vertices) for f in nerve.facets] == [[0, 1, 2]]


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
])
def test_malformed_documents_exit_2_briefly(capsys, tmp_path, complex_doc,
                                            cochain_doc, message):
    kpath = tmp_path / "k.json"
    kpath.write_text(json.dumps(complex_doc))
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
