"""The per-layer benchmark wraps library functions by name; entering its
Tracer looks every one of them up, so a rename that the benchmark would
trip over fails here first."""

import importlib
import json
from pathlib import Path

import pytest

from cornerkit.cli import main

BENCH = Path(__file__).parent.parent / "bench"
DATA = Path(__file__).parent.parent / "src" / "cornerkit" / "data"
B3 = {"num_vertices": 4, "facets": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]}
INPUTS = {
    "b3.json": B3,
    "pentagon.json": {"num_vertices": 5,
                      "facets": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
                      "labels": [[0, 1, 2], [1, 2, 2], [2, 3, 2], [3, 4, 2],
                                 [0, 4, 2]]},
    "square.json": {"num_vertices": 4,
                    "facets": [[0, 1], [1, 2], [2, 3], [0, 3]]},
    "square-moved.json": {"num_vertices": 4,
                          "facets": [[0, 2], [1, 2], [1, 3], [0, 3]]},
    "zero.json": {"degree": 2, "group": {"rank": 1, "torsion": []},
                  "values": {}},
    "non-cocycle.json": {"degree": 1, "group": {"rank": 1, "torsion": []},
                         "values": {"0 1": [1]}},
}


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    simplicial = importlib.import_module("cornerkit.simplicial")
    before = simplicial.simplices
    with spans.Tracer():
        assert simplicial.simplices is not before
    assert simplicial.simplices is before


# Each command runs under its own Tracer.  Most of these metrics move
# only through a wrapper on `cornerkit.cli`, so a handler that bound its
# library function before the Tracer patched it would leave them at zero.
# The loader also feeds simplicial.build_s, so `construct cone` cannot
# tell its own wrapper apart; `construct boundary-simplex` reads no input.
@pytest.mark.parametrize("argv,exit_code,metrics", [
    (("construct", "boundary-simplex", "3"), 0, ("simplicial.build_s",)),
    (("construct", "cone", "-i", "b3.json"), 0,
     ("simplicial.build_s", "jsonio.bytes_in")),
    (("check-proper", "-i", "pentagon.json"), 0, ("coxeter.proper_s",)),
    (("check-aspherical", "-i", "pentagon.json"), 0,
     ("coxeter.nerve_facets",)),
    (("coxeter-nerve", "-i", "pentagon.json"), 0, ("coxeter.nerve_facets",)),
    (("equiv", "square.json", "square-moved.json"), 0,
     ("equivalence.prepare_s",)),
    (("acyclicity", "-i", "b3.json", "-n", "3"), 0,
     ("dualcells.cells", "dualcells.acyclicity_calls")),
    (("solve-obstruction", "--complex", "b3.json", "-n", "3",
      "--cochain", "zero.json"), 0, ("dualcells.cells", "dualcells.solve_s")),
    # the handler leaves the cocycle check to the library's solve, which
    # looks is_cocycle up in dualcells
    (("solve-obstruction", "--complex", "b3.json", "-n", "3",
      "--cochain", "non-cocycle.json"), 1, ("dualcells.cocycle_checks",)),
    (("check-charfun", "-i", str(DATA / "cp2_pair.json")), 0,
     ("quasitoric.charfun_s",)),
    (("betti", "-i", str(DATA / "cp2_pair.json")), 0,
     ("quasitoric.betti_s",)),
])
def test_spans_reach_the_cli_lookups(monkeypatch, tmp_path, capsys, argv,
                                     exit_code, metrics):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    for name, doc in INPUTS.items():
        Path(name).write_text(json.dumps(doc))
    spans = importlib.import_module("spans")
    with spans.Tracer() as tracer:
        code = main(list(argv))
    capsys.readouterr()
    assert code == exit_code
    values = tracer.metrics()
    assert all(values.get(m, 0) > 0 for m in metrics), (
        {m: values.get(m, 0) for m in metrics})


@pytest.mark.parametrize("cochain,exit_code", [("zero.json", 0),
                                               ("non-cocycle.json", 1)])
def test_a_solve_job_checks_the_cocycle_once(monkeypatch, tmp_path, capsys,
                                             cochain, exit_code):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    for name, doc in INPUTS.items():
        Path(name).write_text(json.dumps(doc))
    spans = importlib.import_module("spans")
    with spans.Tracer() as tracer:
        code = main(["solve-obstruction", "--complex", "b3.json", "-n", "3",
                     "--cochain", cochain])
    capsys.readouterr()
    assert code == exit_code
    assert tracer.metrics()["dualcells.cocycle_checks"] == 1
