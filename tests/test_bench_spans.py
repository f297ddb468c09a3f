"""The per-layer benchmark wraps library functions by name; entering its
Tracer looks every one of them up, so a rename that the benchmark would
trip over fails here first."""

import importlib
from pathlib import Path

BENCH = Path(__file__).parent.parent / "bench"


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    simplicial = importlib.import_module("cornerkit.simplicial")
    before = simplicial.simplices
    with spans.Tracer():
        assert simplicial.simplices is not before
    assert simplicial.simplices is before
