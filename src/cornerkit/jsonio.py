"""JSON encodings for the value types that cross the CLI boundary.

Complexes: {"num_vertices": int, "facets": [[int,...],...]}; the labeled
variant adds {"labels": [[u,v,m],...]}.  Pairs that never appear in the
labels list are unlabeled, which downstream Coxeter machinery reads as an
infinite bond; edges of the complex itself must all be labeled.  Unknown
keys (e.g. "provenance" notes in the shipped corpus) are preserved on
read of the raw document but ignored by the constructors.

All dumps are canonical: sorted keys, no whitespace, one trailing
newline.  parse(print(x)) == x on everything this module emits.

Every job loads this module, so it holds the complex codecs, the group
encoder and the checks that every decoder shares.  The cochain codecs
live with their type in `dualcells`, and the pair and fan codecs in
`quasitoric`, so a job compiles only the codecs it runs.  cli calls the
five that bench/spans.py wraps as `jsonio.<name>`, which a module
`__getattr__` (PEP 562) binds from their module on first use.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .simplicial import (LabeledComplex, SimplicialComplex, _forward,
                         build_complex)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def complex_to_obj(K: SimplicialComplex) -> dict:
    return {"num_vertices": K.num_vertices,
            "facets": [list(f) for f in K.facets]}


def labeled_to_obj(LK: LabeledComplex) -> dict:
    obj = complex_to_obj(LK.complex)
    obj["labels"] = [list(t) for t in LK.labels]
    return obj


def _document(obj, what: str, *keys: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f'{what} lacks "{key}"')
    return obj


def _int(value, what: str) -> int:
    if type(value) is not int:  # JSON true/false would pass isinstance
        raise ValueError(f"{what}: expected an integer")
    return value


def _int_lists(rows, what: str) -> list[list[int]]:
    # one flat pass over the entries, once every row is a list
    if not (isinstance(rows, list)
            and all(map(isinstance, rows, repeat(list)))
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        raise ValueError(f"{what}: expected lists of integers")
    return rows


def complex_from_obj(obj: dict) -> SimplicialComplex | LabeledComplex:
    _document(obj, "complex document", "facets")
    K = build_complex(_int_lists(obj["facets"], '"facets"'))
    declared = obj.get("num_vertices")
    if (declared is not None
            and _int(declared, '"num_vertices"') != K.num_vertices):
        raise ValueError(f"declared num_vertices {declared} does not match "
                         f"facet support {K.num_vertices}")
    if "labels" in obj:
        labels = _int_lists(obj["labels"], '"labels"')
        if any(len(t) != 3 for t in labels):
            raise ValueError('"labels": expected [u, v, m] triples')
        return LabeledComplex(K, tuple(map(tuple, labels)))
    return K


def group_to_obj(G: FGAbelianGroup) -> dict:
    return {"rank": G.free_rank, "torsion": list(G.torsion)}


__getattr__ = _forward(globals(), {
    "dualcells": ("cochain_from_obj", "cochain_to_obj"),
    "quasitoric": ("fan_from_obj", "pair_from_obj", "pair_to_obj")})
