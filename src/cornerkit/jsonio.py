"""JSON encodings for the value types that cross the CLI boundary.

Complexes: {"num_vertices": int, "facets": [[int,...],...]}; the labeled
variant adds {"labels": [[u,v,m],...]}.  Pairs that never appear in the
labels list are unlabeled, which downstream Coxeter machinery reads as an
infinite bond; edges of the complex itself must all be labeled.  Unknown
keys (e.g. "provenance" notes in the shipped corpus) are preserved on
read of the raw document but ignored by the constructors.

All dumps are canonical: sorted keys, no whitespace, one trailing
newline.  parse(print(x)) == x on everything this module emits.
"""

from __future__ import annotations

import json

# The value types of the other modules are imported in the functions that
# build them, so a job loads only the modules its subcommand runs.
from .simplicial import LabeledComplex, SimplicialComplex, build_complex


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def complex_to_obj(K: SimplicialComplex) -> dict:
    return {"num_vertices": K.num_vertices,
            "facets": [list(f.vertices) for f in K.facets]}


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
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and all(type(x) is int for x in r)
            for r in rows)):
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


def group_from_obj(obj: dict) -> FGAbelianGroup:
    from .homology import FGAbelianGroup
    _document(obj, '"group"')
    torsion, = _int_lists([obj.get("torsion", [])], '"torsion"')
    return FGAbelianGroup(_int(obj.get("rank", 0), '"rank"'), tuple(torsion))


def pair_to_obj(p: CharacteristicPair) -> dict:
    return {"n": p.n,
            "lambda": [list(r) for r in p.lam.entries],
            "nerve": complex_to_obj(p.nerve)}


def pair_from_obj(obj: dict) -> CharacteristicPair:
    from .homology import IntegerMatrix
    from .quasitoric import CharacteristicPair
    _document(obj, "characteristic pair document", "n", "lambda", "nerve")
    nerve = complex_from_obj(obj["nerve"])
    if isinstance(nerve, LabeledComplex):
        nerve = nerve.complex
    return CharacteristicPair(nerve, _int(obj["n"], '"n"'),
                              IntegerMatrix.from_rows(
                                  _int_lists(obj["lambda"], '"lambda"')))


def fan_from_obj(obj: dict) -> Fan:
    from .quasitoric import Fan
    _document(obj, "fan document", "rays", "cones")
    return Fan(tuple(map(tuple, _int_lists(obj["rays"], '"rays"'))),
               tuple(map(tuple, _int_lists(obj["cones"], '"cones"'))))


def _simplex_key(vertices: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in vertices)


def _parse_simplex_key(key: str) -> tuple[int, ...]:
    key = key.strip()
    return tuple(int(tok) for tok in key.split()) if key else ()


def cochain_to_obj(c) -> dict:
    return {"degree": c.degree,
            "group": group_to_obj(c.group),
            "values": {_simplex_key(k): list(v) for k, v in c.values}}


def cochain_from_obj(obj: dict, D) -> Cochain:
    from .dualcells import Cochain
    _document(obj, "cochain document", "degree", "group", "values")
    group = group_from_obj(obj["group"])
    values = _document(obj["values"], '"values"')
    _int_lists(list(values.values()), '"values"')
    assignment = {_parse_simplex_key(k): tuple(v) for k, v in values.items()}
    return Cochain.build(D, _int(obj["degree"], '"degree"'), group, assignment)
