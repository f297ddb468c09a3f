"""The value classes against their frozen-dataclass twins (oracles).

Each case builds an instance of every value class, a second one that is
sometimes a rebuild from the first one's fields, and the twins of both
from the same field values; ==, hash, the default repr, and assignment
and deletion of fields must come out the same as for the twins.
"""

import inspect

from hypothesis import given, settings, strategies as st

from cornerkit.constructions import label_all
from cornerkit.coxeter import (CoxeterMatrix, FinitenessVerdict,
                               coxeter_matrix, is_finite)
from cornerkit.dualcells import Cochain
from cornerkit.ghs import GhsFailure, GhsReport
from cornerkit.homology import (ChainComplex, FGAbelianGroup, SparseMatrix,
                                chain_complex)
from cornerkit.quasitoric import CharacteristicPair, Fan
from cornerkit.simplicial import (LabeledComplex, SimplicialComplex,
                                  build_complex, simplex)
from cornerkit.smith import IntegerMatrix, SNFResult
from oracles import DATACLASS_TWINS, from_invariants

simplices_ = st.lists(st.integers(0, 4), max_size=3, unique=True).map(simplex)
complexes = st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                              unique=True), min_size=1, max_size=4).map(
    lambda faces: build_complex([[sorted({v for f in faces for v in f})
                                  .index(v) for v in f] for f in faces]))
labeled = st.builds(label_all, complexes, st.integers(2, 5))

groups = st.lists(st.integers(0, 6), max_size=3).map(from_invariants)
matrices = st.integers(0, 3).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
    max_size=3)).map(IntegerMatrix.from_rows)
failures = st.builds(GhsFailure, simplices_, st.integers(-1, 3), groups,
                     groups)


def whole_matrix(LK):
    return coxeter_matrix(LK, tuple(range(LK.complex.num_vertices)))


@st.composite
def pairs(draw):
    K = draw(complexes)
    n = draw(st.integers(1, K.num_vertices))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                         .filter(any), min_size=K.num_vertices,
                         max_size=K.num_vertices))
    return CharacteristicPair(K, n, IntegerMatrix.from_rows(rows))


@st.composite
def fans(draw):
    dim = draw(st.integers(1, 3))
    rays = draw(st.lists(st.lists(st.sampled_from([-1, 0, 1]), min_size=dim,
                                  max_size=dim).filter(any).map(tuple),
                         min_size=1, max_size=4))
    cones = draw(st.lists(st.lists(st.integers(0, len(rays) - 1),
                                   max_size=dim, unique=True).map(tuple),
                          max_size=3))
    return Fan(tuple(rays), tuple(cones))


@st.composite
def reports(draw):
    found = tuple(draw(st.lists(failures, max_size=2)))
    return GhsReport(not found, draw(st.integers(0, 3)), found,
                     draw(st.integers(0, 9)))


INSTANCES = {
    SimplicialComplex: complexes,
    LabeledComplex: labeled,
    IntegerMatrix: matrices,
    SparseMatrix: matrices.map(IntegerMatrix.to_sparse),
    SNFResult: st.builds(SNFResult, matrices, matrices, matrices),
    FGAbelianGroup: groups,
    ChainComplex: st.builds(chain_complex, complexes, st.booleans()),
    Cochain: st.builds(Cochain, st.integers(0, 3), groups, st.lists(
        st.tuples(st.tuples(st.integers(0, 4)), st.tuples(st.integers(0, 2))),
        max_size=2).map(tuple)),
    GhsFailure: failures,
    GhsReport: reports(),
    CoxeterMatrix: labeled.map(whole_matrix),
    FinitenessVerdict: labeled.map(lambda LK: is_finite(whole_matrix(LK))),
    CharacteristicPair: pairs(),
    Fan: fans(),
}


def field_values(cls, x) -> list:
    """The values of x's attributes named in cls._fields, in order."""
    return [getattr(x, name) for name in cls._fields]


def outcome(op):
    """("value", result), or ("raises", whether the exception is an
    AttributeError, its message)."""
    try:
        return "value", op()
    except (AttributeError, TypeError) as exc:
        return "raises", isinstance(exc, AttributeError), str(exc)


def test_every_value_class_has_a_twin_and_a_strategy():
    assert set(INSTANCES) == set(DATACLASS_TWINS) and len(INSTANCES) == 14
    for cls, twin in DATACLASS_TWINS.items():
        assert cls._fields == tuple(f.name for f in
                                    twin.__dataclass_fields__.values())
        # same parameters and defaults
        assert ([(p.name, p.default) for p in
                 inspect.signature(cls).parameters.values()] ==
                [(p.name, p.default) for p in
                 inspect.signature(twin).parameters.values()])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_values_behave_as_their_frozen_dataclass_twins(data):
    for cls, strategy in INSTANCES.items():
        a = data.draw(strategy)
        assert type(a) is cls
        b = (cls(*field_values(cls, a)) if data.draw(st.booleans())
             else data.draw(strategy))
        twin = DATACLASS_TWINS[cls]
        ta, tb = twin(*field_values(cls, a)), twin(*field_values(cls, b))
        assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
        assert a.__eq__(ta) is NotImplemented and a != ta
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
        if "__repr__" not in vars(cls):
            assert repr(a) == repr(ta)
        for name in (*cls._fields, "other"):
            assert (outcome(lambda: setattr(a, name, 0)) ==
                    outcome(lambda: setattr(ta, name, 0)))
            assert (outcome(lambda: delattr(a, name)) ==
                    outcome(lambda: delattr(ta, name)))
        assert field_values(cls, a) == field_values(cls, ta)
