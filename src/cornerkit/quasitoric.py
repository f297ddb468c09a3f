"""Characteristic pairs: a candidate sphere nerve plus one integer vector
per vertex, validated by the unimodular-span condition.

"Spanning a k-dimensional subtorus" is implemented as direct-summand
span — the k vectors must extend to a basis of Zⁿ, i.e. their Smith form
is k ones — not merely rank-k span.  Locally standard actions need
isotropy subtori to be direct summands, and the H₁-vanishing criterion
for lifted actions forces the same reading.

Rows are used exactly as given: a non-primitive row can never span a
summand, and silently fixing it would turn invalid input valid.  Fan
rays are normalized on ingestion (with a warning), since rays are
directions.
"""

from __future__ import annotations

import math
import warnings

from . import jsonio
from .homology import FGAbelianGroup
from .jsonio import _document, _int, _int_lists
from .simplicial import (LabeledComplex, SimplicialComplex, _Value,
                         build_complex, f_vector)
from .smith import IntegerMatrix, cokernel, snf_diagonal
# snf is not called here, but bench/spans.py wraps it by this name
from .smith import snf  # noqa: F401

class CharacteristicPair(_Value):
    """nerve on m vertices, torus rank n >= 1, and an m×n matrix whose row
    i is the vector attached to vertex i."""

    _fields = ("nerve", "n", "lam")

    def __init__(self, nerve: SimplicialComplex, n: int, lam: IntegerMatrix):
        object.__setattr__(self, "nerve", nerve)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", lam)
        if n < 1:
            raise ValueError(f"torus rank n must be >= 1, got {n}")
        m = nerve.num_vertices
        if lam.rows != m:
            raise ValueError(f"lambda has {lam.rows} rows for {m} vertices")
        if lam.cols != n:
            raise ValueError(f"lambda has {lam.cols} columns, expected n={n}")
        if m < n:
            raise ValueError(f"need at least n={n} vertices, got {m}")
        for i, row in enumerate(lam.entries):
            if all(x == 0 for x in row):
                raise ValueError(f"row {i} of lambda is zero")

    def row(self, i: int) -> tuple[int, ...]:
        return self.lam.entries[i]


class Fan(_Value):
    """Simplicial fan data: primitive rays and maximal cones as ray-index
    sets of size <= n."""

    _fields = ("rays", "max_cones")

    def __init__(self, rays: tuple[tuple[int, ...], ...],
                 max_cones: tuple[tuple[int, ...], ...]):
        if not rays:
            raise ValueError("fan needs at least one ray")
        dim = len(rays[0])
        primitive = []
        for i, r in enumerate(rays):
            if len(r) != dim:
                raise ValueError("rays of mixed dimension")
            g = math.gcd(*r)
            if g == 0:
                raise ValueError(f"ray {i} is zero")
            if g != 1:
                warnings.warn(f"ray {i} = {list(r)} is not primitive; "
                              f"dividing by gcd {g}")
                r = tuple(x // g for x in r)
            primitive.append(tuple(int(x) for x in r))
        object.__setattr__(self, "rays", tuple(primitive))
        cones = tuple(tuple(sorted(c)) for c in max_cones)
        object.__setattr__(self, "max_cones", cones)
        for c in cones:
            repeated = sorted({i for i, j in zip(c, c[1:]) if i == j})
            if repeated:
                raise ValueError(f"a cone of {len(c)} rays repeats "
                                 f"{len(repeated)} rays, first {repeated[:5]}")
            missing = [i for i in c if i < 0 or i >= len(primitive)]
            if missing:
                raise ValueError(f"a cone of {len(c)} rays references "
                                 f"{len(missing)} missing rays, first "
                                 f"{missing[:5]}")
            if len(c) > dim:
                raise ValueError(f"a cone of {len(c)} rays is not simplicial "
                                 f"in Z^{dim}, first {list(c[:5])}")

    @property
    def dim(self) -> int:
        return len(self.rays[0])


def unimodular_span(vectors) -> bool:
    """Do k integer vectors of Zⁿ span a rank-k direct summand?

    Equivalent to the Smith normal form being exactly k ones, so past n
    vectors, where the diagonal has n entries, the answer is False.  The
    rows come from a CharacteristicPair or a Fan, which checked their
    widths and entries.
    """
    diag = snf_diagonal(IntegerMatrix.from_rows(vectors))
    return len(diag) == len(vectors) and all(d == 1 for d in diag)


def is_characteristic(
        p: CharacteristicPair) -> tuple[bool, tuple[int, ...] | None]:
    """Facet-by-facet unimodular-span validation.

    Subsets of a summand basis are summand bases, so checking facets is
    equivalent to checking every simplex; the witness on failure is the
    first failing facet in lexicographic order.
    """
    for f in p.nerve.facets:
        if not unimodular_span([p.row(v) for v in f]):
            return False, f
    return True, None


def pi1_orbit_union(p: CharacteristicPair) -> FGAbelianGroup:
    """Zⁿ modulo the span of all the vectors: trivial exactly when the
    assignment is surjective over Z."""
    return cokernel(p.lam.transpose())


def from_fan(f: Fan) -> CharacteristicPair:
    """Characteristic pair read off a fan: nerve facets are the maximal
    cones, vector rows are the rays.

    Rejects singular cones (listing them all).  Completeness of the fan
    has no geometric check here; the combinatorial surrogate is running
    the sphere check on the nerve, which the CLI reports as the
    certificate used.
    """
    singular = [c for c in f.max_cones
                if not unimodular_span([f.rays[i] for i in c])]
    if singular:
        raise ValueError("singular cones: " +
                         ", ".join(str(list(c)) for c in singular))
    nerve = build_complex([list(c) for c in f.max_cones])
    if nerve.num_vertices != len(f.rays):
        raise ValueError("some rays appear in no maximal cone")
    return CharacteristicPair(nerve, f.dim, IntegerMatrix.from_rows(f.rays))


def h_vector(p: CharacteristicPair) -> tuple[int, ...]:
    """h_i = Σ_j (-1)^{i-j} C(n-j, i-j) f_{j-1}, i = 0..n, with f_{-1} = 1."""
    f = (1,) + f_vector(p.nerve)  # f[j] = f_{j-1}
    n = p.n
    out = []
    for i in range(n + 1):
        total = 0
        for j in range(i + 1):
            if j < len(f):
                total += (-1) ** (i - j) * math.comb(n - j, i - j) * f[j]
        out.append(total)
    return tuple(out)


def even_betti_report(p: CharacteristicPair) -> tuple[int, ...]:
    """Even Betti numbers b_{2i} = h_i of the associated torus space;
    odd cohomology vanishes (cited-through from the face-ring theory).

    Preconditions: the nerve is a generalized homology (n-1)-sphere and
    the pair passes is_characteristic.
    """
    from .ghs import is_ghs  # so the other quasitoric jobs skip ghs
    ghs_report = is_ghs(p.nerve, p.n)
    if not ghs_report.verdict:
        raise ValueError(f"nerve is not a generalized homology "
                         f"{p.n - 1}-sphere ({len(ghs_report.failures)} failures)")
    ok, witness = is_characteristic(p)
    if not ok:
        raise ValueError(f"pair is not characteristic; offending simplex "
                         f"{list(witness)}")
    return h_vector(p)


# --- JSON encoding ---------------------------------------------------------
# The pair and fan documents live with their types, so only the quasitoric
# jobs compile them.  The complex codecs are looked up on jsonio when
# called, where bench/spans.py wraps them.

def pair_to_obj(p: CharacteristicPair) -> dict:
    return {"n": p.n,
            "lambda": [list(r) for r in p.lam.entries],
            "nerve": jsonio.complex_to_obj(p.nerve)}


def pair_from_obj(obj: dict) -> CharacteristicPair:
    _document(obj, "characteristic pair document", "n", "lambda", "nerve")
    nerve = jsonio.complex_from_obj(obj["nerve"])
    if isinstance(nerve, LabeledComplex):
        nerve = nerve.complex
    return CharacteristicPair(nerve, _int(obj["n"], '"n"'),
                              IntegerMatrix.from_rows(
                                  _int_lists(obj["lambda"], '"lambda"')))


def fan_from_obj(obj: dict) -> Fan:
    _document(obj, "fan document", "rays", "cones")
    return Fan(tuple(map(tuple, _int_lists(obj["rays"], '"rays"'))),
               tuple(map(tuple, _int_lists(obj["cones"], '"cones"'))))
