"""Dual-cell skeleton of the resolution of the cone on a nerve, and the
obstruction-cochain algebra living on it.

Each face σ of the nerve N contributes a dual face D_σ of dimension
n - |σ|, plus one top cell for the empty face ().  A dual face is named by
its nerve face, a sorted vertex tuple, so its grade is n - len(σ).  The
boundary incidence [D_τ : D_σ] for τ = σ ∪ {v} is the sign of v's position
in sorted τ — the simplicial coboundary convention.  Orientations have to
be chosen somehow and any consistent choice gives an isomorphic complex;
this one is deterministic.

So δ into grade d is ∂_{n-d} of the nerve's one chain complex, grades
above dim N + 1 are empty, and the dual complex's homology is the nerve's
cohomology (dual blocks, Munkres, Elements of Algebraic Topology, §64).

Cochains take values in a caller-supplied finitely generated abelian
group, one coordinate per summand.  Solving δd = c is one solve over
that group on the sparse rows of δ: a single replay of the Smith
reduction serves every coordinate, exact in the free ones and modular in
the torsion ones.  When the dual complex is acyclic (the nerve is a
generalized homology sphere) every cocycle of positive degree is
solvable.  A value is reduced once, where a cochain is built (see
Cochain), and the checks read it as it is.

A solve job compiles none of the homology-group code: acyclicity_report
imports `clearing.homology_all` when it runs, so only `acyclicity` loads
the clearing reduction.
"""

from __future__ import annotations

from .homology import (FGAbelianGroup, SparseMatrix, TRIVIAL_GROUP,
                       chain_complex, solve_integer, Z)
from .jsonio import _document, _int, _int_lists, group_to_obj
# simplices is not called here, but bench/spans.py wraps it by this name
from .simplicial import SimplicialComplex, _Value, simplices  # noqa: F401


class NotACocycle(ValueError):
    """A cochain handed to the solver is not a cocycle."""

    def __init__(self, witness: tuple[int, ...]):
        super().__init__(f"input cochain is not a cocycle; δc is nonzero on "
                         f"{witness}")
        self.witness = witness


class DualComplex:
    """Graded dual-face poset with ±1 incidence numbers.

    chain is N's chain complex, augmented exactly when include_top, and
    faces[d] is its degree n - d - 1: the nerve faces of size n - d, which
    name the d-dimensional dual faces, in lexicographic order; with
    include_top, faces[n] is ((),), the top cell.  delta[d] is the
    coboundary from grade d-1 to grade d, rows faces[d] and columns
    faces[d-1]: chain's ∂_{n-d}, or a map with no columns where chain has
    none; its transpose is the dual complex's boundary map from grade d.
    """

    def __init__(self, N: SimplicialComplex, n: int, include_top: bool = True):
        if n < N.dim + 1:
            raise ValueError(f"resolution dimension {n} below dim(N)+1 = {N.dim + 1}")
        self.nerve = N
        self.n = n
        self.include_top = include_top
        self.chain = C = chain_complex(N, augmented=include_top)
        self.faces: dict[int, tuple[tuple[int, ...], ...]] = {
            d: C.basis.get(n - d - 1, ()) for d in range(self.top_dim + 1)}
        # [D_τ : D_σ] for τ = σ ∪ {v} is the simplicial sign of deleting v
        # from τ, the entry of ∂_{n-d} at (σ, τ)
        self.delta: dict[int, SparseMatrix] = {
            d: C.boundary.get(n - d) or SparseMatrix(len(self.faces[d]), 0, ())
            for d in range(1, self.top_dim + 1)}

    @property
    def top_dim(self) -> int:
        return self.n if self.include_top else self.n - 1


def dual_complex(N: SimplicialComplex, n: int,
                 include_top: bool = True) -> DualComplex:
    """Dual-face complex of Cone(N) in resolution dimension n.

    A generalized-homology-sphere nerve guarantees acyclicity (and hence
    obstruction solvability); anything else is allowed, and the solver may
    then legitimately return None.
    """
    return DualComplex(N, n, include_top)


class Cochain(_Value):
    """Degree-k cochain: one group element per k-dimensional dual face,
    stored as given.  build, coboundary and solve_obstruction give one
    reduced value per face in D.faces order, as is_zero and the checks
    need."""

    _fields = ("degree", "group", "values")

    def __init__(self, degree: int, group: FGAbelianGroup,
                 values: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "group", group)
        # (nerve face naming a dual face, element coordinates), sorted
        object.__setattr__(self, "values", values)

    @classmethod
    def build(cls, D: DualComplex, degree: int, group: FGAbelianGroup,
              assignment=None) -> "Cochain":
        """Dense cochain over the degree-k faces; missing faces get zero."""
        if degree not in D.faces:
            raise ValueError(f"degree {degree} out of range 0..{D.top_dim}")
        assignment = dict(assignment or {})
        values = []
        for key in D.faces[degree]:
            coords = assignment.pop(key, None)
            if coords is None:
                coords = group.zero()
            values.append((key, group.reduce(coords)))
        if assignment:
            unknown = sorted(assignment)
            raise ValueError(f"{len(unknown)} values on unknown faces, "
                             f"first {unknown[:5]}")
        return cls(degree, group, tuple(values))

    def is_zero(self) -> bool:
        return not any(any(c) for _, c in self.values)


def coboundary(D: DualComplex, d: Cochain) -> Cochain:
    """(δd)(F) = Σ [G:F]·d(G) over the boundary faces G of F.

    The sums run over the integer coordinates, and each is reduced once
    in the group."""
    k = d.degree + 1
    if k not in D.faces:
        raise ValueError(f"coboundary degree {k} out of range 0..{D.top_dim}")
    # one running sum per coordinate; column j of δ holds the grade-k
    # faces above the j-th grade k-1 face, so d's value there adds to each
    out = [[0] * len(D.faces[k]) for _ in range(d.group.num_coords)]
    for col, (_, coords) in zip(D.delta[k].columns, d.values):
        for acc, x in zip(out, coords):
            if x:
                for i, coeff in col:
                    acc[i] += coeff * x
    sums = map(d.group.reduce, zip(*out)) if out else [()] * len(D.faces[k])
    return Cochain(k, d.group, tuple(zip(D.faces[k], sums)))


def is_cocycle(D: DualComplex,
               c: Cochain) -> tuple[bool, tuple[int, ...] | None]:
    """δc = 0?  On failure, also hand back the nerve face naming a dual
    face above c where it fails.

    Top-degree cochains are cocycles vacuously: there is nothing above
    them for δ to land on.
    """
    if c.degree >= D.top_dim:
        return True, None
    for key, coords in coboundary(D, c).values:
        if any(coords):
            return False, key
    return True, None


def solve_obstruction(D: DualComplex, c: Cochain) -> Cochain | None:
    """Find d of degree k-1 with δd = c, or None when no solution exists.

    Rejects non-cocycle input outright with NotACocycle, which carries a
    witness (a distinct outcome from None, which signals that the complex
    fails to be acyclic in this degree); the cocycle check comes before
    the degree check.  Any returned cochain has been pushed back through
    coboundary and checked against c.
    """
    ok, witness = is_cocycle(D, c)
    if not ok:
        raise NotACocycle(witness)
    if c.degree < 1:
        raise ValueError("obstruction solving needs degree >= 1")
    # δ: rows k-faces, cols (k-1)-faces; the solve replays the Smith
    # reduction's pivot order on its sparse rows, which fixes the preimage
    x = solve_integer(D.delta[c.degree], [coords for _, coords in c.values],
                      c.group)
    if x is None:
        return None
    d = Cochain(c.degree - 1, c.group, tuple(zip(D.faces[c.degree - 1], x)))
    if coboundary(D, d).values != c.values:
        raise AssertionError("solver postcondition")
    return d


def acyclicity_report(D: DualComplex) -> dict[int, FGAbelianGroup]:
    """Homology H_d of the dual chain complex in every grade d: by universal
    coefficients, the free part of the nerve's H_{n-d-1} plus the torsion
    of its H_{n-d-2}, each 0 where the nerve has no faces, from one
    clearing reduction of D.chain."""
    from .clearing import homology_all  # so a solve job loads no clearing
    H = homology_all(D.chain)
    return {d: FGAbelianGroup(H.get(D.n - d - 1, TRIVIAL_GROUP).free_rank,
                              H.get(D.n - d - 2, TRIVIAL_GROUP).torsion)
            for d in D.faces}


def is_resolution_ready(report: dict[int, FGAbelianGroup]) -> bool:
    """H_0 = Z and H_j = 0 for j >= 1 in an acyclicity_report: the
    acyclicity the obstruction solver relies on."""
    for deg, group in report.items():
        if deg == 0:
            if group != Z:
                return False
        elif not group.is_trivial():
            return False
    return True


# --- JSON encoding ---------------------------------------------------------
# The cochain document lives with its type, so only the jobs that read or
# write cochains compile it.

def group_from_obj(obj: dict) -> FGAbelianGroup:
    _document(obj, '"group"')
    torsion, = _int_lists([obj.get("torsion", [])], '"torsion"')
    return FGAbelianGroup(_int(obj.get("rank", 0), '"rank"'), tuple(torsion))


def _simplex_key(vertices: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in vertices)


def _parse_simplex_key(key: str) -> tuple[int, ...]:
    key = key.strip()
    return tuple(int(tok) for tok in key.split()) if key else ()


def cochain_to_obj(c: Cochain) -> dict:
    return {"degree": c.degree,
            "group": group_to_obj(c.group),
            "values": {_simplex_key(k): list(v) for k, v in c.values}}


def cochain_from_obj(obj: dict, D: DualComplex) -> Cochain:
    """The cochain that a document gives on D.  Two keys that name one
    face, such as "0 10" and " 0  10", are an error: a dict of the faces
    would keep the later value alone."""
    _document(obj, "cochain document", "degree", "group", "values")
    group = group_from_obj(obj["group"])
    values = _document(obj["values"], '"values"')
    _int_lists(list(values.values()), '"values"')
    assignment = {_parse_simplex_key(k): tuple(v) for k, v in values.items()}
    if len(assignment) != len(values):
        seen = set()
        for face in map(_parse_simplex_key, values):
            if face in seen:
                break
            seen.add(face)
        raise ValueError(f'"values": {len(values) - len(assignment)} keys '
                         f'repeat a face, first {face}')
    return Cochain.build(D, _int(obj["degree"], '"degree"'), group, assignment)
