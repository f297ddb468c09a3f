"""Dual-cell skeleton of the resolution of the cone on a nerve, and the
obstruction-cochain algebra living on it.

Each face σ of the nerve N contributes a dual face D_σ of dimension
n - |σ|, plus one top cell for the empty face ().  A dual face is named by
its nerve face, a sorted vertex tuple, so its grade is n - len(σ).  The
boundary incidence [D_τ : D_σ] for τ = σ ∪ {v} is the sign of v's position
in sorted τ — the simplicial coboundary convention.  Orientations have to
be chosen somehow and any consistent choice gives an isomorphic complex;
this one is deterministic.

So δ into grade d is the nerve's boundary map ∂_{n-d} as built, and the
dual complex's homology is the nerve's cohomology (the dual block
complex, Munkres, Elements of Algebraic Topology, §64).

Cochains take values in a caller-supplied finitely generated abelian
group, one coordinate per summand.  Solving δd = c is one solve over
that group on the sparse rows of δ: a single replay of the Smith
reduction serves every coordinate, exact in the free ones and modular in
the torsion ones.  When the dual complex is
acyclic (the nerve is a generalized homology sphere) every cocycle of
positive degree is solvable.
"""

from __future__ import annotations

from .homology import (FGAbelianGroup, SparseMatrix, TRIVIAL_GROUP, _trusted,
                       homology_all, simplicial_boundary_matrix,
                       solve_integer, Z)
from .simplicial import SimplicialComplex, _Value, simplices


class NotACocycle(ValueError):
    """A cochain handed to the solver is not a cocycle."""

    def __init__(self, witness: tuple[int, ...]):
        super().__init__(f"input cochain is not a cocycle; δc is nonzero on "
                         f"{witness}")
        self.witness = witness


class DualComplex:
    """Graded dual-face poset with ±1 incidence numbers.

    faces[d] is simplices(N, n - d - 1): the nerve faces of size n - d,
    which name the d-dimensional dual faces, in lexicographic order; with
    include_top, faces[n] is ((),), the top cell.  delta[d] is the
    coboundary from grade d-1 to grade d, rows faces[d] and columns
    faces[d-1]: the nerve's augmented boundary map ∂_{n-d}, whose
    transpose is the dual complex's boundary map from grade d.
    """

    def __init__(self, N: SimplicialComplex, n: int, include_top: bool = True):
        if n < N.dim + 1:
            raise ValueError(f"resolution dimension {n} below dim(N)+1 = {N.dim + 1}")
        self.nerve = N
        self.n = n
        self.include_top = include_top
        # label size n - d; simplices(N, -1) is the empty face alone
        self.faces: dict[int, tuple[tuple[int, ...], ...]] = {
            d: simplices(N, n - d - 1) for d in range(self.top_dim + 1)}
        # [D_τ : D_σ] for τ = σ ∪ {v} is the simplicial sign of deleting v
        # from τ, the entry of ∂_{n-d} at (σ, τ)
        self.delta: dict[int, SparseMatrix] = {
            d: simplicial_boundary_matrix(N, n - d)
            for d in range(1, self.top_dim + 1)}

    @property
    def top_dim(self) -> int:
        return self.n if self.include_top else self.n - 1

    def incidence(self, G: tuple[int, ...], F: tuple[int, ...]) -> int:
        """[D_G : D_F], zero unless D_G lies one grade below D_F, that is,
        unless G has one vertex more than F."""
        if len(G) != len(F) + 1:
            return 0
        d = self.n - len(F)
        return self.delta[d][self.faces[d].index(F),
                             self.faces[d - 1].index(G)]


def dual_complex(N: SimplicialComplex, n: int,
                 include_top: bool = True) -> DualComplex:
    """Dual-face complex of Cone(N) in resolution dimension n.

    A generalized-homology-sphere nerve guarantees acyclicity (and hence
    obstruction solvability); anything else is allowed, and the solver may
    then legitimately return None.
    """
    return DualComplex(N, n, include_top)


class Cochain(_Value):
    """Degree-k cochain: one group element per k-dimensional dual face."""

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
        return all(self.group.is_zero_element(c) for _, c in self.values)


def zero_cochain(D: DualComplex, degree: int, group: FGAbelianGroup) -> Cochain:
    return Cochain.build(D, degree, group)


def indicator_cochain(D: DualComplex, G: tuple[int, ...], gamma,
                      group: FGAbelianGroup) -> Cochain:
    """The cochain assigning gamma to the single dual face D_G and zero
    elsewhere."""
    return Cochain.build(D, D.n - len(G), group, {G: gamma})


def coboundary(D: DualComplex, d: Cochain) -> Cochain:
    """(δd)(F) = Σ [G:F]·d(G) over the boundary faces G of F.

    The sums run over the integer coordinates; Cochain.build reduces
    each value once in the group."""
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
    return Cochain.build(D, k, d.group, dict(zip(D.faces[k], zip(*out))))


def is_cocycle(D: DualComplex,
               c: Cochain) -> tuple[bool, tuple[int, ...] | None]:
    """δc = 0?  On failure, also hand back the nerve face naming a dual
    face above c where it fails.

    Top-degree cochains are cocycles vacuously: there is nothing above
    them for δ to land on.
    """
    if c.degree >= D.top_dim:
        return True, None
    dc = coboundary(D, c)
    for key, coords in dc.values:
        if not dc.group.is_zero_element(coords):
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
    group = c.group
    # δ: rows k-faces, cols (k-1)-faces; the solve replays the Smith
    # reduction's pivot order on its sparse rows, which fixes the preimage
    x = solve_integer(D.delta[c.degree], [coords for _, coords in c.values],
                      group)
    if x is None:
        return None
    d = Cochain.build(D, c.degree - 1, group, {
        G: e for G, e in zip(D.faces[c.degree - 1], x)})
    check = coboundary(D, d)
    if not all(group.reduce(a[1]) == group.reduce(b[1])
               for a, b in zip(check.values, c.values)):
        raise AssertionError("solver postcondition")
    return d


def acyclicity_report(D: DualComplex) -> dict[int, FGAbelianGroup]:
    """Homology H_d of the dual chain complex in every grade d: by universal
    coefficients, the free part of the nerve's H_{n-d-1} plus the torsion
    of its H_{n-d-2}, from one clearing reduction of the nerve's chain
    complex (augmented with the top cell), which is valid by construction."""
    n = D.n
    H = homology_all(_trusted({n - d: M for d, M in D.delta.items()},
                              {n - d - 1: fs for d, fs in D.faces.items()}))
    return {d: FGAbelianGroup(H[n - d - 1].free_rank,
                              H.get(n - d - 2, TRIVIAL_GROUP).torsion)
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
