"""Dual-cell skeleton of the resolution of the cone on a nerve, and the
obstruction-cochain algebra living on it.

Each simplex σ of the nerve N contributes a dual face of dimension
n - |σ|, plus one top cell for the empty simplex.  The boundary incidence
[D_τ : D_σ] for τ = σ ∪ {v} is the sign of v's position in sorted τ — the
simplicial coboundary convention.  Orientations have to be chosen somehow
and any consistent choice gives an isomorphic complex; this one is
deterministic.

Cochains take values in a caller-supplied finitely generated abelian
group, one coordinate per summand.  Solving δd = c is one solve over
that group on the sparse rows of δ: a single replay of the Smith
reduction serves every coordinate, exact in the free ones and modular in
the torsion ones.  When the dual complex is
acyclic (the nerve is a generalized homology sphere) every cocycle of
positive degree is solvable.
"""

from __future__ import annotations

from .homology import (ChainComplex, FGAbelianGroup, SparseMatrix,
                       homology_all, simplicial_boundary_matrix,
                       solve_integer, Z)
from .simplicial import Simplex, SimplicialComplex, _Value, simplices


class DualFace(_Value):
    """Dual cell of a nerve simplex; label ∅ names the top cell."""

    _fields = ("label", "dim")

    def __init__(self, label: Simplex, dim: int):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "dim", dim)


class DualComplex:
    """Graded dual-face poset with ±1 incidence numbers.

    faces[d] lists the d-dimensional dual faces (label size n - d) in
    lexicographic label order; boundary[d] maps grade d to grade d-1.
    """

    def __init__(self, N: SimplicialComplex, n: int, include_top: bool = True):
        if n < N.dim + 1:
            raise ValueError(f"resolution dimension {n} below dim(N)+1 = {N.dim + 1}")
        self.nerve = N
        self.n = n
        self.include_top = include_top
        top = n if include_top else n - 1
        # label size n - d; simplices(N, -1) is the empty simplex alone
        self.faces: dict[int, tuple[DualFace, ...]] = {
            d: tuple(DualFace(s, d) for s in simplices(N, n - d - 1))
            for d in range(top + 1)}
        self._index = {d: {f.label.vertices: i for i, f in enumerate(fs)}
                       for d, fs in self.faces.items()}
        # [D_τ : D_σ] for τ = σ ∪ {v} is the simplicial sign of deleting v
        # from τ, so ∂_d is the transposed augmented ∂_{n-d} of the nerve
        self.boundary: dict[int, SparseMatrix] = {
            d: simplicial_boundary_matrix(N, n - d).transpose()
            for d in range(1, top + 1)}

    @property
    def top_dim(self) -> int:
        return self.n if self.include_top else self.n - 1

    def face(self, label: Simplex) -> DualFace:
        d = self.n - len(label)
        i = self._index.get(d, {}).get(label.vertices)
        if i is None:
            raise KeyError(f"no dual face labeled {label!r}")
        return self.faces[d][i]

    def incidence(self, G: DualFace, F: DualFace) -> int:
        """[G : F] for G one grade below F."""
        if G.dim != F.dim - 1:
            return 0
        return self.boundary[F.dim][self._index[G.dim][G.label.vertices],
                                    self._index[F.dim][F.label.vertices]]

    def chain_complex(self) -> ChainComplex:
        return ChainComplex(dict(self.boundary),
                            {d: fs for d, fs in self.faces.items()})


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
        # (face label vertices, element coordinates), sorted by label
        object.__setattr__(self, "values", values)

    @classmethod
    def build(cls, D: DualComplex, degree: int, group: FGAbelianGroup,
              assignment=None) -> "Cochain":
        """Dense cochain over the degree-k faces; missing faces get zero."""
        if degree not in D.faces:
            raise ValueError(f"degree {degree} out of range 0..{D.top_dim}")
        assignment = dict(assignment or {})
        values = []
        for f in D.faces[degree]:
            key = f.label.vertices
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


def indicator_cochain(D: DualComplex, G: DualFace, gamma,
                      group: FGAbelianGroup) -> Cochain:
    """The cochain assigning gamma to the single face G and zero elsewhere."""
    return Cochain.build(D, G.dim, group, {G.label.vertices: gamma})


def coboundary(D: DualComplex, d: Cochain) -> Cochain:
    """(δd)(F) = Σ [G:F]·d(G) over the boundary faces G of F.

    The sums run over the integer coordinates; Cochain.build reduces
    each value once in the group."""
    k = d.degree + 1
    if k not in D.faces:
        raise ValueError(f"coboundary degree {k} out of range 0..{D.top_dim}")
    values = [coords for _, coords in d.values]
    n = d.group.num_coords
    # rows of D.boundary[k]: grade k-1 faces, columns: grade k faces
    return Cochain.build(D, k, d.group, {
        F.label.vertices: [sum(coeff * values[i][c] for i, coeff in col)
                           for c in range(n)]
        for F, col in zip(D.faces[k], D.boundary[k].columns)})


def is_cocycle(D: DualComplex, c: Cochain) -> tuple[bool, DualFace | None]:
    """δc = 0?  On failure, also hand back a face above c where it fails.

    Top-degree cochains are cocycles vacuously: there is nothing above
    them for δ to land on.
    """
    if c.degree >= D.top_dim:
        return True, None
    dc = coboundary(D, c)
    for key, coords in dc.values:
        if not dc.group.is_zero_element(coords):
            return False, D.face(Simplex(key))
    return True, None


def solve_obstruction(D: DualComplex, c: Cochain) -> Cochain | None:
    """Find d of degree k-1 with δd = c, or None when no solution exists.

    Rejects non-cocycle input outright (a distinct outcome from None,
    which signals that the complex fails to be acyclic in this degree).
    Any returned cochain has been pushed back through coboundary and
    checked against c.
    """
    if c.degree < 1:
        raise ValueError("obstruction solving needs degree >= 1")
    ok, witness = is_cocycle(D, c)
    if not ok:
        raise ValueError(f"input cochain is not a cocycle; δc is nonzero on "
                         f"{witness.label.vertices}")
    group = c.group
    # δ: rows k-faces, cols (k-1)-faces; the solve replays the Smith
    # reduction's pivot order on its sparse rows, which fixes the preimage
    delta = D.boundary[c.degree].transpose()
    x = solve_integer(delta, [coords for _, coords in c.values], group)
    if x is None:
        return None
    d = Cochain.build(D, c.degree - 1, group, {
        G.label.vertices: e for G, e in zip(D.faces[c.degree - 1], x)})
    check = coboundary(D, d)
    assert all(group.reduce(a[1]) == group.reduce(b[1])
               for a, b in zip(check.values, c.values)), "solver postcondition"
    return d


def acyclicity_report(D: DualComplex) -> dict[int, FGAbelianGroup]:
    """Homology of the dual chain complex in every grade."""
    return homology_all(D.chain_complex())


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
