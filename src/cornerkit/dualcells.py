"""Dual-cell skeleton of the resolution of the cone on a nerve, and the
obstruction-cochain algebra living on it.

Each simplex σ of the nerve N contributes a dual face of dimension
n - |σ|, plus one top cell for the empty simplex.  The boundary incidence
[D_τ : D_σ] for τ = σ ∪ {v} is the sign of v's position in sorted τ — the
simplicial coboundary convention.  Orientations have to be chosen somehow
and any consistent choice gives an isomorphic complex; this one is
deterministic.

Cochains take values in a caller-supplied finitely generated abelian
group, one coordinate per summand.  Solving δd = c splits into one exact
integer solve per free summand and one modular solve per torsion summand;
when the dual complex is acyclic (the nerve is a generalized homology
sphere) every cocycle of positive degree is solvable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import (ChainComplex, FGAbelianGroup, IntegerMatrix,
                       homology_all, solve_integer, Z)
from .simplicial import EMPTY_SIMPLEX, Simplex, SimplicialComplex, simplices


@dataclass(frozen=True)
class DualFace:
    """Dual cell of a nerve simplex; label ∅ names the top cell."""

    label: Simplex
    dim: int


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
        faces: dict[int, tuple[DualFace, ...]] = {}
        top = n if include_top else n - 1
        for d in range(0, top + 1):
            size = n - d
            if size == 0:
                labels = (EMPTY_SIMPLEX,)
            else:
                labels = simplices(N, size - 1)
            faces[d] = tuple(DualFace(s, d) for s in labels)
        self.faces = faces
        self._index = {d: {f.label.vertices: i for i, f in enumerate(fs)}
                       for d, fs in faces.items()}
        self.boundary: dict[int, IntegerMatrix] = {}
        for d in range(1, top + 1):
            self.boundary[d] = self._boundary_matrix(d)
        assert all(self.boundary[d - 1].mul(self.boundary[d]).is_zero()
                   for d in range(2, top + 1)), "∂∘∂ != 0"

    def _boundary_matrix(self, d: int) -> IntegerMatrix:
        """∂_d: grade-d faces to grade d-1; entry [D_τ : D_σ] is the sign
        of the added vertex's position in sorted τ."""
        lower = self.faces[d - 1]
        upper = self.faces[d]
        low_index = self._index[d - 1]
        rows = [[0] * len(upper) for _ in lower]
        vertex_pool = range(self.nerve.num_vertices)
        for j, F in enumerate(upper):
            sigma = F.label.vertices
            sigma_set = set(sigma)
            for v in vertex_pool:
                if v in sigma_set:
                    continue
                tau = tuple(sorted(sigma + (v,)))
                i = low_index.get(tau)
                if i is None:
                    continue
                rows[i][j] = 1 if tau.index(v) % 2 == 0 else -1
        return IntegerMatrix(len(lower), len(upper),
                             tuple(tuple(r) for r in rows))

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
        mat = self.boundary[F.dim]
        return mat.entries[self._index[G.dim][G.label.vertices]][
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


@dataclass(frozen=True)
class Cochain:
    """Degree-k cochain: one group element per k-dimensional dual face."""

    degree: int
    group: FGAbelianGroup
    values: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    # (face label vertices, element coordinates), sorted by label

    @classmethod
    def build(cls, D: DualComplex, degree: int, group: FGAbelianGroup,
              assignment=None) -> "Cochain":
        """Dense cochain over the degree-k faces; missing faces get zero."""
        if degree not in D.faces:
            raise ValueError(f"degree {degree} out of range 0..{D.top_dim}")
        assignment = dict(assignment or {})
        values = []
        known = set()
        for f in D.faces[degree]:
            key = f.label.vertices
            coords = assignment.pop(key, None)
            if coords is None:
                coords = group.zero()
            values.append((key, group.reduce(coords)))
            known.add(key)
        if assignment:
            raise ValueError(f"values on unknown faces: {sorted(assignment)}")
        return cls(degree, group, tuple(values))

    def value(self, label: tuple[int, ...]) -> tuple[int, ...]:
        for key, coords in self.values:
            if key == label:
                return coords
        raise KeyError(f"no face labeled {label}")

    def vector(self, coord: int) -> list[int]:
        """One integer per face: the coord-th coordinate of each value."""
        return [coords[coord] for _, coords in self.values]

    def is_zero(self) -> bool:
        return all(self.group.is_zero_element(c) for _, c in self.values)


def zero_cochain(D: DualComplex, degree: int, group: FGAbelianGroup) -> Cochain:
    return Cochain.build(D, degree, group)


def indicator_cochain(D: DualComplex, G: DualFace, gamma,
                      group: FGAbelianGroup) -> Cochain:
    """The cochain assigning gamma to the single face G and zero elsewhere."""
    return Cochain.build(D, G.dim, group, {G.label.vertices: gamma})


def coboundary(D: DualComplex, d: Cochain) -> Cochain:
    """(δd)(F) = Σ [G:F]·d(G) over the boundary faces G of F."""
    k = d.degree + 1
    if k not in D.faces:
        raise ValueError(f"coboundary degree {k} out of range 0..{D.top_dim}")
    group = d.group
    mat = D.boundary[k]  # rows: grade k-1 faces, cols: grade k faces
    out = {}
    lower = D.faces[d.degree]
    for j, F in enumerate(D.faces[k]):
        total = group.zero()
        for i, G in enumerate(lower):
            coeff = mat.entries[i][j]
            if coeff:
                total = group.add(total, group.scale(coeff, d.values[i][1]))
        out[F.label.vertices] = total
    return Cochain.build(D, k, group, out)


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
    delta = D.boundary[c.degree].transpose()  # rows: k-faces, cols: (k-1)-faces
    per_coord: list[list[int]] = []
    for coord in range(group.num_coords):
        b = c.vector(coord)
        modulus = (None if coord < group.free_rank
                   else group.torsion[coord - group.free_rank])
        x = solve_integer(delta, b, modulus)
        if x is None:
            return None
        per_coord.append(x)
    lower = D.faces[c.degree - 1]
    assignment = {}
    for i, G in enumerate(lower):
        assignment[G.label.vertices] = tuple(per_coord[coord][i]
                                             for coord in range(group.num_coords))
    d = Cochain.build(D, c.degree - 1, group, assignment)
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
