"""Exact integer linear algebra on sparse matrices: simplicial chain
complexes and finitely generated abelian groups.

Everything here runs over Python's arbitrary-precision integers; there is
no floating point in this module.  Intermediate entries in a Smith
reduction can blow up well past machine width, and fixed-width arithmetic
would silently corrupt torsion coefficients, so exactness is not optional.

Homology is always integral.  Torsion is reported in divisor-chain normal
form (Z/2 ⊕ Z/3 prints as torsion [6]).

Boundary maps are sparse signed columns: a k-simplex has k + 1 faces, so
a dense grid would be almost all zeros.  chain_complex builds simplicial
chain complexes, valid by construction, without the checks of the public
ChainComplex constructor; a dual-cell complex is its nerve's read upside
down, so no job runs them.

Every job that computes homology or solves loads this module, so it
holds only the values they share.  Homology groups live in `clearing`,
the Smith replay and the solve over a group in `elimination`, and the
dense matrices with their Smith forms in `smith`.  The library calls
`homology.snf_diagonal`, where bench/spans.py wraps it, snf and
solve_integer, so a module `__getattr__` (PEP 562) binds the three from
`smith` and `elimination` on first use.
"""

from __future__ import annotations

from itertools import chain, combinations, cycle, repeat

from .simplicial import (EMPTY_SIMPLEX, SimplicialComplex, _Value, _forward,
                         simplices)


class SparseMatrix(_Value):
    """Immutable integer matrix stored by columns: column j holds the
    (row, value) pairs of its nonzero entries in increasing row order."""

    _fields = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int,
                 columns: tuple[tuple[tuple[int, int], ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "columns", columns)

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for col in other.columns:
            acc: dict[int, int] = {}
            for k, b in col:
                for i, a in self.columns[k]:
                    acc[i] = acc.get(i, 0) + a * b
            out.append(tuple(sorted((i, x) for i, x in acc.items() if x)))
        return SparseMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols})"


class FGAbelianGroup(_Value):
    """Z^free_rank ⊕ Z/q1 ⊕ ... with q1 | q2 | ... and all qi >= 2.

    Elements are coordinate tuples: free coordinates first, then one
    coordinate mod each torsion divisor.
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        tor = tuple(int(q) for q in torsion)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", tor)
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for q in tor:
            if q < 2:
                raise ValueError(f"torsion coefficient {q} must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"torsion {list(tor)} violates divisibility chain")

    @property
    def num_coords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.num_coords

    def reduce(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.num_coords:
            raise ValueError(f"element needs {self.num_coords} coordinates")
        free = coords[:self.free_rank]
        tor = tuple(c % q for c, q in zip(coords[self.free_rank:], self.torsion))
        return free + tor

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{q}" for q in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FGAbelianGroup({self.describe()})"


TRIVIAL_GROUP = FGAbelianGroup(0, ())
Z = FGAbelianGroup(1, ())


class ChainComplex(_Value):
    """Boundary maps keyed by degree, with named bases.

    boundary[k] maps C_k -> C_{k-1}: rows index basis[k-1], columns index
    basis[k].  Degrees run over sorted(basis); a degree without a map has
    the zero map.  Consecutive composites must vanish.  The constructor
    checks the shapes and the composites, over the sparse columns;
    chain_complex builds simplicial ones without the checks, since the
    sign rule guarantees both.
    """

    _fields = ("boundary", "basis")

    def __init__(self, boundary: dict[int, SparseMatrix],
                 basis: dict[int, tuple]):
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "basis", basis)
        self.__post_init__()

    def __post_init__(self):
        """Check the shapes and ∂∘∂ = 0.  A method of its own, looked up
        on every construction, so bench/spans.py can time it."""
        for k, mat in self.boundary.items():
            n_k = len(self.basis.get(k, ()))
            n_km1 = len(self.basis.get(k - 1, ()))
            if mat.cols != n_k or mat.rows != n_km1:
                raise ValueError(f"boundary map degree {k} has shape "
                                 f"{mat.rows}x{mat.cols}, expected {n_km1}x{n_k}")
        for k in self.boundary:
            if k - 1 in self.boundary:
                if not self.boundary[k - 1].mul(self.boundary[k]).is_zero():
                    raise ValueError(f"∂∘∂ != 0 between degrees {k} and {k-2}")

    def degrees(self) -> list[int]:
        return sorted(self.basis)


def simplicial_boundary_matrix(K: SimplicialComplex, k: int) -> SparseMatrix:
    """∂_k for K: sign (-1)^i on deleting the i-th vertex of a sorted
    simplex.  k = 0 is the augmentation onto the empty simplex.

    Deleting a later vertex leaves a lexicographically smaller face, so
    combinations(vs, k), which deletes the last vertex first, yields each
    column's faces in increasing row order; its t-th face drops vertex
    k - t.  The entries of all columns come in one stream, cut into
    columns of k + 1."""
    lower = simplices(K, k - 1)
    index = dict(zip(lower, range(len(lower))))
    signs = [-1 if (k - t) % 2 else 1 for t in range(k + 1)]
    faces = chain.from_iterable(map(combinations, simplices(K, k), repeat(k)))
    entries = zip(map(index.__getitem__, faces), cycle(signs))
    columns = tuple(zip(*[entries] * (k + 1)))
    return SparseMatrix(len(lower), len(columns), columns)


def chain_complex(K: SimplicialComplex, augmented: bool = False) -> ChainComplex:
    """Simplicial chain complex of K; augmented adds C_{-1} = Z⟨∅⟩.  The
    sign rule makes every shape right and every composite vanish, so it
    is built without the constructor's checks."""
    basis: dict[int, tuple] = {-1: (EMPTY_SIMPLEX,)} if augmented else {}
    boundary: dict[int, SparseMatrix] = {}
    if not K.is_empty():
        for k in range(K.dim + 1):
            basis[k] = simplices(K, k)
        for k in range(1, K.dim + 1):
            boundary[k] = simplicial_boundary_matrix(K, k)
        n_0 = len(basis[0])
        boundary[0] = (simplicial_boundary_matrix(K, 0) if augmented
                       else SparseMatrix(0, n_0, ((),) * n_0))
    C = object.__new__(ChainComplex)
    object.__setattr__(C, "boundary", boundary)
    object.__setattr__(C, "basis", basis)
    return C


__getattr__ = _forward(globals(), {"smith": ("snf", "snf_diagonal"),
                                   "elimination": ("solve_integer",)})
