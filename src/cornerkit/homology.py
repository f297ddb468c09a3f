"""Exact integer linear algebra: Smith normal form, simplicial chain
complexes, homology with torsion, integer solving, cokernels.

Everything here runs over Python's arbitrary-precision integers; there is
no floating point in this module.  Intermediate entries in a Smith
reduction can blow up well past machine width, and fixed-width arithmetic
would silently corrupt torsion coefficients, so exactness is not optional.

Homology is always integral.  Torsion is reported in divisor-chain normal
form (Z/2 ⊕ Z/3 prints as torsion [6]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .simplicial import EMPTY_SIMPLEX, SimplicialComplex, simplices


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense immutable integer matrix."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.rows or any(len(r) != self.cols for r in entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(tuple(r) for r in rows))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             tuple(zip(*self.entries)) if self.rows else
                             tuple(() for _ in range(self.cols)))

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        bt = list(zip(*other.entries)) if other.rows else [()] * other.cols
        out = []
        for r in self.entries:
            out.append(tuple(
                sum(a * b for a, b in zip(r, col) if a) for col in bt))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, v) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * b for a, b in zip(row, v) if a) for row in self.entries]

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.entries)

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SNFResult:
    """U·A·V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix

    def diagonal(self) -> list[int]:
        n = min(self.D.rows, self.D.cols)
        return [self.D.entries[i][i] for i in range(n)]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _min_abs_pivot(a: list[list[int]], t: int, rows: int, cols: int):
    """Position of the nonzero entry of smallest |value| in a[t:, t:]."""
    best = None
    best_val = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x:
                v = -x if x < 0 else x
                if best_val is None or v < best_val:
                    best, best_val = (i, j), v
                    if v == 1:
                        return best
    return best


def _smith_reduce(a: list[list[int]], u: list[list[int]] | None,
                  v: list[list[int]] | None) -> list[int]:
    """In-place Smith reduction of a; row/col ops mirrored into u and v
    when given.  Returns the diagonal (all >= 0, divisor chain)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    t = 0
    while t < rows and t < cols:
        if _min_abs_pivot(a, t, rows, cols) is None:
            break
        while True:
            # move the smallest nonzero entry to (t, t); any leftover after
            # a reduction pass is strictly smaller, so this terminates
            i, j = _min_abs_pivot(a, t, rows, cols)
            if i != t:
                a[t], a[i] = a[i], a[t]
                if u is not None:
                    u[t], u[i] = u[i], u[t]
            if j != t:
                for r in a:
                    r[t], r[j] = r[j], r[t]
                if v is not None:
                    for r in v:
                        r[t], r[j] = r[j], r[t]
            pivot = a[t][t]
            clean = True
            at = a[t]
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    q = x // pivot
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], at)]
                        if u is not None:
                            ut = u[t]
                            u[i] = [y - q * z for y, z in zip(u[i], ut)]
                    if a[i][t]:
                        clean = False
            if not clean:
                continue
            for jj in range(t + 1, cols):
                x = at[jj]
                if x:
                    q = x // pivot
                    if q:
                        for r in a:
                            r[jj] -= q * r[t]
                        if v is not None:
                            for r in v:
                                r[jj] -= q * r[t]
                    if at[jj]:
                        clean = False
            if not clean:
                continue
            # force the pivot to divide every remaining entry
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for jj in range(t + 1, cols):
                    if ai[jj] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [y + z for y, z in zip(at, a[offender])]
            if u is not None:
                u[t] = [y + z for y, z in zip(u[t], u[offender])]
        t += 1
    diag = []
    for k in range(min(rows, cols)):
        d = a[k][k]
        if d < 0:
            a[k] = [-x for x in a[k]]
            if u is not None:
                u[k] = [-x for x in u[k]]
            d = -d
        diag.append(d)
    return diag


# test profile: when set, every snf() call re-verifies U·A·V = D plus the
# unimodularity and divisor-chain postconditions before returning
VERIFY_EVERY_SNF = False


def snf(A: IntegerMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms: U·A·V = D.

    Pivoting is by minimal absolute nonzero entry, which keeps coefficient
    growth in check on the incidence-style matrices this package produces.
    """
    a = A.tolists()
    u = IntegerMatrix.identity(A.rows).tolists()
    v = IntegerMatrix.identity(A.cols).tolists()
    _smith_reduce(a, u, v)
    result = SNFResult(
        IntegerMatrix.from_rows(u) if A.rows else IntegerMatrix(0, 0, ()),
        IntegerMatrix(A.rows, A.cols, tuple(tuple(r) for r in a)),
        IntegerMatrix.from_rows(v) if A.cols else IntegerMatrix(0, 0, ()))
    if VERIFY_EVERY_SNF:
        assert verify_snf(A, result), "SNF postcondition violated"
    return result


def snf_diagonal(A: IntegerMatrix) -> list[int]:
    """Just the invariant factors, skipping transform bookkeeping."""
    a = A.tolists()
    return _smith_reduce(a, None, None)


def rank(A: IntegerMatrix) -> int:
    return sum(1 for d in snf_diagonal(A) if d != 0)


def verify_snf(A: IntegerMatrix, result: SNFResult) -> bool:
    """Postcondition check: U·A·V = D, |det U| = |det V| = 1, divisor chain."""
    if result.U.mul(A).mul(result.V).entries != result.D.entries:
        return False
    if abs(determinant(result.U)) != 1 or abs(determinant(result.V)) != 1:
        return False
    diag = result.diagonal()
    for i in range(result.D.rows):
        for j in range(result.D.cols):
            if i != j and result.D.entries[i][j] != 0:
                return False
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            return False
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            return False
    return all(d >= 0 for d in diag)


def determinant(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    a = A.tolists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def unimodular_inverse(A: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular integer matrix: its Smith form is the
    identity, so U·A·V = I gives A⁻¹ = V·U."""
    if determinant(A) not in (1, -1):
        raise ValueError("matrix is not unimodular")
    res = snf(A)
    return res.V.mul(res.U)


@dataclass(frozen=True)
class FGAbelianGroup:
    """Z^free_rank ⊕ Z/q1 ⊕ ... with q1 | q2 | ... and all qi >= 2.

    Elements are coordinate tuples: free coordinates first, then one
    coordinate mod each torsion divisor.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        tor = tuple(int(q) for q in self.torsion)
        object.__setattr__(self, "torsion", tor)
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for q in tor:
            if q < 2:
                raise ValueError(f"torsion coefficient {q} must be >= 2")
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError(f"torsion {list(tor)} violates divisibility chain")

    @classmethod
    def from_invariants(cls, invariants, free_rank: int = 0) -> "FGAbelianGroup":
        """Normalize an arbitrary list of cyclic orders (0 meaning Z)."""
        free = free_rank + sum(1 for d in invariants if d == 0)
        tor = [abs(d) for d in invariants if abs(d) > 1]
        # repeatedly replace pairs by (gcd, lcm) until the chain divides
        changed = True
        while changed:
            changed = False
            for i in range(len(tor)):
                for j in range(i + 1, len(tor)):
                    if tor[j] % tor[i]:
                        g = math.gcd(tor[i], tor[j])
                        tor[i], tor[j] = g, tor[i] * tor[j] // g
                        changed = True
            tor = [q for q in tor if q > 1]
        return cls(free, tuple(sorted(tor)))

    @property
    def num_coords(self) -> int:
        return self.free_rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.num_coords

    def reduce(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.num_coords:
            raise ValueError(f"element needs {self.num_coords} coordinates")
        free = coords[:self.free_rank]
        tor = tuple(c % q for c, q in zip(coords[self.free_rank:], self.torsion))
        return free + tor

    def add(self, x, y) -> tuple[int, ...]:
        return self.reduce(tuple(a + b for a, b in zip(x, y)))

    def neg(self, x) -> tuple[int, ...]:
        return self.reduce(tuple(-a for a in x))

    def scale(self, k: int, x) -> tuple[int, ...]:
        return self.reduce(tuple(k * a for a in x))

    def is_zero_element(self, x) -> bool:
        return self.reduce(x) == self.zero()

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{q}" for q in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FGAbelianGroup({self.describe()})"


TRIVIAL_GROUP = FGAbelianGroup(0, ())
Z = FGAbelianGroup(1, ())


@dataclass(frozen=True)
class ChainComplex:
    """Boundary maps keyed by degree, with named bases.

    boundary[k] maps C_k -> C_{k-1}: rows index basis[k-1], columns index
    basis[k].  Degrees run over sorted(basis); consecutive composites must
    vanish (checked at construction).
    """

    boundary: dict[int, IntegerMatrix] = field(default_factory=dict)
    basis: dict[int, tuple] = field(default_factory=dict)

    def __post_init__(self):
        for k, mat in self.boundary.items():
            n_k = len(self.basis.get(k, ()))
            n_km1 = len(self.basis.get(k - 1, ()))
            if mat.cols != n_k or mat.rows != n_km1:
                raise ValueError(f"boundary map degree {k} has shape "
                                 f"{mat.rows}x{mat.cols}, expected {n_km1}x{n_k}")
        for k in self.boundary:
            if k - 1 in self.boundary:
                prod = self.boundary[k - 1].mul(self.boundary[k])
                if not prod.is_zero():
                    raise ValueError(f"∂∘∂ != 0 between degrees {k} and {k-2}")

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def boundary_or_zero(self, k: int) -> IntegerMatrix:
        if k in self.boundary:
            return self.boundary[k]
        return IntegerMatrix.zeros(len(self.basis.get(k - 1, ())),
                                   len(self.basis.get(k, ())))


def simplicial_boundary_matrix(K: SimplicialComplex, k: int) -> IntegerMatrix:
    """∂_k for K: sign (-1)^i on deleting the i-th vertex of a sorted simplex."""
    lower = simplices(K, k - 1) if k >= 1 else ()
    upper = simplices(K, k)
    index = {s.vertices: i for i, s in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i, v in enumerate(s.vertices):
            face = s.vertices[:i] + s.vertices[i + 1:]
            rows[index[face]][j] = 1 if i % 2 == 0 else -1
    return IntegerMatrix(len(lower), len(upper),
                         tuple(tuple(r) for r in rows))


def chain_complex(K: SimplicialComplex, augmented: bool = False) -> ChainComplex:
    """Simplicial chain complex of K; augmented adds C_{-1} = Z⟨∅⟩."""
    basis: dict[int, tuple] = {}
    boundary: dict[int, IntegerMatrix] = {}
    if K.is_empty():
        if augmented:
            basis[-1] = (EMPTY_SIMPLEX,)
        return ChainComplex(boundary, basis)
    top = K.dim
    for k in range(top + 1):
        basis[k] = simplices(K, k)
    for k in range(1, top + 1):
        boundary[k] = simplicial_boundary_matrix(K, k)
    if augmented:
        basis[-1] = (EMPTY_SIMPLEX,)
        boundary[0] = IntegerMatrix(1, len(basis[0]),
                                    ((1,) * len(basis[0]),))
    else:
        boundary[0] = IntegerMatrix.zeros(0, len(basis[0]))
    return ChainComplex(boundary, basis)


def homology(C: ChainComplex, k: int) -> FGAbelianGroup:
    """H_k = ker ∂_k / im ∂_{k+1}, exact including torsion."""
    return homology_all(C).get(k, TRIVIAL_GROUP)


def homology_all(C: ChainComplex) -> dict[int, FGAbelianGroup]:
    """Homology in every degree, running one Smith reduction per map."""
    degrees = C.degrees()
    out: dict[int, FGAbelianGroup] = {}
    diag: dict[int, list[int]] = {}
    for k in degrees:
        mat = C.boundary_or_zero(k)
        diag[k] = snf_diagonal(mat) if mat.rows and mat.cols else []
    for k in degrees:
        n_k = len(C.basis[k])
        r_k = sum(1 for d in diag.get(k, []) if d)
        d_up = diag.get(k + 1, [])
        r_up = sum(1 for d in d_up if d)
        free = n_k - r_k - r_up
        torsion = [d for d in d_up if d > 1]
        out[k] = FGAbelianGroup.from_invariants(torsion, free)
    return out


def reduced_homology(K: SimplicialComplex, k: int) -> FGAbelianGroup:
    """Reduced integral homology H̃_k(K)."""
    return reduced_homology_all(K).get(k, TRIVIAL_GROUP)


def reduced_homology_all(K: SimplicialComplex) -> dict[int, FGAbelianGroup]:
    """Reduced homology in all degrees -1..dim(K)."""
    return homology_all(chain_complex(K, augmented=True))


def cokernel(A: IntegerMatrix) -> FGAbelianGroup:
    """Z^rows modulo the span of A's columns."""
    d = snf_diagonal(A)
    r = sum(1 for x in d if x)
    return FGAbelianGroup.from_invariants([x for x in d if x > 1], A.rows - r)


def solve_integer(A: IntegerMatrix, b, modulus: int | None = None) -> list[int] | None:
    """Solve A·x = b over Z, or mod `modulus` when given.

    Returns a solution vector (torsion-reduced when a modulus is supplied)
    or None when no solution exists.  Unsolvability is an answer here, not
    an error.
    """
    b = [int(x) for x in b]
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    res = snf(A)
    c = res.U.mul_vector(b)
    d = res.diagonal()
    y = [0] * A.cols
    if modulus is None:
        for i in range(A.rows):
            di = d[i] if i < len(d) else 0
            if di == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % di:
                    return None
                y[i] = c[i] // di
        x = res.V.mul_vector(y)
        return x
    q = int(modulus)
    if q < 1:
        raise ValueError("modulus must be positive")
    for i in range(A.rows):
        di = d[i] if i < len(d) else 0
        ci = c[i] % q
        if di == 0:
            if ci:
                return None
        else:
            g = math.gcd(di, q)
            if ci % g:
                return None
            qq = q // g
            y[i] = ((ci // g) * pow(di // g, -1, qq)) % qq if qq > 1 else 0
    x = res.V.mul_vector(y)
    return [xi % q for xi in x]
