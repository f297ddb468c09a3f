"""Output checks that do not trust the program under test.

Every check parses a job's stdout and compares it with facts the
benchmark derives itself: sphere homology known from the construction,
equivalence mappings re-applied to facets and labels, obstruction
solutions pushed back through the benchmark's own coboundary, and Coxeter
finiteness decided by positive definiteness of the cosine matrix (an
independent criterion from the program's diagram classification).

A check takes the parsed report and raises Mismatch with a short reason
when the output is wrong; run_check turns that into None or the reason.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

from gen import coboundary, dual_cells, faces


class Mismatch(Exception):
    """Raised inside a check; the message is the failure reason."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def run_check(check, stdout: bytes) -> str | None:
    try:
        doc = json.loads(stdout.decode("utf-8"))
        check(doc)
    except (Mismatch, ValueError, KeyError, TypeError, IndexError,
            AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"[:300]
    return None


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def group(rank: int = 0, torsion=()) -> dict:
    return {"rank": rank, "torsion": list(torsion)}


# --- verdict reports --------------------------------------------------------

def sphere_report(num_checked: int, dimension: int):
    """check-ghs / check-phm on a complex known to pass."""
    def check(doc):
        expect(doc["verdict"] is True, "verdict is not true")
        expect(doc["failures"] == [], "failures reported")
        expect(doc["dimension"] == dimension, "wrong dimension")
        expect(doc["links_checked"] == num_checked,
               f"links_checked {doc['links_checked']} != {num_checked}")
    return check


def ghs_global_failure(num_checked: int, dimension: int, homology: dict):
    """check-ghs on a manifold whose only defect is its global homology;
    `homology` maps degree -> reduced group as a report dict."""
    failures = []
    for k in range(dimension + 1):
        want = group(1) if k == dimension else group()
        got = homology.get(k, group())
        if got != want:
            failures.append({"actual": got, "degree": k, "expected": want,
                             "simplex": []})

    def check(doc):
        expect(doc["verdict"] is False, "verdict is not false")
        expect(doc["failures"] == failures,
               f"failures {doc['failures']} != {failures}")
        expect(doc["links_checked"] == num_checked, "wrong links_checked")
    return check


def reduced_homology(expected: dict):
    """`expected` maps every reported degree (as str) to a group dict."""
    def check(doc):
        expect(doc["reduced_homology"] == expected,
               f"homology {doc['reduced_homology']} != {expected}")
    return check


def acyclic(top: int):
    want = {str(k): group(1 if k == 0 else 0) for k in range(top + 1)}

    def check(doc):
        expect(doc["verdict"] is True, "not resolution-ready")
        expect(doc["homology"] == want, f"homology {doc['homology']}")
    return check


def verdict(value: bool):
    def check(doc):
        expect(doc["verdict"] is value, f"verdict is not {value}")
    return check


def charfun_ok(doc):
    expect(doc["verdict"] is True, "pair rejected")
    expect(doc["offending"] is None, "offending simplex reported")
    expect(doc["pi1_orbit_union"] == group(), "orbit-union pi1 not trivial")


def betti(h_vector):
    def check(doc):
        expect(doc["verdict"] is True, "betti verdict is not true")
        expect(doc["h_vector"] == list(h_vector), f"h-vector {doc['h_vector']}")
        expect(doc["betti_even"] == {str(2 * i): h
                                     for i, h in enumerate(h_vector)},
               "even Betti numbers")
        expect(doc["betti_odd"] == 0, "odd Betti numbers")
    return check


def same_document(expected: dict):
    """A construction or pair whose content the benchmark knows."""
    def check(doc):
        expect(doc == expected, "document differs from the expected one")
    return check


# --- equivalence ------------------------------------------------------------

def isomorphism(A: dict, B: dict):
    """The reported mapping must send A's facets onto B's and keep every
    edge label."""
    n = A["num_vertices"]
    facets_b = {tuple(f) for f in B["facets"]}
    labels_a = {(u, v): m for u, v, m in A.get("labels", ())}
    labels_b = {(u, v): m for u, v, m in B.get("labels", ())}

    def check(doc):
        expect(doc["verdict"] is True, "not equivalent")
        pairs = doc["mapping"]
        phi = dict(pairs)
        expect(len(pairs) == n and sorted(phi) == list(range(n))
               and sorted(phi.values()) == list(range(n)),
               "mapping is not a bijection of the vertices")
        mapped = {tuple(sorted(phi[v] for v in f)) for f in A["facets"]}
        expect(mapped == facets_b, "mapping does not carry facets onto facets")
        for (u, v), m in labels_a.items():
            a, b = sorted((phi[u], phi[v]))
            expect(labels_b.get((a, b)) == m, f"label of edge {u},{v} lost")
    return check


# --- obstruction cochains ---------------------------------------------------

def parse_cochain(doc: dict, G) -> tuple[int, dict]:
    expect(doc["group"] == G.doc(), "wrong coefficient group")
    values = {tuple(int(t) for t in k.split()): G.reduce(v)
              for k, v in doc["values"].items()}
    return doc["degree"], values


def solved(K, n: int, grade: int, c: dict, G):
    """The solution d must satisfy δd = c under the benchmark's own sign
    rule, over every cell of grade `grade`."""
    cells = set(dual_cells(K, n, grade - 1))

    def check(doc):
        expect(doc["status"] == "solved", f"status {doc['status']}")
        degree, d = parse_cochain(doc["solution"], G)
        expect(degree == grade - 1, "solution has the wrong degree")
        expect(set(d) == cells, "solution is not defined on every cell")
        expect(coboundary(K, n, grade - 1, d, G) == c, "δd != c")
    return check


def not_cocycle(K, n: int, grade: int, c: dict, G):
    """The witness must be a cell where δc is nonzero."""
    dc = coboundary(K, n, grade, c, G)
    zero = G.reduce([0] * G.num_coords)

    def check(doc):
        expect(doc["status"] == "not-a-cocycle", f"status {doc['status']}")
        witness = tuple(doc["witness"])
        expect(witness in dc and dc[witness] != zero,
               f"δc vanishes on the witness {list(witness)}")
    return check


def unsolvable(doc):
    expect(doc["status"] == "unsolvable", f"status {doc['status']}")
    expect(doc["witness"] is None, "unexpected witness")


def rational_preimage(K, n: int, grade: int, target: list[int]):
    """The unique rational d with δd = target on the free coordinate, or
    None when there is none or it is not unique.  Used to prove that an
    unsolvable case really is unsolvable over Z: δ is injective over Q on
    the cells involved, so a non-integral rational preimage rules out an
    integral one."""
    lower = dual_cells(K, n, grade - 1)
    upper = dual_cells(K, n, grade)
    row_of = {s: i for i, s in enumerate(upper)}
    rows = [[Fraction(0)] * len(lower) + [Fraction(t)] for t in target]
    for j, tau in enumerate(lower):
        for i, v in enumerate(tau):
            sigma = tau[:i] + tau[i + 1:]
            rows[row_of[sigma]][j] += -1 if i % 2 else 1
    ncols = len(lower)
    r = 0
    for col in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            return None
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(row[-1] for row in rows[r:]):
        return None
    return [rows[i][-1] for i in range(ncols)]


# --- Coxeter systems --------------------------------------------------------

def coxeter_finite(vertices, label) -> bool:
    """Finite iff the cosine matrix [-cos(π/m_st)] is positive definite
    (Cholesky with a margin far above rounding error for labels <= 6)."""
    n = len(vertices)
    gram = [[1.0 if i == j else -math.cos(math.pi / label(vertices[i],
                                                           vertices[j]))
             for j in range(n)] for i in range(n)]
    low = [[0.0] * n for _ in range(n)]
    for j in range(n):
        d = gram[j][j] - sum(low[j][k] ** 2 for k in range(j))
        if d <= 1e-9:
            return False
        low[j][j] = math.sqrt(d)
        for i in range(j + 1, n):
            low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k]
                                          for k in range(j))) / low[j][j]
    return True


def label_lookup(labels: dict):
    return lambda u, v: labels[(u, v) if u < v else (v, u)]


def first_improper(K, labels: dict):
    """The program's documented witness: inside the first infinite facet
    (lexicographic), the first infinite subset by size, then
    lexicographically.  None for a proper labeling."""
    label = label_lookup(labels)
    for f in K[1]:
        if coxeter_finite(f, label):
            continue
        for size in range(2, len(f) + 1):
            for sub in itertools.combinations(f, size):
                if not coxeter_finite(sub, label):
                    return list(sub)
    return None


def proper_report(offending):
    def check(doc):
        expect(doc["verdict"] is (offending is None), "wrong verdict")
        expect(doc["offending"] == offending,
               f"offending {doc['offending']} != {offending}")
    return check


def flag_nerve(K, labels: dict) -> list[list[int]]:
    """Facets of the finite-subgroup nerve of a labeling of a flag
    complex: its cliques are its faces, so the nerve's faces are the
    faces spanning finite groups and its facets the maximal ones."""
    label = label_lookup(labels)
    top = max(map(len, K[1]))
    finite = {size: {s for s in faces(K, size)
                     if size < 3 or coxeter_finite(s, label)}
              for size in range(1, top + 1)}
    covered = set()
    for size in range(2, top + 1):
        for s in finite[size]:
            covered.update(itertools.combinations(s, size - 1))
    return sorted(list(s) for size in finite for s in finite[size]
                  if s not in covered)


def nerve(facets: list[list[int]], num_vertices: int):
    def check(doc):
        expect(doc["num_vertices"] == num_vertices, "wrong vertex count")
        expect(sorted(doc["facets"]) == facets, "nerve facets differ")
    return check
