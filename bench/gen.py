"""Seeded input generation for the benchmark.

Builds the scale tier from the shipped corpus with the benchmark's own
combinatorics, so the program under test only ever sees finished JSON
files.  Every random choice comes from a ``random.Random`` passed in by
the caller, one per input and seeded from the benchmark seed, so a seed
fixes the inputs byte for byte.

A complex here is a ``(num_vertices, facets)`` pair, facets being sorted
tuples of vertex ids, sorted among themselves.
"""

from __future__ import annotations

import itertools
import json
import random


def load_corpus(path: str):
    """The facet list and vertex count of a shipped complex document."""
    with open(path) as fh:
        doc = json.load(fh)
    facets = sorted(tuple(sorted(f)) for f in doc["facets"])
    return 1 + max(v for f in facets for v in f), facets


def complex_doc(K, labels=None) -> dict:
    n, facets = K
    doc = {"num_vertices": n, "facets": [list(f) for f in facets]}
    if labels is not None:
        doc["labels"] = [[u, v, m] for (u, v), m in sorted(labels.items())]
    return doc


def faces(K, size: int) -> list[tuple[int, ...]]:
    """Every face with `size` vertices, in lexicographic order."""
    found = set()
    for f in K[1]:
        found.update(itertools.combinations(f, size))
    return sorted(found)


def edges(K) -> list[tuple[int, int]]:
    return faces(K, 2)


def relabel(K, rng: random.Random):
    """K with its vertices renamed by a random permutation; returns the
    new complex and the permutation (old id -> new id)."""
    n, facets = K
    perm = list(range(n))
    rng.shuffle(perm)
    return (n, sorted(tuple(sorted(perm[v] for v in f)) for f in facets)), perm


def suspension(K):
    """Join with two points, the apexes taking the two new top ids."""
    n, facets = K
    return n + 2, sorted(f + (a,) for a in (n, n + 1) for f in facets)


def barycentric(K):
    """Vertices are the nonempty faces (by size, then lexicographic);
    facets are the maximal flags."""
    n, facets = K
    all_faces = [f for size in range(1, max(map(len, facets)) + 1)
                 for f in faces(K, size)]
    index = {f: i for i, f in enumerate(all_faces)}
    out = set()
    for f in facets:
        for order in itertools.permutations(f):
            out.add(tuple(sorted(index[tuple(sorted(order[:j + 1]))]
                                 for j in range(len(order)))))
    return len(all_faces), sorted(out)


def cross_polytope_fan(d: int) -> dict:
    """The complete fan of the d-dimensional cross-polytope: rays ±e_i
    (ray i + d is -e_i), one maximal cone per sign pattern."""
    rays = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    rays += [[-x for x in r] for r in rays]
    cones = [[i + d * s for i, s in enumerate(signs)]
             for signs in itertools.product((0, 1), repeat=d)]
    return {"rays": rays, "cones": cones}


def cross_polytope(d: int):
    """Boundary of the d-dimensional cross-polytope, the nerve of its fan
    (a (d-1)-sphere on 2d vertices)."""
    cones = cross_polytope_fan(d)["cones"]
    return 2 * d, sorted(tuple(sorted(c)) for c in cones)


# --- the dual-cell complex of the cone on a nerve -------------------------
#
# The grade-k cells of the dual complex in resolution dimension n are the
# nerve simplices with n - k vertices (the empty simplex is the top cell).
# The coboundary of a cochain d of grade k - 1 is
#     (δd)(σ) = Σ_{v ∉ σ, σ ∪ v ∈ N} (-1)^{pos(v, σ ∪ v)} d(σ ∪ v),
# pos being the 0-based position of v in the sorted simplex.  Written
# from the definition, not from the program's boundary matrices.

def dual_cells(K, n: int, grade: int) -> list[tuple[int, ...]]:
    size = n - grade
    return [()] if size == 0 else faces(K, size)


def coboundary(K, n: int, grade: int, values: dict, group) -> dict:
    """δ of a grade-`grade` cochain given as {label: coords}; missing
    labels are zero.  Returns the grade + 1 cochain on every cell."""
    out = {}
    num = K[0]
    face_set = set(values)
    for sigma in dual_cells(K, n, grade + 1):
        total = [0] * group.num_coords
        members = set(sigma)
        for v in range(num):
            if v in members:
                continue
            tau = tuple(sorted(sigma + (v,)))
            if tau not in face_set:
                continue
            sign = -1 if tau.index(v) % 2 else 1
            for i, x in enumerate(values[tau]):
                total[i] += sign * x
        out[sigma] = group.reduce(total)
    return out


class Group:
    """Z^rank ⊕ Z/q1 ⊕ ...; elements are coordinate lists."""

    def __init__(self, rank: int, torsion: tuple[int, ...]):
        self.rank = rank
        self.torsion = tuple(torsion)
        self.num_coords = rank + len(self.torsion)

    def reduce(self, coords) -> tuple[int, ...]:
        return (tuple(coords[:self.rank])
                + tuple(c % q for c, q in zip(coords[self.rank:], self.torsion)))

    def random(self, rng: random.Random) -> tuple[int, ...]:
        return self.reduce([rng.randint(-3, 3) for _ in range(self.rank)]
                           + [rng.randrange(q) for q in self.torsion])

    def doc(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


OBSTRUCTION_GROUP = Group(1, (6,))


def random_cochain(K, n: int, grade: int, group: Group,
                   rng: random.Random) -> dict:
    return {s: group.random(rng) for s in dual_cells(K, n, grade)}


def cochain_doc(grade: int, group: Group, values: dict) -> dict:
    return {"degree": grade, "group": group.doc(),
            "values": {" ".join(map(str, k)): list(v)
                       for k, v in sorted(values.items())}}


def seeded_labels(K, rng: random.Random, choices=(2, 3, 4, 5, 6)) -> dict:
    return {e: rng.choice(choices) for e in edges(K)}
