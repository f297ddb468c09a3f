"""Label-preserving simplicial isomorphism by backtracking search.

The search assigns vertices most-constrained-first, filtering candidates
through a per-vertex invariant (degree, incident label multiset, facet
membership count) and checking adjacency/label consistency against the
partial map.  Every returned mapping is re-verified in full before it is
handed back, and all tie-breaking is lexicographic so results are
reproducible.  Unlabeled complexes run through the same engine as the
all-labels-equal case.
"""

from __future__ import annotations

import heapq

from .simplicial import (LabeledComplex, SimplicialComplex, _cached, f_vector,
                         simplices)

VertexMapping = dict[int, int]


def _parts(X) -> tuple[SimplicialComplex, dict[tuple[int, int], int]]:
    if isinstance(X, LabeledComplex):
        return X.complex, X.label_dict()
    if isinstance(X, SimplicialComplex):
        return X, {}
    raise TypeError(f"expected a complex, got {type(X).__name__}")


def _vertex_data(X) -> tuple[SimplicialComplex, list[dict[int, int]], list[tuple]]:
    """(K, adjacency, invariants) of X, each list indexed by vertex.

    adjacency[v] maps each neighbour of v to the label of their edge
    (unlabeled edges share a placeholder); invariants[v] is (degree,
    sorted incident labels, number of facets containing v).
    """
    K, raw = _parts(X)
    adj: list[dict[int, int]] = [{} for _ in range(K.num_vertices)]
    for e in simplices(K, 1):
        u, v = e
        adj[u][v] = adj[v][u] = raw.get(e, 0)
    facet_count = [0] * K.num_vertices
    for f in K.facets:
        for v in f:
            facet_count[v] += 1
    return K, adj, [(len(a), tuple(sorted(a.values())), c)
                    for a, c in zip(adj, facet_count)]


def _shared_vertex_data(X):
    """_vertex_data(X), built once per complex and kept on X, so the
    fingerprint and the search share it."""
    return _cached(X, "_vertex_table", _vertex_data)


def invariant_fingerprint(A) -> tuple:
    """Isomorphism-invariant token; equality is necessary (never
    sufficient) for the existence of an isomorphism."""
    K, _, inv = _shared_vertex_data(A)
    return f_vector(K), tuple(sorted(inv))


def verify_isomorphism(A, B, mapping: VertexMapping) -> bool:
    """Does `mapping` send facets onto facets bijectively and preserve
    every edge label?"""
    KA, rawA = _parts(A)
    KB, rawB = _parts(B)
    if isinstance(A, LabeledComplex) != isinstance(B, LabeledComplex):
        return False
    n = KA.num_vertices
    if KB.num_vertices != n:
        return False
    if sorted(mapping.keys()) != list(range(n)):
        return False
    if sorted(mapping.values()) != list(range(n)):
        return False
    mapped = {tuple(sorted(mapping[v] for v in f)) for f in KA.facets}
    if mapped != set(KB.facets):
        return False
    for (u, v), m in rawA.items():
        mu, mv = mapping[u], mapping[v]
        if rawB.get((min(mu, mv), max(mu, mv))) != m:
            return False
    return len(rawA) == len(rawB)


def find_isomorphism(A, B) -> VertexMapping | None:
    """A label-preserving simplicial isomorphism A -> B, or None.

    Deterministic given its inputs; any mapping returned has already
    passed verify_isomorphism.
    """
    if isinstance(A, LabeledComplex) != isinstance(B, LabeledComplex):
        raise TypeError("cannot compare a labeled complex with an unlabeled one")
    if invariant_fingerprint(A) != invariant_fingerprint(B):
        return None
    KA, adjA, invA = _shared_vertex_data(A)
    KB, adjB, invB = _shared_vertex_data(B)
    # equal fingerprints: A and B have the same invariant classes and sizes
    by_inv: dict[tuple, list[int]] = {}
    for v in range(KA.num_vertices):
        by_inv.setdefault(invB[v], []).append(v)

    order = _static_order(adjA, invA, by_inv)

    # adjacency-compatible bijections can still scramble facets, so the
    # facet check runs at every completed leaf, not just the first
    result = _search(KA, KB, invA, by_inv, adjA, adjB, order)
    if result is not None and not verify_isomorphism(A, B, result):
        raise AssertionError
    return result


def _static_order(adjA, invA, by_inv) -> list[int]:
    """The search order: most neighbours in the already-ordered prefix
    first, then the rarest invariant class, lexicographic tie-break.

    A heap of (-ordered neighbours, class size, v) with lazy updates:
    counts only grow, so each vertex's entry with its current count is
    the only one that is not stale.
    """
    n = len(adjA)
    order: list[int] = []
    placed = [False] * n
    ordered_nbrs = [0] * n
    heap = [(0, len(by_inv[invA[v]]), v) for v in range(n)]
    heapq.heapify(heap)
    while heap:
        neg, _, v = heapq.heappop(heap)
        if -neg != ordered_nbrs[v]:
            continue
        order.append(v)
        placed[v] = True
        for u in adjA[v]:
            if not placed[u]:
                ordered_nbrs[u] += 1
                heapq.heappush(heap, (-ordered_nbrs[u],
                                      len(by_inv[invA[u]]), u))
    return order


def complexes_match(mapping: VertexMapping, KA: SimplicialComplex,
                    KB: SimplicialComplex) -> bool:
    mapped = {tuple(sorted(mapping[v] for v in f)) for f in KA.facets}
    return mapped == set(KB.facets)


def _search(KA, KB, invA, by_inv, adjA, adjB, order) -> VertexMapping | None:
    """Depth-first search over adjacency-compatible bijections,
    facet-checking each completed assignment.

    b may take a when b's labels to the images of a's mapped neighbours
    are a's labels to them, and b has no other placed neighbour: that is
    agreement with the whole partial map, checked over neighbours only.
    The path is an explicit stack of candidate iterators, one per depth,
    so no vertex count can exhaust Python's recursion limit.
    """
    n = KA.num_vertices
    pos = {a: i for i, a in enumerate(order)}
    # the neighbours of order[i] that are mapped before it, with labels
    earlier = [[(a2, m) for a2, m in adjA[a].items() if pos[a2] < i]
               for i, a in enumerate(order)]
    mapping: VertexMapping = {}
    used: set[int] = set()
    placed_nbrs = [0] * KB.num_vertices  # per vertex of B: used neighbours

    def candidates(idx: int):
        """The images open to order[idx], filtered as they are drawn."""
        need = earlier[idx]
        return (b for b in by_inv[invA[order[idx]]]
                if b not in used and placed_nbrs[b] == len(need)
                and all(adjB[b].get(mapping[a2]) == m for a2, m in need))

    frames = []
    while True:
        if len(frames) < n:
            frames.append(candidates(len(frames)))
        elif complexes_match(mapping, KA, KB):
            return dict(sorted(mapping.items()))
        # advance the deepest depth that has a candidate left
        while frames:
            a = order[len(frames) - 1]
            if a in mapping:  # back from below a: undo its image
                b = mapping.pop(a)
                used.discard(b)
                for b2 in adjB[b]:
                    placed_nbrs[b2] -= 1
            b = next(frames[-1], None)
            if b is not None:
                mapping[a] = b
                used.add(b)
                for b2 in adjB[b]:
                    placed_nbrs[b2] += 1
                break
            frames.pop()
        else:
            return None
