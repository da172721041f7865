"""Exact ground-truth solvers for the counting, neighborhood, path, flow, and
isomorphism tasks, plus brute-force oracles used by the test suite.

Path/flow conventions: a hyperedge's weight and capacity both equal its order
(number of vertices).  A path is a sequence of hyperedges where consecutive
hyperedges share at least one vertex; the source must lie in the first edge
and the target in the last (a single edge containing both is a valid path).
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

from .core import Hypergraph

ORACLE_MAX_VERTICES = 8
ORACLE_MAX_EDGES = 8


@dataclass(frozen=True)
class PathResult:
    """Outcome of a shortest-path query over hyperedge sequences."""

    reachable: bool
    total_weight: int | None = None
    witness: tuple[int, ...] | None = None


def solve_dvc(h: Hypergraph, d: int) -> int:
    """Number of vertices of degree exactly ``d``."""
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    return sum(1 for v in range(h.n) if h.degree(v) == d)


def solve_oec(h: Hypergraph, k: int) -> int:
    """Number of hyperedges of order exactly ``k``."""
    if k < 2:
        raise ValueError(f"order must be >= 2, got {k}")
    return sum(1 for e in h.edges if len(e) == k)


def _edge_adjacency(h: Hypergraph) -> list[tuple[int, ...]]:
    """For each hyperedge, the ascending ids of hyperedges sharing a vertex."""
    adj: list[set[int]] = [set() for _ in h.edges]
    for v in range(h.n):
        inc = h.incident_edges(v)
        for a in inc:
            adj[a].update(inc)
    return [tuple(sorted(s - {j})) for j, s in enumerate(adj)]


def solve_osp(h: Hypergraph, s: int, t: int) -> PathResult:
    """Dijkstra over the hyperedge-adjacency graph with node cost = order.

    Ties between equal-weight witnesses are broken by the lexicographically
    smallest hyperedge-id sequence; the heap is keyed on (weight, sequence),
    which settles every edge with its best such pair first.
    """
    h.check_endpoints(s, t, "source and target")
    adj = _edge_adjacency(h)
    heap: list[tuple[int, tuple[int, ...]]] = []
    for j in h.incident_edges(s):
        heappush(heap, (len(h.edges[j]), (j,)))
    settled: set[int] = set()
    while heap:
        weight, path = heappop(heap)
        j = path[-1]
        if j in settled:
            continue
        settled.add(j)
        if t in h.edges[j]:
            return PathResult(True, weight, path)
        for nb in adj[j]:
            if nb not in settled:
                heappush(heap, (weight + len(h.edges[nb]), path + (nb,)))
    return PathResult(False)


def _flow_network(h: Hypergraph):
    """Incidence flow network: nodes 0..n-1 are vertices, n..n+m-1 hyperedges.

    Each membership v ∈ e contributes two antiparallel arcs of capacity |e|.
    """
    n, m = h.n, h.num_edges
    size = n + m
    cap = [[0] * size for _ in range(size)]
    nbrs: list[list[int]] = [[] for _ in range(size)]
    for j, members in enumerate(h.edges):
        enode = n + j
        w = len(members)
        for v in members:
            cap[v][enode] = w
            cap[enode][v] = w
            nbrs[v].append(enode)
            nbrs[enode].append(v)
    return cap, nbrs


def solve_omf(h: Hypergraph, s: int, t: int) -> int:
    """Edmonds-Karp max flow on the incidence network (BFS augmenting paths)."""
    h.check_endpoints(s, t, "source and target")
    cap, nbrs = _flow_network(h)
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in parent and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            c = cap[u][v]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = t
        while v != s:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck


def _vertex_signatures(h: Hypergraph) -> list[tuple[int, tuple[int, ...]]]:
    return [
        (len(h.incident_edges(v)), tuple(sorted(len(h.edges[j]) for j in h.incident_edges(v))))
        for v in range(h.n)
    ]


def _pair_cooccurrence(h: Hypergraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Sorted order multiset of the hyperedges containing each vertex pair."""
    return {pair: tuple(sorted(len(h.edges[j]) for j in ids)) for pair, ids in h.pair_edges().items()}


def solve_ism(a: Hypergraph, b: Hypergraph) -> bool:
    """Hypergraph isomorphism via backtracking over vertex assignments.

    Pruning uses (degree, sorted incident-order multiset) vertex signatures
    and pairwise co-occurrence compatibility; a final multiset comparison of
    the mapped hyperedges decides, so pruning only needs to be sound.  Each
    vertex placed next co-occurs with as many placed ones as it can, so the
    pairwise check prunes from the first levels even where every signature
    ties (regular graphs).
    """
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    if sorted(a.order_sequence()) != sorted(b.order_sequence()):
        return False
    sig_a = _vertex_signatures(a)
    sig_b = _vertex_signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return False
    candidates = [
        tuple(u for u in range(b.n) if sig_b[u] == sig_a[v]) for v in range(a.n)
    ]
    # connectivity order: next the vertex co-occurring with the most placed
    # ones, then the one with fewer candidates, then the lower id
    placed_nbrs = [0] * a.n
    rest = set(range(a.n))
    order = []
    while rest:
        v = min(rest, key=lambda u: (-placed_nbrs[u], len(candidates[u]), u))
        rest.remove(v)
        order.append(v)
        for w in a.neighbors(v):
            placed_nbrs[w] += 1
    pairco_a = _pair_cooccurrence(a)
    pairco_b = _pair_cooccurrence(b)
    target_edges = Counter(b.edges)
    mapping = [-1] * a.n
    used = [False] * b.n

    def matches_edges() -> bool:
        mapped = Counter(tuple(sorted(mapping[v] for v in e)) for e in a.edges)
        return mapped == target_edges

    def extend(idx: int) -> bool:
        if idx == a.n:
            return matches_edges()
        v = order[idx]
        for u in candidates[v]:
            if used[u]:
                continue
            ok = True
            for w in order[:idx]:
                key_a = (v, w) if v < w else (w, v)
                x = mapping[w]
                key_b = (u, x) if u < x else (x, u)
                if pairco_a.get(key_a) != pairco_b.get(key_b):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = u
            used[u] = True
            if extend(idx + 1):
                return True
            mapping[v] = -1
            used[u] = False
        return False

    return extend(0)


def _check_oracle_size(h: Hypergraph) -> None:
    if h.n > ORACLE_MAX_VERTICES or h.num_edges > ORACLE_MAX_EDGES:
        raise ValueError(
            f"oracle limited to {ORACLE_MAX_VERTICES} vertices / "
            f"{ORACLE_MAX_EDGES} hyperedges, got {h.n}/{h.num_edges}"
        )


def oracle_osp(h: Hypergraph, s: int, t: int) -> PathResult:
    """Exhaustive enumeration of simple hyperedge sequences from s to t.

    Keeps the minimum total weight and, among minima, the lexicographically
    smallest id sequence, mirroring the solver's tie-break.
    """
    _check_oracle_size(h)
    h.check_endpoints(s, t, "source and target")
    adj = _edge_adjacency(h)
    best: list = [None, None]  # [weight, witness]

    def explore(path: tuple[int, ...], weight: int) -> None:
        j = path[-1]
        if t in h.edges[j]:
            if best[0] is None or (weight, path) < (best[0], best[1]):
                best[0], best[1] = weight, path
        for nb in adj[j]:
            if nb in path:
                continue
            nw = weight + len(h.edges[nb])
            if best[0] is not None and nw > best[0]:
                continue
            explore(path + (nb,), nw)

    for j in h.incident_edges(s):
        explore((j,), len(h.edges[j]))
    if best[0] is None:
        return PathResult(False)
    return PathResult(True, best[0], best[1])


def oracle_omf(h: Hypergraph, s: int, t: int) -> int:
    """Minimum s-t cut by enumerating all node subsets (max-flow = min-cut)."""
    import numpy as np

    _check_oracle_size(h)
    h.check_endpoints(s, t, "source and target")
    size = h.n + h.num_edges
    cap = np.zeros((size, size), dtype=np.int64)
    for j, members in enumerate(h.edges):
        w = len(members)
        for v in members:
            cap[v, h.n + j] = w
            cap[h.n + j, v] = w
    free = [x for x in range(size) if x not in (s, t)]
    k = len(free)
    masks = np.arange(1 << k, dtype=np.uint32)
    sel = np.zeros((1 << k, size), dtype=np.float64)
    sel[:, s] = 1.0
    for pos, node in enumerate(free):
        sel[:, node] = (masks >> pos) & 1
    crossing = (sel @ cap) * (1.0 - sel)
    return int(crossing.sum(axis=1).min())


@lru_cache(maxsize=4)
def _all_permutations(n: int):
    """Every permutation of ``range(n)``, one per row of an int64 array."""
    import numpy as np

    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def oracle_ism(a: Hypergraph, b: Hypergraph) -> bool:
    """Try all |V|! vertex bijections, comparing edge bitmask multisets."""
    import numpy as np

    _check_oracle_size(a)
    _check_oracle_size(b)
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    if a.num_edges == 0:
        return True
    perms = _all_permutations(a.n)
    target = np.sort(
        np.array([sum(1 << v for v in e) for e in b.edges], dtype=np.int64)
    )
    mapped = np.zeros((len(perms), a.num_edges), dtype=np.int64)
    for col, members in enumerate(a.edges):
        acc = np.zeros(len(perms), dtype=np.int64)
        for v in members:
            acc |= np.int64(1) << perms[:, v]
        mapped[:, col] = acc
    mapped.sort(axis=1)
    return bool((mapped == target).all(axis=1).any())
