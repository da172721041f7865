"""Certificate verification and exhaustive search for the NP-hard tasks:
3-coloring where every hyperedge must see at least two distinct colors
(3-CL), strict hypercycles whose consecutive hyperedges share exactly one
vertex (SHC), and Hamiltonian paths reported as the sequence of hyperedges
witnessing each step (HHM).  Each verifier runs in polynomial time.

Conventions the verifiers enforce:
  * colorings are total maps vertex -> {c0, c1, c2};
  * hypercycles list distinct hyperedge ids, length >= 2 (a strict
    2-cycle is accepted, so :func:`find_shc` never searches a longer ring);
  * a Hamiltonian path over n vertices has exactly n-1 steps and may
    reuse a hyperedge for several steps.
"""

from __future__ import annotations

from .core import Hypergraph

NUM_COLORS = 3
COLOR_NAMES = ("c0", "c1", "c2")


def _coloring_vector(h: Hypergraph, coloring) -> list[int]:
    """Normalize a coloring (sequence or vertex->color mapping) to a list."""
    if isinstance(coloring, dict):
        vec = [-1] * h.n
        for v, c in coloring.items():
            h.check_vertex(v)
            vec[v] = c
    else:
        vec = list(coloring)
    if len(vec) != h.n:
        raise ValueError(f"coloring covers {len(vec)} vertices, hypergraph has {h.n}")
    for v, c in enumerate(vec):
        if c not in (0, 1, 2):
            raise ValueError(f"vertex v{v} has invalid color {c!r}")
    return vec


def verify_3cl(h: Hypergraph, coloring) -> bool:
    """True iff every hyperedge contains at least two distinct colors."""
    vec = _coloring_vector(h, coloring)
    return all(len({vec[v] for v in e}) >= 2 for e in h.edges)


def verify_shc(h: Hypergraph, seq) -> bool:
    """True iff ``seq`` is a strict hypercycle: >= 2 distinct hyperedges with
    every cyclically consecutive pair sharing exactly one vertex."""
    ids = list(seq)
    for j in ids:
        h.check_edge(j)
    if len(ids) < 2 or len(set(ids)) != len(ids):
        return False
    for a, b in zip(ids, ids[1:] + ids[:1]):
        if len(set(h.edges[a]) & set(h.edges[b])) != 1:
            return False
    return True


def verify_hhm(h: Hypergraph, seq, s: int, t: int) -> bool:
    """True iff some vertex order v_0=s..v_{n-1}=t visits every vertex once
    with step i contained in the i-th hyperedge of ``seq`` (exactly n-1 steps;
    a hyperedge may serve several).  Step k holds v_k and v_{k+1}, so position
    0 may hold s if the first step's edge does, position n-1 t if the last's
    does, and position k any other vertex in the edges of steps k-1 and k: a
    path is a one-to-one matching of positions onto vertices.  Each position
    takes a free vertex, or else a breadth-first augmenting path frees one:
    O(n * p) time for p allowed (position, vertex) pairs, with no recursion.
    """
    h.check_endpoints(s, t, "path endpoints")
    ids = list(seq)
    for j in ids:
        h.check_edge(j)
    if len(ids) != h.n - 1:
        return False
    members = {j: set(h.edges[j]) for j in ids}  # one set per distinct edge
    steps = [members[j] for j in ids]
    ends = {s, t}
    allowed = [steps[0] & {s}, *((a & b) - ends for a, b in zip(steps, steps[1:])), steps[-1] & {t}]
    holder: dict[int, int] = {}  # vertex -> the position matched to it
    for root, vs in enumerate(allowed):
        for v in vs:
            if v not in holder:
                holder[v] = root
                break
        else:  # every vertex root may hold is taken: search for an augmenting path
            came = {root: (None, None)}  # position -> the position that reached it, through its vertex
            queue = [root]
            for k in queue:
                for v in allowed[k]:
                    if v not in holder:
                        break
                    if (q := holder[v]) not in came:
                        came[q] = k, v
                        queue.append(q)
                else:
                    continue
                break  # k reaches the free vertex v
            else:
                return False
            while k is not None:  # back along the path, each position takes the vertex it reached through
                holder[v] = k
                k, v = came[k]
    return True


def find_3cl(h: Hypergraph):
    """A verifying coloring as a tuple of color indices, or None.

    Backtracks over vertices in ascending order; an edge is checked once its
    highest vertex is assigned, so the search is exhaustive.  Whether the
    vertices from v up can still be colored depends only on the colors of
    v's frontier, the vertices below v in an edge whose top vertex is v or
    higher, so failed (v, frontier colors) states are memoized and never
    searched twice: at most n * 3^w states for frontier width w, not 3^n.
    """
    closing: list[list[int]] = [[] for _ in range(h.n)]
    frontier: list[set[int]] = [set() for _ in range(h.n)]
    for j, e in enumerate(h.edges):
        closing[e[-1]].append(j)
        for v in range(e[0] + 1, e[-1] + 1):
            frontier[v].update(u for u in e if u < v)
    below = [sorted(f) for f in frontier]
    failed: set[tuple] = set()  # (vertex, frontier colors) states that cannot finish
    colors = [-1] * h.n

    def assign(v: int) -> bool:
        if v == h.n:
            return True
        state = (v, *[colors[u] for u in below[v]])
        if state in failed:
            return False
        for c in range(NUM_COLORS):
            colors[v] = c
            if all(len({colors[u] for u in h.edges[j]}) >= 2 for j in closing[v]) and assign(v + 1):
                return True
        colors[v] = -1
        failed.add(state)
        return False

    return tuple(colors) if assign(0) else None


def find_shc(h: Hypergraph):
    """A verifying strict hypercycle (tuple of edge ids), or None.

    Returns the first pair (i, j), i < j, of hyperedges sharing exactly one
    vertex: a strict 2-cycle.  A longer ring never needs searching, since its
    consecutive hyperedges are such pairs, so None means no strict
    hypercycle of any length exists.
    """
    sets = [set(e) for e in h.edges]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) == 1:
                return (i, j)
    return None


def find_hhm(h: Hypergraph, s: int, t: int):
    """A verifying step-edge sequence for a Hamiltonian path s..t, or None.

    Depth-first over clique-expansion neighbors in ascending order, so the
    path returned is the first in that order.  Whether a (vertex, visited set)
    state can still reach t depends on nothing else, so failed states are
    memoized and never searched twice: at most n * 2^n states, not n!.
    """
    h.check_endpoints(s, t, "path endpoints")
    n = h.n
    moves: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (neighbor, its bit, smallest shared edge)
    for (a, b), ids in h.pair_edges().items():  # the pairs are sorted, so each list comes out ascending
        moves[a].append((b, 1 << b, ids[0]))
        moves[b].append((a, 1 << a, ids[0]))
    full = (1 << n) - 1
    last = full & ~(1 << t)  # t may only be entered as the final vertex
    failed: set[tuple[int, int]] = set()  # (vertex, visited mask) states that cannot reach t
    steps: list[int] = []

    def dfs(cur: int, mask: int) -> bool:
        if mask == full:
            return cur == t
        if (cur, mask) in failed:
            return False
        for nxt, bit, edge in moves[cur]:
            if mask & bit or (nxt == t and mask != last):
                continue
            steps.append(edge)
            if dfs(nxt, mask | bit):
                return True
            steps.pop()
        failed.add((cur, mask))
        return False

    return tuple(steps) if dfs(s, 1 << s) else None


def find_hhm_any(h: Hypergraph):
    """Some (steps, s, t) admitting a Hamiltonian path, or None.

    Vertices with a single clique-expansion neighbor must be endpoints,
    which both prunes infeasible graphs early and narrows the pair search.
    """
    if h.n < 2 or not h.is_connected():
        return None
    leaves = [v for v in range(h.n) if len(h.neighbors(v)) == 1]
    if len(leaves) > 2:
        return None
    if len(leaves) == 2:
        pairs = [(leaves[0], leaves[1])]
    elif len(leaves) == 1:
        a = leaves[0]
        pairs = [(a, w) for w in range(h.n) if w != a]
    else:
        pairs = [(s, t) for s in range(h.n) for t in range(s + 1, h.n)]
    for s, t in pairs:
        steps = find_hhm(h, s, t)
        if steps is not None:
            return steps, s, t
    return None


def format_coloring(coloring) -> str:
    parts = ", ".join(f"v{v}:{COLOR_NAMES[c]}" for v, c in enumerate(coloring))
    return f"Coloring:[{parts}]"


def format_cycle(seq) -> str:
    return "Cycle:[" + ", ".join(f"e{j}" for j in seq) + "]"


def format_path(seq) -> str:
    return "Path:[" + ", ".join(f"e{j}" for j in seq) + "]"
