"""Seeded hypergraph generation: scale-banded random connected instances,
feasible-by-construction instances for the NP-hard tasks, isomorphism pairs,
and random-walk subsampling of real source hypergraphs.

All randomness flows from integer seeds through ``derive_seed``; the same
seed always reproduces the same instance.  Synthetic instances keep
|E| within [ceil(0.2|V|), floor(1.5|V|)] and hyperedge orders within
[2, min(6, |V|)]; every emitted hypergraph is connected.

``gen_generic`` draws every generic instance from its source; a real one
subsamples ``demo_pool`` unless given a pool.  The planted constructors return
``(h, certificate)``, the certificate shaped as ``verify``'s search returns it
for a real subsample: a coloring, a cycle, or ``(steps, s, t)``.
"""

from __future__ import annotations

import math
import random
from _blake2 import blake2b
from dataclasses import dataclass, field, replace
from functools import cache

from .core import Hypergraph, loads, parse_hmetis
from .solve import solve_ism
from .verify import verify_hhm, verify_shc

SCALE_RANGES = {"small": (5, 10), "medium": (10, 15), "large": (15, 20)}
SCALE_CLASSES = ("small", "medium", "large")
SOURCES = ("synthetic", "real")
MAX_ORDER = 6


class GenerationError(RuntimeError):
    """Raised when a constructor exhausts its retry budget."""


def derive_seed(master: int, *labels) -> int:
    """Stable 64-bit sub-seed from a master seed and a label path.

    ``blake2b`` comes from ``_blake2``, the interpreter's built-in module,
    which is the very object ``hashlib.blake2b`` is (hashlib never hands
    blake2 to OpenSSL).  Importing it directly keeps ``hashlib`` from loading
    ``_hashlib`` and mapping OpenSSL's libcrypto into every process.
    """
    digest = blake2b(digest_size=8)
    digest.update(str(master).encode())
    for label in labels:
        raw = str(label).encode()
        # length prefix keeps ("a","b") distinct from ("a:b",)
        digest.update(len(raw).to_bytes(4, "big"))
        digest.update(raw)
    return int.from_bytes(digest.digest(), "big")


def edge_count_bounds(n: int) -> tuple[int, int]:
    """Admissible synthetic hyperedge count band for n vertices."""
    return max(1, math.ceil(0.2 * n)), math.floor(1.5 * n)


@dataclass(frozen=True)
class GenSpec:
    """What to generate: task name, scale class, source kind, and seed."""

    task: str = "generic"
    scale: str = "small"
    source: str = "synthetic"
    seed: int = 0

    def __post_init__(self):
        if self.scale not in SCALE_RANGES:
            raise ValueError(f"unknown scale class {self.scale!r}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class IsmPair:
    a: Hypergraph
    b: Hypergraph
    isomorphic: bool


def _random_edge(rng: random.Random, n: int, cap: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(n), rng.randint(2, cap))))


def _bridge_components(rng: random.Random, n: int, edges: list, max_edges: int, join=None) -> bool:
    """Append edges joining components until connected; False if out of room.

    Each bridge joins a random vertex of the first component to one of the
    second: the 2-edge between them, or ``join(a, b)`` when given.
    """
    while len(comps := Hypergraph(n, edges).components()) > 1:
        if len(edges) >= max_edges:
            return False
        a = rng.choice(comps[0])
        b = rng.choice(comps[1])
        edges.append(join(a, b) if join else (min(a, b), max(a, b)))
    return True


def _attempts(spec: GenSpec, label: str):
    """The 64 seeded tries of a constructor: (rng, vertex count drawn from the
    scale range, hyperedge-count band, largest hyperedge order)."""
    lo, hi = SCALE_RANGES[spec.scale]
    for attempt in range(64):
        rng = random.Random(derive_seed(spec.seed, label, attempt))
        n = rng.randint(lo, hi)
        emin, emax = edge_count_bounds(n)
        yield rng, n, emin, emax, min(MAX_ORDER, n)


def gen_random_connected(spec: GenSpec) -> Hypergraph:
    """Connected random hypergraph with |V| in the scale range and |E| in band."""
    for rng, n, emin, emax, cap in _attempts(spec, "rand"):
        edges = [_random_edge(rng, n, cap) for _ in range(rng.randint(emin, emax) - 1)]
        if not _bridge_components(rng, n, edges, emax):
            continue
        while len(edges) < emin:
            edges.append(_random_edge(rng, n, cap))
        return Hypergraph(n, edges)  # bridged to one component; padding only adds edges
    raise GenerationError(f"random generation failed for {spec}")


def gen_3cl_instance(spec: GenSpec) -> tuple[Hypergraph, tuple[int, ...]]:
    """Random connected instance with a planted valid 3-coloring, as
    ``(h, coloring)``.

    Every proposed hyperedge is re-drawn (or minimally repaired) until it
    spans at least two color classes, so the planted coloring verifies by
    construction.
    """
    for rng, n, emin, emax, cap in _attempts(spec, "3cl"):
        colors = [rng.randrange(3) for _ in range(n)]
        anchors = rng.sample(range(n), 3)
        for c, v in enumerate(anchors):
            colors[v] = c

        def colorful(edge) -> bool:
            return len({colors[v] for v in edge}) >= 2

        def repaired(edge) -> tuple[int, ...]:
            for _ in range(200):
                if colorful(edge):
                    return edge
                edge = _random_edge(rng, n, cap)
            # swap one member for an anchor of a different color
            other = next(a for a in anchors if colors[a] != colors[edge[0]])
            return tuple(sorted({other} | set(edge[1:])))

        def bridge(a, b) -> tuple[int, ...]:
            if colors[a] != colors[b]:
                return (min(a, b), max(a, b))
            # same color: add an anchor of another color
            x = next(v for v in anchors if colors[v] != colors[a])
            return tuple(sorted({a, b, x}))

        edges = [repaired(_random_edge(rng, n, cap)) for _ in range(rng.randint(emin, emax) - 1)]
        if not _bridge_components(rng, n, edges, emax, bridge):
            continue
        while len(edges) < emin:
            edges.append(repaired(_random_edge(rng, n, cap)))
        return Hypergraph(n, edges), tuple(colors)
    raise GenerationError(f"3-coloring generation failed for {spec}")


def _shuffle_and_remap(rng: random.Random, edges: list) -> tuple[list, dict[int, int]]:
    order = list(range(len(edges)))
    rng.shuffle(order)
    new_pos = {old: new for new, old in enumerate(order)}
    return [edges[old] for old in order], new_pos


def gen_shc_instance(spec: GenSpec) -> tuple[Hypergraph, tuple[int, ...]]:
    """Instance with a planted strict hypercycle, as ``(h, cycle)``.

    A ring of L junction vertices is wrapped into L backbone edges (edge i
    holds junctions i and i+1 plus private filler vertices), so consecutive
    backbone edges intersect in exactly one vertex.  Leftover vertices are
    attached by coverage edges; random distractor edges pad out the count.
    Distractors never touch the backbone's pairwise intersections, so the
    recorded certificate stays valid.
    """
    for rng, n, emin, emax, cap in _attempts(spec, "shc"):
        m = rng.randint(max(3, emin), emax)
        ring_len = rng.randint(3, min(m, n))
        junctions = rng.sample(range(n), ring_len)
        leftovers = [v for v in range(n) if v not in junctions]
        rng.shuffle(leftovers)
        backbone = []
        for i in range(ring_len):
            fill_count = min(rng.randint(0, cap - 2), len(leftovers))
            fillers = [leftovers.pop() for _ in range(fill_count)]
            backbone.append(tuple(sorted({junctions[i], junctions[(i + 1) % ring_len], *fillers})))
        covered = set(range(n)) - set(leftovers)
        edges = list(backbone)
        while leftovers:
            chunk = [leftovers.pop() for _ in range(min(cap - 1, len(leftovers)))]
            anchor = rng.choice(sorted(covered))
            edges.append(tuple(sorted({anchor, *chunk})))
            covered.update(chunk)
        if len(edges) > emax:
            continue
        while len(edges) < max(m, emin):
            edges.append(_random_edge(rng, n, cap))
        shuffled, new_pos = _shuffle_and_remap(rng, edges)
        cycle = tuple(new_pos[i] for i in range(ring_len))
        h = Hypergraph(n, shuffled)
        if h.is_connected() and verify_shc(h, cycle):
            return h, cycle
    raise GenerationError(f"hypercycle generation failed for {spec}")


def gen_hhm_instance(spec: GenSpec) -> tuple[Hypergraph, tuple[tuple[int, ...], int, int]]:
    """Instance with a planted Hamiltonian path, as ``(h, (steps, s, t))``.

    A random vertex order is cut into overlapping windows (each window is a
    consecutive run, the next window starting at the previous window's last
    vertex); every step of the order is then witnessed by its window edge.
    """
    for rng, n, emin, emax, cap in _attempts(spec, "hhm"):
        pi = rng.sample(range(n), n)
        windows = []
        step_window = [0] * (n - 1)  # step t covers (pi[t], pi[t+1])
        i = 0
        while i < n - 1:
            j = min(i + rng.randint(2, cap) - 1, n - 1)
            for t in range(i, j):
                step_window[t] = len(windows)
            windows.append(tuple(sorted(pi[i : j + 1])))
            i = j
        edges = list(windows)
        target_m = rng.randint(max(emin, len(edges)), emax)
        while len(edges) < target_m:
            edges.append(_random_edge(rng, n, cap))
        shuffled, new_pos = _shuffle_and_remap(rng, edges)
        path = tuple(new_pos[w] for w in step_window)
        h = Hypergraph(n, shuffled)
        if h.is_connected() and verify_hhm(h, path, pi[0], pi[-1]):
            return h, (path, pi[0], pi[-1])
    raise GenerationError(f"Hamiltonian-path generation failed for {spec}")


def relabel(h: Hypergraph, perm, rng: random.Random) -> Hypergraph:
    """Map vertex v to perm[v] and shuffle the hyperedge order."""
    edges = [tuple(sorted(perm[v] for v in e)) for e in h.edges]
    rng.shuffle(edges)
    return Hypergraph(h.n, edges)


def _mutate(rng: random.Random, h: Hypergraph) -> Hypergraph | None:
    """One small random structural edit (move / grow / shrink a membership)."""
    cap = min(MAX_ORDER, h.n)
    edges = [set(e) for e in h.edges]
    ops = []
    if any(len(e) > 2 for e in edges) and len(edges) > 1:
        ops.append("move")
    if any(len(e) < cap for e in edges):
        ops.append("grow")
    if any(len(e) > 2 for e in edges):
        ops.append("shrink")
    if not ops:
        return None
    op = rng.choice(ops)
    if op == "move":
        src_choices = [j for j, e in enumerate(edges) if len(e) > 2]
        src = rng.choice(src_choices)
        v = rng.choice(sorted(edges[src]))
        dst_choices = [j for j, e in enumerate(edges) if j != src and v not in e and len(e) < cap]
        if not dst_choices:
            return None
        dst = rng.choice(dst_choices)
        edges[src].discard(v)
        edges[dst].add(v)
    elif op == "grow":
        j = rng.choice([j for j, e in enumerate(edges) if len(e) < cap])
        outside = [v for v in range(h.n) if v not in edges[j]]
        if not outside:
            return None
        edges[j].add(rng.choice(outside))
    else:
        j = rng.choice([j for j, e in enumerate(edges) if len(e) > 2])
        edges[j].discard(rng.choice(sorted(edges[j])))
    return Hypergraph(h.n, [tuple(sorted(e)) for e in edges])


def gen_ism_pair(spec: GenSpec, pool: SourcePool | None = None) -> IsmPair:
    """Pair of hypergraphs with a ground-truth isomorphism label.

    The base is ``gen_generic``'s instance of the spec's source.  Positive
    pairs (probability 1/2) relabel the base through a random vertex
    permutation and shuffle the edge order.  Negative pairs apply small
    structural mutations until the mutant is connected and provably
    non-isomorphic, then relabel it too.
    """
    rng = random.Random(derive_seed(spec.seed, "ism"))
    positive = rng.random() < 0.5
    for attempt in range(32):
        base = gen_generic(replace(spec, seed=derive_seed(spec.seed, "ism-base", attempt)), pool)
        perm = list(range(base.n))
        rng.shuffle(perm)
        if positive:
            return IsmPair(base, relabel(base, perm, rng), True)
        for _ in range(1000):
            mutant = _mutate(rng, base)
            if mutant is None or not mutant.is_connected():
                continue
            if not solve_ism(base, mutant):
                return IsmPair(base, relabel(mutant, perm, rng), False)
    raise GenerationError(f"isomorphism-pair generation failed for {spec}")


@dataclass(frozen=True)
class SourcePool:
    """A large real hypergraph serving as a subsampling source; ``largest`` is
    the vertex count of its largest component, the most a walk can collect."""

    hypergraph: Hypergraph
    name: str = "pool"
    largest: int = field(init=False, compare=False)

    def __post_init__(self):
        bad = [v for v in range(self.hypergraph.n) if not self.hypergraph.incident_edges(v)]
        if bad:
            raise ValueError(f"pool has {len(bad)} isolated vertices (first: v{bad[0]})")
        object.__setattr__(self, "largest", max(map(len, self.hypergraph.components())))


def load_pool(path) -> SourcePool:
    """Load a source pool from canonical JSON (.json) or hMETIS text."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    name = str(path).rsplit("/", 1)[-1]
    if str(path).endswith(".json"):
        return SourcePool(loads(text), name)
    return SourcePool(parse_hmetis(text), name)


@cache
def demo_pool() -> SourcePool:
    """Built-in deterministic stand-in for a real source hypergraph, built
    once per process."""
    rng = random.Random(derive_seed(0x48594745, "demo-pool"))
    n = 60
    edges = [_random_edge(rng, n, 6) for _ in range(110)]
    if not _bridge_components(rng, n, edges, 200):  # pragma: no cover - tiny odds
        raise GenerationError("demo pool construction failed")
    return SourcePool(Hypergraph(n, edges), "demo")


def gen_generic(spec: GenSpec, pool: SourcePool | None = None) -> Hypergraph:
    """The generic instance of ``spec``: a subsample of ``pool`` for a real
    source, else a random connected hypergraph."""
    return subsample_real(pool, spec) if spec.source == "real" else gen_random_connected(spec)


def subsample_real(pool: SourcePool | None, spec: GenSpec, require=None) -> Hypergraph:
    """Random-walk subsample of a pool (``demo_pool()`` when None),
    renumbered by visitation order.

    Walks vertex -> random incident hyperedge -> random member until a
    vertex count drawn from the scale range is collected, then keeps each
    pool hyperedge's restriction to the visited set when it has >= 2
    vertices (dropping exact duplicate restrictions), in lexicographic order.
    Retries with fresh walks until connected and, if given, until
    ``require(h)`` holds.  ValueError if the pool has fewer vertices than
    the count drawn, or if its largest component does (a walk never leaves
    the component it starts in).
    """
    if pool is None:
        pool = demo_pool()
    big = pool.hypergraph
    lo, hi = SCALE_RANGES[spec.scale]
    for walk in range(10_000):
        rng = random.Random(derive_seed(spec.seed, "walk", walk))
        goal = rng.randint(lo, hi)
        if goal > big.n:
            raise ValueError(f"pool too small: {big.n} vertices < target {goal}")
        if goal > pool.largest:
            raise ValueError(f"pool too small: largest component has {pool.largest} vertices < target {goal}")
        cur = rng.randrange(big.n)
        visited = [cur]
        vis_set = {cur}
        for _ in range(60 * goal):
            if len(visited) >= goal:
                break
            e = rng.choice(big.incident_edges(cur))
            cur = rng.choice(big.edges[e])
            if cur not in vis_set:
                vis_set.add(cur)
                visited.append(cur)
        if len(visited) < goal:
            continue
        new_id = {old: new for new, old in enumerate(visited)}
        seen = set()
        edges = []
        for members in big.edges:
            restricted = tuple(sorted(new_id[v] for v in members if v in vis_set))
            if len(restricted) >= 2 and restricted not in seen:
                seen.add(restricted)
                edges.append(restricted)
        h = Hypergraph(goal, sorted(edges))
        if not h.is_connected():
            continue
        if require is None or require(h):
            return h
    raise GenerationError(f"subsampling failed for {spec} (pool {pool.name})")
