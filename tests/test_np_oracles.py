"""The 3-CL and SHC searches against oracles of their own at the sizes the
corpus uses (5-20 vertices), where the brute-force checks of
``test_verify`` cannot go: 3-colourability as a 0/1 program solved by
scipy's MILP, and strict hypercycles by the definition itself, over every
pair of hyperedges and, up to 10 hyperedges, over every longer ring."""

import itertools
import random

import pytest

from hyperbench import Hypergraph
from hyperbench.generate import SCALE_CLASSES, SOURCES, GenSpec, derive_seed, gen_generic
from hyperbench.verify import NUM_COLORS, find_3cl, find_shc

CASES = 15  # generic graphs per scale and source


def _generic_graphs(tag: str):
    for scale in SCALE_CLASSES:
        for source in SOURCES:
            for i in range(CASES):
                yield gen_generic(GenSpec("generic", scale, source, derive_seed(0x0AC1E, tag, scale, source, i)))


def _dense_graphs():
    """100 random graphs of 20 vertices and 40-60 two-vertex edges, most of
    them not 3-colourable."""
    rng = random.Random(0xC0105)
    pairs = list(itertools.combinations(range(20), 2))
    for _ in range(100):
        yield Hypergraph(20, rng.sample(pairs, rng.randint(40, 60)))


def _milp_colourable(h: Hypergraph) -> bool:
    """One 0/1 variable per (vertex, colour): each vertex takes one colour,
    and no colour holds all |e| members of a hyperedge e."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    def var(v, c):
        return v * NUM_COLORS + c

    rows, lower, upper = [], [], []
    for v in range(h.n):
        row = np.zeros(h.n * NUM_COLORS)
        row[[var(v, c) for c in range(NUM_COLORS)]] = 1
        rows.append(row)
        lower.append(1)
        upper.append(1)
    for e in h.edges:
        for c in range(NUM_COLORS):
            row = np.zeros(h.n * NUM_COLORS)
            row[[var(v, c) for v in e]] = 1
            rows.append(row)
            lower.append(0)
            upper.append(len(e) - 1)
    size = h.n * NUM_COLORS
    result = milp(np.zeros(size), constraints=LinearConstraint(np.array(rows), lower, upper),
                  integrality=np.ones(size), bounds=Bounds(0, 1))
    assert result.status in (0, 2), result.message  # solved, or proved infeasible
    return result.status == 0


def test_find_3cl_matches_a_milp_at_corpus_sizes():
    pytest.importorskip("scipy")
    graphs = [*_generic_graphs("3-CL"), *_dense_graphs()]
    answers = []
    for h in graphs:
        coloring = find_3cl(h)
        answers.append(coloring is not None)
        assert answers[-1] == _milp_colourable(h)
        if coloring is not None:
            assert len(coloring) == h.n and set(coloring) <= set(range(NUM_COLORS))
            assert all(len({coloring[v] for v in e}) >= 2 for e in h.edges)
    assert answers.count(False) >= 30  # the "no" answers are tested too


def _meets_in_one(a, b) -> bool:
    return len(set(a) & set(b)) == 1


def _has_long_ring(h: Hypergraph) -> bool:
    """Some ring of >= 3 distinct hyperedges, each meeting the next (and the
    last the first) in exactly one vertex, found by extending every path of
    such steps from its least hyperedge."""
    m = h.num_edges

    def extend(ring) -> bool:
        last = h.edges[ring[-1]]
        if len(ring) >= 3 and _meets_in_one(last, h.edges[ring[0]]):
            return True
        return any(extend((*ring, j)) for j in range(ring[0] + 1, m)
                   if j not in ring and _meets_in_one(last, h.edges[j]))

    return any(extend((first,)) for first in range(m))


def _no_ring_graphs():
    """Graphs with no strict hypercycle: in each component every hyperedge
    holds the same two vertices, so any two that meet share at least two."""
    rng = random.Random(0x5AC)
    for _ in range(30):
        n = rng.randint(5, 20)
        order = rng.sample(range(n), n)
        cut = rng.randint(2, n - 2)
        edges = []
        for part in (order[:cut], order[cut:]):
            core = part[:2]
            for _ in range(rng.randint(1, 5)):
                edges.append(tuple(sorted({*core, *rng.sample(part, rng.randint(0, len(part) - 2))})))
        yield Hypergraph(n, edges)


def test_find_shc_matches_the_definition_at_corpus_sizes():
    rings_checked = long_rings = 0
    for h in [*_generic_graphs("SHC"), *_no_ring_graphs()]:
        ring = find_shc(h)
        pair = any(_meets_in_one(a, b) for a, b in itertools.combinations(h.edges, 2))
        assert (ring is not None) == pair
        if h.num_edges <= 10:
            rings_checked += 1
            long_rings += _has_long_ring(h)
            # a ring of any length has a consecutive pair meeting in one vertex
            assert (ring is not None) == (pair or _has_long_ring(h))
        if ring is not None:
            assert len(ring) >= 2 and len(set(ring)) == len(ring)
            assert all(_meets_in_one(h.edges[a], h.edges[b]) for a, b in zip(ring, ring[1:] + ring[:1]))
    assert rings_checked >= 40 and long_rings >= 10
    assert all(find_shc(h) is None for h in _no_ring_graphs())  # the "no" answers are tested too
