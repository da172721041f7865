"""The exact solvers against networkx at the sizes the corpus uses (10-20
vertices), where the brute-force oracles of ``solve`` cannot go: synthetic
medium and large graphs, demo-pool subsamples, and disjoint unions of two
graphs for the unreachable cases.  The counting and neighbourhood tasks'
answers against the incidence graph at every scale."""

import random
import time

import pytest

from hyperbench import Hypergraph, solve_ism, solve_omf, solve_osp
from hyperbench.bench import sample_params, task_spec
from hyperbench.generate import SCALE_RANGES, SOURCES, GenSpec, gen_generic, gen_ism_pair, relabel

nx = pytest.importorskip("networkx")

CASES = 10  # per scale and source


def _graph(scale: str, source: str, seed: int) -> Hypergraph:
    return gen_generic(GenSpec("generic", scale, source, seed))


def _disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    return Hypergraph(a.n + b.n, [*a.edges, *(tuple(v + a.n for v in e) for e in b.edges)])


def _instances():
    """(hypergraph, s, t): medium and large graphs of both sources, then
    disjoint unions, where t is in the other part than s half the time."""
    rng = random.Random(0xD1FF)
    for scale in ("medium", "large"):
        for source in ("synthetic", "real"):
            for i in range(CASES):
                h = _graph(scale, source, rng.randrange(2**32))
                yield (h, *rng.sample(range(h.n), 2))
    for i in range(CASES):
        h = _disjoint_union(_graph("small", "synthetic", 2 * i), _graph("small", "real", 2 * i + 1))
        yield (h, *rng.sample(range(h.n), 2))


INSTANCES = list(_instances())


def _incidence_network(h: Hypergraph):
    """Vertex nodes ``v`` and hyperedge nodes ``("e", j)``; each membership
    v ∈ e is a pair of antiparallel arcs of capacity |e|."""
    g = nx.DiGraph()
    g.add_nodes_from(range(h.n))
    for j, members in enumerate(h.edges):
        for v in members:
            g.add_edge(v, ("e", j), capacity=len(members))
            g.add_edge(("e", j), v, capacity=len(members))
    return g


@pytest.mark.parametrize("h, s, t", INSTANCES)
def test_omf_matches_networkx_max_flow(h, s, t):
    assert solve_omf(h, s, t) == nx.maximum_flow_value(_incidence_network(h), s, t)


def _line_graph(h: Hypergraph, s: int, t: int):
    """The node-weighted line graph as a digraph whose arcs carry the weight
    of the hyperedge they enter: a source enters each hyperedge holding ``s``,
    and each hyperedge holding ``t`` leaves to the target for free."""
    g = nx.DiGraph()
    for j, members in enumerate(h.edges):
        if s in members:
            g.add_edge("source", j, weight=len(members))
        if t in members:
            g.add_edge(j, "target", weight=0)
        for i, other in enumerate(h.edges):
            if i != j and set(members) & set(other):
                g.add_edge(i, j, weight=len(members))
    return g


@pytest.mark.parametrize("h, s, t", INSTANCES)
def test_osp_weight_matches_dijkstra_on_the_line_graph(h, s, t):
    res = solve_osp(h, s, t)
    try:
        want = nx.dijkstra_path_length(_line_graph(h, s, t), "source", "target")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        assert not res.reachable and res.witness is None
        return
    assert res.reachable and res.total_weight == want
    steps = [h.edges[j] for j in res.witness]
    assert s in steps[0] and t in steps[-1]
    assert all(set(a) & set(b) for a, b in zip(steps, steps[1:]))
    assert sum(map(len, steps)) == want


def _incidence_graph(h: Hypergraph):
    """The bipartite vertex-hyperedge incidence graph, each node labelled
    with its side; a repeated hyperedge is a node of its own."""
    g = nx.Graph()
    g.add_nodes_from(range(h.n), side="vertex")
    for j, members in enumerate(h.edges):
        g.add_node(("e", j), side="edge")
        g.add_edges_from((("e", j), v) for v in members)
    return g


def _side(g, side: str) -> list:
    return [node for node, label in g.nodes(data="side") if label == side]


def _reached(g, u: int, min_order: int = 0) -> list[int]:
    """The vertex nodes two steps from ``u``, through hyperedge nodes of degree >= ``min_order``."""
    return sorted({v for e in g[u] if g.degree(e) >= min_order for v in g[e]} - {u})


# the answer of each counting and neighbourhood task, read off the incidence graph
_INCIDENCE_ORACLES = {
    "VC": lambda g, p: len(_side(g, "vertex")),
    "HEC": lambda g, p: len(_side(g, "edge")),
    "Ne": lambda g, p: _reached(g, p["u"]),
    "DVC": lambda g, p: sum(g.degree(v) == p["d"] for v in _side(g, "vertex")),
    "OEC": lambda g, p: sum(g.degree(e) == p["k"] for e in _side(g, "edge")),
    "ONe": lambda g, p: _reached(g, p["u"], p["k"]),
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("scale", SCALE_RANGES)
@pytest.mark.parametrize("task", _INCIDENCE_ORACLES)
def test_counting_and_neighbourhood_answers_match_the_incidence_graph(task, scale, source):
    rng = random.Random(f"{task}/{scale}/{source}")
    for _ in range(CASES):
        seed = rng.randrange(2**32)
        h = _graph(scale, source, seed)
        params = sample_params(h, task, seed)
        assert task_spec(task).solve(h, params, None)["value"] == _INCIDENCE_ORACLES[task](_incidence_graph(h), params)


def _ism_pairs():
    for scale in ("medium", "large"):
        for source in ("synthetic", "real"):
            for i in range(CASES):
                yield gen_ism_pair(GenSpec("ISM", scale, source, 7919 * i + 1))


def _switched_pairs():
    """Each graph of ``INSTANCES`` that has two hyperedges of one order, with
    a vertex of each moved into the other and then relabelled: every vertex
    keeps its degree and the orders of its hyperedges, so the solver's
    signature filters pass and only its search can tell the two apart."""
    rng = random.Random(0x5717C4)
    for h, _, _ in INSTANCES:
        edges = [set(e) for e in h.edges]
        swaps = [(i, j) for i in range(len(edges)) for j in range(i) if len(edges[i]) == len(edges[j])
                 and edges[i] - edges[j] and edges[j] - edges[i]]
        if not swaps:
            continue
        i, j = rng.choice(swaps)
        x, y = rng.choice(sorted(edges[i] - edges[j])), rng.choice(sorted(edges[j] - edges[i]))
        edges[i] = edges[i] - {x} | {y}
        edges[j] = edges[j] - {y} | {x}
        perm = rng.sample(range(h.n), h.n)
        yield h, relabel(Hypergraph(h.n, [tuple(sorted(e)) for e in edges]), perm, rng)


def _networkx_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    same_side = nx.algorithms.isomorphism.categorical_node_match("side", None)
    return nx.is_isomorphic(_incidence_graph(a), _incidence_graph(b), node_match=same_side)


@pytest.mark.parametrize("pair", list(_ism_pairs()))
def test_ism_matches_networkx_on_the_incidence_graphs(pair):
    assert solve_ism(pair.a, pair.b) == _networkx_isomorphic(pair.a, pair.b) == pair.isomorphic


@pytest.mark.parametrize("a, b", list(_switched_pairs()))
def test_ism_matches_networkx_on_degree_preserving_switches(a, b):
    assert solve_ism(a, b) == _networkx_isomorphic(a, b)


def test_ism_on_random_3_regular_pairs_is_fast():
    # every vertex signature ties, so only the order of placement lets the
    # pairwise check prune early: in id order the worst pair took seconds
    start = time.perf_counter()
    for s in range(5):
        ga, gb = nx.random_regular_graph(3, 20, seed=s), nx.random_regular_graph(3, 20, seed=100 + s)
        a = Hypergraph(20, [tuple(e) for e in ga.edges])
        b = Hypergraph(20, [tuple(e) for e in gb.edges])
        assert solve_ism(a, b) == nx.is_isomorphic(ga, gb)
        rng = random.Random(s)
        assert solve_ism(a, relabel(a, rng.sample(range(20), 20), rng))
    assert time.perf_counter() - start < 0.5
