import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbench import Hypergraph, load_json, save_json
from hyperbench.core import dumps, from_json_dict, loads, parse_hmetis, to_json_dict


def test_construction_normalizes_members():
    h = Hypergraph(4, [(2, 0), [3, 1, 2]])
    assert h.edges == ((0, 2), (1, 2, 3))
    assert h.num_vertices == 4
    assert h.num_edges == 2


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(3, [(0,)])  # too small
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])  # repeated member
    with pytest.raises(IndexError):
        Hypergraph(3, [(0, 3)])  # out of range
    with pytest.raises(IndexError):
        Hypergraph(3, [(-1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(0, [])


def test_immutable():
    h = Hypergraph(3, [(0, 1)])
    with pytest.raises(AttributeError):
        h.n = 5


def test_equality_and_hash(hstar):
    same = Hypergraph(5, [(2, 1, 0), (1, 2, 3), (2, 3, 4)])
    assert hstar == same
    assert hash(hstar) == hash(same)
    assert hstar != Hypergraph(5, [(0, 1, 2)])


def test_reference_degrees_and_orders(hstar):
    assert hstar.degree_sequence() == (1, 2, 3, 2, 1)
    assert hstar.order_sequence() == (3, 3, 3)
    assert hstar.incident_edges(2) == (0, 1, 2)
    assert hstar.degree(0) == 1
    assert hstar.order(1) == 3
    with pytest.raises(IndexError):
        hstar.degree(5)
    with pytest.raises(IndexError):
        hstar.order(3)


def test_handshake_on_random_graphs(make_random):
    rng = random.Random(13)
    for _ in range(60):
        h = make_random(rng, nmax=12, mmax=12)
        assert sum(h.degree_sequence()) == sum(h.order_sequence())


def test_neighbors(hstar):
    assert hstar.neighbors(2) == (0, 1, 3, 4)
    assert hstar.neighbors(0) == (1, 2)
    assert hstar.neighbors_filtered(0, 3) == (1, 2)
    assert hstar.neighbors_filtered(0, 4) == ()
    lone = Hypergraph(3, [(1, 2)])
    assert lone.neighbors(0) == ()


def test_vertex_pairs(hstar):
    assert hstar.vertex_pairs() == (
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
    )


def test_connectivity(hstar):
    assert hstar.is_connected()
    assert Hypergraph(1, []).is_connected()
    assert not Hypergraph(4, [(0, 1), (2, 3)]).is_connected()
    assert not Hypergraph(3, [(0, 1)]).is_connected()  # isolated v2


@st.composite
def hypergraphs(draw):
    """A hypergraph of 1-9 vertices and at most 8 hyperedges, isolated
    vertices and duplicate hyperedges allowed."""
    n = draw(st.integers(1, 9))
    if n == 1:
        return Hypergraph(1, [])
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 5), unique=True)
    return Hypergraph(n, draw(st.lists(edge, max_size=8)))


def test_pair_edges(hstar):
    assert hstar.pair_edges() == {
        (0, 1): (0,), (0, 2): (0,), (1, 2): (0, 1), (1, 3): (1,), (2, 3): (1, 2), (2, 4): (2,), (3, 4): (2,),
    }


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_pair_edges_properties(h):
    table = h.pair_edges()
    pairs = list(table)
    assert pairs == sorted(pairs)
    assert h.vertex_pairs() == tuple(pairs)
    for (u, v), ids in table.items():
        assert u < v
        assert list(ids) == sorted(set(ids))
    want = {}
    for j, e in enumerate(h.edges):
        for u in e:
            for v in e:
                if u < v:
                    want.setdefault((u, v), []).append(j)
    assert {pair: list(ids) for pair, ids in table.items()} == want


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_components_properties(h):
    comps = h.components()
    assert sorted(v for comp in comps for v in comp) == list(range(h.n))
    assert all(list(comp) == sorted(comp) for comp in comps)
    assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
    for comp in comps:  # each is exactly what a BFS from its least vertex reaches
        seen, frontier = {comp[0]}, [comp[0]]
        while frontier:
            v = frontier.pop()
            for w in h.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == set(comp)
    assert h.is_connected() == (len(comps) == 1)


def test_components(hstar):
    assert hstar.components() == ((0, 1, 2, 3, 4),)
    assert Hypergraph(5, [(3, 4), (0, 2)]).components() == ((0, 2), (1,), (3, 4))


def test_degree_profile(hstar):
    degrees, orders = hstar.degree_sequence(), hstar.order_sequence()
    assert degrees == (1, 2, 3, 2, 1)
    assert orders == (3, 3, 3)
    assert sum(degrees) == sum(orders) == 9  # handshake


def test_json_round_trip(hstar, tmp_path):
    assert loads(dumps(hstar)) == hstar
    assert from_json_dict(to_json_dict(hstar)) == hstar
    path = tmp_path / "h.json"
    save_json(hstar, path)
    assert load_json(path) == hstar


def test_pickle_round_trip(hstar):
    assert pickle.loads(pickle.dumps(hstar)) == hstar


def test_parse_hmetis():
    text = "% comment\n3 5\n1 2 3\n% inner comment\n2 4\n4 5\n"
    h = parse_hmetis(text)
    assert h.n == 5
    assert h.edges == ((0, 1, 2), (1, 3), (3, 4))


def test_parse_hmetis_rejects_bad_counts():
    with pytest.raises(ValueError):
        parse_hmetis("2 4\n1 2\n")  # promised 2 edges, got 1
    with pytest.raises(ValueError):
        parse_hmetis("1 3\n1 4\n")  # vertex 4 out of range


def test_parse_hmetis_rejects_weighted_fmt():
    # fmt 1: each edge line starts with its weight, which must not be read as a vertex
    with pytest.raises(ValueError, match="fmt"):
        parse_hmetis("2 3 1\n2 1 3\n1 2 3\n")
    assert parse_hmetis("1 3 0\n1 2 3\n").edges == ((0, 1, 2),)
