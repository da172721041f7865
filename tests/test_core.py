import io
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbench import Hypergraph, emit_corpus, load_json, read_jsonl, save_json
from hyperbench.core import dumps, from_json_dict, iter_jsonl, loads, parse_hmetis, to_json_dict


def test_construction_normalizes_members():
    h = Hypergraph(4, [(2, 0), [3, 1, 2]])
    assert h.edges == ((0, 2), (1, 2, 3))
    assert h.n == 4
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
    with pytest.raises(IndexError):
        hstar.degree(5)
    with pytest.raises(IndexError):
        hstar.check_edge(3)


def test_handshake_on_random_graphs(make_random):
    rng = random.Random(13)
    for _ in range(60):
        h = make_random(rng, nmax=12, mmax=12)
        assert sum(h.degree_sequence()) == sum(h.order_sequence())


def test_neighbors(hstar):
    assert hstar.neighbors(2) == (0, 1, 3, 4)
    assert hstar.neighbors(0) == (1, 2)
    assert hstar.neighbors(0, 3) == (1, 2)
    assert hstar.neighbors(0, 4) == ()
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


# -- the JSONL reader against json.loads of each line ----------------------


class _Named(io.StringIO):
    name = "s.jsonl"


def _read_each_line(text: str):
    """What the reader must give: the records ``json.loads`` makes of the
    lines up to the first malformed one, and that line's error message."""
    records = []
    for lineno, line in enumerate(_Named(text), 1):
        line = line.strip()
        if line:
            try:
                records.append(json.loads(line))
            except (ValueError, RecursionError) as exc:
                return records, f"s.jsonl:{lineno}: malformed JSON line: {exc}"
    return records, None


def _read_stream(text: str):
    records = []
    try:
        records.extend(iter_jsonl(_Named(text)))
    except ValueError as exc:
        return records, str(exc)
    return records, None


_KEYS = st.sampled_from(["a", "b", "answer_spec", "k\u00e9y", 'q"k', ""])
_STRINGS = st.sampled_from(["x", '", "', 'a, "b": 1', "}, {", "\u2229", "\\"])
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 12), _STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=6,
)
# lines the reader's shortcut must leave to json.loads, or that json.loads rejects
_ODD_LINES = st.sampled_from([
    "", "   ", '{"a": {}, }', '{"a": [1],"b": 2}', '{"a": [1], "a": 2}', '{"a" : [1], "b": 2}',
    '{"a": [1], "b": 2} x', '{"a": [1], "b": }', '{"a": [1], "', '{"a": [1], ', '{"a": [1]}', "[1, 2]", '"s"',
    "{}", "null", '{"a": [1], "b": 2, }',
])


@st.composite
def _jsonl_streams(draw):
    """Lines that often open with the same key and value as the line before,
    written with varied separators, around the odd lines above."""
    leads = draw(st.lists(st.tuples(_KEYS, _VALUES), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(_ODD_LINES))
            continue
        members = [draw(st.sampled_from(leads)), *draw(st.lists(st.tuples(_KEYS, _VALUES), max_size=3))]
        ascii_only = draw(st.booleans())
        parts = []
        for key, value in members:
            colon = draw(st.sampled_from([": ", ":", " : "]))
            compact = draw(st.booleans())
            text = json.dumps(value, ensure_ascii=ascii_only, separators=(",", ":") if compact else None)
            parts.append(json.dumps(key, ensure_ascii=ascii_only) + colon + text)
        line = parts[0]
        for part in parts[1:]:
            line += draw(st.sampled_from([", ", ",", ",  ", " , "])) + part
        line = "{" + line + "}"
        if draw(st.integers(0, 5)) == 0:  # cut short: malformed, perhaps inside the shared lead
            line = line[:draw(st.integers(0, len(line) - 1))]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_jsonl_streams())
def test_iter_jsonl_equals_json_loads_of_each_line(text):
    got, want = _read_stream(text), _read_each_line(text)
    # repr shows every dict's key order; the messages name the same line and error
    assert repr(got) == repr(want)


def test_read_jsonl_of_a_manifest_equals_json_loads_of_each_line(tmp_path):
    # the corpus tests/test_pinned.py pins
    emit_corpus(per_task=2, master_seed=1234, outdir=tmp_path, write_images=False)
    path = tmp_path / "manifest.jsonl"
    rows = read_jsonl(path)
    want = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(want)
    for row, expected in zip(rows, want):  # row by row: a failure's diff stays small
        assert repr(row) == repr(expected)
    # the shortcut ran: each meta's 35 rows share one decoded answer spec
    assert len({id(row["answer_spec"]) for row in rows}) == len({row["meta_id"] for row in rows}) == len(rows) // 35
