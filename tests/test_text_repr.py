import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbench import Hypergraph, parse_honeigh, parse_incmat, parse_nset, render_text, text_repr
from hyperbench.core import ename, vname
from hyperbench.text_repr import TEXT_FORMATS, ParseError

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "hyperbench" / "fixtures"

GOLDEN = {
    "LO-Inc": "lo_inc.txt",
    "N-Pair": "n_pair.txt",
    "Adj-Mat": "adj_mat.txt",
    "HO-Neigh": "ho_neigh.txt",
    "HO-Inc": "ho_inc.txt",
    "N-Set": "n_set.txt",
    "Inc-Mat": "inc_mat.txt",
}


@pytest.mark.parametrize("fmt", TEXT_FORMATS)
def test_golden_reference_rendering(hstar, fmt):
    golden = (FIXTURES / GOLDEN[fmt]).read_text(encoding="utf-8")
    assert render_text(hstar, fmt) == golden


def test_unknown_format(hstar):
    with pytest.raises(ValueError):
        render_text(hstar, "Nope")


def test_english_join():
    assert text_repr.english_join(["a"]) == "a"
    assert text_repr.english_join(["a", "b"]) == "a and b"
    assert text_repr.english_join(["a", "b", "c"]) == "a, b, and c"
    with pytest.raises(ValueError):
        text_repr.english_join([])


def test_custom_graph_name(hstar):
    text = render_text(hstar, "N-Set", name="H")
    assert "The hyperedges in H are:" in text
    assert "H describes a hypergraph" in text


@pytest.mark.parametrize(
    "fmt,parse",
    [("N-Set", parse_nset), ("Inc-Mat", parse_incmat), ("HO-Neigh", parse_honeigh)],
)
def test_round_trip(fmt, parse, make_random):
    rng = random.Random(17)
    for _ in range(80):
        h = make_random(rng, nmax=12, mmax=14)
        assert parse(render_text(h, fmt)) == h


def test_round_trip_isolated_vertex():
    h = Hypergraph(4, [(1, 2)])  # v0, v3 in no hyperedge
    for fmt, parse in (("N-Set", parse_nset), ("Inc-Mat", parse_incmat), ("HO-Neigh", parse_honeigh)):
        assert parse(render_text(h, fmt)) == h


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_nset("not a rendering at all")
    with pytest.raises(ParseError):
        parse_incmat("G describes a hypergraph among vertices v0, and among hyperedges e0.")


def test_parse_error_carries_position():
    try:
        parse_nset("nothing here")
    except ParseError as err:
        assert isinstance(err.position, int)
    else:
        pytest.fail("expected ParseError")


def test_parse_incmat_rejects_wrong_row_count(hstar):
    text = render_text(hstar, "Inc-Mat")
    truncated = text.rsplit(",\n", 1)[0] + "]"
    with pytest.raises(ParseError):
        parse_incmat(truncated)


def test_lo_inc_mentions_every_vertex(make_random):
    rng = random.Random(5)
    for _ in range(20):
        h = make_random(rng)
        text = render_text(h, "LO-Inc")
        for v in range(h.n):
            assert f"v{v} " in text or f"v{v}." in text or f"v{v}," in text


# ---------------------------------------------------------------------------
# differential oracle: the plainest reading of each format, naming every
# mention with vname/ename and joining every list with english_join;
# render_text must match it byte for byte
# ---------------------------------------------------------------------------


def english_join(items, oxford: bool) -> str:
    """Join names with commas; oxford=True adds ", and"/" and " before the last."""
    items = list(items)
    if not items:
        raise ValueError("cannot join an empty list")
    if not oxford or len(items) == 1:
        return ", ".join(items)
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


def _header(h: Hypergraph, name: str, style: str) -> str:
    vs = english_join([vname(i) for i in range(h.n)], oxford=True)
    if h.num_edges:
        es = english_join([ename(j) for j in range(h.num_edges)], oxford=True)
    else:
        es = "none"
    if style == "among":
        return f"{name} describes a hypergraph among vertices {vs} and among hyperedges {es}."
    if style == "comma_among":
        return f"{name} describes a hypergraph among vertices {vs}, and among hyperedges {es}."
    return f"{name} describes a hypergraph among vertices {vs} and hyperedges {es}."


def _list_phrase(ids, label=vname, singular: str = "vertex", plural: str = "vertices") -> str:
    names = [label(i) for i in ids]
    if not names:
        return f"no {plural}"
    noun = singular if len(names) == 1 else plural
    return f"{noun} {english_join(names, oxford=False)}"


def _matrix_str(rows) -> str:
    body = ",\n".join("[" + ",".join(str(x) for x in row) + "]" for row in rows)
    return f"[{body}]"


def _render_lo_inc(h: Hypergraph, name: str) -> str:
    lines = [_header(h, name, "plain"), "In this hypergraph:"]
    for v in range(h.n):
        phrase = _list_phrase(h.neighbors(v))
        lines.append(f"Vertex {vname(v)} is connected to {phrase}.")
    return "\n".join(lines)


def _render_n_pair(h: Hypergraph, name: str) -> str:
    preamble = (
        "In an undirected hypergraph, (i,j) means that vertex i and vertex j "
        "are connected with an undirected hyperedge. "
    )
    pairs = h.vertex_pairs()
    body = " ".join(f"({vname(a)}, {vname(b)})" for a, b in pairs) if pairs else "none"
    return (
        preamble
        + _header(h, name, "plain")
        + f"\nThe connection relation between vertices in {name} are: {body}."
    )


def _render_adj_mat(h: Hypergraph, name: str) -> str:
    mat = [[0] * h.n for _ in range(h.n)]
    for a, b in h.vertex_pairs():
        mat[a][b] = 1
        mat[b][a] = 1
    return (
        _header(h, name, "among")
        + "\nThe adjacency matrix between the vertices of the hypergraph is\n"
        + _matrix_str(mat)
    )


def _render_ho_neigh(h: Hypergraph, name: str) -> str:
    lines = [_header(h, name, "plain"), "In this hypergraph:"]
    for v in range(h.n):
        phrase = _list_phrase(h.incident_edges(v), ename, "hyperedge", "hyperedges")
        lines.append(f"Vertex {vname(v)} is connected to {phrase}.")
    for j, members in enumerate(h.edges):
        phrase = _list_phrase(members)
        lines.append(f"Hyperedge {ename(j)} is connected to {phrase}.")
    return "\n".join(lines)


def _render_ho_inc(h: Hypergraph, name: str) -> str:
    lines = [_header(h, name, "among"), "In this hypergraph:"]
    for v in range(h.n):
        clauses = []
        for j in h.incident_edges(v):
            others = [u for u in h.edges[j] if u != v]
            clauses.append(f"to {_list_phrase(others)} with hyperedge {ename(j)}")
        if clauses:
            lines.append(f"Vertex {vname(v)} is connected " + ", ".join(clauses) + ".")
        else:
            lines.append(f"Vertex {vname(v)} is connected to no vertices.")
    return "\n".join(lines)


def _render_n_set(h: Hypergraph, name: str) -> str:
    preamble = (
        "In an undirected hypergraph, (i, j, k) means that vertex i, vertex j, "
        "and vertex k are connected with an undirected hyperedge. "
    )
    tuples = ", ".join("(" + ", ".join(vname(v) for v in e) + ")" for e in h.edges)
    body = tuples if tuples else "none"
    return (
        preamble
        + _header(h, name, "comma_among")
        + f"\nThe hyperedges in {name} are: {body}."
    )


def _render_inc_mat(h: Hypergraph, name: str) -> str:
    mat = [[0] * h.num_edges for _ in range(h.n)]
    for j, members in enumerate(h.edges):
        for v in members:
            mat[v][j] = 1
    return (
        _header(h, name, "plain")
        + "\nThe incidence matrix of the hypergraph is\n"
        + _matrix_str(mat)
    )


ORACLE = {
    "LO-Inc": _render_lo_inc,
    "N-Pair": _render_n_pair,
    "Adj-Mat": _render_adj_mat,
    "HO-Neigh": _render_ho_neigh,
    "HO-Inc": _render_ho_inc,
    "N-Set": _render_n_set,
    "Inc-Mat": _render_inc_mat,
}


@st.composite
def hypergraphs(draw):
    """1-20 vertices, any number of hyperedges of 2 or more vertices (none at
    all, too), vertices in no hyperedge, and repeated hyperedges."""
    n = draw(st.integers(1, 20))
    if n == 1:
        return Hypergraph(1, [])
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 6), unique=True)
    edges = draw(st.lists(edge, max_size=12))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return Hypergraph(n, edges)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
@example(Hypergraph(1, []))  # one vertex, no hyperedges
@example(Hypergraph(4, []))  # hyperedges "none", every vertex alone
@example(Hypergraph(5, [(1, 3)]))  # v0, v2, v4 in no hyperedge
@example(Hypergraph(3, [(0, 1), (1, 2), (0, 1)]))  # 2-vertex and repeated hyperedges
@example(Hypergraph(20, [range(20), (0, 19), (3, 7, 11), (0, 19)]))
def test_render_text_matches_oracle(h):
    for fmt in TEXT_FORMATS:
        for name in ("G", "H"):
            assert render_text(h, fmt, name) == ORACLE[fmt](h, name)
