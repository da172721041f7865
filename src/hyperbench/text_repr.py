"""The seven textual hypergraph serializations and their round-trip parsers.

Formats (fixed names): LO-Inc (pairwise neighbor lists), N-Pair (co-occurring
vertex pairs), Adj-Mat (vertex adjacency 0/1 matrix), HO-Neigh (vertex-to-
hyperedge and hyperedge-to-vertex lists), HO-Inc (neighbors grouped by the
witnessing hyperedge), N-Set (hyperedges as vertex tuples), Inc-Mat
(vertex x hyperedge 0/1 matrix).

Every format opens with a header sentence naming all vertices and hyperedges.
Matrices are canonicalized as rows "[a,b,...]" joined by ",\n" inside outer
brackets.  Rendering is byte-deterministic.
"""

from __future__ import annotations

import re

from .core import Hypergraph, ename, vname

TEXT_FORMATS = ("LO-Inc", "N-Pair", "Adj-Mat", "HO-Neigh", "HO-Inc", "N-Set", "Inc-Mat")


class ParseError(ValueError):
    """Malformed serialized hypergraph text; carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


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


_RENDERERS = {
    "LO-Inc": _render_lo_inc,
    "N-Pair": _render_n_pair,
    "Adj-Mat": _render_adj_mat,
    "HO-Neigh": _render_ho_neigh,
    "HO-Inc": _render_ho_inc,
    "N-Set": _render_n_set,
    "Inc-Mat": _render_inc_mat,
}


def render_text(h: Hypergraph, fmt: str, name: str = "G") -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown text format {fmt!r}; expected one of {TEXT_FORMATS}")
    return _RENDERERS[fmt](h, name)


_HEADER_RE = re.compile(
    r"describes a hypergraph among vertices (?P<vs>[^.]*?),? and (?:among )?hyperedges (?P<es>[^.]*?)\."
)


def _parse_header(text: str) -> tuple[int, int, int]:
    """Return (n, m, end-of-header offset) from the header sentence."""
    match = _HEADER_RE.search(text)
    if not match:
        raise ParseError("missing hypergraph header sentence", 0)
    v_ids = [int(tok) for tok in re.findall(r"v(\d+)", match.group("vs"))]
    e_ids = [int(tok) for tok in re.findall(r"e(\d+)", match.group("es"))]
    if not v_ids or v_ids != list(range(len(v_ids))):
        raise ParseError("header vertex list is not v0..v{n-1}", match.start("vs"))
    if e_ids != list(range(len(e_ids))):
        raise ParseError("header hyperedge list is not e0..e{m-1}", match.start("es"))
    return len(v_ids), len(e_ids), match.end()


def parse_nset(text: str) -> Hypergraph:
    """Inverse of the N-Set rendering (same ids, same edge order)."""
    n, m, offset = _parse_header(text)
    anchor = re.search(r"The hyperedges in \S+ are: ", text[offset:])
    if not anchor:
        raise ParseError("missing hyperedge list sentence", offset)
    start = offset + anchor.end()
    edges = []
    for match in re.finditer(r"\(([^)]*)\)", text[start:]):
        members = [int(tok) for tok in re.findall(r"v(\d+)", match.group(1))]
        if not members:
            raise ParseError("hyperedge tuple without vertices", start + match.start())
        edges.append(members)
    if len(edges) != m:
        raise ParseError(f"header promises {m} hyperedges, found {len(edges)}", start)
    return Hypergraph(n, edges)


def parse_incmat(text: str) -> Hypergraph:
    """Inverse of the Inc-Mat rendering (edges read off matrix columns)."""
    n, m, offset = _parse_header(text)
    anchor = re.search(r"The incidence matrix of the hypergraph is\n", text[offset:])
    if not anchor:
        raise ParseError("missing incidence matrix sentence", offset)
    start = offset + anchor.end()
    rows = []
    for match in re.finditer(r"\[([01](?:,[01])*)\]", text[start:]):
        rows.append([int(x) for x in match.group(1).split(",")])
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(rows)}", start)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ParseError(f"row {i} has {len(row)} entries, expected {m}", start)
    edges = [[v for v in range(n) if rows[v][j]] for j in range(m)]
    return Hypergraph(n, edges)


def parse_honeigh(text: str) -> Hypergraph:
    """Inverse of the HO-Neigh rendering (edges from the hyperedge lines)."""
    n, m, offset = _parse_header(text)
    edges = []
    for match in re.finditer(r"Hyperedge e(\d+) is connected to [^.]*?((?:v\d+(?:, )?)+)\.", text[offset:]):
        j = int(match.group(1))
        if j != len(edges):
            raise ParseError(f"hyperedge lines out of order at e{j}", offset + match.start())
        edges.append([int(tok) for tok in re.findall(r"v(\d+)", match.group(2))])
    if len(edges) != m:
        raise ParseError(f"header promises {m} hyperedges, found {len(edges)}", offset)
    return Hypergraph(n, edges)
