"""The seven textual hypergraph serializations and their round-trip parsers.

Formats (fixed names): LO-Inc (pairwise neighbor lists), N-Pair (co-occurring
vertex pairs), Adj-Mat (vertex adjacency 0/1 matrix), HO-Neigh (vertex-to-
hyperedge and hyperedge-to-vertex lists), HO-Inc (neighbors grouped by the
witnessing hyperedge), N-Set (hyperedges as vertex tuples), Inc-Mat
(vertex x hyperedge 0/1 matrix).

Every format opens with a header sentence naming all vertices and hyperedges.
Matrices are canonicalized as rows "[a,b,...]" joined by ",\n" inside outer
brackets.  Rendering is byte-deterministic.  Each renderer names the vertices
and hyperedges once per call and reads the graph's incidence lists, hyperedges
and vertex pairs directly.
"""

from __future__ import annotations

import re

from .core import Hypergraph

TEXT_FORMATS = ("LO-Inc", "N-Pair", "Adj-Mat", "HO-Neigh", "HO-Inc", "N-Set", "Inc-Mat")


class ParseError(ValueError):
    """Malformed serialized hypergraph text; carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def english_join(items) -> str:
    """Join names with commas and ", and"/" and " before the last."""
    items = list(items)
    if not items:
        raise ValueError("cannot join an empty list")
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


def _names(h: Hypergraph) -> tuple[list[str], list[str]]:
    """The vertex names v0..v{n-1} and hyperedge names e0..e{m-1}."""
    return [f"v{i}" for i in range(h.n)], [f"e{j}" for j in range(len(h.edges))]


def _header(name: str, vn: list[str], en: list[str], joiner: str) -> str:
    es = english_join(en) if en else "none"
    return f"{name} describes a hypergraph among vertices {english_join(vn)}{joiner} hyperedges {es}."


def _phrase(names: list[str], singular: str = "vertex", plural: str = "vertices") -> str:
    if not names:
        return f"no {plural}"
    return (singular if len(names) == 1 else plural) + " " + ", ".join(names)


def _matrix_str(rows) -> str:
    """A matrix of "0"/"1" strings in the canonical form above."""
    return "[" + ",\n".join("[" + ",".join(row) + "]" for row in rows) + "]"


def _render_lo_inc(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    nbrs: list[list[str]] = [[] for _ in vn]
    for a, b in h.vertex_pairs():  # sorted, so each list comes out ascending
        nbrs[a].append(vn[b])
        nbrs[b].append(vn[a])
    lines = [_header(name, vn, en, " and"), "In this hypergraph:"]
    lines += [f"Vertex {v} is connected to {_phrase(ns)}." for v, ns in zip(vn, nbrs)]
    return "\n".join(lines)


def _render_n_pair(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    body = " ".join(f"({vn[a]}, {vn[b]})" for a, b in h.vertex_pairs()) or "none"
    return (
        "In an undirected hypergraph, (i,j) means that vertex i and vertex j "
        "are connected with an undirected hyperedge. "
        + _header(name, vn, en, " and")
        + f"\nThe connection relation between vertices in {name} are: {body}."
    )


def _render_adj_mat(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    mat = [["0"] * h.n for _ in vn]
    for members in h.edges:
        for u in members:
            row = mat[u]
            for w in members:
                row[w] = "1"
    for v, row in enumerate(mat):  # a vertex is not its own neighbor
        row[v] = "0"
    return (
        _header(name, vn, en, " and among")
        + "\nThe adjacency matrix between the vertices of the hypergraph is\n"
        + _matrix_str(mat)
    )


def _render_ho_neigh(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    lines = [_header(name, vn, en, " and"), "In this hypergraph:"]
    for v, js in zip(vn, h._incident):
        lines.append(f"Vertex {v} is connected to {_phrase([en[j] for j in js], 'hyperedge', 'hyperedges')}.")
    for e, members in zip(en, h.edges):  # a hyperedge has at least two vertices
        lines.append(f"Hyperedge {e} is connected to vertices {', '.join([vn[u] for u in members])}.")
    return "\n".join(lines)


def _render_ho_inc(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    clauses: list[list[str]] = [[] for _ in vn]
    for e, members in zip(en, h.edges):  # ascending edge ids, as each vertex lists them
        names = [vn[u] for u in members]
        noun = "to vertex " if len(names) == 2 else "to vertices "
        for k, u in enumerate(members):
            clauses[u].append(noun + ", ".join(names[:k] + names[k + 1:]) + " with hyperedge " + e)
    lines = [_header(name, vn, en, " and among"), "In this hypergraph:"]
    for v, cs in zip(vn, clauses):
        lines.append(f"Vertex {v} is connected " + (", ".join(cs) if cs else "to no vertices") + ".")
    return "\n".join(lines)


def _render_n_set(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    body = ", ".join("(" + ", ".join([vn[u] for u in e]) + ")" for e in h.edges) or "none"
    return (
        "In an undirected hypergraph, (i, j, k) means that vertex i, vertex j, "
        "and vertex k are connected with an undirected hyperedge. "
        + _header(name, vn, en, ", and among")
        + f"\nThe hyperedges in {name} are: {body}."
    )


def _render_inc_mat(h: Hypergraph, name: str) -> str:
    vn, en = _names(h)
    mat = [["0"] * len(en) for _ in vn]
    for j, members in enumerate(h.edges):
        for u in members:
            mat[u][j] = "1"
    return (
        _header(name, vn, en, " and")
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
