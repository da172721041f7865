"""Hypergraph model plus basic queries and on-disk formats.

A hypergraph is a vertex count ``n`` (vertices are the integers ``0..n-1``,
written ``v0..v{n-1}``) together with an ordered list of hyperedges
(``e0..e{m-1}``), each a set of at least two vertices.  The edge list may
contain duplicate vertex sets; list position is the edge's identity.
"""

from __future__ import annotations

import itertools
import json

MIN_EDGE_SIZE = 2

# the five visual (SVG) formats, defined here rather than in visual_repr so
# that the modules that only name them do not import numpy
VISUAL_FORMATS = ("Enc-Hy", "Bi-Inc", "Sh-Inc", "St-Inc", "Cli-Exp")


def vname(i: int) -> str:
    return f"v{i}"


def ename(j: int) -> str:
    return f"e{j}"


class Hypergraph:
    """Immutable hypergraph with precomputed incidence lists.

    ``edges`` is normalized to a tuple of sorted vertex tuples; input order
    of the edges themselves is preserved (edge ids are list positions).
    """

    __slots__ = ("n", "edges", "_incident")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        norm = []
        for j, edge in enumerate(edges):
            members = sorted(edge)
            if len(set(members)) != len(members):
                raise ValueError(f"edge e{j} repeats a vertex: {sorted(edge)}")
            if len(members) < MIN_EDGE_SIZE:
                raise ValueError(f"edge e{j} has {len(members)} vertices; need >= {MIN_EDGE_SIZE}")
            if members[0] < 0 or members[-1] >= n:
                raise IndexError(f"edge e{j} references a vertex outside 0..{n - 1}")
            norm.append(tuple(members))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        incident: list[list[int]] = [[] for _ in range(n)]
        for j, members in enumerate(self.edges):
            for v in members:
                incident[v].append(j)
        object.__setattr__(self, "_incident", tuple(tuple(js) for js in incident))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Hypergraph is immutable")

    def __reduce__(self):
        # immutability + __slots__ break default pickling; rebuild via ctor
        return (Hypergraph, (self.n, self.edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={list(map(list, self.edges))})"

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex id {v} outside 0..{self.n - 1}")

    def check_edge(self, j: int) -> None:
        if not (0 <= j < len(self.edges)):
            raise IndexError(f"hyperedge id {j} outside 0..{len(self.edges) - 1}")

    def check_endpoints(self, s: int, t: int, what: str) -> None:
        """IndexError if ``s`` or ``t`` is out of range, ValueError (naming the
        pair as ``what``) if they are equal."""
        self.check_vertex(s)
        self.check_vertex(t)
        if s == t:
            raise ValueError(f"{what} must differ")

    def degree(self, v: int) -> int:
        """Number of hyperedges containing ``v``."""
        self.check_vertex(v)
        return len(self._incident[v])

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Ids of hyperedges containing ``v``, ascending."""
        self.check_vertex(v)
        return self._incident[v]

    def neighbors(self, u: int, min_order: int = MIN_EDGE_SIZE) -> tuple[int, ...]:
        """Vertices sharing a hyperedge of order >= ``min_order`` with ``u``
        (``u`` excluded), ascending; by default through any hyperedge."""
        self.check_vertex(u)
        out = set()
        for j in self._incident[u]:
            if len(self.edges[j]) >= min_order:
                out.update(self.edges[j])
        out.discard(u)
        return tuple(sorted(out))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(len(self._incident[v]) for v in range(self.n))

    def order_sequence(self) -> tuple[int, ...]:
        return tuple(len(e) for e in self.edges)

    def pair_edges(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Each pair (u, v), u < v, co-occurring in some hyperedge, in sorted
        order, mapped to the ascending ids of the hyperedges containing both."""
        table: dict[tuple[int, int], list[int]] = {}
        for j, members in enumerate(self.edges):
            for pair in itertools.combinations(members, 2):
                table.setdefault(pair, []).append(j)
        return {pair: tuple(table[pair]) for pair in sorted(table)}

    def vertex_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted distinct pairs (u, v), u < v, co-occurring in some hyperedge."""
        return tuple(sorted({pair for members in self.edges for pair in itertools.combinations(members, 2)}))

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex sets linked through shared hyperedges, each ascending, ordered
        by their least vertex; a vertex with no incident edge is its own."""
        label = [-1] * self.n
        comps = []
        for root in range(self.n):
            if label[root] >= 0:
                continue
            label[root] = len(comps)
            members = [root]
            for v in members:  # breadth-first: the list grows as it is walked
                for j in self._incident[v]:
                    for w in self.edges[j]:
                        if label[w] < 0:
                            label[w] = len(comps)
                            members.append(w)
            comps.append(tuple(sorted(members)))
        return tuple(comps)

    def is_connected(self) -> bool:
        """True iff the vertices form one component (a lone vertex does)."""
        return len(self.components()) == 1


def to_json_dict(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": [list(e) for e in h.edges]}


def _shown(value) -> str:
    """A decoded JSON value as an error message shows it: a scalar as JSON,
    an array or an object by its kind."""
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    return json.dumps(value)


def from_json_dict(obj: dict) -> Hypergraph:
    """The hypergraph of a decoded ``{"n", "edges"}`` object; ValueError
    naming the field if ``n`` or a vertex id is not an integer (JSON's
    floats and booleans are not) or ``edges`` is not a list of lists."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("hypergraph JSON needs keys 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int:
        raise ValueError(f"hypergraph JSON 'n' must be an integer, got {_shown(n)}")
    if not isinstance(edges, list):
        raise ValueError(f"hypergraph JSON 'edges' must be an array, got {_shown(edges)}")
    for j, edge in enumerate(edges):
        if not isinstance(edge, list):
            raise ValueError(f"hypergraph JSON edge e{j} must be an array of vertex ids, got {_shown(edge)}")
        for v in edge:
            if type(v) is not int:
                raise ValueError(f"hypergraph JSON edge e{j} has a vertex id that is not an integer: {_shown(v)}")
    return Hypergraph(n, edges)


def dumps(h: Hypergraph) -> str:
    """Canonical single-line JSON: ``{"n": ..., "edges": [[...], ...]}``."""
    return json.dumps(to_json_dict(h))


def loads(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except RecursionError as exc:  # nested deeper than json can decode
        raise ValueError(exc) from None
    return from_json_dict(obj)


def save_json(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(h))
        fh.write("\n")


def load_json(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


_raw_decode = json.JSONDecoder().raw_decode  # the decoder json.loads uses, from a start index
_scan_key = json.decoder.scanstring  # a JSON string's value and end, from after its opening quote


def _loads(text: str):
    """``json.loads(text)`` for a text without surrounding whitespace, minus
    that function's per-call checks; it raises what json.loads raises."""
    obj, end = _raw_decode(text)
    return obj if end == len(text) else json.loads(text)  # json's "Extra data" error


def _leading_member(line: str):
    """``(text, key, value)`` for a line that opens with ``{"key": `` and an
    object or array followed by ``, "``: ``text`` is the line up to and
    including that quote, ``value`` the decoded object or array.  None for
    any other line."""
    if not line.startswith('{"'):
        return None
    try:
        key, end = _scan_key(line, 2)
        if line[end:end + 2] != ": ":
            return None
        value, end = _raw_decode(line, end + 2)
    except (ValueError, RecursionError):
        return None
    if type(value) not in (dict, list) or line[end:end + 3] != ', "':
        return None
    return line[:end + 3], key, value


def iter_jsonl(fh):
    """The records of an open JSONL file, one at a time, each equal, in keys
    and key order, to ``json.loads`` of its line; ValueError naming the first
    malformed line, or the first line that is not UTF-8, by the file's name
    and line number.

    Consecutive lines often open with the same member (the 35 rows of a meta
    lead with its answer spec), so the text of the last leading object or
    array member is kept with its decoded value.  A line that opens with that
    text decodes only the rest, and its record shares the value, so records
    are to be read, not changed.  A key the rest repeats keeps its first place
    and takes its last value, as in ``json.loads``.  A line whose rest does
    not decode is decoded whole, for json's own error."""
    lead, key, value = " ", None, None  # no stripped line starts with a space
    lineno = 0
    try:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            # a line not led by the kept text, but by a key and "{" or "[", may set a new lead
            if not line.startswith(lead) and line.startswith(("{", "["), line.find('": ') + 3):
                lead, key, value = _leading_member(line) or (lead, key, value)
            rest = None
            if line.startswith(lead):
                try:
                    rest = _loads("{" + line[len(lead) - 1:])
                except (ValueError, RecursionError):
                    pass
            if rest is not None:
                record = {key: value, **rest}
            else:
                try:
                    record = _loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{fh.name}:{lineno}: malformed JSON line: {exc}") from None
            yield record
    except UnicodeDecodeError as exc:
        # a text file decodes its next chunk of bytes only once every line
        # before it is read, so count the chunk's newlines before the bad byte
        bad = lineno + 1 + exc.object.count(b"\n", 0, exc.start)
        raise ValueError(f"{fh.name}:{bad}: not UTF-8: {exc.reason}") from None


def read_jsonl(path) -> list[dict]:
    """The records of a JSONL file; ValueError naming the first malformed line."""
    with open(path, encoding="utf-8") as fh:
        return list(iter_jsonl(fh))


json_str = json.encoder.encode_basestring_ascii  # json.dumps of a str


def parse_hmetis(text: str) -> Hypergraph:
    """Parse the plain hMETIS hypergraph format.

    First non-comment line is ``<num_edges> <num_vertices> [fmt]``; each
    following line lists one hyperedge as 1-based vertex ids.  Lines starting
    with ``%`` are comments.  Only unweighted files (``fmt`` absent or 0) are
    read: a weighted file would have its weights taken as vertex ids.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("%")]
    if not lines:
        raise ValueError("empty hMETIS input")
    head = lines[0].split()
    if len(head) < 2:
        raise ValueError(f"bad hMETIS header: {lines[0]!r}")
    if len(head) > 2 and head[2] != "0":
        raise ValueError(f"hMETIS header field fmt is {head[2]!r}; only unweighted files (fmt 0) are supported")
    m, n = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"hMETIS header promises {m} hyperedges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        members = [int(tok) - 1 for tok in ln.split()]
        for v in members:
            if not (0 <= v < n):
                raise ValueError(f"hMETIS vertex id {v + 1} outside 1..{n}")
        edges.append(members)
    return Hypergraph(n, edges)


def load_hmetis(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return parse_hmetis(fh.read())
