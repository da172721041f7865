"""Answer, corpus and SVG checkers written apart from hyperbench.

Nothing here imports the program.  Each task's ground truth is re-derived
from the manifest's ``answer_spec.graph`` and ``params`` with code of its
own: direct counts, a Dijkstra over hyperedges for OSP, an augmenting-path
max flow for OMF, a backtracking isomorphism search for ISM, and reachable
state searches for the 3-CL / SHC / HHM certificates.
"""

from __future__ import annotations

import heapq
import json
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict

TASKS = ("VC", "HEC", "Ne", "DVC", "OEC", "ONe", "OSP", "OMF", "ISM", "3-CL", "SHC", "HHM")
UNDERSTANDING = TASKS[:6]
REASONING = TASKS[6:]
TEXT_FORMATS = ("LO-Inc", "N-Pair", "Adj-Mat", "HO-Neigh", "HO-Inc", "N-Set", "Inc-Mat")
VISUAL_FORMATS = ("Enc-Hy", "Bi-Inc", "Sh-Inc", "St-Inc", "Cli-Exp")
COMBOS = tuple((t, v) for t in TEXT_FORMATS for v in VISUAL_FORMATS)
SCALE_BANDS = {"small": (5, 10), "medium": (10, 15), "large": (15, 20)}
KIND_OF_TASK = {
    "VC": "count", "HEC": "count", "DVC": "count", "OEC": "count",
    "Ne": "vertex_set", "ONe": "vertex_set", "OSP": "path_weight", "OMF": "flow",
    "ISM": "yes_no", "3-CL": "coloring", "SHC": "cycle", "HHM": "path",
}


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own derivation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# graph facts
# ---------------------------------------------------------------------------


def graph_of(obj: dict) -> tuple[int, list[tuple[int, ...]]]:
    n, edges = obj["n"], [tuple(e) for e in obj["edges"]]
    require(isinstance(n, int) and n >= 1, f"bad vertex count {n!r}")
    for e in edges:
        require(len(e) >= 2 and len(set(e)) == len(e), f"bad hyperedge {e}")
        require(all(0 <= v < n for v in e), f"hyperedge {e} leaves 0..{n - 1}")
    return n, edges


def connected(n: int, edges) -> bool:
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for v in e[1:]:
            parent[root(v)] = root(e[0])
    return len({root(v) for v in range(n)}) == 1


def neighbours(edges, u: int, min_order: int = 0) -> list[int]:
    out = {v for e in edges if u in e and len(e) >= min_order for v in e}
    out.discard(u)
    return sorted(out)


def osp_weight(edges, s: int, t: int) -> int | None:
    """Least total order of a chain of hyperedges from one holding s to one
    holding t, consecutive hyperedges sharing a vertex."""
    best = {}
    heap = [(len(e), j) for j, e in enumerate(edges) if s in e]
    heapq.heapify(heap)
    while heap:
        w, j = heapq.heappop(heap)
        if j in best:
            continue
        best[j] = w
        if t in edges[j]:
            return w
        members = set(edges[j])
        for k, f in enumerate(edges):
            if k not in best and members.intersection(f):
                heapq.heappush(heap, (w + len(f), k))
    return None


def osp_witness_ok(edges, s: int, t: int, witness, weight: int) -> bool:
    if not witness or not all(0 <= j < len(edges) for j in witness):
        return False
    chain = [set(edges[j]) for j in witness]
    return (
        s in chain[0]
        and t in chain[-1]
        and all(a & b for a, b in zip(chain, chain[1:]))
        and sum(len(c) for c in chain) == weight
    )


def max_flow(n: int, edges, s: int, t: int) -> int:
    """Augmenting paths (depth first) on the vertex/hyperedge incidence
    network, each membership an undirected arc of capacity |e|."""
    residual: dict[int, dict[int, int]] = defaultdict(dict)
    for j, e in enumerate(edges):
        node = n + j
        for v in e:
            residual[v][node] = residual[v].get(node, 0) + len(e)
            residual[node][v] = residual[node].get(v, 0) + len(e)
    total = 0
    while True:
        prev = {s: None}
        stack = [s]
        while stack and t not in prev:
            u = stack.pop()
            for w, cap in residual[u].items():
                if cap > 0 and w not in prev:
                    prev[w] = u
                    stack.append(w)
        if t not in prev:
            return total
        path = []
        w = t
        while prev[w] is not None:
            path.append((prev[w], w))
            w = prev[w]
        push = min(residual[u][w] for u, w in path)
        for u, w in path:
            residual[u][w] -= push
            residual[w][u] = residual[w].get(u, 0) + push
        total += push


def isomorphic(a, b) -> bool:
    """Vertex bijection mapping a's hyperedge multiset onto b's, found by
    backtracking over invariant-compatible candidates."""
    (na, ea), (nb, eb) = a, b
    if na != nb or sorted(map(len, ea)) != sorted(map(len, eb)):
        return False

    def signatures(n, edges):
        return [tuple(sorted(len(e) for e in edges if v in e)) for v in range(n)]

    sig_a, sig_b = signatures(na, ea), signatures(nb, eb)
    if sorted(sig_a) != sorted(sig_b):
        return False
    # map vertices in order of first appearance along the hyperedges, so
    # hyperedges close (become fully mapped) as early as possible
    order = list(dict.fromkeys(v for e in sorted(ea, key=len, reverse=True) for v in e))
    order += [v for v in range(na) if v not in order]
    pos = {v: i for i, v in enumerate(order)}
    closing = defaultdict(list)
    for e in ea:
        closing[max(e, key=pos.__getitem__)].append(e)
    remaining = Counter(tuple(sorted(e)) for e in eb)
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(nb):
            if w in used or sig_b[w] != sig_a[v]:
                continue
            image[v] = w
            used.add(w)
            taken = []
            ok = True
            for e in closing[v]:
                key = tuple(sorted(image[x] for x in e))
                if remaining[key] == 0:
                    ok = False
                    break
                remaining[key] -= 1
                taken.append(key)
            if ok and extend(i + 1):
                return True
            for key in taken:
                remaining[key] += 1
            used.discard(w)
            del image[v]
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def ids_in(text: str, prefix: str) -> list[int]:
    return [int(x) for x in re.findall(prefix + r"(\d+)", text)]


def coloring_of(text: str) -> dict[int, int]:
    return {int(v): int(c) for v, c in re.findall(r"v(\d+):c([012])", text)}


def coloring_ok(n: int, edges, colors: dict[int, int]) -> bool:
    return sorted(colors) == list(range(n)) and all(len({colors[v] for v in e}) >= 2 for e in edges)


def cycle_ok(edges, seq) -> bool:
    if len(seq) < 2 or len(set(seq)) != len(seq) or not all(0 <= j < len(edges) for j in seq):
        return False
    return all(len(set(edges[a]) & set(edges[b])) == 1 for a, b in zip(seq, seq[1:] + seq[:1]))


def hhm_ok(n: int, edges, seq, s: int, t: int) -> bool:
    """Some order s=v0..v_{n-1}=t visits every vertex once, step i inside
    hyperedge seq[i]: a search over reachable (step, vertex, visited) states."""
    if s == t or len(seq) != n - 1 or not all(0 <= j < len(edges) for j in seq):
        return False
    frontier = {(s, 1 << s)}
    for j in seq:
        members = edges[j]
        frontier = {
            (w, mask | (1 << w))
            for v, mask in frontier
            if v in members
            for w in members
            if not mask >> w & 1
        }
    return any(v == t for v, _ in frontier)


# ---------------------------------------------------------------------------
# one answer
# ---------------------------------------------------------------------------


def check_answer(task: str, spec: dict) -> None:
    """Re-derive one meta's answer from its graph and params; raise on any
    disagreement with ``spec``."""
    kind, value, p = spec["kind"], spec["value"], spec["params"]
    require(kind == KIND_OF_TASK[task], f"{task}: answer kind {kind}")
    n, edges = graph_of(spec["graph"])
    for name in ("u", "s", "t"):
        if name in p:
            require(0 <= p[name] < n, f"{task}: param {name}={p[name]} outside 0..{n - 1}")
    if task == "VC":
        want = n
    elif task == "HEC":
        want = len(edges)
    elif task == "Ne":
        want = neighbours(edges, p["u"])
    elif task == "ONe":
        want = neighbours(edges, p["u"], p["k"])
    elif task == "DVC":
        want = sum(1 for v in range(n) if sum(v in e for e in edges) == p["d"])
    elif task == "OEC":
        want = sum(1 for e in edges if len(e) == p["k"])
    elif task == "OSP":
        want = osp_weight(edges, p["s"], p["t"])
        if want is not None:
            require(osp_witness_ok(edges, p["s"], p["t"], spec["witness"], want),
                    f"OSP witness {spec['witness']} is no path of weight {want}")
    elif task == "OMF":
        want = max_flow(n, edges, p["s"], p["t"])
    elif task == "ISM":
        want = isomorphic((n, edges), graph_of(spec["graph_b"]))
    elif task == "3-CL":
        require(coloring_ok(n, edges, coloring_of(value)), f"3-CL certificate {value} invalid")
        return
    elif task == "SHC":
        require(cycle_ok(edges, ids_in(value, "e")), f"SHC certificate {value} invalid")
        return
    else:
        require(hhm_ok(n, edges, ids_in(value, "e"), p["s"], p["t"]),
                f"HHM certificate {value} invalid for s={p['s']} t={p['t']}")
        return
    require(value == want, f"{task}: manifest says {value!r}, checker says {want!r}")


# ---------------------------------------------------------------------------
# a whole manifest
# ---------------------------------------------------------------------------


def expected_split(count: int, weights) -> list[tuple[int, int]]:
    """Per label, the (floor, ceil) of its exact share of ``count``."""
    total = sum(weights)
    return [(count * w // total, -(-count * w // total)) for w in weights]


def check_manifest(path, per_task: int, scale_mix=(1, 2, 1), source_mix=(1, 1)) -> dict:
    """Check every row of a manifest; return the metas' make-up and answers
    keyed by meta id (used again by the image and grading checks)."""
    metas: dict[str, dict] = {}
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            sid = row["sample_id"]
            require(sid not in seen, f"duplicate sample id {sid}")
            seen.add(sid)
            meta_id, text_fmt, visual_fmt = sid.split("__")
            require(
                (row["meta_id"], row["text_format"], row["visual_format"]) == (meta_id, text_fmt, visual_fmt),
                f"{sid}: fields disagree with the sample id",
            )
            require(row["image_path"] == f"images/{sid}.svg", f"{sid}: image path {row['image_path']}")
            meta = metas.get(meta_id)
            if meta is None:
                task = row["task"]
                require(meta_id.startswith(task + "-"), f"{sid}: task {task}")
                require(row["level"] == TASKS.index(task) // 3 + 1, f"{sid}: level {row['level']}")
                spec = row["answer_spec"]
                n, edges = graph_of(spec["graph"])
                lo, hi = SCALE_BANDS[row["scale"]]
                require(lo <= n <= hi, f"{meta_id}: {n} vertices outside the {row['scale']} band")
                require(connected(n, edges), f"{meta_id}: graph not connected")
                if "graph_b" in spec:
                    nb, eb = graph_of(spec["graph_b"])
                    require(nb == n and connected(nb, eb), f"{meta_id}: second graph bad")
                check_answer(task, spec)
                meta = metas[meta_id] = {
                    "task": task, "scale": row["scale"], "source": row["source"], "spec": spec,
                    "ho_neigh_prompt": None, "combos": set(),
                    "graphs": [(n, edges)] + ([graph_of(spec["graph_b"])] if "graph_b" in spec else []),
                }
            else:
                require(
                    (row["task"], row["scale"], row["source"], row["answer_spec"])
                    == (meta["task"], meta["scale"], meta["source"], meta["spec"]),
                    f"{sid}: differs from the other rows of {meta_id}",
                )
            require("Q: " in row["prompt"], f"{sid}: prompt has no question")
            if text_fmt == "HO-Neigh":
                meta["ho_neigh_prompt"] = row["prompt"]
            meta["combos"].add((text_fmt, visual_fmt))
    require(len(metas) == per_task * len(TASKS), f"{len(metas)} metas, want {per_task * len(TASKS)}")
    require(len(seen) == 35 * len(metas), f"{len(seen)} samples, want {35 * len(metas)}")
    for meta_id, meta in metas.items():
        require(meta["combos"] == set(COMBOS), f"{meta_id}: {len(meta['combos'])} of 35 combos")
    for task in TASKS:
        mine = [m for m in metas.values() if m["task"] == task]
        require(len(mine) == per_task, f"{task}: {len(mine)} metas")
        for labels, mix, key in ((tuple(SCALE_BANDS), scale_mix, "scale"), (("synthetic", "real"), source_mix, "source")):
            got = Counter(m[key] for m in mine)
            for label, (lo, hi) in zip(labels, expected_split(per_task, mix)):
                require(lo <= got[label] <= hi, f"{task}: {got[label]} {label} metas, want {lo}..{hi}")
    return metas


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------


def expected_labels(visual: str, graphs) -> Counter:
    labels: Counter = Counter()
    for n, edges in graphs:
        labels.update(f"v{v}" for v in range(n))
        if visual == "Cli-Exp":
            holders = defaultdict(list)
            for j, e in enumerate(edges):
                for a in range(len(e)):
                    for b in range(a + 1, len(e)):
                        holders[(e[a], e[b])].append(j)
            labels.update(",".join(f"e{j}" for j in js) for js in holders.values())
        else:
            labels.update(f"e{j}" for j in range(len(edges)))
    return labels


def check_svg(data: bytes, visual: str, graphs, where: str) -> None:
    """The image parses as SVG and its labels and segments match the graph(s)."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckError(f"{where}: not XML ({exc})") from None
    ns = "{http://www.w3.org/2000/svg}"
    require(root.tag == ns + "svg", f"{where}: root element {root.tag}")
    texts = Counter(el.text for el in root.iter(ns + "text"))
    require(texts == expected_labels(visual, graphs), f"{where}: labels differ from the graph")
    lines = Counter(el.get("class") for el in root.iter(ns + "line") if el.get("stroke-dasharray") is None)
    if visual == "Cli-Exp":
        pairs = sum(len({(e[a], e[b]) for e in edges for a in range(len(e)) for b in range(a + 1, len(e))})
                    for _, edges in graphs)
        require(lines["pair-edge"] == pairs, f"{where}: {lines['pair-edge']} pair segments, want {pairs}")
    elif visual == "Enc-Hy":
        shapes = lines[None] + sum(1 for _ in root.iter(ns + "polygon"))
        want = sum(len(edges) for _, edges in graphs)
        require(shapes == want, f"{where}: {shapes} hyperedge shapes, want {want}")
    else:
        want = sum(len(e) for _, edges in graphs for e in edges)
        require(lines["membership"] == want, f"{where}: {lines['membership']} membership segments, want {want}")


def check_images(corpus, metas: dict) -> None:
    """Every (meta, visual) image is written once per text format, the seven
    copies are byte-identical, and the image matches its graph(s)."""
    images = corpus / "images"
    names = set(p.name for p in images.iterdir())
    require(len(names) == 35 * len(metas), f"{len(names)} image files, want {35 * len(metas)}")
    for meta_id, meta in metas.items():
        for visual in VISUAL_FORMATS:
            blobs = {(images / f"{meta_id}__{t}__{visual}.svg").read_bytes() for t in TEXT_FORMATS}
            require(len(blobs) == 1, f"{meta_id} {visual}: the 7 copies differ")
            check_svg(blobs.pop(), visual, meta["graphs"], f"{meta_id} {visual}")
