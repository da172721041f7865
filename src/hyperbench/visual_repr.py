"""Deterministic geometric layouts and SVG rendering of the 5 visual formats.

Formats: Enc-Hy (vertices under a stress layout, hyperedges as translucent
convex hulls), Bi-Inc (two-row bipartite incidence drawing), Sh-Inc
(vertices on an inner circle, hyperedge nodes on an outer circle), St-Inc
(vertices on an outer circle, hyperedge nodes on a small inner ring),
Cli-Exp (spring layout of the clique expansion with per-pair edge-id labels).

All geometry is seeded and every float is emitted as "%.2f", so a given
(hypergraph, format, seed) always yields byte-identical SVG.

This is the one module that imports numpy when it is imported (``solve``'s
two oracles import it inside the function), and the rest of the package
imports this module only where an SVG is drawn.  ``VISUAL_FORMATS`` lives in
``core`` and is re-exported here, so that naming the formats costs no numpy
import.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .core import VISUAL_FORMATS, Hypergraph, ename, vname

# 12 high-contrast fills, cycled by hyperedge id.
PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46b8b0",
    "#f032e6", "#9a6324", "#800000", "#808000", "#000075", "#e09f3e",
)

VERTEX_FILL = "#1a1a1a"
SEGMENT_STROKE = "#555555"

# canvas and glyph sizes, in SVG user units
WIDTH = 1400.0
HEIGHT = 1100.0
MARGIN = 90.0
VERTEX_RADIUS = 20.0
SQUARE_HALF = 18.0
FONT_SIZE = 14.0


def edge_color(j: int) -> str:
    return PALETTE[j % len(PALETTE)]


# ---------------------------------------------------------------------------
# layouts (abstract coordinates; mapped onto the canvas by the renderers)
# ---------------------------------------------------------------------------


def _hop_distances(num_nodes: int, links) -> np.ndarray:
    """All-pairs BFS hop distances; disconnected pairs fall back to num_nodes."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    dist = np.full((num_nodes, num_nodes), float(num_nodes))
    for src in range(num_nodes):
        dist[src, src] = 0.0
        seen = {src}
        queue = deque([(src, 0)])
        while queue:
            node, d = queue.popleft()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    dist[src, nxt] = d + 1
                    queue.append((nxt, d + 1))
    return dist


def stress_energy(pos: np.ndarray, dist: np.ndarray, weight: np.ndarray) -> float:
    delta = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((delta**2).sum(axis=2))
    off = ~np.eye(len(pos), dtype=bool)
    return float((weight[off] * (d[off] - dist[off]) ** 2).sum() / 2.0)


def layout_stress(num_nodes: int, links, seed: int = 0) -> np.ndarray:
    """Minimize sum_{i<j} w_ij (|p_i - p_j| - d_ij)^2, w_ij = d_ij^-2.

    Seeded random start, gradient descent with a backtracking line search;
    stops on relative energy change below 1e-4 or after 500 iterations.
    """
    if num_nodes == 1:
        return np.zeros((1, 2))
    rng = np.random.default_rng(seed & 0xFFFFFFFF)
    pos = rng.standard_normal((num_nodes, 2))
    dist = _hop_distances(num_nodes, links)
    weight = 1.0 / np.maximum(dist, 1e-9) ** 2
    np.fill_diagonal(weight, 0.0)
    energy = stress_energy(pos, dist, weight)
    for _ in range(500):
        delta = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((delta**2).sum(axis=2))
        np.fill_diagonal(d, 1.0)
        coeff = 2.0 * weight * (d - dist) / d
        np.fill_diagonal(coeff, 0.0)
        grad = (coeff[:, :, None] * delta).sum(axis=1)
        gnorm2 = float((grad**2).sum())
        if gnorm2 < 1e-18:
            break
        step = 0.25
        while step > 1e-12:
            trial = pos - step * grad
            trial_energy = stress_energy(trial, dist, weight)
            if trial_energy <= energy - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            break
        pos, old_energy, energy = trial, energy, trial_energy
        if old_energy > 0 and (old_energy - energy) / old_energy < 1e-4:
            break
    return pos


def layout_spring(num_nodes: int, links, seed: int = 0) -> np.ndarray:
    """Fruchterman-Reingold with k = 2: repulsion k^2/d between all pairs,
    attraction d^2/k along links, 100 steps of linear cooling; final extent
    rescaled to 3."""
    k, iterations, scale = 2.0, 100, 3.0
    rng = np.random.default_rng(seed & 0xFFFFFFFF)
    pos = rng.uniform(0.0, 1.0, (num_nodes, 2))
    if num_nodes == 1:
        return np.zeros((1, 2))
    adj = np.zeros((num_nodes, num_nodes))
    for a, b in links:
        adj[a, b] = 1.0
        adj[b, a] = 1.0
    t = 0.1
    dt = t / (iterations + 1)
    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((delta**2).sum(axis=2))
        np.clip(d, 0.01, None, out=d)
        force = k * k / d**2 - adj * d / k
        disp = (delta * force[:, :, None]).sum(axis=1)
        length = np.sqrt((disp**2).sum(axis=1))
        np.clip(length, 0.01, None, out=length)
        pos = pos + disp / length[:, None] * np.minimum(length, t)[:, None]
        t -= dt
    pos = pos - pos.mean(axis=0)
    lim = np.abs(pos).max()
    if lim > 0:
        pos = pos * (scale / lim)
    return pos


def ring_positions(count: int, radius: float) -> np.ndarray:
    """``count`` points evenly on a circle, first at angle 0, id order CCW."""
    angles = 2.0 * np.pi * np.arange(count) / max(count, 1)
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def layout_rows(num_top: int, num_bottom: int, width: float, height: float):
    """Evenly spaced points on two horizontal lines at 0.15/0.85 of height."""
    top = np.array([[width * (i + 1) / (num_top + 1), height * 0.15] for i in range(num_top)])
    bottom = np.array(
        [[width * (i + 1) / (num_bottom + 1), height * 0.85] for i in range(num_bottom)]
    )
    return top, bottom


def convex_hull(points) -> list[tuple[float, float]]:
    """Counter-clockwise convex hull (monotone chain); collinear points dropped.

    Degenerate (all-collinear) input yields fewer than 3 output points.
    """
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(points) < 3:
        raise ValueError("convex hull needs at least 3 points")
    if len(pts) == 1:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# SVG assembly
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _fit_to_box(pos: np.ndarray, box: tuple[float, float, float, float]) -> np.ndarray:
    """Scale/translate abstract coordinates into a canvas box, keeping aspect."""
    x0, y0, w, h = box
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = min((w - 2 * MARGIN) / span[0], (h - 2 * MARGIN) / span[1])
    center = (lo + hi) / 2.0
    out = (pos - center) * scale
    out[:, 0] += x0 + w / 2.0
    out[:, 1] += y0 + h / 2.0
    return out


def _text(x, y, label, fill) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" dy="0.35em" text-anchor="middle" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="{_fmt(FONT_SIZE)}" '
        f'fill="{fill}">{label}</text>'
    )


def _vertex_node(x, y, v) -> list[str]:
    return [
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(VERTEX_RADIUS)}" fill="{VERTEX_FILL}"/>',
        _text(x, y, vname(v), "#ffffff"),
    ]


def _edge_square(x, y, j) -> list[str]:
    s = SQUARE_HALF
    return [
        f'<rect x="{_fmt(x - s)}" y="{_fmt(y - s)}" width="{_fmt(2 * s)}" height="{_fmt(2 * s)}" '
        f'fill="{edge_color(j)}"/>',
        _text(x, y, ename(j), "#ffffff"),
    ]


def _label_box(x, y, label, stroke) -> list[str]:
    w = max(34.0, 10.0 + 7.2 * len(label))
    hh = 22.0
    return [
        f'<rect x="{_fmt(x - w / 2)}" y="{_fmt(y - hh / 2)}" width="{_fmt(w)}" height="{_fmt(hh)}" '
        f'fill="#ffffff" stroke="{stroke}" stroke-width="1"/>',
        _text(x, y, label, "#000000"),
    ]


def _membership_line(p, q, color) -> str:
    return (
        f'<line class="membership" x1="{_fmt(p[0])}" y1="{_fmt(p[1])}" '
        f'x2="{_fmt(q[0])}" y2="{_fmt(q[1])}" stroke="{color}" stroke-width="2"/>'
    )


def _scene_enc_hy(h: Hypergraph, seed: int, box) -> list[str]:
    pos = layout_stress(h.n, h.vertex_pairs(), seed)
    pos = _fit_to_box(pos, box)
    parts: list[str] = []
    for j, members in enumerate(h.edges):
        color = edge_color(j)
        pts = [(pos[v][0], pos[v][1]) for v in members]
        centroid = (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))
        hull = convex_hull(pts) if len(members) >= 3 else []
        if len(hull) >= 3:
            # expand about the centroid so hull borders clear the vertex disks
            expanded = [
                (centroid[0] + (px - centroid[0]) * 1.18, centroid[1] + (py - centroid[1]) * 1.18)
                for px, py in hull
            ]
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in expanded)
            parts.append(
                f'<polygon points="{coords}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        else:
            ends = (min(pts), max(pts))
            parts.append(
                f'<line x1="{_fmt(ends[0][0])}" y1="{_fmt(ends[0][1])}" '
                f'x2="{_fmt(ends[1][0])}" y2="{_fmt(ends[1][1])}" stroke="{color}" '
                f'stroke-width="26" stroke-opacity="0.15" stroke-linecap="round"/>'
            )
        parts.extend(_label_box(centroid[0], centroid[1], ename(j), color))
    for v in range(h.n):
        parts.extend(_vertex_node(pos[v][0], pos[v][1], v))
    return parts


def _incidence_parts(h: Hypergraph, vpos, epos) -> list[str]:
    """Membership lines, then vertex disks at ``vpos``, then hyperedge squares at ``epos``."""
    parts: list[str] = []
    for j, members in enumerate(h.edges):
        for v in members:
            parts.append(_membership_line(vpos[v], epos[j], edge_color(j)))
    for v in range(h.n):
        parts.extend(_vertex_node(vpos[v][0], vpos[v][1], v))
    for j in range(h.num_edges):
        parts.extend(_edge_square(epos[j][0], epos[j][1], j))
    return parts


def _scene_bi_inc(h: Hypergraph, seed: int, box) -> list[str]:
    x0, y0, w, hh = box
    top, bottom = layout_rows(h.n, h.num_edges, w, hh)
    return _incidence_parts(h, top + np.array([x0, y0]), bottom + np.array([x0, y0]))


def _scene_shell(h: Hypergraph, seed: int, box, vertex_ratio: float, edge_ratio: float) -> list[str]:
    """Vertices and hyperedge nodes on two concentric rings, their radii given
    as fractions of the largest ring that fits the box."""
    x0, y0, w, hh = box
    radius = min(w, hh) / 2.0 - MARGIN
    center = np.array([x0 + w / 2.0, y0 + hh / 2.0])
    vpos = ring_positions(h.n, radius * vertex_ratio) + center
    epos = ring_positions(h.num_edges, radius * edge_ratio) + center
    return _incidence_parts(h, vpos, epos)


def _scene_cli_exp(h: Hypergraph, seed: int, box) -> list[str]:
    containing = h.pair_edges()
    pairs = tuple(containing)
    pos = layout_spring(h.n, pairs, seed=seed)
    pos = _fit_to_box(pos, box)
    parts: list[str] = []
    for a, b in pairs:
        parts.append(
            f'<line class="pair-edge" x1="{_fmt(pos[a][0])}" y1="{_fmt(pos[a][1])}" '
            f'x2="{_fmt(pos[b][0])}" y2="{_fmt(pos[b][1])}" stroke="{SEGMENT_STROKE}" stroke-width="2"/>'
        )
    for (a, b), ids in containing.items():
        mid = ((pos[a][0] + pos[b][0]) / 2.0, (pos[a][1] + pos[b][1]) / 2.0)
        label = ",".join(ename(j) for j in ids)
        parts.extend(_label_box(mid[0], mid[1], label, SEGMENT_STROKE))
    for v in range(h.n):
        parts.extend(_vertex_node(pos[v][0], pos[v][1], v))
    return parts


_SCENES = {
    "Enc-Hy": _scene_enc_hy,
    "Bi-Inc": _scene_bi_inc,
    "Sh-Inc": lambda h, seed, box: _scene_shell(h, seed, box, 0.5, 1.0),
    "St-Inc": lambda h, seed, box: _scene_shell(h, seed, box, 1.0, 0.15),
    "Cli-Exp": _scene_cli_exp,
}


def _document(parts: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">\n'
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(parts) + "\n</svg>\n"


def render_svg(h: Hypergraph, fmt: str, seed: int = 0) -> str:
    if fmt not in _SCENES:
        raise ValueError(f"unknown visual format {fmt!r}; expected one of {VISUAL_FORMATS}")
    box = (0.0, 0.0, WIDTH, HEIGHT)
    return _document(_SCENES[fmt](h, seed, box))


def render_svg_pair(a: Hypergraph, b: Hypergraph, fmt: str, seed: int = 0) -> str:
    """Two hypergraphs side by side in one canvas with a shared layout seed,
    so isomorphic pairs tend to look alike."""
    if fmt not in _SCENES:
        raise ValueError(f"unknown visual format {fmt!r}; expected one of {VISUAL_FORMATS}")
    half = WIDTH / 2.0
    parts = _SCENES[fmt](a, seed, (0.0, 0.0, half, HEIGHT))
    parts.append(
        f'<line x1="{_fmt(half)}" y1="0" x2="{_fmt(half)}" y2="{_fmt(HEIGHT)}" '
        f'stroke="#cccccc" stroke-width="2" stroke-dasharray="8,8"/>'
    )
    parts.extend(_SCENES[fmt](b, seed, (half, 0.0, half, HEIGHT)))
    return _document(parts)
