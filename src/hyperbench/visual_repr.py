"""Deterministic geometric layouts and SVG rendering of the 5 visual formats.

Formats: Enc-Hy (vertices under a stress layout, hyperedges as translucent
convex hulls), Bi-Inc (two-row bipartite incidence drawing), Sh-Inc
(vertices on an inner circle, hyperedge nodes on an outer circle), St-Inc
(vertices on an outer circle, hyperedge nodes on a small inner ring),
Cli-Exp (spring layout of the clique expansion with per-pair edge-id labels).

All geometry is seeded and every float is emitted as "%.2f", so a given
(hypergraph, format, seed) always yields byte-identical SVG.

Each format's scene is a layout step and a drawing step.  The layout step
places the vertices (and hyperedge nodes) and fits them to the canvas box,
converting the positions once, with ``.tolist()``, to Python floats; the
drawing step formats each point once and writes the SVG elements.  The two
force layouts can be computed ahead and passed in (``render_svg``'s
``layout``, ``render_svg_pair``'s ``layouts``), so that a caller drawing many
hypergraphs lays out their spring graphs together: ``layout_springs`` runs
several as one padded ``(B, N, N)`` problem.  Batching and padding change no
bit of any graph's positions.  Every operation is elementwise except the
sums; the sums over a point's partners run along an outer axis, which numpy
adds in index order, and a padded point adds zeros after the real ones.
``layout_spring`` is a batch of one, and the tests compare both layouts
with the kernels they replaced, at every size up to 20 vertices.

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


def layout_stress(num_nodes: int, links, seed: int = 0) -> np.ndarray:
    """Minimize sum_{i<j} w_ij (|p_i - p_j| - d_ij)^2, w_ij = d_ij^-2.

    Seeded random start, gradient descent with a backtracking line search;
    stops on relative energy change below 1e-4 or after 500 iterations.

    The energy's off-diagonal mask and masked weights are made once.  The
    coordinate differences are kept as two ``[j, i]`` arrays, ``x_i - x_j``
    and ``y_i - y_j``; the distances are symmetric, so each gradient sum over
    ``j`` runs along the outer axis, in index order, as it did over
    ``(n, n, 2)`` differences, and the positions are the same bits.
    The differences and distances of the trial a line search accepts are
    those of the next gradient, so they are kept, not computed again.
    """
    if num_nodes == 1:
        return np.zeros((1, 2))
    rng = np.random.default_rng(seed & 0xFFFFFFFF)
    pos = rng.standard_normal((num_nodes, 2))
    dist = _hop_distances(num_nodes, links)
    weight = 1.0 / np.maximum(dist, 1e-9) ** 2
    np.fill_diagonal(weight, 0.0)
    off = ~np.eye(num_nodes, dtype=bool)
    weight_off, dist_off = weight[off], dist[off]
    weight2 = 2.0 * weight

    def measure(p):
        """The stress of positions ``p``, with the differences and distances it came from."""
        dx = p[None, :, 0] - p[:, None, 0]
        dy = p[None, :, 1] - p[:, None, 1]
        d = np.sqrt(dx * dx + dy * dy)
        return float((weight_off * (d[off] - dist_off) ** 2).sum() / 2.0), dx, dy, d

    energy, dx, dy, d = measure(pos)
    grad = np.empty((num_nodes, 2))
    for _ in range(500):
        np.fill_diagonal(d, 1.0)
        # the diagonal is 0 * (1 - 0) / 1 = 0, since the weights' diagonal is 0
        coeff = weight2 * (d - dist) / d
        grad[:, 0] = (coeff * dx).sum(axis=0)
        grad[:, 1] = (coeff * dy).sum(axis=0)
        gnorm2 = float((grad**2).sum())
        if gnorm2 < 1e-18:
            break
        step = 0.25
        while step > 1e-12:
            trial = pos - step * grad
            trial_energy, *trial_differences = measure(trial)
            if trial_energy <= energy - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            break
        pos, old_energy, energy = trial, energy, trial_energy
        dx, dy, d = trial_differences
        if old_energy > 0 and (old_energy - energy) / old_energy < 1e-4:
            break
    return pos


def layout_springs(graphs) -> list[np.ndarray]:
    """Fruchterman-Reingold with k = 2 of each ``(n, links, seed)`` in
    ``graphs``: repulsion k^2/d between all pairs, attraction d^2/k along
    links, 100 steps of linear cooling; final extent rescaled to 3.  The
    graphs are laid out together, as one ``(B, N, N)`` problem.

    A graph smaller than the largest is padded with points that no force
    touches: the repulsion numerator is k^2 between two real points and 0
    wherever a padded one is involved, and only real points are linked.

    The coordinates are kept as two ``(B, N)`` arrays and their differences
    as ``[b, j, i]`` arrays of ``x_i - x_j`` and ``y_i - y_j``.  The forces
    are symmetric, so each point's displacement is summed over ``j`` along an
    outer axis, in index order, as over ``(N, N, 2)`` differences, with a
    padded point's zero terms last.  So every graph's positions are the bits
    of laying it out alone, whatever else shares its batch.
    """
    k, iterations, scale = 2.0, 100, 3.0
    graphs = list(graphs)
    size = max((n for n, _, _ in graphs), default=0)
    x = np.zeros((len(graphs), size))
    y = np.zeros((len(graphs), size))
    repulsion = np.zeros((len(graphs), size, size))
    adj = np.zeros((len(graphs), size, size))
    for b, (n, links, seed) in enumerate(graphs):
        rng = np.random.default_rng(seed & 0xFFFFFFFF)
        start = rng.uniform(0.0, 1.0, (n, 2))
        x[b, :n] = start[:, 0]
        y[b, :n] = start[:, 1]
        repulsion[b, :n, :n] = k * k
        for i, j in links:
            adj[b, i, j] = 1.0
            adj[b, j, i] = 1.0
    t = 0.1
    dt = t / (iterations + 1)
    for _ in range(iterations):
        dx = x[:, None, :] - x[:, :, None]
        dy = y[:, None, :] - y[:, :, None]
        d = np.sqrt(dx * dx + dy * dy)
        np.clip(d, 0.01, None, out=d)
        force = repulsion / d**2 - adj * d / k
        disp_x = (dx * force).sum(axis=1)
        disp_y = (dy * force).sum(axis=1)
        length = np.sqrt(disp_x * disp_x + disp_y * disp_y)
        np.clip(length, 0.01, None, out=length)
        move = np.minimum(length, t)
        x = x + disp_x / length * move
        y = y + disp_y / length * move
        t -= dt
    out = []
    for b, (n, _, _) in enumerate(graphs):
        if n == 1:
            out.append(np.zeros((1, 2)))
            continue
        pos = np.stack([x[b, :n], y[b, :n]], axis=1)
        pos = pos - pos.mean(axis=0)
        lim = np.abs(pos).max()
        if lim > 0:
            pos = pos * (scale / lim)
        out.append(pos)
    return out


def layout_spring(num_nodes: int, links, seed: int = 0) -> np.ndarray:
    """The spring layout of one graph: ``layout_springs`` of a batch of one."""
    return layout_springs([(num_nodes, links, seed)])[0]


def ring_positions(count: int, radius: float) -> np.ndarray:
    """``count`` points evenly on a circle, first at angle 0, id order CCW."""
    angles = 2.0 * np.pi * np.arange(count) / max(count, 1)
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def layout_rows(num_top: int, num_bottom: int, width: float, height: float):
    """Evenly spaced points on two horizontal lines at 0.15/0.85 of height,
    each row of shape ``(count, 2)``, an empty one included."""

    def row(count: int, y: float):
        return np.array([[width * (i + 1) / (count + 1), y] for i in range(count)]).reshape(count, 2)

    return row(num_top, height * 0.15), row(num_bottom, height * 0.85)


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


# The drawing steps format each coordinate of a vertex or hyperedge node once,
# as "%.2f" of a Python float, and reuse the text wherever the point is drawn.
_TEXT_FONT = f'font-family="Helvetica, Arial, sans-serif" font-size="{_fmt(FONT_SIZE)}"'
_DISK = f'r="{_fmt(VERTEX_RADIUS)}" fill="{VERTEX_FILL}"'
_SQUARE_SIZE = f'width="{_fmt(2 * SQUARE_HALF)}" height="{_fmt(2 * SQUARE_HALF)}"'


def _formatted(points) -> list[tuple[str, str]]:
    return [(f"{x:.2f}", f"{y:.2f}") for x, y in points]


def _text(x: str, y: str, label, fill) -> str:
    """A centered label at formatted coordinates."""
    return f'<text x="{x}" y="{y}" dy="0.35em" text-anchor="middle" {_TEXT_FONT} fill="{fill}">{label}</text>'


def _vertex_nodes(vxy) -> list[str]:
    parts: list[str] = []
    for v, (x, y) in enumerate(vxy):
        parts.append(f'<circle cx="{x}" cy="{y}" {_DISK}/>')
        parts.append(_text(x, y, vname(v), "#ffffff"))
    return parts


def _label_box(x: float, y: float, label, stroke) -> list[str]:
    w = max(34.0, 10.0 + 7.2 * len(label))
    hh = 22.0
    return [
        f'<rect x="{_fmt(x - w / 2)}" y="{_fmt(y - hh / 2)}" width="{_fmt(w)}" height="{_fmt(hh)}" '
        f'fill="#ffffff" stroke="{stroke}" stroke-width="1"/>',
        _text(_fmt(x), _fmt(y), label, "#000000"),
    ]


# Each scene is a layout step and a drawing step.  The layout step maps
# (h, seed, box, layout) to positions fitted to the canvas box, as lists of
# [x, y] floats: a vertex list for the force formats, (vertices, hyperedges)
# for the incidence ones.  ``layout`` is a force format's abstract layout
# already computed, or None to compute it here.  The drawing step maps (h,
# positions) to SVG elements.


def _force_placement(layout_fn):
    """The layout step of a format whose vertices go where ``layout_fn`` puts
    them, given the vertex pairs that share a hyperedge."""

    def place(h: Hypergraph, seed: int, box, layout) -> list[list[float]]:
        if layout is None:
            layout = layout_fn(h.n, h.vertex_pairs(), seed)
        return _fit_to_box(layout, box).tolist()

    return place


def _draw_enc_hy(h: Hypergraph, pos) -> list[str]:
    parts: list[str] = []
    for j, members in enumerate(h.edges):
        color = edge_color(j)
        pts = [pos[v] for v in members]
        centroid = (sum(p[0] for p in pts) / len(pts), sum(p[1] for p in pts) / len(pts))
        hull = convex_hull(pts) if len(members) >= 3 else []
        if len(hull) >= 3:
            # expand about the centroid so hull borders clear the vertex disks
            expanded = [
                (centroid[0] + (px - centroid[0]) * 1.18, centroid[1] + (py - centroid[1]) * 1.18)
                for px, py in hull
            ]
            coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in expanded)
            parts.append(
                f'<polygon points="{coords}" fill="{color}" fill-opacity="0.15" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        else:
            (x1, y1), (x2, y2) = min(pts), max(pts)
            parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="{color}" '
                f'stroke-width="26" stroke-opacity="0.15" stroke-linecap="round"/>'
            )
        parts.extend(_label_box(centroid[0], centroid[1], ename(j), color))
    parts.extend(_vertex_nodes(_formatted(pos)))
    return parts


def _draw_incidence(h: Hypergraph, positions) -> list[str]:
    """Membership lines, then vertex disks, then hyperedge squares."""
    vpos, epos = positions
    vxy, exy = _formatted(vpos), _formatted(epos)
    parts: list[str] = []
    for j, members in enumerate(h.edges):
        ex, ey = exy[j]
        color = edge_color(j)
        for v in members:
            vx, vy = vxy[v]
            parts.append(
                f'<line class="membership" x1="{vx}" y1="{vy}" x2="{ex}" y2="{ey}" stroke="{color}" stroke-width="2"/>'
            )
    parts.extend(_vertex_nodes(vxy))
    s = SQUARE_HALF
    for j, ((x, y), (ex, ey)) in enumerate(zip(epos, exy)):
        parts.append(f'<rect x="{x - s:.2f}" y="{y - s:.2f}" {_SQUARE_SIZE} fill="{edge_color(j)}"/>')
        parts.append(_text(ex, ey, ename(j), "#ffffff"))
    return parts


def _place_rows(h: Hypergraph, box):
    x0, y0, w, hh = box
    top, bottom = layout_rows(h.n, h.num_edges, w, hh)
    return (top + np.array([x0, y0])).tolist(), (bottom + np.array([x0, y0])).tolist()


def _place_shell(h: Hypergraph, box, vertex_ratio: float, edge_ratio: float):
    """Vertices and hyperedge nodes on two concentric rings, their radii given
    as fractions of the largest ring that fits the box."""
    x0, y0, w, hh = box
    radius = min(w, hh) / 2.0 - MARGIN
    center = np.array([x0 + w / 2.0, y0 + hh / 2.0])
    vpos = ring_positions(h.n, radius * vertex_ratio) + center
    epos = ring_positions(h.num_edges, radius * edge_ratio) + center
    return vpos.tolist(), epos.tolist()


def _draw_cli_exp(h: Hypergraph, pos) -> list[str]:
    containing = h.pair_edges()
    vxy = _formatted(pos)
    parts: list[str] = []
    for a, b in containing:
        (x1, y1), (x2, y2) = vxy[a], vxy[b]
        parts.append(
            f'<line class="pair-edge" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{SEGMENT_STROKE}" stroke-width="2"/>'
        )
    for (a, b), ids in containing.items():
        mid = ((pos[a][0] + pos[b][0]) / 2.0, (pos[a][1] + pos[b][1]) / 2.0)
        label = ",".join(ename(j) for j in ids)
        parts.extend(_label_box(mid[0], mid[1], label, SEGMENT_STROKE))
    parts.extend(_vertex_nodes(vxy))
    return parts


_FORCE_FORMATS = ("Enc-Hy", "Cli-Exp")  # the formats drawn from a force layout

_SCENES = {  # format -> (layout step, drawing step)
    "Enc-Hy": (_force_placement(layout_stress), _draw_enc_hy),
    "Bi-Inc": (lambda h, seed, box, layout: _place_rows(h, box), _draw_incidence),
    "Sh-Inc": (lambda h, seed, box, layout: _place_shell(h, box, 0.5, 1.0), _draw_incidence),
    "St-Inc": (lambda h, seed, box, layout: _place_shell(h, box, 1.0, 0.15), _draw_incidence),
    "Cli-Exp": (_force_placement(layout_spring), _draw_cli_exp),
}


def _scene(h: Hypergraph, fmt: str, seed: int, box, layout) -> list[str]:
    place, draw = _SCENES[fmt]
    return draw(h, place(h, seed, box, layout))


def _check_format(fmt: str, layout) -> None:
    if fmt not in _SCENES:
        raise ValueError(f"unknown visual format {fmt!r}; expected one of {VISUAL_FORMATS}")
    if layout is not None and fmt not in _FORCE_FORMATS:
        raise ValueError(f"{fmt} is not drawn from a force layout; expected one of {_FORCE_FORMATS}")


def _document(parts: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">\n'
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(parts) + "\n</svg>\n"


def render_svg(h: Hypergraph, fmt: str, seed: int = 0, *, layout: np.ndarray | None = None) -> str:
    """``h`` drawn in ``fmt``.  ``layout`` is, for a force format, the abstract
    layout already computed: ``layout_stress`` (Enc-Hy) or ``layout_spring``
    (Cli-Exp) of ``h.n``, ``h.vertex_pairs()`` and ``seed``."""
    _check_format(fmt, layout)
    return _document(_scene(h, fmt, seed, (0.0, 0.0, WIDTH, HEIGHT), layout))


def render_svg_pair(a: Hypergraph, b: Hypergraph, fmt: str, seed: int = 0, *, layouts=None) -> str:
    """Two hypergraphs side by side in one canvas with a shared layout seed,
    so isomorphic pairs tend to look alike.  ``layouts`` is, for a force
    format, the two abstract layouts already computed, as for ``render_svg``."""
    _check_format(fmt, layouts)
    layout_a, layout_b = layouts or (None, None)
    half = WIDTH / 2.0
    parts = _scene(a, fmt, seed, (0.0, 0.0, half, HEIGHT), layout_a)
    parts.append(
        f'<line x1="{_fmt(half)}" y1="0" x2="{_fmt(half)}" y2="{_fmt(HEIGHT)}" '
        f'stroke="#cccccc" stroke-width="2" stroke-dasharray="8,8"/>'
    )
    parts.extend(_scene(b, fmt, seed, (half, 0.0, half, HEIGHT), layout_b))
    return _document(parts)
