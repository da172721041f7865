import random
import re

import numpy as np
import pytest

from hyperbench import Hypergraph, render_svg
from hyperbench.visual_repr import (
    _FORCE_FORMATS,
    VISUAL_FORMATS,
    _hop_distances,
    convex_hull,
    layout_rows,
    layout_spring,
    layout_springs,
    layout_stress,
    render_svg_pair,
    ring_positions,
)


def stress_energy(pos: np.ndarray, dist: np.ndarray, weight: np.ndarray) -> float:
    """The stress ``layout_stress`` minimizes, from the (n, n, 2) differences."""
    delta = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((delta**2).sum(axis=2))
    off = ~np.eye(len(pos), dtype=bool)
    return float((weight[off] * (d[off] - dist[off]) ** 2).sum() / 2.0)


def _edge_label_present(svg: str, j: int) -> bool:
    # matches >e3< and the comma-joined pair labels >e1,e3<
    return re.search(rf"[>,]e{j}[,<]", svg) is not None


@pytest.mark.parametrize("fmt", VISUAL_FORMATS)
def test_deterministic(hstar, fmt):
    assert render_svg(hstar, fmt, seed=4) == render_svg(hstar, fmt, seed=4)


@pytest.mark.parametrize("fmt", VISUAL_FORMATS)
def test_labels_complete(fmt, make_random):
    rng = random.Random(21)
    for _ in range(10):
        h = make_random(rng, nmax=10, mmax=10)
        svg = render_svg(h, fmt, seed=rng.randrange(1000))
        for v in range(h.n):
            assert f">v{v}<" in svg
        for j in range(len(h.edges)):
            assert _edge_label_present(svg, j)


def test_unknown_format(hstar):
    with pytest.raises(ValueError):
        render_svg(hstar, "Png")


def test_incidence_line_counts(hstar, make_random):
    rng = random.Random(8)
    for _ in range(10):
        h = make_random(rng)
        want = sum(h.order_sequence())
        for fmt in ("Bi-Inc", "Sh-Inc", "St-Inc"):
            svg = render_svg(h, fmt, seed=3)
            assert svg.count('class="membership"') == want


def test_cli_exp_segment_count(hstar):
    svg = render_svg(hstar, "Cli-Exp", seed=0)
    assert svg.count('class="pair-edge"') == 7
    assert ">e0,e2<" not in svg  # v2 pairs are never co-labelled with both outer edges
    assert ">e0<" in svg or ">e0," in svg or ",e0<" in svg


def test_cli_exp_matches_pair_list(make_random):
    rng = random.Random(30)
    for _ in range(10):
        h = make_random(rng, nmax=9, mmax=9)
        svg = render_svg(h, "Cli-Exp", seed=1)
        assert svg.count('class="pair-edge"') == len(h.vertex_pairs())


def test_pair_canvas(hstar):
    other = Hypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    svg = render_svg_pair(hstar, other, "Enc-Hy", seed=2)
    assert svg.count(">v0<") == 2
    assert "stroke-dasharray" in svg  # the divider
    assert render_svg_pair(hstar, other, "Enc-Hy", seed=2) == svg


def test_enc_hy_two_vertex_edge_renders_as_band():
    h = Hypergraph(3, [(0, 1), (1, 2)])
    svg = render_svg(h, "Enc-Hy", seed=5)
    assert 'stroke-width="26"' in svg


def test_svg_wellformed(hstar):
    import xml.etree.ElementTree as ET

    for fmt in VISUAL_FORMATS:
        ET.fromstring(render_svg(hstar, fmt, seed=9))


@pytest.mark.parametrize("fmt", VISUAL_FORMATS)
@pytest.mark.parametrize("n", [1, 2])
def test_an_edgeless_hypergraph_is_drawn_alone_and_as_a_pair(fmt, n):
    import xml.etree.ElementTree as ET

    h = Hypergraph(n, [])
    for svg, sides in ((render_svg(h, fmt, seed=3), 1), (render_svg_pair(h, h, fmt, seed=3), 2)):
        ET.fromstring(svg)
        assert all(svg.count(f">v{v}<") == sides for v in range(n))


def test_layout_stress_reduces_energy():
    rng = np.random.default_rng(0)
    links = [(0, 1), (1, 2), (2, 3), (3, 0)]
    pos = layout_stress(4, links, seed=7)
    dist = _hop_distances(4, links)
    w = np.where(dist > 0, 1.0 / np.maximum(dist, 1e-9) ** 2, 0.0)
    random_pos = rng.standard_normal((4, 2))
    assert stress_energy(pos, dist, w) <= stress_energy(random_pos, dist, w) + 1e-9


def test_layout_shapes():
    assert layout_stress(1, []).shape == (1, 2)
    assert layout_spring(3, [(0, 1)], seed=2).shape == (3, 2)
    top, bottom = layout_rows(2, 4, 100.0, 50.0)
    assert top.shape == (2, 2) and bottom.shape == (4, 2)
    top, bottom = layout_rows(1, 0, 100.0, 50.0)
    assert top.shape == (1, 2) and bottom.shape == (0, 2)
    ring = ring_positions(4, 1.0)
    assert np.allclose(ring[0], [1.0, 0.0])


def test_convex_hull_square():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
    hull = convex_hull(pts)
    assert sorted(hull) == [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 1)])


# The two force layouts as they were before the spring layout was batched and
# the stress search kept its distances: the references the kernels must match
# bit for bit, so that no SVG changes.


def _reference_stress(num_nodes, links, seed=0):
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


def _reference_spring(num_nodes, links, seed=0):
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


def _random_graph(rng, n):
    """(n, links, seed): the pairs of a random hypergraph's hyperedges, some
    vertices possibly left out, and a 40-bit seed."""
    links = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(3 * n))} if n > 1 else set()
    return n, sorted(links), rng.randrange(1 << 40)


def test_force_layouts_match_the_reference_kernels_at_every_size():
    rng = random.Random(14)
    for n in range(1, 21):
        for _ in range(4):
            graph = _random_graph(rng, n)
            assert np.array_equal(layout_stress(*graph), _reference_stress(*graph)), graph
            assert np.array_equal(layout_spring(*graph), _reference_spring(*graph)), graph


def test_batched_spring_layouts_match_the_reference_kernel():
    rng = random.Random(15)
    graphs = [_random_graph(rng, rng.randint(1, 20)) for _ in range(60)]
    lone = graphs[0]
    h, seed = Hypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 5)]), 99
    g = Hypergraph(6, [(3, 4, 5), (5, 0), (0, 1, 2)])
    ism_pair = [(h.n, h.vertex_pairs(), seed), (g.n, g.vertex_pairs(), seed)]
    for batch in (graphs[:9], graphs[9:25], graphs, [lone], ism_pair + graphs[25:31]):
        sizes = {n for n, _, _ in batch}
        assert len(batch) == 1 or len(sizes) > 1  # every batch but the lone graph pads
        layouts = layout_springs(batch)
        assert len(layouts) == len(batch)
        for graph, layout in zip(batch, layouts):
            assert layout.shape == (graph[0], 2)
            assert np.array_equal(layout, _reference_spring(*graph)), graph


@pytest.mark.parametrize("fmt", _FORCE_FORMATS)
def test_a_precomputed_layout_draws_the_same_bytes(fmt, make_random):
    layout_fn = {"Enc-Hy": layout_stress, "Cli-Exp": layout_spring}[fmt]
    rng = random.Random(16)
    for _ in range(10):
        a, b = make_random(rng, nmax=12, mmax=10), make_random(rng, nmax=12, mmax=10)
        seed = rng.randrange(1 << 40)
        layout_a, layout_b = (layout_fn(h.n, h.vertex_pairs(), seed) for h in (a, b))
        assert render_svg(a, fmt, seed, layout=layout_a) == render_svg(a, fmt, seed)
        assert render_svg_pair(a, b, fmt, seed, layouts=(layout_a, layout_b)) == render_svg_pair(a, b, fmt, seed)


def test_a_layout_for_an_incidence_format_is_rejected(hstar):
    layout = layout_spring(hstar.n, hstar.vertex_pairs(), 0)
    with pytest.raises(ValueError, match="not drawn from a force layout"):
        render_svg(hstar, "Bi-Inc", layout=layout)
    with pytest.raises(ValueError, match="not drawn from a force layout"):
        render_svg_pair(hstar, hstar, "St-Inc", layouts=(layout, layout))
