import random
import re

import numpy as np
import pytest

from hyperbench import Hypergraph, render_svg
from hyperbench.visual_repr import (
    VISUAL_FORMATS,
    convex_hull,
    layout_rows,
    layout_spring,
    layout_stress,
    render_svg_pair,
    ring_positions,
    stress_energy,
)


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


def test_layout_stress_reduces_energy():
    from hyperbench.visual_repr import _hop_distances

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
    ring = ring_positions(4, 1.0)
    assert np.allclose(ring[0], [1.0, 0.0])


def test_convex_hull_square():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
    hull = convex_hull(pts)
    assert sorted(hull) == [(0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)]
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 1)])
