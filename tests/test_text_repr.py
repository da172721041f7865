import random
from pathlib import Path

import pytest

from hyperbench import Hypergraph, parse_honeigh, parse_incmat, parse_nset, render_text
from hyperbench.text_repr import TEXT_FORMATS, ParseError, english_join

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "text"

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
    assert english_join(["a"], oxford=True) == "a"
    assert english_join(["a", "b"], oxford=True) == "a and b"
    assert english_join(["a", "b", "c"], oxford=True) == "a, b, and c"
    assert english_join(["a", "b", "c"], oxford=False) == "a, b, c"
    with pytest.raises(ValueError):
        english_join([], oxford=True)


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
