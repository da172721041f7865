import math
import random

import pytest

from hyperbench import Hypergraph, solve_ism, verify_shc
from hyperbench.generate import (
    MAX_ORDER,
    SCALE_RANGES,
    GenSpec,
    SourcePool,
    demo_pool,
    derive_seed,
    edge_count_bounds,
    gen_3cl_instance,
    gen_hhm_instance,
    gen_ism_pair,
    gen_random_connected,
    gen_shc_instance,
    load_pool,
    relabel,
    subsample_real,
)
from hyperbench.verify import verify_3cl, verify_hhm


def test_derive_seed_stable():
    a = derive_seed(7, "x", 1)
    assert a == derive_seed(7, "x", 1)
    assert a != derive_seed(7, "x", 2)
    assert a != derive_seed(8, "x", 1)
    assert derive_seed(7, "x:1") != derive_seed(7, "x", 1)  # labels are delimited
    assert 0 <= a < 2**64


def classify_scale(n: int) -> str:
    """Scale class of a vertex count; boundary values go to the lower class."""
    if n < SCALE_RANGES["small"][0] or n > SCALE_RANGES["large"][1]:
        raise ValueError(f"vertex count {n} outside benchmark scale 5..20")
    if n <= SCALE_RANGES["small"][1]:
        return "small"
    if n <= SCALE_RANGES["medium"][1]:
        return "medium"
    return "large"


def test_classify_scale_boundaries():
    assert classify_scale(5) == "small"
    assert classify_scale(10) == "small"
    assert classify_scale(11) == "medium"
    assert classify_scale(15) == "medium"
    assert classify_scale(16) == "large"
    assert classify_scale(20) == "large"
    with pytest.raises(ValueError):
        classify_scale(4)
    with pytest.raises(ValueError):
        classify_scale(21)


def test_edge_count_bounds():
    assert edge_count_bounds(5) == (1, 7)
    assert edge_count_bounds(10) == (2, 15)
    assert edge_count_bounds(20) == (4, 30)


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(scale="huge")
    with pytest.raises(ValueError):
        GenSpec(source="scraped")


def _in_band(h) -> bool:
    lo, hi = edge_count_bounds(h.n)
    return lo <= len(h.edges) <= hi


@pytest.mark.parametrize("scale", ["small", "medium", "large"])
def test_gen_random_connected(scale):
    lo, hi = SCALE_RANGES[scale]
    for i in range(25):
        h = gen_random_connected(GenSpec("generic", scale, "synthetic", derive_seed(3, scale, i)))
        assert lo <= h.n <= hi
        assert h.is_connected()
        assert _in_band(h)
        assert max(h.order_sequence()) <= min(MAX_ORDER, h.n)


def test_gen_deterministic():
    spec = GenSpec("generic", "medium", "synthetic", 1234)
    assert gen_random_connected(spec) == gen_random_connected(spec)


def test_gen_3cl_certificates():
    for i in range(20):
        h, coloring = gen_3cl_instance(GenSpec("3-CL", "small", "synthetic", derive_seed(5, i)))
        assert verify_3cl(h, coloring)
        assert h.is_connected()
        assert _in_band(h)


def test_gen_shc_certificates():
    for i in range(20):
        h, cycle = gen_shc_instance(GenSpec("SHC", "medium", "synthetic", derive_seed(6, i)))
        assert verify_shc(h, cycle)
        assert h.is_connected()
        assert _in_band(h)


def test_gen_hhm_certificates():
    for i in range(20):
        h, (steps, s, t) = gen_hhm_instance(GenSpec("HHM", "small", "synthetic", derive_seed(7, i)))
        assert verify_hhm(h, steps, s, t)
        assert h.is_connected()
        assert _in_band(h)


def test_gen_ism_labels():
    seen = set()
    for i in range(30):
        pair = gen_ism_pair(GenSpec("ISM", "small", "synthetic", derive_seed(8, i)))
        seen.add(pair.isomorphic)
        assert pair.a.n == pair.b.n
        assert pair.isomorphic == solve_ism(pair.a, pair.b)
    assert seen == {True, False}  # both labels occur


def test_relabel_preserves_structure(hstar):
    rng = random.Random(2)
    perm = [4, 3, 2, 1, 0]
    out = relabel(hstar, perm, rng)
    assert out.n == hstar.n
    assert sorted(out.degree_sequence()) == sorted(hstar.degree_sequence())
    assert solve_ism(hstar, out)


def test_demo_pool_properties():
    pool = demo_pool()
    assert pool.hypergraph.is_connected()
    assert pool.hypergraph.n >= 40
    assert min(pool.hypergraph.degree_sequence()) >= 1
    assert demo_pool().hypergraph == pool.hypergraph  # deterministic


@pytest.mark.parametrize("scale", ["small", "medium", "large"])
def test_subsample_real(scale):
    pool = demo_pool()
    lo, hi = SCALE_RANGES[scale]
    for i in range(10):
        h = subsample_real(pool, GenSpec("generic", scale, "real", derive_seed(9, scale, i)))
        assert lo <= h.n <= hi
        assert h.is_connected()


def test_subsample_target_and_errors():
    # the target vertex count is drawn from the scale range; a pool smaller
    # than the draw cannot be subsampled
    pool = SourcePool(Hypergraph(8, [(0, 1, 2), (2, 3, 4, 5), (5, 6, 7)]), "tiny")
    with pytest.raises(ValueError, match="pool too small"):
        subsample_real(pool, GenSpec("generic", "large", "real", 4))


def test_subsample_needs_a_large_enough_component():
    # 12 vertices in three components of 4: no walk can collect 5 or more
    pool = SourcePool(Hypergraph(12, [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]), "split")
    with pytest.raises(ValueError, match="largest component has 4 vertices < target"):
        subsample_real(pool, GenSpec("generic", "small", "real", 4))


def test_subsample_require():
    pool = demo_pool()
    h = subsample_real(
        pool,
        GenSpec("generic", "small", "real", 11),
        require=lambda g: g.num_edges >= 3,
    )
    assert h.num_edges >= 3


def test_load_pool(tmp_path):
    from hyperbench import save_json

    pool = demo_pool()
    jpath = tmp_path / "pool.json"
    save_json(pool.hypergraph, jpath)
    assert load_pool(jpath).hypergraph == pool.hypergraph

    mpath = tmp_path / "pool.hgr"
    mpath.write_text("2 4\n1 2 3\n3 4\n", encoding="utf-8")
    loaded = load_pool(mpath)
    assert loaded.hypergraph.edges == ((0, 1, 2), (2, 3))


def test_source_pool_rejects_isolated_vertices():
    from hyperbench import Hypergraph

    with pytest.raises(ValueError):
        SourcePool(Hypergraph(3, [(0, 1)]), "bad")


def test_mix_statistics_of_ism_labels():
    # labels are a fair coin per seed; 200 draws should not be one-sided
    hits = sum(
        gen_ism_pair(GenSpec("ISM", "small", "synthetic", derive_seed(12, i))).isomorphic
        for i in range(200)
    )
    sigma = math.sqrt(200 * 0.25)
    assert abs(hits - 100) <= 4 * sigma
