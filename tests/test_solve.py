import itertools
import random

import pytest

from hyperbench import Hypergraph, solve_ism, solve_omf, solve_osp
from hyperbench.generate import relabel
from hyperbench.solve import oracle_ism, oracle_omf, oracle_osp, solve_dvc, solve_oec

from conftest import random_hypergraph


def test_counting_tasks(hstar):
    assert hstar.n == 5
    assert hstar.num_edges == 3
    assert solve_dvc(hstar, 2) == 2  # v1 and v3
    assert solve_dvc(hstar, 1) == 2
    assert solve_dvc(hstar, 0) == 0
    assert solve_oec(hstar, 3) == 3
    assert solve_oec(hstar, 2) == 0
    with pytest.raises(ValueError):
        solve_dvc(hstar, -1)
    with pytest.raises(ValueError):
        solve_oec(hstar, 1)


def test_neighbor_tasks(hstar):
    assert hstar.neighbors(2) == (0, 1, 3, 4)
    assert hstar.neighbors(0, 3) == (1, 2)
    assert hstar.neighbors(0, 4) == ()


def test_osp_reference(hstar):
    res = solve_osp(hstar, 0, 4)
    assert res.reachable
    assert res.total_weight == 6
    assert res.witness == (0, 2)


def test_osp_prefers_lexicographic_witness():
    # two weight-4 routes v0->v3: [e0,e1] and [e0,e2]; ids break the tie
    h = Hypergraph(4, [(0, 1), (1, 3), (1, 3)])
    res = solve_osp(h, 0, 3)
    assert res.total_weight == 4
    assert res.witness == (0, 1)


def test_osp_unreachable_and_bad_args(hstar):
    h = Hypergraph(4, [(0, 1), (2, 3)])
    res = solve_osp(h, 0, 3)
    assert not res.reachable
    assert res.total_weight is None
    assert res.witness is None
    with pytest.raises(ValueError):
        solve_osp(hstar, 1, 1)


def test_omf_reference(hstar):
    assert solve_omf(hstar, 0, 4) == 3
    assert solve_omf(hstar, 1, 3) == 6
    disconnected = Hypergraph(4, [(0, 1), (2, 3)])
    assert solve_omf(disconnected, 0, 3) == 0


def test_ism_positive_negative(hstar):
    rng = random.Random(3)
    perm = list(range(5))
    rng.shuffle(perm)
    assert solve_ism(hstar, relabel(hstar, perm, rng))
    other = Hypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4)])
    assert not solve_ism(hstar, other)  # different edge count
    twisted = Hypergraph(5, [(0, 1, 2), (1, 2, 3), (0, 3, 4)])
    assert solve_ism(hstar, twisted) == oracle_ism(hstar, twisted)


def test_ism_duplicate_edges_matter():
    a = Hypergraph(3, [(0, 1), (0, 1), (1, 2)])
    b = Hypergraph(3, [(0, 1), (1, 2), (1, 2)])
    assert solve_ism(a, b)  # map 0<->2
    c = Hypergraph(3, [(0, 1), (0, 2), (1, 2)])
    assert not solve_ism(a, c)


def test_oracle_size_guard():
    big = Hypergraph(9, [(0, 1)])
    with pytest.raises(ValueError):
        oracle_osp(big, 0, 1)
    with pytest.raises(ValueError):
        oracle_omf(big, 0, 1)
    with pytest.raises(ValueError):
        oracle_ism(big, big)
    wide = Hypergraph(3, [(0, 1)] * 9)
    with pytest.raises(ValueError):
        oracle_osp(wide, 0, 2)


def test_solvers_match_oracles_spot_check():
    rng = random.Random(99)
    for _ in range(40):
        h = random_hypergraph(rng)
        for s, t in itertools.combinations(range(h.n), 2):
            got = solve_osp(h, s, t)
            want = oracle_osp(h, s, t)
            assert (got.total_weight, got.witness) == (want.total_weight, want.witness)
            assert solve_omf(h, s, t) == oracle_omf(h, s, t)
