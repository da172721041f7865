"""Tests of the benchmark's own checkers on the README's 5-vertex hypergraph
e0={v0,v1,v2}, e1={v1,v2,v3}, e2={v2,v3,v4}.

    pytest perfbench/test_checkers.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkers as ck  # noqa: E402

N = 5
EDGES = [(0, 1, 2), (1, 2, 3), (2, 3, 4)]


def spec(kind, value, **params):
    return {"kind": kind, "value": value, "graph": {"n": N, "edges": [list(e) for e in EDGES]}, "params": params}


def test_shortest_path_and_flow():
    assert ck.osp_weight(EDGES, 0, 4) == 6
    assert ck.osp_witness_ok(EDGES, 0, 4, [0, 2], 6)
    assert not ck.osp_witness_ok(EDGES, 0, 4, [0, 1], 6)
    assert ck.max_flow(N, EDGES, 0, 4) == 3
    assert ck.max_flow(N, EDGES, 1, 3) == 6


def test_counts_and_neighbours():
    assert ck.neighbours(EDGES, 2) == [0, 1, 3, 4]
    assert ck.neighbours(EDGES, 0, 3) == [1, 2]
    assert ck.connected(N, EDGES)
    assert not ck.connected(N, EDGES[:1])


def test_isomorphism():
    relabelled = [tuple(sorted(4 - v for v in e)) for e in EDGES]
    assert ck.isomorphic((N, EDGES), (N, relabelled))
    assert ck.isomorphic((N, EDGES), (N, [(0, 1, 2), (1, 2, 3), (1, 3, 4)]))  # v1 <-> v2
    hexagon = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert not ck.isomorphic((6, hexagon), (6, triangles))  # equal degrees, no bijection
    assert not ck.isomorphic((N, EDGES), (N, [(0, 1, 2), (0, 1, 2), (2, 3, 4)]))


def test_certificates():
    assert ck.coloring_ok(N, EDGES, {0: 0, 1: 1, 2: 0, 3: 2, 4: 0})
    assert not ck.coloring_ok(N, EDGES, {v: 0 for v in range(N)})
    assert not ck.coloring_ok(N, EDGES, {0: 0, 1: 1, 2: 0, 3: 2})
    assert ck.cycle_ok(EDGES, [0, 2])  # share exactly v2
    assert not ck.cycle_ok(EDGES, [0, 1])  # share v1 and v2
    assert not ck.cycle_ok(EDGES, [0, 0])
    assert ck.hhm_ok(N, EDGES, [0, 0, 1, 2], 0, 4)  # v0 v1 v2 v3 v4
    assert not ck.hhm_ok(N, EDGES, [0, 0, 1], 0, 4)
    assert not ck.hhm_ok(N, EDGES, [2, 2, 1, 0], 0, 4)


def test_check_answer():
    ck.check_answer("OSP", {**spec("path_weight", 6, s=0, t=4), "witness": [0, 2]})
    ck.check_answer("OMF", spec("flow", 6, s=1, t=3))
    ck.check_answer("HHM", spec("path", "Path:[e0, e0, e1, e2]", s=0, t=4))
    for task, bad in (("OMF", spec("flow", 4, s=0, t=4)), ("HHM", spec("path", "Path:[e0, e1]", s=0, t=4))):
        try:
            ck.check_answer(task, bad)
        except ck.CheckError:
            continue
        raise AssertionError(f"{task} accepted a wrong answer")
