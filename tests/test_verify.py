import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbench import Hypergraph, find_hhm, save_json, verify, verify_shc
from hyperbench.core import to_json_dict
from hyperbench.bench import make_meta
from hyperbench.cli import main
from hyperbench.generate import (
    SCALE_CLASSES,
    GenSpec,
    demo_pool,
    derive_seed,
    gen_hhm_instance,
    subsample_real,
)
from hyperbench.verify import (
    NUM_COLORS,
    find_3cl,
    find_hhm_any,
    find_shc,
    format_coloring,
    format_cycle,
    format_path,
    verify_3cl,
    verify_hhm,
)

from conftest import manifest_rows


def test_verify_3cl(hstar):
    assert verify_3cl(hstar, [0, 1, 2, 0, 1])
    assert not verify_3cl(hstar, [0, 0, 0, 0, 0])  # every edge monochromatic
    assert verify_3cl(hstar, {0: 0, 1: 1, 2: 0, 3: 1, 4: 0})
    with pytest.raises(ValueError):
        verify_3cl(hstar, [0, 1, 2])  # not total
    with pytest.raises(ValueError):
        verify_3cl(hstar, [0, 1, 2, 3, 0])  # color outside {0,1,2}


def test_verify_shc(hstar):
    # e0 and e2 meet only at v2: a closed pair
    assert verify_shc(hstar, [0, 2])
    assert not verify_shc(hstar, [0, 1, 2])  # |e0 ∩ e1| = 2
    assert not verify_shc(hstar, [0])  # need at least two
    assert not verify_shc(hstar, [0, 0])  # ids must be distinct
    with pytest.raises(IndexError):
        verify_shc(hstar, [0, 7])


def test_verify_shc_triangle():
    h = Hypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 0), (0, 5)])
    assert verify_shc(h, [0, 1, 2])
    assert not verify_shc(h, [0, 1, 3])


def test_verify_hhm(hstar):
    assert verify_hhm(hstar, [0, 0, 1, 2], 0, 4)
    assert verify_hhm(hstar, [2, 1, 0, 0], 4, 0)  # mirrored steps for the reverse walk
    assert not verify_hhm(hstar, [0, 0, 1, 2], 4, 0)  # step edges are direction-bound
    assert not verify_hhm(hstar, [0, 1, 2], 0, 4)  # too short
    assert not verify_hhm(hstar, [2, 2, 1, 0], 0, 4)  # e2 cannot leave v0
    with pytest.raises(ValueError):
        verify_hhm(hstar, [0, 0, 1, 2], 3, 3)
    with pytest.raises(IndexError):
        verify_hhm(hstar, [0, 9, 1, 2], 0, 4)


def test_find_3cl(hstar):
    coloring = find_3cl(hstar)
    assert coloring is not None
    assert verify_3cl(hstar, coloring)
    assert find_3cl(Hypergraph(2, [(0, 1)])) is not None


def test_find_shc(hstar):
    seq = find_shc(hstar)
    assert seq is not None
    assert verify_shc(hstar, seq)
    # chain with fat overlaps has no strict hypercycle
    h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    assert find_shc(h) is None


@st.composite
def few_edge_hypergraphs(draw):
    """A hypergraph of 2-6 vertices and at most 7 hyperedges, duplicates allowed."""
    n = draw(st.integers(2, 6))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True)
    return Hypergraph(n, draw(st.lists(edge, max_size=7)))


def _has_strict_hypercycle(h):
    """Brute force: some ordering of some 2..m distinct hyperedges, anchored
    at its least id, verifies as a strict hypercycle."""
    for k in range(2, h.num_edges + 1):
        for ids in itertools.combinations(range(h.num_edges), k):
            for rest in itertools.permutations(ids[1:]):
                if verify_shc(h, (ids[0], *rest)):
                    return True
    return False


@settings(max_examples=200, deadline=None)
@given(few_edge_hypergraphs())
def test_find_shc_matches_brute_force_over_all_lengths(h):
    # a ring of any length has a consecutive pair meeting in one vertex, so
    # scanning pairs decides existence for every cycle length
    seq = find_shc(h)
    assert (seq is not None) == _has_strict_hypercycle(h)
    if seq is not None:
        assert len(seq) == 2 and verify_shc(h, seq)


def test_find_hhm(hstar):
    path = find_hhm(hstar, 0, 4)
    assert path is not None
    assert verify_hhm(hstar, path, 0, 4)
    assert find_hhm(Hypergraph(4, [(0, 1), (2, 3)]), 0, 3) is None


def test_find_hhm_any(hstar):
    got = find_hhm_any(hstar)
    assert got is not None
    path, s, t = got
    assert verify_hhm(hstar, path, s, t)
    # a star forces >2 leaves: no hamiltonian traversal at all
    star = Hypergraph(4, [(0, 1), (0, 2), (0, 3)])
    assert find_hhm_any(star) is None


def test_format_helpers():
    assert format_coloring([0, 1, 2]) == "Coloring:[v0:c0, v1:c1, v2:c2]"
    assert format_cycle([0, 2]) == "Cycle:[e0, e2]"
    assert format_path((1, 0)) == "Path:[e1, e0]"


# -- the memoized searches against plain depth-first search ------------------


def _plain_find_hhm(h, s, t):
    """find_hhm without the memo of failed states: ascending-neighbor DFS with
    a dead-end prune (an unvisited vertex left without a live neighbor)."""
    n = h.n
    nbr = [set() for _ in range(n)]
    pair_edge = {}
    for (a, b), ids in h.pair_edges().items():
        nbr[a].add(b)
        nbr[b].add(a)
        pair_edge[a, b] = min(ids)
    visited = [False] * n
    visited[s] = True
    steps = []

    def dfs(cur, count):
        if count == n:
            return cur == t
        for w in range(n):
            if not visited[w] and w != cur and not any(not visited[x] or x == cur for x in nbr[w]):
                return False
        for nxt in sorted(nbr[cur]):
            if visited[nxt] or (nxt == t and count != n - 1):
                continue
            visited[nxt] = True
            steps.append(pair_edge[(min(cur, nxt), max(cur, nxt))])
            if dfs(nxt, count + 1):
                return True
            steps.pop()
            visited[nxt] = False
        return False

    return tuple(steps) if dfs(s, 1) else None


def _plain_find_hhm_any(h):
    """find_hhm_any with each endpoint pair searched by the plain DFS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "find_hhm", _plain_find_hhm)
        return find_hhm_any(h)


def _plain_verify_hhm(h, seq, s, t):
    """verify_hhm without the memo: try every member of each step's edge."""
    if len(seq) != h.n - 1:
        return False
    used = [False] * h.n
    used[s] = True

    def step(i, cur):
        if i == len(seq):
            return cur == t
        members = h.edges[seq[i]]
        if cur not in members:
            return False
        for nxt in members:
            if not used[nxt]:
                used[nxt] = True
                if step(i + 1, nxt):
                    return True
                used[nxt] = False
        return False

    return step(0, s)


REAL_SUBSAMPLES = {"small": 120, "medium": 120, "large": 60}


@pytest.mark.parametrize("scale", SCALE_CLASSES)
def test_find_hhm_matches_plain_dfs_on_real_subsamples(scale):
    pool = demo_pool()
    for i in range(REAL_SUBSAMPLES[scale]):
        h = subsample_real(pool, GenSpec("HHM", scale, "real", derive_seed(5, scale, i)))
        assert find_hhm_any(h) == _plain_find_hhm_any(h)
        # fixed endpoints often have no path; the plain search then takes
        # seconds on some large subsamples, so those are left to find_hhm_any
        if scale != "large":
            for s, t in ((0, h.n - 1), (h.n - 1, 1)):
                assert find_hhm(h, s, t) == _plain_find_hhm(h, s, t)


def test_find_hhm_matches_plain_dfs_on_planted_paths():
    for i in range(100):
        h, (_, s, t) = gen_hhm_instance(GenSpec("HHM", "small", "synthetic", derive_seed(6, "small", i)))
        assert find_hhm_any(h) == _plain_find_hhm_any(h)
        assert find_hhm(h, s, t) == _plain_find_hhm(h, s, t)
    for i in range(40):
        h, (_, s, t) = gen_hhm_instance(GenSpec("HHM", "medium", "synthetic", derive_seed(6, "medium", i)))
        assert find_hhm(h, s, t) == _plain_find_hhm(h, s, t)


@st.composite
def hhm_cases(draw):
    """A graph of <= 12 vertices holding a planted path, its step sequence with
    some steps replaced, and endpoints that are the path's or random ones."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    vertex = st.integers(0, n - 1)
    edges = [
        {order[i], order[i + 1]} | set(draw(st.lists(vertex, max_size=2))) for i in range(n - 1)
    ] + [set(draw(st.lists(vertex, min_size=2, max_size=4))) for _ in range(draw(st.integers(0, 4)))]
    h = Hypergraph(n, [tuple(e) for e in edges if len(e) >= 2])
    seq = list(range(n - 1))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(0, h.num_edges - 1)), max_size=3)):
        seq[i] = j
    seq = seq[: draw(st.sampled_from([n - 1, n - 1, n - 2]))]
    s, t = draw(st.sampled_from([(order[0], order[-1]), tuple(draw(st.permutations(range(n)))[:2])]))
    return h, seq, s, t


@settings(max_examples=300, deadline=None)
@given(hhm_cases())
def test_verify_hhm_matches_plain_search(case):
    h, seq, s, t = case
    assert verify_hhm(h, seq, s, t) == _plain_verify_hhm(h, seq, s, t)


def test_verify_hhm_bounded_on_sliding_windows():
    # every step's edge holds six consecutive vertices, so without the memo the
    # search tries millions of orders before it rejects the sequence
    h = Hypergraph(20, [tuple(range(i, i + 6)) for i in range(15)])
    seq = [0, 1, 2, 2, 4, 4, 7, 7, 8, 9, 9, 10, 11, 11, 12, 13, 13, 14, 14]
    start = time.perf_counter()
    assert not verify_hhm(h, seq, 0, 19)
    assert time.perf_counter() - start < 1.0


def test_verify_hhm_rejects_an_unreachable_end_without_searching():
    # the big edge's every order would be tried before the last step, whose
    # edge lacks t, failed; the necessary checks reject it at once
    h = Hypergraph(20, [range(20), (0, 1)])
    start = time.perf_counter()
    assert not verify_hhm(h, [0] * 18 + [1], 0, 19)
    assert time.perf_counter() - start < 0.1
    assert not verify_hhm(h, [1] + [0] * 18, 19, 0)  # the first step's edge lacks s
    assert verify_hhm(h, [0] * 19, 0, 19)
    gap = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not verify_hhm(gap, [0, 0, 3], 0, 3)  # no step's edge holds v2
    assert verify_hhm(gap, [0, 1, 2], 0, 3)


def _memo_verify_hhm(h, seq, s, t):
    """verify_hhm as an exponential search: three necessary checks, then a
    depth-first walk memoizing failed (vertex, visited set) states."""
    h.check_endpoints(s, t, "path endpoints")
    ids = list(seq)
    for j in ids:
        h.check_edge(j)
    if len(ids) != h.n - 1:
        return False
    edges = h.edges
    if s not in edges[ids[0]] or t not in edges[ids[-1]]:
        return False
    if len(set().union(*(edges[j] for j in set(ids)))) < h.n:
        return False
    full = (1 << h.n) - 1
    failed = set()

    def step(cur, mask):
        if mask == full:
            return cur == t
        if (cur, mask) in failed:
            return False
        members = edges[ids[mask.bit_count() - 1]]
        if cur in members:
            for nxt in members:
                bit = 1 << nxt
                if not mask & bit and step(nxt, mask | bit):
                    return True
        failed.add((cur, mask))
        return False

    return step(s, 1 << s)


def _random_hhm_case(rng):
    """A hypergraph of 2-9 vertices, half the time around a planted path, a
    step sequence (the planted steps with a few replaced, or random ids, now
    and then of a wrong length) and endpoints (the path's ends, or random)."""
    n = rng.randint(2, 9)
    order = rng.sample(range(n), n)
    planted = rng.random() < 0.5
    edges = [{order[k], order[k + 1], *rng.sample(range(n), rng.randint(0, 2))} for k in range(n - 1)] if planted else []
    edges += [set(rng.sample(range(n), rng.randint(2, n))) for _ in range(rng.randint(1, 4))]
    h = Hypergraph(n, [tuple(e) for e in edges])
    if planted:
        seq = list(range(n - 1))
        for _ in range(rng.randint(0, 2)):
            seq[rng.randrange(n - 1)] = rng.randrange(h.num_edges)
    else:
        seq = [rng.randrange(h.num_edges) for _ in range(n - 1)]
    if rng.random() < 0.1:
        seq = seq[: rng.randrange(n - 1)] if rng.random() < 0.5 else seq + [0]
    s, t = (order[0], order[-1]) if planted and rng.random() < 0.7 else rng.sample(range(n), 2)
    return h, seq, s, t


def test_verify_hhm_matches_the_exponential_search_on_random_cases():
    rng = random.Random(0x4848)
    verdicts = []
    for _ in range(6000):
        h, seq, s, t = _random_hhm_case(rng)
        verdicts.append(verify_hhm(h, seq, s, t))
        assert verdicts[-1] == _memo_verify_hhm(h, seq, s, t), (h, seq, s, t)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8  # both verdicts are well represented


def test_verify_hhm_rejects_the_hostile_reply_at_once():
    # the big edge's every order would be searched before the e1 step, which
    # would have to start at v0, the vertex the path leaves at its first step
    h = Hypergraph(20, [range(20), (0, 1)])
    seq = [0] * 17 + [1, 0]
    # the exponential search agrees, at a size where it finishes quickly
    assert not _memo_verify_hhm(Hypergraph(12, [range(12), (0, 1)]), [0] * 9 + [1, 0], 0, 11)
    start = time.perf_counter()
    assert not verify_hhm(h, seq, 0, 19)
    assert time.perf_counter() - start < 0.01


def test_verify_hhm_accepts_a_1500_vertex_single_edge_graph():
    h = Hypergraph(1500, [range(1500)])
    start = time.perf_counter()
    assert verify_hhm(h, [0] * 1499, 0, 1499)
    assert time.perf_counter() - start < 2.0
    assert not verify_hhm(h, [0] * 1498, 0, 1499)


CHAIN = Hypergraph(1500, [(i, i + 1) for i in range(1499)])  # deeper than the recursion limit


def test_verify_cli_accepts_a_valid_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    graph = tmp_path / "chain.json"
    save_json(CHAIN, graph)
    cert = format_path(range(1499))
    assert main(["verify", "--task", "hhm", "--graph", str(graph), "--cert", cert, "--s", "0", "--t", "1499"]) == 0
    assert capsys.readouterr().out == "VALID\n"
    assert main(["verify", "--task", "hhm", "--graph", str(graph), "--cert", cert, "--s", "1499", "--t", "0"]) == 1
    assert capsys.readouterr().out == "INVALID\n"


def test_grade_accepts_a_valid_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    row = manifest_rows(make_meta("HHM", 0, "small", "synthetic", 3))[0]
    cert = format_path(range(1499))
    row["answer_spec"] = {**row["answer_spec"], "graph": to_json_dict(CHAIN), "params": {"s": 0, "t": 1499}, "value": cert}
    manifest, responses = tmp_path / "manifest.jsonl", tmp_path / "responses.jsonl"
    manifest.write_text(json.dumps(row) + "\n", encoding="utf-8")
    responses.write_text(json.dumps({"sample_id": row["sample_id"], "response": "Ans: " + cert}) + "\n", encoding="utf-8")
    assert main(["grade", "--manifest", str(manifest), "--responses", str(responses), "--out", str(tmp_path / "out")]) == 0
    assert json.loads(capsys.readouterr().out)["correct"] == 1


def _plain_find_3cl(h):
    """find_3cl without the memo of failed states: ascending backtracking,
    each edge checked once its highest vertex is colored."""
    closing = [[] for _ in range(h.n)]
    for j, e in enumerate(h.edges):
        closing[max(e)].append(j)
    colors = [-1] * h.n

    def assign(v):
        if v == h.n:
            return True
        for c in range(NUM_COLORS):
            colors[v] = c
            if all(len({colors[u] for u in h.edges[j]}) >= 2 for j in closing[v]) and assign(v + 1):
                return True
        colors[v] = -1
        return False

    return tuple(colors) if assign(0) else None


@st.composite
def coloring_cases(draw):
    """A hypergraph of 3-11 vertices and up to 3n hyperedges of 2-3 vertices,
    dense enough that some cannot be 3-colored."""
    n = draw(st.integers(3, 11))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True)
    return Hypergraph(n, draw(st.lists(edge, max_size=3 * n)))


@settings(max_examples=300, deadline=None)
@given(coloring_cases())
def test_find_3cl_matches_plain_backtracking(h):
    assert find_3cl(h) == _plain_find_3cl(h)


def test_find_3cl_matches_plain_backtracking_on_real_subsamples():
    pool = demo_pool()
    for scale in ("small", "medium"):
        for i in range(60):
            h = subsample_real(pool, GenSpec("3-CL", scale, "real", derive_seed(7, scale, i)))
            assert find_3cl(h) == _plain_find_3cl(h)


def _k4_tail(n):
    """A chain of hyperedges (i, i+1, i+2) ending in all six pairs of the last
    four vertices: no 3-coloring, and the plain search colors the chain in
    about 3^(n-4) ways, failing at the K4 each time."""
    pairs = itertools.combinations(range(n - 4, n), 2)
    return Hypergraph(n, [(i, i + 1, i + 2) for i in range(n - 4)] + list(pairs))


def test_find_3cl_bounded_on_a_k4_tail(tmp_path, capsys):
    h = _k4_tail(20)
    start = time.perf_counter()
    assert find_3cl(h) is None
    assert time.perf_counter() - start < 1.0
    save_json(h, tmp_path / "k4.json")
    start = time.perf_counter()
    assert main(["solve", "--task", "3cl", "--graph", str(tmp_path / "k4.json")]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == '{"task": "3cl", "value": null}\n'


def test_make_meta_hhm_92_large_real_is_pinned():
    meta = make_meta("HHM", 92, "large", "real", 42)
    assert meta.params == {"s": 0, "t": 2}
    assert meta.answer["value"] == "Path:[e0, e2, e37, e22, e11, e12, e24, e28, e6, e30, e29, e19, e25, e36, e21, e38, e8]"
