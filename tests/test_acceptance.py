"""Acceptance gate: eight end-to-end criteria for the benchmark pipeline.

Each criterion is one test; the pytest -v report gives the per-criterion
pass/fail line.  Budgets asserted where stated (oracle sweep < 60 s,
per-task-10 corpus < 300 s).
"""

import hashlib
import itertools
import math
import random
import re
import time

from hyperbench import (
    Hypergraph,
    build_prm,
    emit_corpus,
    grade_responses,
    make_meta,
    parse_honeigh,
    parse_incmat,
    parse_nset,
    read_jsonl as load_manifest,
    render_text,
    solve_ism,
    solve_omf,
    solve_osp,
    verify_shc,
)
from hyperbench.bench import ALL_COMBOS, SOURCES, TASKS, plan_mix, prompt_for, render_meta_svg
from hyperbench.cli import main as cli_main
from hyperbench.generate import (
    SCALE_CLASSES,
    SCALE_RANGES,
    GenSpec,
    _mutate,
    demo_pool,
    derive_seed,
    edge_count_bounds,
    gen_3cl_instance,
    gen_generic,
    gen_hhm_instance,
    gen_ism_pair,
    gen_shc_instance,
    relabel,
    subsample_real,
)
from hyperbench.grade import GradeRecord, ParsedAnswer, canonical_answer_text, corrupted_answer_text
from hyperbench.solve import oracle_ism, oracle_omf, oracle_osp
from hyperbench.verify import verify_3cl, verify_hhm
from hyperbench.visual_repr import VISUAL_FORMATS

from conftest import random_hypergraph

SEED = 0xACCE97


def _report(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """500 seeded graphs (|V| <= 8, disconnected included): solve_osp,
    solve_omf, solve_ism agree with the brute-force oracles; < 60 s."""
    start = time.monotonic()
    mismatches = 0
    pair_checks = 0
    connected = 0
    for i in range(500):
        rng = random.Random(derive_seed(SEED, "oracle", i))
        h = random_hypergraph(rng, nmax=8, mmax=8)
        connected += h.is_connected()
        for s, t in itertools.combinations(range(h.n), 2):
            pair_checks += 1
            got = solve_osp(h, s, t)
            want = oracle_osp(h, s, t)
            if (got.reachable, got.total_weight, got.witness) != (
                want.reachable,
                want.total_weight,
                want.witness,
            ):
                mismatches += 1
            if solve_omf(h, s, t) != oracle_omf(h, s, t):
                mismatches += 1
    ism_checks = 0
    for i in range(500):
        rng = random.Random(derive_seed(SEED, "oracle-ism", i))
        a = random_hypergraph(rng, nmax=8, mmax=8)
        if rng.random() < 0.5:
            perm = list(range(a.n))
            rng.shuffle(perm)
            b = relabel(a, perm, rng)
        else:
            b = _mutate(rng, a) or a
        ism_checks += 1
        if solve_ism(a, b) != oracle_ism(a, b):
            mismatches += 1
    elapsed = time.monotonic() - start
    assert connected < 500, "sweep must include disconnected graphs"
    assert mismatches == 0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _report(
        "criterion 1 (oracle equivalence)",
        f"{pair_checks} s-t pairs + {ism_checks} pair labels, 0 mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. constructor soundness
# ---------------------------------------------------------------------------


def test_criterion_2_constructor_soundness():
    """1,000 planted instances per NP-hard constructor all carry verifying
    certificates; 1,000 pair labels agree with the isomorphism solver."""
    scales = SCALE_CLASSES
    bad = 0
    for i in range(1000):
        scale = scales[i % 3]
        seed = derive_seed(SEED, "plant", i)
        h, coloring = gen_3cl_instance(GenSpec("3-CL", scale, "synthetic", seed))
        bad += not verify_3cl(h, coloring)
        h, cycle = gen_shc_instance(GenSpec("SHC", scale, "synthetic", seed))
        bad += not verify_shc(h, cycle)
        h, (steps, s, t) = gen_hhm_instance(GenSpec("HHM", scale, "synthetic", seed))
        bad += not verify_hhm(h, steps, s, t)
    label_disagreements = 0
    labels = set()
    for i in range(1000):
        pair = gen_ism_pair(GenSpec("ISM", scales[i % 3], "synthetic", derive_seed(SEED, "pair", i)))
        labels.add(pair.isomorphic)
        if pair.isomorphic != solve_ism(pair.a, pair.b):
            label_disagreements += 1
    assert bad == 0
    assert label_disagreements == 0
    assert labels == {True, False}
    _report(
        "criterion 2 (constructor soundness)",
        "3,000 certificates verified, 1,000 pair labels agree",
    )


# ---------------------------------------------------------------------------
# 3. structural constraints
# ---------------------------------------------------------------------------


def test_criterion_3_structural_constraints():
    """4,000 mixed instances: all connected, synthetic edge counts inside
    [ceil(0.2 n), floor(1.5 n)], scale and source mixes within 3 sigma."""
    total = 4000
    rng = random.Random(derive_seed(SEED, "mix"))
    scales = plan_mix(total, SCALE_CLASSES, (1, 2, 1), rng)
    sources = plan_mix(total, SOURCES, (1, 1), rng)
    pool = demo_pool()
    disconnected = 0
    out_of_band = 0
    scale_violations = 0
    for i in range(total):
        task = TASKS[i % len(TASKS)]
        scale, source = scales[i], sources[i]
        seed = derive_seed(SEED, "struct", i)
        spec = GenSpec(task if task in ("3-CL", "SHC", "HHM", "ISM") else "generic", scale, source, seed)
        graphs = []
        if task == "ISM":
            pair = gen_ism_pair(spec, pool)
            graphs = [pair.a, pair.b]
        elif task == "3-CL":
            if source == "real":
                from hyperbench.verify import find_3cl

                graphs = [subsample_real(pool, spec, require=lambda g: find_3cl(g) is not None)]
            else:
                graphs = [gen_3cl_instance(spec)[0]]
        elif task == "SHC":
            if source == "real":
                from hyperbench.verify import find_shc

                graphs = [subsample_real(pool, spec, require=lambda g: find_shc(g) is not None)]
            else:
                graphs = [gen_shc_instance(spec)[0]]
        elif task == "HHM":
            if source == "real":
                from hyperbench.verify import find_hhm_any

                graphs = [subsample_real(pool, spec, require=lambda g: find_hhm_any(g) is not None)]
            else:
                graphs = [gen_hhm_instance(spec)[0]]
        else:
            graphs = [gen_generic(spec, pool)]
        lo_n, hi_n = SCALE_RANGES[scale]
        for h in graphs:
            disconnected += not h.is_connected()
            if not (lo_n <= h.n <= hi_n):
                scale_violations += 1
            if source == "synthetic":
                lo, hi = edge_count_bounds(h.n)
                if not (lo <= h.num_edges <= hi):
                    out_of_band += 1
    counts = {s: scales.count(s) for s in SCALE_CLASSES}
    for label, weight in zip(SCALE_CLASSES, (1, 2, 1)):
        p = weight / 4.0
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(counts[label] - total * p) <= 3 * sigma
    src_counts = {s: sources.count(s) for s in SOURCES}
    sigma = math.sqrt(total * 0.25)
    assert abs(src_counts["synthetic"] - total / 2) <= 3 * sigma
    assert disconnected == 0
    assert out_of_band == 0
    assert scale_violations == 0
    _report(
        "criterion 3 (structural constraints)",
        f"{total} instances connected, band respected, mixes {counts} / {src_counts}",
    )


# ---------------------------------------------------------------------------
# 4. serializer fidelity
# ---------------------------------------------------------------------------


def test_criterion_4_serializer_fidelity(hstar):
    """Golden byte equality on the worked example for all 7 text formats;
    1,000 round trips for the three machine-parseable formats."""
    from pathlib import Path

    fixtures = Path(__file__).resolve().parents[1] / "src" / "hyperbench" / "fixtures"
    golden_map = {
        "LO-Inc": "lo_inc.txt",
        "N-Pair": "n_pair.txt",
        "Adj-Mat": "adj_mat.txt",
        "HO-Neigh": "ho_neigh.txt",
        "HO-Inc": "ho_inc.txt",
        "N-Set": "n_set.txt",
        "Inc-Mat": "inc_mat.txt",
    }
    for fmt, fname in golden_map.items():
        golden = (fixtures / fname).read_text(encoding="utf-8")
        assert render_text(hstar, fmt) == golden, f"golden mismatch for {fmt}"
    parsers = {"N-Set": parse_nset, "Inc-Mat": parse_incmat, "HO-Neigh": parse_honeigh}
    failures = 0
    rng = random.Random(derive_seed(SEED, "roundtrip"))
    for _ in range(1000):
        n = rng.randint(2, 20)
        m = rng.randint(1, 30)
        edges = [rng.sample(range(n), rng.randint(2, min(6, n))) for _ in range(m)]
        h = Hypergraph(n, edges)
        for fmt, parse in parsers.items():
            if parse(render_text(h, fmt)) != h:
                failures += 1
    assert failures == 0
    _report(
        "criterion 4 (serializer fidelity)",
        "7 golden files byte-equal, 3,000 round trips clean",
    )


# ---------------------------------------------------------------------------
# 5. corpus arithmetic
# ---------------------------------------------------------------------------


def test_criterion_5_corpus_arithmetic(tmp_path):
    """per-task 200 => 2,400 metas / 84,000 samples; per-task 10 => 4,200
    samples in < 300 s; identical seed => identical manifest bytes."""
    t0 = time.monotonic()
    full_dir = tmp_path / "full10"
    rc = cli_main(["emit", "--seed", "7", "--per-task", "10", "--out", str(full_dir)])
    elapsed_small = time.monotonic() - t0
    assert rc == 0
    small_rows = load_manifest(full_dir / "manifest.jsonl")
    assert len(small_rows) == 4200
    assert len({r["meta_id"] for r in small_rows}) == 120
    assert len(list((full_dir / "images").glob("*.svg"))) == 4200
    assert elapsed_small < 300.0, f"per-task 10 emit took {elapsed_small:.0f}s"

    rerun_dir = tmp_path / "rerun10"
    emit_corpus(per_task=10, master_seed=7, outdir=rerun_dir, write_images=False)
    a = hashlib.sha256((full_dir / "manifest.jsonl").read_bytes()).hexdigest()
    b = hashlib.sha256((rerun_dir / "manifest.jsonl").read_bytes()).hexdigest()
    assert a == b, "same seed must reproduce identical manifest bytes"

    big_dir = tmp_path / "dry200"
    summary = emit_corpus(per_task=200, master_seed=7, outdir=big_dir, write_images=False)
    assert summary["metas"] == 2400
    meta_ids = set()
    lines = 0
    id_re = re.compile(r'"meta_id": "([^"]+)"')
    with open(big_dir / "manifest.jsonl", encoding="utf-8") as fh:
        for line in fh:
            lines += 1
            meta_ids.add(id_re.search(line).group(1))
    assert lines == 84000
    assert len(meta_ids) == 2400
    _report(
        "criterion 5 (corpus arithmetic)",
        f"84,000 samples / 2,400 metas; per-task 10 in {elapsed_small:.1f}s; bytes reproducible",
    )


# ---------------------------------------------------------------------------
# 6. visual invariants
# ---------------------------------------------------------------------------


def _count_vertex_labels(svg: str, v: int) -> int:
    return svg.count(f">v{v}<")


def _edge_label_present(svg: str, j: int) -> bool:
    return re.search(rf"[>,]e{j}[,<]", svg) is not None


def test_criterion_6_visual_invariants(hstar):
    """200 samples per visual format: byte-deterministic, labels complete,
    pair segments match the pair serializer, incidence lines match sum of
    orders; the worked example shows exactly 7 pair segments."""
    metas = [
        make_meta(TASKS[i % len(TASKS)], i, SCALE_CLASSES[i % 3], "synthetic", SEED + 1)
        for i in range(200)
    ]
    pair_re = re.compile(r"\(v\d+, v\d+\)")
    checked = {fmt: 0 for fmt in VISUAL_FORMATS}
    for meta in metas:
        graphs = [meta.hypergraph] + ([meta.hypergraph_b] if meta.hypergraph_b else [])
        sides = len(graphs)
        n_pair_text = prompt_for(meta, "N-Pair")
        pairs_in_text = len(pair_re.findall(n_pair_text))
        for fmt in VISUAL_FORMATS:
            svg = render_meta_svg(meta, fmt)
            assert svg == render_meta_svg(meta, fmt), f"nondeterministic {fmt} for {meta.id}"
            for v in range(max(g.n for g in graphs)):
                expected = sum(1 for g in graphs if v < g.n)
                assert _count_vertex_labels(svg, v) == expected, (meta.id, fmt, v)
            for j in range(max(g.num_edges for g in graphs)):
                assert _edge_label_present(svg, j), (meta.id, fmt, j)
            if fmt == "Cli-Exp":
                want = sum(len(g.vertex_pairs()) for g in graphs)
                assert svg.count('class="pair-edge"') == want
                assert want == pairs_in_text, "pair serializer disagrees with pair canvas"
            if fmt in ("Bi-Inc", "Sh-Inc", "St-Inc"):
                want = sum(sum(g.order_sequence()) for g in graphs)
                assert svg.count('class="membership"') == want
            checked[fmt] += sides
    assert all(count >= 200 for count in checked.values())
    from hyperbench import render_svg

    assert render_svg(hstar, "Cli-Exp", seed=0).count('class="pair-edge"') == 7
    _report(
        "criterion 6 (visual invariants)",
        f"{sum(checked.values())} rendered scenes checked across 5 formats",
    )


# ---------------------------------------------------------------------------
# 7. grading self-consistency
# ---------------------------------------------------------------------------


def test_criterion_7_grading_self_consistency(tmp_path):
    """Canonical ground-truth renderings grade 100%; the corrupted suite
    (off-by-one counts, one-vertex-wrong sets, flipped labels, broken
    certificates) grades 0%."""
    outdir = tmp_path / "c7"
    emit_corpus(per_task=10, master_seed=17, outdir=outdir, write_images=False)
    rows = load_manifest(outdir / "manifest.jsonl")
    assert len(rows) == 4200
    canonical = [
        {"sample_id": r["sample_id"], "raw_text": canonical_answer_text(r)} for r in rows
    ]
    corrupted = [
        {"sample_id": r["sample_id"], "raw_text": corrupted_answer_text(r)} for r in rows
    ]
    good = grade_responses(rows, canonical)
    bad = grade_responses(rows, corrupted)
    n_good = sum(r.correct for r in good)
    n_bad = sum(r.correct for r in bad)
    assert n_good == 4200, f"canonical accuracy {n_good}/4200"
    assert n_bad == 0, f"corrupted suite scored {n_bad} > 0"
    _report(
        "criterion 7 (grading self-consistency)",
        "canonical 4200/4200 correct, corrupted 0/4200",
    )


# ---------------------------------------------------------------------------
# 8. PRM construction
# ---------------------------------------------------------------------------


def _fixture_rows(meta_id: str) -> list[dict]:
    rows = []
    for text_fmt, visual_fmt in ALL_COMBOS:
        rows.append(
            {
                "sample_id": f"{meta_id}__{text_fmt}__{visual_fmt}",
                "meta_id": meta_id,
                "task": "VC",
                "text_format": text_fmt,
                "visual_format": visual_fmt,
                "prompt": f"router-input({meta_id})" if text_fmt == "HO-Neigh" else "other",
                "answer_spec": {"kind": "count", "value": 1, "params": {}},
            }
        )
    return rows


def _records(rows, accuracy, repeats=4):
    """``repeats`` copies of each row, with distinct sample ids, and a record
    for each: the first ``round(acc * repeats)`` of a combo's copies right."""
    out, copies = [], []
    for row in rows:
        acc = accuracy[(row["text_format"], row["visual_format"])]
        hits = round(acc * repeats)
        for r in range(repeats):
            copies.append({**row, "sample_id": f"{row['sample_id']}#{r}"})
            out.append(GradeRecord(copies[-1]["sample_id"], ParsedAnswer("count", 1), r < hits, ()))
    return out, copies


def test_criterion_8_prm_construction():
    """Known per-combo accuracies produce exactly the argmax combos,
    including a two-way tie and the degenerate all-tie case."""
    rows_a = _fixture_rows("VC-0000")
    rows_b = _fixture_rows("VC-0001")
    rows_c = _fixture_rows("VC-0002")
    acc_a = {combo: 0.25 for combo in ALL_COMBOS}
    acc_a[("N-Set", "Cli-Exp")] = 0.75  # unique winner
    acc_b = {combo: 0.5 for combo in ALL_COMBOS}
    acc_b[("Adj-Mat", "Bi-Inc")] = 1.0  # two-way tie
    acc_b[("Inc-Mat", "St-Inc")] = 1.0
    acc_c = {combo: 0.0 for combo in ALL_COMBOS}  # degenerate: everything loses
    records, rows = [], []
    for meta_rows, accuracy in ((rows_a, acc_a), (rows_b, acc_b), (rows_c, acc_c)):
        graded, copies = _records(meta_rows, accuracy)  # four samples a combo
        records += graded
        rows += copies
    pairs, skipped = build_prm(records, rows)
    assert skipped == []

    by_meta: dict[str, list] = {}
    for p in pairs:
        by_meta.setdefault(p.meta_id, []).append(p)
    assert [p.label_combo for p in by_meta["VC-0000"]] == ["N-Set+Cli-Exp"]
    assert {p.label_combo for p in by_meta["VC-0001"]} == {"Adj-Mat+Bi-Inc", "Inc-Mat+St-Inc"}
    assert len(by_meta["VC-0002"]) == 35
    assert all(p.degenerate_tie for p in by_meta["VC-0002"])
    assert not any(p.degenerate_tie for p in by_meta["VC-0000"] + by_meta["VC-0001"])
    assert all(p.input_text == f"router-input({p.meta_id})" for p in pairs)

    # independent recomputation: every emitted combo attains the per-meta max
    for meta_id, accuracy in (("VC-0000", acc_a), ("VC-0001", acc_b), ("VC-0002", acc_c)):
        best = max(accuracy.values())
        winners = {f"{t}+{v}" for (t, v), a in accuracy.items() if a == best}
        assert {p.label_combo for p in by_meta[meta_id]} == winners
    _report(
        "criterion 8 (PRM construction)",
        "unique winner, 2-way tie, and 35-way degenerate tie all exact",
    )
