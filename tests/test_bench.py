import collections
import errno
import hashlib
import json
import os
import pickle
import random
import signal

import pytest

from hyperbench import bench, emit_corpus, generate, make_meta, read_jsonl
from hyperbench.bench import (
    ALL_COMBOS,
    TASK_SPECS,
    TASKS,
    plan_assignments,
    plan_mix,
    prompt_for,
    question_sentence,
    render_meta_svg,
    sample_params,
    sample_rows,
)
from hyperbench.core import to_json_dict
from hyperbench.text_repr import TEXT_FORMATS
from hyperbench.visual_repr import VISUAL_FORMATS

from conftest import manifest_rows


def test_task_tables():
    assert len(TASKS) == 12
    assert len(TEXT_FORMATS) == 7
    assert len(VISUAL_FORMATS) == 5
    assert len(ALL_COMBOS) == 35
    assert sorted(spec.level for spec in TASK_SPECS.values()) == sorted([1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4])


CERTIFIED_HELPERS = {
    "3-CL": ("gen_3cl_instance", "find_3cl"),
    "SHC": ("gen_shc_instance", "find_shc"),
    "HHM": ("gen_hhm_instance", "find_hhm_any"),
}


@pytest.mark.parametrize("source", bench.SOURCES)
@pytest.mark.parametrize("task", list(CERTIFIED_HELPERS))
def test_make_meta_reaches_the_helpers_on_their_modules_at_each_call(monkeypatch, task, source):
    """A certified task's builder looks up its constructor and search on
    ``bench``, and the subsampler on ``generate``, when it runs, so that a
    helper replaced there (as a tracer replaces it) is the one called."""
    want = make_meta(task, 0, "small", source, 5)
    calls = collections.Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    construct, search = CERTIFIED_HELPERS[task]
    counting(bench, construct)
    counting(bench, search)
    counting(generate, "subsample_real")
    got = make_meta(task, 0, "small", source, 5)
    assert (got.hypergraph, got.params, got.answer) == (want.hypergraph, want.params, want.answer)
    if source == "real":
        assert calls[construct] == 0
        assert calls["subsample_real"] == 1
        assert calls[search] >= 1
    else:
        assert calls == {construct: 1}


def test_make_meta_deterministic():
    a = make_meta("VC", 3, "small", "synthetic", 99)
    b = make_meta("VC", 3, "small", "synthetic", 99)
    assert a.hypergraph == b.hypergraph
    assert a.answer == b.answer
    assert a.id == "VC-0003"


def test_make_meta_answers_are_ground_truth():
    meta = make_meta("VC", 0, "medium", "synthetic", 5)
    assert meta.answer["value"] == meta.hypergraph.n
    meta = make_meta("HEC", 1, "small", "synthetic", 5)
    assert meta.answer["value"] == meta.hypergraph.num_edges
    meta = make_meta("Ne", 2, "small", "synthetic", 5)
    u = meta.params["u"]
    assert tuple(meta.answer["value"]) == meta.hypergraph.neighbors(u)


def test_make_meta_level4_certificates():
    from hyperbench import verify_shc

    m3 = make_meta("3-CL", 0, "small", "synthetic", 7)
    assert m3.answer["kind"] == "coloring"
    assert m3.answer["value"].startswith("Coloring:[")
    mshc = make_meta("SHC", 0, "small", "synthetic", 7)
    assert mshc.answer["value"].startswith("Cycle:[")
    mhhm = make_meta("HHM", 0, "small", "synthetic", 7)
    assert mhhm.answer["value"].startswith("Path:[")
    ids = [int(x[1:]) for x in mshc.answer["value"][7:-1].split(", ")]
    assert verify_shc(mshc.hypergraph, ids)


def test_make_meta_ism_pair():
    from hyperbench import solve_ism

    meta = make_meta("ISM", 4, "small", "synthetic", 31)
    assert meta.hypergraph_b is not None
    assert meta.answer["kind"] == "yes_no"
    assert meta.answer["value"] == solve_ism(meta.hypergraph, meta.hypergraph_b)


def test_sample_params_in_range(hstar):
    p = sample_params(hstar, "DVC", 3)
    assert p["d"] in set(hstar.degree_sequence())
    p = sample_params(hstar, "OEC", 3)
    assert p["k"] in set(hstar.order_sequence())
    p = sample_params(hstar, "OSP", 3)
    assert p["s"] != p["t"]
    assert 0 <= p["s"] < 5 and 0 <= p["t"] < 5
    assert sample_params(hstar, "VC", 3) == {}


def test_question_sentences(hstar):
    meta = make_meta("ONe", 0, "small", "synthetic", 2)
    q = question_sentence(meta)
    assert "order >=" in q
    assert 'after "Ans:"' in q
    meta = make_meta("HHM", 0, "small", "synthetic", 2)
    q = question_sentence(meta)
    assert "Hamiltonian path" in q
    assert f"v{meta.params['s']}" in q and f"v{meta.params['t']}" in q
    meta = make_meta("SHC", 0, "small", "synthetic", 2)
    assert "|e_i ∩ e_{i+1}| = 1" in question_sentence(meta)


def test_prompt_for_ism_names_both_graphs():
    meta = make_meta("ISM", 0, "small", "synthetic", 13)
    prompt = prompt_for(meta, "N-Set")
    assert "The description of H is:" in prompt
    assert "The description of G is:" in prompt
    assert "The hyperedges in H are:" in prompt
    assert "The hyperedges in G are:" in prompt


def test_sample_rows_shape():
    meta = make_meta("OMF", 2, "small", "synthetic", 17)
    rows = manifest_rows(meta)
    assert len(rows) == 35
    combos = [(r["text_format"], r["visual_format"]) for r in rows]
    assert combos == list(ALL_COMBOS)
    for row in rows:
        assert row["sample_id"] == f"{meta.id}__{row['text_format']}__{row['visual_format']}"
        assert row["image_path"] == f"images/{row['sample_id']}.svg"
        assert row["answer_spec"]["kind"] == "flow"
        assert row["prompt"].endswith('List the answer after "Ans:".')


def test_answer_spec_contains_graph():
    meta = make_meta("3-CL", 1, "small", "synthetic", 23)
    spec = manifest_rows(meta)[0]["answer_spec"]
    assert spec["graph"]["n"] == meta.hypergraph.n
    assert "params" in spec


def test_render_meta_svg_ism_has_two_sides():
    meta = make_meta("ISM", 1, "small", "synthetic", 29)
    svg = render_meta_svg(meta, "Bi-Inc")
    assert svg.count(">v0<") == 2


def test_plan_mix_exact_counts():
    rng = random.Random(0)
    plan = plan_mix(8, ["small", "medium", "large"], (1, 2, 1), rng)
    counts = collections.Counter(plan)
    assert counts == {"small": 2, "medium": 4, "large": 2}
    plan = plan_mix(10, ["synthetic", "real"], (1, 1), rng)
    counts = collections.Counter(plan)
    assert counts == {"synthetic": 5, "real": 5}


def test_plan_mix_remainders_within_one():
    rng = random.Random(1)
    plan = plan_mix(10, ["small", "medium", "large"], (1, 2, 1), rng)
    counts = collections.Counter(plan)
    assert sum(counts.values()) == 10
    assert abs(counts["medium"] - 5) <= 1
    assert abs(counts["small"] - 2.5) <= 0.5


def test_plan_assignments_deterministic():
    a = plan_assignments(6, 44)
    b = plan_assignments(6, 44)
    assert a == b
    assert len(a) == 6 * len(TASKS)
    per_task = collections.Counter(task for task, _, _, _ in a)
    assert all(per_task[t] == 6 for t in TASKS)
    indices = [idx for task, idx, _, _ in a if task == "OSP"]
    assert indices == list(range(6))


def test_emit_corpus_tiny(tmp_path):
    summary = emit_corpus(per_task=1, master_seed=3, outdir=tmp_path)
    assert summary["metas"] == 12
    assert summary["samples"] == 12 * 35
    rows = read_jsonl(tmp_path / "manifest.jsonl")
    assert len(rows) == 420
    tasks = collections.Counter(r["task"] for r in rows)
    assert all(tasks[t] == 35 for t in TASKS)
    for row in rows[:40]:
        assert (tmp_path / row["image_path"]).is_file()
    # rows are serialized with sorted keys
    first_line = (tmp_path / "manifest.jsonl").read_text(encoding="utf-8").splitlines()[0]
    parsed = json.loads(first_line)
    assert first_line == json.dumps(parsed, sort_keys=True)


def _manifest_digest(tmp_path, name, **kwargs):
    out = tmp_path / name
    emit_corpus(outdir=out, **kwargs)
    return hashlib.sha256((out / "manifest.jsonl").read_bytes()).hexdigest()


def test_emit_corpus_reproducible(tmp_path):
    base = dict(per_task=2, master_seed=5, write_images=False)
    a = _manifest_digest(tmp_path, "a", **base)
    b = _manifest_digest(tmp_path, "b", **base)
    c = _manifest_digest(tmp_path, "c", per_task=2, master_seed=5, write_images=False, jobs=3)
    d = _manifest_digest(tmp_path, "d", per_task=2, master_seed=6, write_images=False)
    assert a == b
    assert a == c  # worker count does not change bytes
    assert a != d


def test_emit_corpus_images_do_not_depend_on_jobs(tmp_path):
    outputs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        emit_corpus(per_task=1, master_seed=8, outdir=out, jobs=jobs)
        svgs = {path.name: path.read_bytes() for path in (out / "images").glob("*.svg")}
        outputs.append(((out / "manifest.jsonl").read_bytes(), svgs))
    assert len(outputs[0][1]) == len(TASKS) * len(ALL_COMBOS)
    assert outputs[0] == outputs[1]


def test_emit_corpus_dry_run_skips_images(tmp_path):
    emit_corpus(per_task=1, master_seed=3, outdir=tmp_path, write_images=False)
    assert not list((tmp_path / "images").glob("*.svg"))


def test_emit_rejects_bad_args(tmp_path):
    with pytest.raises(ValueError):
        emit_corpus(per_task=0, master_seed=1, outdir=tmp_path)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            emit_corpus(per_task=1, master_seed=1, outdir=tmp_path, jobs=jobs, write_images=False)
    assert not (tmp_path / "manifest.jsonl").exists()


@pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
def test_interrupted_emit_leaves_the_old_manifest(tmp_path, monkeypatch, fault):
    emit_corpus(per_task=1, master_seed=3, outdir=tmp_path, write_images=False)
    old = (tmp_path / "manifest.jsonl").read_bytes()
    made = []

    def make_meta_then_fail(*args):
        if len(made) == 5:
            raise fault("stopped part-way")
        made.append(args)
        return make_meta(*args)

    monkeypatch.setattr(bench, "make_meta", make_meta_then_fail)
    with pytest.raises(fault):
        emit_corpus(per_task=1, master_seed=4, outdir=tmp_path, write_images=False)
    assert len(made) == 5
    assert (tmp_path / "manifest.jsonl").read_bytes() == old
    assert sorted(path.name for path in tmp_path.iterdir()) == ["manifest.jsonl"]


def _dict_rows(meta):
    """The 35 manifest rows of one meta as dicts, in text-major combo order:
    how ``sample_rows`` built them before it wrote the lines directly."""
    prompts = {fmt: prompt_for(meta, fmt) for fmt in TEXT_FORMATS}
    spec = dict(meta.answer)
    spec["graph"] = to_json_dict(meta.hypergraph)
    if meta.hypergraph_b is not None:
        spec["graph_b"] = to_json_dict(meta.hypergraph_b)
    spec["params"] = dict(meta.params)
    rows = []
    for text_fmt, visual_fmt in ALL_COMBOS:
        sample_id = f"{meta.id}__{text_fmt}__{visual_fmt}"
        rows.append(
            {
                "sample_id": sample_id,
                "meta_id": meta.id,
                "task": meta.task,
                "level": meta.level,
                "scale": meta.scale,
                "source": meta.source,
                "text_format": text_fmt,
                "visual_format": visual_fmt,
                "prompt": prompts[text_fmt],
                "image_path": f"images/{sample_id}.svg",
                "answer_spec": spec,
            }
        )
    return rows


@pytest.mark.parametrize("source", bench.SOURCES)
@pytest.mark.parametrize("task", TASKS)
def test_emit_meta_lines_are_json_dumps_of_the_rows(task, source):
    context = (11, None, None)
    [encoded] = bench._emit_chunk([(task, 0, "small", source)], context)
    lines = encoded.decode()
    meta = make_meta(task, 0, "small", source, 11)
    assert lines == sample_rows(meta)
    assert lines == "".join(json.dumps(row, sort_keys=True) + "\n" for row in _dict_rows(meta))
    if task == "ISM":
        assert '"graph_b": ' in lines
    if task == "SHC":
        assert "\\u2229" in lines  # the question's non-ASCII intersection sign, escaped


def test_sample_rows_keeps_a_percent_sign_in_a_fixed_field():
    meta = make_meta("VC", 0, "small", "synthetic", 11)
    meta.params = {"note": "100% of %s"}  # filled into the line template with the answer spec
    assert sample_rows(meta) == "".join(json.dumps(row, sort_keys=True) + "\n" for row in _dict_rows(meta))


def _image_groups(images):
    """The 7 paths of each (meta, visual) image."""
    groups = collections.defaultdict(list)
    for path in images.glob("*.svg"):
        meta_id, _, visual = path.stem.split("__")
        groups[meta_id, visual].append(path)
    return groups


def _svg_bytes(outdir):
    return {path.name: path.read_bytes() for path in (outdir / "images").glob("*.svg")}


def test_emit_hard_links_the_seven_copies_of_an_image(tmp_path):
    emit_corpus(per_task=1, master_seed=8, outdir=tmp_path, source_mix=(1, 0))
    groups = _image_groups(tmp_path / "images")
    assert len(groups) == len(TASKS) * len(VISUAL_FORMATS)
    for paths in groups.values():
        assert len(paths) == len(TEXT_FORMATS)
        assert len({path.stat().st_ino for path in paths}) == 1
        assert paths[0].stat().st_nlink == len(TEXT_FORMATS)


@pytest.mark.parametrize("earlier", ["truncated", "distinct_files"])
def test_emit_over_an_earlier_output_gives_the_same_svgs(tmp_path, earlier):
    fresh = tmp_path / "fresh"
    emit_corpus(per_task=1, master_seed=8, outdir=fresh, source_mix=(1, 0))
    want = _svg_bytes(fresh)
    again = tmp_path / "again"
    emit_corpus(per_task=1, master_seed=9, outdir=again, source_mix=(1, 0))
    images = again / "images"
    for path in images.glob("*.svg"):
        if earlier == "truncated":
            os.truncate(path, 0)  # cuts all seven links of the image
        else:  # seven files of their own, as written before the copies were links
            data = path.read_bytes()
            path.unlink()
            path.write_bytes(data)
    emit_corpus(per_task=1, master_seed=8, outdir=again, source_mix=(1, 0))
    assert _svg_bytes(again) == want
    assert all(len({p.stat().st_ino for p in paths}) == 1 for paths in _image_groups(images).values())


def test_emit_copies_an_image_where_a_link_fails(tmp_path, monkeypatch):
    linked = tmp_path / "linked"
    emit_corpus(per_task=1, master_seed=8, outdir=linked, source_mix=(1, 0))

    def no_links(*args, **kwargs):
        raise OSError(errno.EPERM, "hard links not supported")

    monkeypatch.setattr(os, "link", no_links)
    copied = tmp_path / "copied"
    emit_corpus(per_task=1, master_seed=8, outdir=copied, source_mix=(1, 0))
    assert _svg_bytes(copied) == _svg_bytes(linked)
    assert all(path.stat().st_nlink == 1 for path in (copied / "images").glob("*.svg"))


def test_closing_a_parallel_emit_cancels_the_pending_chunks(tmp_path, monkeypatch):
    made = tmp_path / "made"  # one byte per meta made, in any process

    def make_meta_counted(*args):
        with open(made, "ab") as fh:
            fh.write(b".")
        return make_meta(*args)

    monkeypatch.setattr(bench, "make_meta", make_meta_counted)  # inherited by the forked workers
    logged = []

    def log_then_interrupt(line):
        logged.append(line)
        if len(logged) == 10:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        emit_corpus(per_task=100, master_seed=3, outdir=tmp_path / "out", jobs=2, write_images=False,
                    log=log_then_interrupt)
    assert made.stat().st_size < 300  # of 1,200 metas: the chunks not yet started were cancelled


def test_workers_leave_ctrl_c_to_the_parent(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "_WORKER_CONTEXT", None)
    monkeypatch.setattr(bench, "_SPOOL", None)
    handler = signal.getsignal(signal.SIGINT)
    try:
        bench._init_worker(str(tmp_path), 1, None, None)
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, handler)
        if bench._SPOOL:
            bench._SPOOL.close()
    assert bench._WORKER_CONTEXT == (1, None, None)
    assert bench._SPOOL.name == str(tmp_path / str(os.getpid()))


def test_a_pooled_chunk_returns_where_its_lines_are(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "_SPOOL", open(tmp_path / "spool", "xb"))
    monkeypatch.setattr(bench, "_WORKER_CONTEXT", (11, None, None))
    chunks = list(bench._chunks(plan_assignments(2, 11)))[:2]
    with bench._SPOOL:
        results = [bench._spool_chunk(chunk) for chunk in chunks]
    for chunk, result in zip(chunks, results):
        assert len(pickle.dumps(result)) < 1024
        assert list(bench._read_spooled(*result)) == bench._emit_chunk(chunk, (11, None, None))
    assert results[1][1] == sum(results[0][2])  # the second chunk appended after the first
    assert len(results[0][2]) == bench._CHUNK


@pytest.mark.parametrize("write_images", [False, True])
def test_pooled_emit_leaves_only_its_outputs(tmp_path, write_images):
    emit_corpus(per_task=1, master_seed=3, outdir=tmp_path, jobs=2, write_images=write_images)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["images", "manifest.jsonl"][not write_images:]


def test_a_failing_worker_leaves_no_spool_and_the_old_manifest(tmp_path, monkeypatch):
    emit_corpus(per_task=2, master_seed=3, outdir=tmp_path, jobs=2, write_images=False)
    old = (tmp_path / "manifest.jsonl").read_bytes()

    def make_meta_failing_at_osp(task, *args):
        if task == "OSP":  # the metas of the second chunk of three
            raise RuntimeError("stopped part-way")
        return make_meta(task, *args)

    monkeypatch.setattr(bench, "make_meta", make_meta_failing_at_osp)  # inherited by the forked workers
    with pytest.raises(RuntimeError, match="stopped part-way"):
        emit_corpus(per_task=2, master_seed=4, outdir=tmp_path, jobs=2, write_images=False)
    assert (tmp_path / "manifest.jsonl").read_bytes() == old
    assert sorted(path.name for path in tmp_path.iterdir()) == ["manifest.jsonl"]


def test_interrupting_a_pooled_emit_leaves_no_spool(tmp_path):
    logged = []

    def log_then_interrupt(line):
        logged.append(line)
        if len(logged) == 10:  # in the second chunk, with more still pending
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        emit_corpus(per_task=4, master_seed=3, outdir=tmp_path, jobs=2, write_images=False, log=log_then_interrupt)
    assert list(tmp_path.iterdir()) == []
