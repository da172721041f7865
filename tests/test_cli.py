import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from hyperbench import Hypergraph, bench, grade, make_meta, read_jsonl, save_json
from hyperbench.bench import plan_assignments
from hyperbench.cli import build_parser, main
from hyperbench.grade import canonical_answer_text, corrupted_answer_text

from conftest import manifest_rows

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def hstar_file(tmp_path, hstar):
    path = tmp_path / "h.json"
    save_json(hstar, path)
    return path


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "selfcheck" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["emit", "--seed", "1", "--frobnicate"]) == 2


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2


def test_generate(tmp_path, capsys):
    out = tmp_path / "graphs"
    assert main(["generate", "--seed", "5", "--count", "3", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        info = json.loads(line)
        assert (tmp_path / "graphs" / info["path"].split("/")[-1]).is_file()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_count_below_one_is_usage_error(tmp_path, capsys, count):
    out = tmp_path / "graphs"
    assert main(["generate", "--seed", "5", "--count", count, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --count must be at least 1, got {count}\n")
    assert not out.exists()


def test_generate_ism(tmp_path, capsys):
    out = tmp_path / "pairs"
    assert main(["generate", "--seed", "5", "--task", "ism", "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["isomorphic"] in (True, False)
    assert (out / "g-0000-a.json").is_file()
    assert (out / "g-0000-b.json").is_file()


@pytest.mark.parametrize("source", ["synthetic", "real"])
@pytest.mark.parametrize("task", ["3cl", "shc", "hhm"])
def test_generate_prints_a_certificate_that_verify_accepts(tmp_path, capsys, task, source):
    out = tmp_path / "graphs"
    assert main(["generate", "--seed", "5", "--count", "2", "--task", task, "--source", source, "--out", str(out)]) == 0
    infos = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(infos) == 2
    for info in infos:
        ends = ["--s", str(info["s"]), "--t", str(info["t"])] if task == "hhm" else []
        assert main(["verify", "--task", task, "--graph", info["path"], "--cert", info["certificate"], *ends]) == 0
        assert capsys.readouterr().out == "VALID\n"


def test_generate_takes_the_tables_choices():
    parser = build_parser()
    [commands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    choices = {action.dest: sorted(action.choices) for action in commands.choices["generate"]._actions if action.choices}
    assert choices == {
        "task": ["3cl", "generic", "hhm", "ism", "shc"],
        "scale": ["large", "medium", "small"],
        "source": ["real", "synthetic"],
    }


def test_render_text_stdout(hstar_file, capsys):
    assert main(["render", "--graph", str(hstar_file), "--format", "N-Set"]) == 0
    assert "The hyperedges in G are:" in capsys.readouterr().out


def test_render_svg_file(hstar_file, tmp_path):
    out = tmp_path / "h.svg"
    assert main(["render", "--graph", str(hstar_file), "--format", "Cli-Exp", "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert svg.count('class="pair-edge"') == 7


def test_render_unknown_format(hstar_file):
    assert main(["render", "--graph", str(hstar_file), "--format", "Jpeg"]) == 2


def test_render_missing_graph(tmp_path):
    assert main(["render", "--graph", str(tmp_path / "nope.json"), "--format", "N-Set"]) == 2


def test_render_second_graph_in_a_text_format_is_usage_error(hstar_file, capsys):
    args = ["render", "--graph", str(hstar_file), "--graph-b", str(hstar_file), "--format", "N-Set"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --graph-b is for a side-by-side SVG, not the text format N-Set\n"


def test_render_to_a_missing_directory_is_usage_error(hstar_file, tmp_path, capsys):
    out = tmp_path / "nodir" / "x.txt"
    assert main(["render", "--graph", str(hstar_file), "--format", "N-Set", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("cmd", ["emit", "generate", "grade", "prm"])
def test_out_on_an_existing_file_is_usage_error(tmp_path, vc_manifest, capsys, cmd):
    manifest, rows = vc_manifest
    responses = tmp_path / "resp.jsonl"
    responses.write_text(json.dumps({"sample_id": rows[0]["sample_id"], "response": "Ans: 1"}) + "\n", encoding="utf-8")
    afile = tmp_path / "afile"
    afile.write_text("in the way\n", encoding="utf-8")
    args = {
        "emit": ["--seed", "1", "--per-task", "1", "--dry-run"],
        "generate": ["--seed", "1"],
        "grade": ["--manifest", str(manifest), "--responses", str(responses)],
        "prm": ["--manifest", str(manifest), "--responses", str(responses)],
    }[cmd]
    assert main([cmd, *args, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: cannot create output directory {afile}: File exists\n")
    assert "Traceback" not in err
    assert afile.read_text(encoding="utf-8") == "in the way\n"


def test_emit_with_a_file_named_images_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "images").write_text("in the way\n", encoding="utf-8")
    assert main(["emit", "--seed", "1", "--per-task", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: cannot create output directory {out / 'images'}: File exists\n")
    assert "Traceback" not in err
    assert sorted(path.name for path in out.iterdir()) == ["images"]


def test_graph_with_out_of_range_vertex_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text('{"n": 3, "edges": [[0, 5]]}', encoding="utf-8")
    assert main(["solve", "--task", "vc", "--graph", str(graph)]) == 2
    assert "bad graph file" in capsys.readouterr().err


_MISTYPED_GRAPHS = [
    pytest.param('{"n": 3, "edges": [[0, 1.5]]}', "edge e0 has a vertex id that is not an integer: 1.5", id="float-vertex"),
    pytest.param('{"n": 3, "edges": [[0, 1], [true, 2]]}', "edge e1 has a vertex id that is not an integer: true",
                 id="bool-vertex"),
    pytest.param('{"n": true, "edges": [[0, 1]]}', "'n' must be an integer, got true", id="bool-n"),
    pytest.param('{"n": 3.0, "edges": [[0, 1]]}', "'n' must be an integer, got 3.0", id="float-n"),
    pytest.param('{"n": 3, "edges": [[0, 1], "ab"]}', "edge e1 must be an array of vertex ids, got \"ab\"",
                 id="string-edge"),
]


@pytest.mark.parametrize("text, message", _MISTYPED_GRAPHS)
@pytest.mark.parametrize("args", [["solve", "--task", "vc"], ["render", "--format", "Enc-Hy"]], ids=["solve", "render"])
def test_a_mistyped_graph_field_is_named_in_one_line(tmp_path, capsys, args, text, message):
    graph = tmp_path / "g.json"
    graph.write_text(text, encoding="utf-8")
    assert main([*args, "--graph", str(graph)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad graph file {graph}: hypergraph JSON {message}\n"


@pytest.mark.parametrize("cmd", ["grade", "prm"])
def test_a_mistyped_certificate_graph_in_the_manifest_is_named_in_one_line(tmp_path, capsys, cmd):
    rows = manifest_rows(make_meta("3-CL", 0, "small", "synthetic", 3))
    graph = rows[0]["answer_spec"]["graph"]
    broken = {**graph, "edges": [[0, 1.0], *graph["edges"][1:]]}
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps({**row, "answer_spec": {**row["answer_spec"], "graph": broken}}) + "\n"
                                for row in rows), encoding="utf-8")
    code, out = _grade(tmp_path, manifest, [json.dumps({"sample_id": rows[0]["sample_id"], "response": "Ans: 1"})], cmd)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: manifest row 1 ({rows[0]['sample_id']}) has an answer_spec.graph that does not "
                            "build: hypergraph JSON edge e0 has a vertex id that is not an integer: 1.0\n")
    assert not out.exists()


def test_running_out_of_memory_is_one_line_and_exit_2(hstar_file, monkeypatch, capsys):
    from hyperbench import visual_repr

    def too_large(*args, **kwargs):  # what numpy raises for the all-pairs matrix of a million-vertex layout
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type float64")

    monkeypatch.setattr(visual_repr, "render_svg", too_large)
    assert main(["render", "--graph", str(hstar_file), "--format", "Enc-Hy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
                            "(1000000, 1000000) and data type float64\n")


def test_solve(hstar_file, capsys):
    assert main(["solve", "--task", "osp", "--graph", str(hstar_file), "--s", "0", "--t", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"task": "osp", "value": 6, "witness": [0, 2]}
    assert main(["solve", "--task", "omf", "--graph", str(hstar_file), "--s", "1", "--t", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 6


def test_solve_requires_params(hstar_file):
    assert main(["solve", "--task", "osp", "--graph", str(hstar_file)]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["--task", "ne", "--v", "99"], "vertex id 99 outside 0..4", id="ne-vertex"),
        pytest.param(["--task", "osp", "--s", "0", "--t", "0"], "source and target must differ", id="osp-endpoints"),
        pytest.param(["--task", "dvc", "--d", "-1"], "degree must be non-negative, got -1", id="dvc-degree"),
    ],
)
def test_solve_rejected_params_are_usage_errors(hstar_file, capsys, args, message):
    assert main(["solve", "--graph", str(hstar_file), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("args", [["--task", "3cl"], ["--task", "hhm", "--s", "0", "--t", "1499"]], ids=["3cl", "hhm"])
def test_solve_on_a_graph_deeper_than_the_recursion_limit_is_a_usage_error(tmp_path, capsys, args):
    # the searches recurse once per vertex: a 1,500-vertex chain overflows the stack
    graph = tmp_path / "chain.json"
    save_json(Hypergraph(1500, [(i, i + 1) for i in range(1499)]), graph)
    assert main(["solve", "--graph", str(graph), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: graph too deep for the {args[1]} search: 1500 vertices\n"


A_DIRECTORY = object()  # a pool that is a directory, not a file


@pytest.mark.parametrize("cmd", ["emit", "generate"])
@pytest.mark.parametrize(
    "name, text, message",
    [
        pytest.param("nope.json", None, "pool file not found", id="missing"),
        pytest.param("pool.json", '{"n": 3, "edges": ', "bad pool file", id="malformed-json"),
        pytest.param("pool.hgr", "1 3 1\n2 1 3\n", "fmt", id="weighted-hmetis"),
        pytest.param("pool.json", A_DIRECTORY, "cannot read pool file {}: Is a directory", id="directory"),
    ],
)
def test_bad_pool_file_is_usage_error(tmp_path, capsys, cmd, name, text, message):
    pool = tmp_path / name
    if text is A_DIRECTORY:
        pool.mkdir()
    elif text is not None:
        pool.write_text(text, encoding="utf-8")
    args = ["--per-task", "1", "--dry-run"] if cmd == "emit" else ["--source", "real"]
    assert main([cmd, "--seed", "1", "--pool", str(pool), "--out", str(tmp_path / "out"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(pool) in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["render", "--format", "N-Set", "--graph", "{dir}", "--out", "{out}"], id="render"),
        pytest.param(["render", "--format", "Cli-Exp", "--graph", "{h}", "--graph-b", "{dir}", "--out", "{out}"],
                     id="render-graph-b"),
        pytest.param(["solve", "--task", "vc", "--graph", "{dir}"], id="solve"),
        pytest.param(["verify", "--task", "shc", "--graph", "{dir}", "--cert", "Cycle:[e0, e2]"], id="verify"),
    ],
)
def test_a_directory_as_the_graph_is_usage_error(tmp_path, hstar_file, capsys, args):
    graph, out = tmp_path / "graph.json", tmp_path / "out.txt"
    graph.mkdir()
    assert main([a.format(dir=graph, h=hstar_file, out=out) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read graph file {graph}: Is a directory\n"
    assert not out.exists()


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # nested deeper than json can decode


@pytest.mark.parametrize("where", ["manifest", "responses", "solve-graph", "emit-pool"])
def test_json_nested_deeper_than_the_recursion_limit_is_a_usage_error(tmp_path, vc_manifest, capsys, where):
    manifest, rows = vc_manifest
    if where in ("manifest", "responses"):
        if where == "manifest":
            manifest.write_text(manifest.read_text(encoding="utf-8") + DEEP_JSON + "\n", encoding="utf-8")
            bad, lineno = manifest, len(rows) + 1
        else:
            bad, lineno = tmp_path / "resp.jsonl", 2
        lines = [json.dumps({"sample_id": rows[0]["sample_id"], "response": "Ans: 1"}), DEEP_JSON]
        code, _ = _grade(tmp_path, manifest, lines)
        prefix = f"error: {bad}:{lineno}: malformed JSON line: "
    else:
        bad = tmp_path / "deep.json"
        bad.write_text('{"n": 3, "edges": ' + DEEP_JSON + "}", encoding="utf-8")
        if where == "solve-graph":
            code = main(["solve", "--task", "vc", "--graph", str(bad)])
            prefix = f"error: bad graph file {bad}: "
        else:
            code = main(["emit", "--seed", "1", "--per-task", "1", "--dry-run", "--pool", str(bad),
                         "--out", str(tmp_path / "out")])
            prefix = f"error: bad pool file {bad}: "
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and "recursion" in captured.err
    assert len(captured.err.splitlines()) == 1


SMALL_POOL = "3 8\n1 2 3\n3 4 5 6\n6 7 8\n"  # 8 vertices


@pytest.mark.parametrize(
    "args, most",
    [
        pytest.param(["emit", "--per-task", "1", "--dry-run"], 15, id="emit"),
        pytest.param(["generate", "--source", "real", "--scale", "large"], 20, id="generate"),
    ],
)
def test_pool_too_small_is_usage_error(tmp_path, capsys, args, most):
    pool = tmp_path / "pool.hgr"
    pool.write_text(SMALL_POOL, encoding="utf-8")
    out = tmp_path / "out"
    assert main([*args, "--seed", "1", "--pool", str(pool), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pool too small: {pool} has 8 vertices, this run may draw {most}\n"
    assert not (out / "manifest.jsonl").exists()


SPLIT_POOL = "4 20\n" + "".join(f"{i} {i + 1} {i + 2} {i + 3} {i + 4}\n" for i in range(1, 20, 5))  # 4 × 5 vertices


@pytest.mark.parametrize(
    "args, most",
    [
        pytest.param(["emit", "--per-task", "1", "--dry-run"], 15, id="emit"),
        pytest.param(["generate", "--source", "real", "--scale", "medium"], 15, id="generate"),
    ],
)
def test_disconnected_pool_is_usage_error(tmp_path, capsys, args, most):
    # a subsampling walk never leaves its component: the largest one decides
    pool = tmp_path / "pool.hgr"
    pool.write_text(SPLIT_POOL, encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([*args, "--seed", "1", "--pool", str(pool), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    want = f"error: pool too small: {pool}'s largest component has 5 vertices, this run may draw {most}\n"
    assert captured.err == want
    assert not (out / "manifest.jsonl").exists()
    assert not list(out.glob("g-*.json"))


def test_small_pool_is_fine_when_not_drawn_from(tmp_path):
    pool = tmp_path / "pool.hgr"
    pool.write_text(SMALL_POOL, encoding="utf-8")
    args = ["emit", "--seed", "1", "--per-task", "1", "--dry-run", "--source-mix", "1:0"]
    assert main([*args, "--pool", str(pool), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("per_task", ["0", "-2"])
def test_emit_per_task_below_one_is_usage_error(tmp_path, capsys, per_task):
    assert main(["emit", "--seed", "1", "--per-task", per_task, "--dry-run", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --per-task must be at least 1, got {per_task}\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_emit_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    assert main(["emit", "--seed", "1", "--per-task", "1", "--jobs", jobs, "--dry-run", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "manifest.jsonl").exists()


@pytest.mark.parametrize(
    "s, t, message",
    [
        pytest.param("99", "0", "vertex id 99 outside 0..4", id="s-out-of-range"),
        pytest.param("0", "-1", "vertex id -1 outside 0..4", id="t-out-of-range"),
        pytest.param("2", "2", "path endpoints must differ", id="equal"),
    ],
)
def test_verify_bad_endpoints_are_usage_errors(hstar_file, capsys, s, t, message):
    args = ["verify", "--task", "hhm", "--graph", str(hstar_file), "--cert", "Path:[e0]", "--s", s, "--t", t]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_exit_codes(hstar_file, capsys):
    ok = main([
        "verify", "--task", "3cl", "--graph", str(hstar_file),
        "--cert", "Coloring:[v0:c0, v1:c1, v2:c2, v3:c0, v4:c1]",
    ])
    assert ok == 0
    assert "VALID" in capsys.readouterr().out
    bad = main([
        "verify", "--task", "shc", "--graph", str(hstar_file),
        "--cert", "Cycle:[e0, e1]",
    ])
    assert bad == 1
    assert "INVALID" in capsys.readouterr().out


def test_emit_grade_prm_pipeline(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["emit", "--seed", "9", "--per-task", "1", "--out", str(corpus), "--dry-run"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 420
    rows = read_jsonl(corpus / "manifest.jsonl")
    responses = tmp_path / "resp.jsonl"
    with open(responses, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"sample_id": row["sample_id"], "raw_text": canonical_answer_text(row)}) + "\n")
    graded = tmp_path / "graded"
    assert main([
        "grade", "--manifest", str(corpus / "manifest.jsonl"),
        "--responses", str(responses), "--out", str(graded),
    ]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["correct"] == 420
    assert (graded / "accuracy.csv").read_text(encoding="utf-8").startswith("section,key,accuracy,count")
    prm_out = tmp_path / "prm"
    assert main([
        "prm", "--manifest", str(corpus / "manifest.jsonl"),
        "--responses", str(responses), "--out", str(prm_out),
    ]) == 0
    assert json.loads(capsys.readouterr().out)["pairs"] == 420  # all-correct => 35-way ties
    assert (prm_out / "prm.jsonl").is_file()


def test_emit_verbose_logs_each_meta_in_order(tmp_path, capsys):
    for jobs, per_task in (("1", 1), ("2", 1), ("3", 2)):  # the last in 3 chunks, as many as workers
        expected = [f"meta {task}-{idx:04d} ({scale}/{source})"
                    for task, idx, scale, source in plan_assignments(per_task, 4)]
        assert main(["emit", "--seed", "4", "--per-task", str(per_task), "--jobs", jobs, "--verbose", "--dry-run",
                     "--out", str(tmp_path / jobs)]) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == expected


@pytest.mark.parametrize("mix", ["1:2:3", "0:0", "a:1", "\u00b2:1"])  # the last is a digit int() rejects
def test_emit_bad_mix_is_usage_error(tmp_path, capsys, mix):
    assert main(["emit", "--seed", "1", "--per-task", "1", "--out", str(tmp_path),
                 "--source-mix", mix]) == 2
    assert "--source-mix must be two colon-separated integers" in capsys.readouterr().err


def test_out_defaults_to_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HYPERBENCH_OUT", str(tmp_path / "envout"))
    assert main(["generate", "--seed", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "g-0000.json").is_file()


def test_grade_missing_manifest(tmp_path):
    assert main(["grade", "--manifest", str(tmp_path / "m.jsonl"),
                 "--responses", str(tmp_path / "r.jsonl"), "--out", str(tmp_path)]) == 2


@pytest.fixture
def vc_manifest(tmp_path):
    """A one-meta VC manifest and its 35 rows."""
    rows = manifest_rows(make_meta("VC", 0, "small", "synthetic", 3))
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")
    return path, rows


def _grade(tmp_path, manifest, lines, cmd="grade"):
    tmp_path.mkdir(exist_ok=True)
    responses = tmp_path / "resp.jsonl"
    responses.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / cmd
    return main([cmd, "--manifest", str(manifest), "--responses", str(responses), "--out", str(out)]), out


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize("known", [True, False], ids=["graded", "unknown-id"])
def test_grading_in_process_leaves_nothing_frozen(tmp_path, vc_manifest, capsys, cmd, known):
    manifest, rows = vc_manifest
    sid = rows[0]["sample_id"] if known else "nope"
    code, _ = _grade(tmp_path, manifest, [json.dumps({"sample_id": sid, "response": "Ans: 1"})], cmd)
    assert code == (0 if known else 2)
    assert gc.get_freeze_count() == 0


def test_grade_accepts_response_and_raw_text_keys(tmp_path, vc_manifest, capsys):
    manifest, rows = vc_manifest
    outputs = []
    for key in ("raw_text", "response"):
        lines = [json.dumps({"sample_id": r["sample_id"], key: canonical_answer_text(r)}) for r in rows]
        code, out = _grade(tmp_path / key, manifest, lines)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["correct"] == 35
        outputs.append(((out / "grades.jsonl").read_bytes(), (out / "accuracy.csv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("no_text_key", "neither a 'response' nor a 'raw_text' string"),
        ("repeated_id", "more than one response"),
        ("malformed_line", "resp.jsonl:2: malformed JSON line"),
    ],
)
def test_grade_bad_responses_are_usage_errors(tmp_path, vc_manifest, capsys, cmd, case, message):
    manifest, rows = vc_manifest
    first = json.dumps({"sample_id": rows[0]["sample_id"], "response": "Ans: 3"})
    second = {
        "no_text_key": json.dumps({"sample_id": rows[1]["sample_id"], "answer": "Ans: 3"}),
        "repeated_id": first,
        "malformed_line": '{"sample_id": "VC-0000__N-Set__Enc-Hy", "response": ',
    }[case]
    code, out = _grade(tmp_path, manifest, [first, second], cmd)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("unknown_last", "error: responses reference unknown sample ids: ['nope']\n"),
        ("unknown_first", "error: responses reference unknown sample ids: ['nope']\n"),
        ("unknown_twice", "error: sample id nope has more than one response (response 3)\n"),
        ("known_repeated_after_unknown", "error: sample id {known} has more than one response (response 3)\n"),
        ("malformed_last", "resp.jsonl:36: malformed JSON line"),
        ("interrupt", "error: interrupted\n"),
    ],
)
def test_a_failure_after_lines_were_judged_leaves_no_output(tmp_path, vc_manifest, monkeypatch, capsys, cmd, case,
                                                            message):
    # grade spills each judged line to an anonymous temporary file: a run that fails after
    # judging leaves no --out, and nothing in the temporary directory
    manifest, rows = vc_manifest
    spill = tmp_path / "tmp"
    spill.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill))
    lines = [json.dumps({"sample_id": r["sample_id"], "response": canonical_answer_text(r)}) for r in rows]
    unknown = json.dumps({"sample_id": "nope", "response": "Ans: 1"})
    message = message.format(known=rows[0]["sample_id"])
    if case == "unknown_last":
        lines.append(unknown)
    elif case == "unknown_first":
        lines.insert(0, unknown)
    elif case == "unknown_twice":
        lines[:0] = [unknown, lines[0], unknown]
    elif case == "known_repeated_after_unknown":
        lines[:0] = [unknown, lines[0]]
    elif case == "malformed_last":
        lines.append('{"sample_id": "nope", "response": ')
    else:
        judge, judged = grade.judge, []

        def interrupted_at_the_tenth(*args):
            judged.append(None)
            if len(judged) == 10:
                raise KeyboardInterrupt
            return judge(*args)

        monkeypatch.setattr(grade, "judge", interrupted_at_the_tenth)
    code, out = _grade(tmp_path / "run", manifest, lines, cmd)
    assert code == (130 if case == "interrupt" else 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and len(captured.err.splitlines()) == 1
    assert not out.exists()
    assert list(spill.iterdir()) == []


# a row of another task with this answer kind, and a value of the wrong JSON type for it
_MISTYPED_VALUES = {
    "count_bool": ("VC", "count", True, "an integer"),
    "count_float": ("VC", "count", 3.0, "an integer"),
    "flow_string": ("OMF", "flow", "3", "an integer"),
    "path_weight_list": ("OSP", "path_weight", [6], "an integer or null"),
    "vertex_set_int": ("Ne", "vertex_set", 5, "an array of integers"),
    "vertex_set_null": ("Ne", "vertex_set", None, "an array of integers"),
    "vertex_set_mixed": ("Ne", "vertex_set", [1, "a"], "an array of integers"),
    "vertex_set_bools": ("Ne", "vertex_set", [True], "an array of integers"),
    "yes_no_int": ("ISM", "yes_no", 1, "a boolean"),
}


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize(
    "case",
    ["malformed_line", "empty_row", "no_answer_spec", "unknown_format", "repeated_id", "kind_mismatch",
     "meta_id_int", "meta_id_list", "prompt_int", "prompt_null", *_MISTYPED_VALUES],
)
def test_grade_malformed_manifest_is_usage_error(tmp_path, vc_manifest, capsys, cmd, case):
    manifest, rows = vc_manifest
    sid = rows[0]["sample_id"]
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    honeigh = next(i for i, row in enumerate(rows) if row["text_format"] == "HO-Neigh")
    if case == "no_answer_spec":
        lines[0] = json.dumps({k: v for k, v in rows[0].items() if k != "answer_spec"})
    elif case == "unknown_format":
        lines[0] = json.dumps({**rows[0], "text_format": "Nope"})
    elif case == "repeated_id":
        lines.append(json.dumps({**rows[0], "answer_spec": {**rows[0]["answer_spec"], "value": 999}}))
    elif case == "kind_mismatch":
        lines[0] = json.dumps({**rows[0], "answer_spec": {**rows[0]["answer_spec"], "kind": "yes_no"}})
    elif case.startswith("meta_id_"):
        lines[0] = json.dumps({**rows[0], "meta_id": 5 if case == "meta_id_int" else [1]})
    elif case.startswith("prompt_"):
        lines[honeigh] = json.dumps({**rows[honeigh], "prompt": 5 if case == "prompt_int" else None})
    elif case in _MISTYPED_VALUES:
        task, kind, value, _ = _MISTYPED_VALUES[case]
        lines[0] = json.dumps({**rows[0], "task": task, "answer_spec": {"kind": kind, "value": value}})
    else:
        lines.append('{"sample_id": ' if case == "malformed_line" else "{}")
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code, out = _grade(tmp_path, manifest, [json.dumps({"sample_id": sid, "response": "Ans: 3"})], cmd)
    assert code == 2
    message = {
        "malformed_line": f"error: {manifest}:{len(rows) + 1}: malformed JSON line",
        "empty_row": f"manifest row {len(rows) + 1} lacks sample_id, meta_id, task,",
        "no_answer_spec": f"manifest row 1 ({sid}) lacks answer_spec\n",
        "unknown_format": f"manifest row 1 ({sid}) has unknown text_format 'Nope'\n",
        "repeated_id": f"manifest row {len(rows) + 1} ({sid}) repeats the sample id of an earlier row\n",
        "kind_mismatch": f"manifest row 1 ({sid}) has answer_spec.kind 'yes_no', but VC answers 'count'\n",
        "meta_id_int": f"manifest row 1 ({sid}) has no string meta_id\n",
        "meta_id_list": f"manifest row 1 ({sid}) has no string meta_id\n",
        "prompt_int": f"manifest row {honeigh + 1} ({rows[honeigh]['sample_id']}) has no string prompt\n",
        "prompt_null": f"manifest row {honeigh + 1} ({rows[honeigh]['sample_id']}) has no string prompt\n",
        **{name: f"manifest row 1 ({sid}) has an answer_spec.value that is not {what}\n"
           for name, (*_, what) in _MISTYPED_VALUES.items()},
    }[case]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("vertex_out_of_range", "has an answer_spec.graph that does not build: edge e0 references a vertex outside"),
        ("edges_not_list", "has an answer_spec.graph that does not build: "),
        ("params_empty", "has answer_spec.params.s None, not a vertex id in 0.."),
        ("params_not_object", "has an answer_spec.params that is not an object"),
        ("t_out_of_range", "has answer_spec.params.t "),
        ("s_equals_t", "has equal answer_spec.params s and t"),
    ],
)
def test_grade_unusable_certificate_row_is_usage_error(tmp_path, capsys, cmd, case, message):
    rows = manifest_rows(make_meta("HHM", 0, "small", "synthetic", 3))
    spec = rows[0]["answer_spec"]
    graph, params, n = spec["graph"], spec["params"], spec["graph"]["n"]
    broken = {
        "vertex_out_of_range": {"graph": {**graph, "edges": [graph["edges"][0][:-1] + [n], *graph["edges"][1:]]}},
        "edges_not_list": {"graph": {**graph, "edges": 5}},
        "params_empty": {"params": {}},
        "params_not_object": {"params": [1]},
        "t_out_of_range": {"params": {**params, "t": n}},
        "s_equals_t": {"params": {**params, "t": params["s"]}},
    }[case]
    lines = [json.dumps({**rows[0], "answer_spec": {**spec, **broken}})] + [json.dumps(row) for row in rows[1:]]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    sid = rows[0]["sample_id"]
    code, out = _grade(tmp_path, manifest, [json.dumps({"sample_id": sid, "response": canonical_answer_text(rows[0])})], cmd)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert sid in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize("reply", ["Ans: no idea", None, "Ans: Coloring:[v0:c0]"])
def test_grade_unbuildable_certificate_graph_exits_2_whatever_the_replies(tmp_path, capsys, cmd, reply):
    row = manifest_rows(make_meta("3-CL", 0, "small", "synthetic", 3))[0]
    graph = row["answer_spec"]["graph"]
    row["answer_spec"] = {**row["answer_spec"], "graph": {**graph, "edges": [*graph["edges"], [0, 99]]}}
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(row) + "\n", encoding="utf-8")
    replies = [] if reply is None else [json.dumps({"sample_id": row["sample_id"], "response": reply})]
    code, out = _grade(tmp_path, manifest, replies, cmd)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has an answer_spec.graph that does not build: " in captured.err
    assert row["sample_id"] in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
def test_grade_missing_responses(tmp_path, vc_manifest, capsys, cmd):
    manifest, _ = vc_manifest
    out = tmp_path / "out"
    missing = tmp_path / "r.jsonl"
    assert main([cmd, "--manifest", str(manifest), "--responses", str(missing), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: responses not found: {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize("what", ["manifest", "responses"])
def test_a_directory_as_a_grading_input_is_usage_error(tmp_path, vc_manifest, capsys, cmd, what):
    manifest, rows = vc_manifest
    responses = tmp_path / "resp.jsonl"
    responses.write_text(json.dumps({"sample_id": rows[0]["sample_id"], "response": "Ans: 1"}) + "\n", encoding="utf-8")
    inputs = {"manifest": manifest, "responses": responses, what: tmp_path / "adir"}
    inputs[what].mkdir()
    out = tmp_path / "out"
    assert main([cmd, "--manifest", str(inputs["manifest"]), "--responses", str(inputs["responses"]),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {what} {inputs[what]}: Is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
@pytest.mark.parametrize(
    "what, good_lines, lineno",
    [
        pytest.param("manifest", 0, 1, id="manifest-first-line"),
        pytest.param("manifest", 35, 36, id="manifest-after-the-first-read"),
        pytest.param("responses", 0, 1, id="responses-first-line"),
        pytest.param("responses", 2, 3, id="responses-third-line"),
    ],
)
def test_a_file_that_is_not_utf8_is_named_with_its_line(tmp_path, vc_manifest, capsys, cmd, what, good_lines, lineno):
    manifest, rows = vc_manifest
    lines = [json.dumps({"sample_id": r["sample_id"], "response": "Ans: 1"}) for r in rows]
    responses = tmp_path / "resp.jsonl"
    responses.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    bad = manifest if what == "manifest" else responses
    text = bad.read_bytes()
    head = b"".join(text.splitlines(keepends=True)[:good_lines])
    bad.write_bytes(head + b"\xff\xfe" + text[len(head):])
    if good_lines == len(rows):  # the bad byte lies past the text reader's first 8 KiB chunk
        assert len(head) > 8192
    out = tmp_path / "out"
    assert main([cmd, "--manifest", str(manifest), "--responses", str(responses), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}:{lineno}: not UTF-8: invalid start byte\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grade", "prm"])
def test_grade_reports_unanswered_samples(tmp_path, vc_manifest, capsys, cmd):
    manifest, rows = vc_manifest
    lines = [json.dumps({"sample_id": r["sample_id"], "response": canonical_answer_text(r)}) for r in rows]
    assert _grade(tmp_path / "all", manifest, lines, cmd)[0] == 0
    complete = capsys.readouterr()
    assert "no response" not in complete.err
    assert _grade(tmp_path / "some", manifest, lines[5:], cmd)[0] == 0
    partial = capsys.readouterr()
    skipped = ["1 metas lack graded responses for some combos and were skipped: VC-0000\n"] if cmd == "prm" else []
    assert partial.err.splitlines(keepends=True) == ["5 manifest samples have no response\n", *skipped]
    assert json.loads(partial.out).keys() == json.loads(complete.out).keys()


def test_prm_names_the_skipped_metas_in_one_line(tmp_path, capsys):
    rows = [row for i in range(12) for row in manifest_rows(make_meta("VC", i, "small", "synthetic", 3))]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")
    # every meta but the last lacks its Inc-Mat + Cli-Exp response
    lines = [
        json.dumps({"sample_id": r["sample_id"], "response": canonical_answer_text(r)})
        for r in rows
        if r["meta_id"] == "VC-0011" or (r["text_format"], r["visual_format"]) != ("Inc-Mat", "Cli-Exp")
    ]
    code, out = _grade(tmp_path, manifest, lines, "prm")
    assert code == 0
    first_ten = ", ".join(f"VC-{i:04d}" for i in range(10))
    assert capsys.readouterr().err == (
        "11 manifest samples have no response\n"
        f"11 metas lack graded responses for some combos and were skipped: {first_ten}, ...\n"
    )
    assert {json.loads(line)["meta_id"] for line in (out / "prm.jsonl").read_text().splitlines()} == {"VC-0011"}


def test_interrupt_is_one_line_and_exit_130(tmp_path, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(bench, "make_meta", interrupted)
    out = tmp_path / "out"
    assert main(["emit", "--seed", "1", "--per-task", "1", "--dry-run", "--out", str(out)]) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: interrupted\n")
    assert list(out.iterdir()) == []  # no manifest.jsonl.tmp left


def test_a_lock_broken_by_an_interrupt_is_one_line_and_exit_130(tmp_path, monkeypatch, capsys):
    """An interrupt that lands in ``threading.Condition.wait`` between its
    release of the lock and its ``try`` makes the wait's ``with`` raise
    RuntimeError while handling the KeyboardInterrupt: still the interrupt.
    A RuntimeError raised outside an interrupt still propagates."""
    def broken_lock(*args):
        try:
            raise KeyboardInterrupt
        except KeyboardInterrupt:
            raise RuntimeError("cannot release un-acquired lock")

    def fault(*args):
        raise RuntimeError("a fault")

    args = ["emit", "--seed", "1", "--per-task", "1", "--dry-run", "--out", str(tmp_path / "out")]
    monkeypatch.setattr(bench, "make_meta", broken_lock)
    assert main(args) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: interrupted\n")
    monkeypatch.setattr(bench, "make_meta", fault)
    with pytest.raises(RuntimeError, match="a fault"):
        main(args)


def test_sigint_to_a_parallel_emit_is_one_line_and_exit_130(tmp_path):
    """SIGINT to the process group, as Ctrl-C in a terminal sends it to the
    parent and its workers, prints no worker traceback."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    # 24,000 metas: too many to finish before the signal, however loaded the host
    args = ["emit", "--seed", "1", "--per-task", "2000", "--jobs", "2", "--dry-run", "--out", str(out)]
    proc = subprocess.Popen([sys.executable, "-m", "hyperbench.cli", *args], env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    partial = out / "manifest.jsonl.tmp"
    deadline = time.monotonic() + 60
    while not (partial.exists() and partial.stat().st_size) and time.monotonic() < deadline:
        time.sleep(0.02)  # until the workers have sent their first metas
    assert proc.poll() is None
    os.killpg(proc.pid, signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stdout, stderr) == (130, "", "error: interrupted\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "render"])
def test_a_closed_stdout_is_exit_141_with_nothing_on_stderr(tmp_path, hstar, command):
    """A reader that is gone before the first line, as ``| head -1`` is soon
    after it: no BrokenPipeError traceback, and 128 + SIGPIPE."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    if command == "generate":
        args = ["generate", "--seed", "1", "--count", "3", "--out", str(tmp_path / "out")]
    else:
        save_json(hstar, tmp_path / "h.json")
        args = ["render", "--graph", str(tmp_path / "h.json"), "--format", "LO-Inc", "--out", "-"]
    proc = subprocess.Popen([sys.executable, "-m", "hyperbench.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (141, b"")


def test_grade_outputs_do_not_depend_on_response_order(tmp_path, vc_manifest):
    manifest, rows = vc_manifest
    lines = [
        json.dumps({"sample_id": r["sample_id"], "response": (canonical_answer_text if i % 3 else corrupted_answer_text)(r)})
        for i, r in enumerate(rows)
    ]
    outputs = []
    for name, order in (("forward", lines), ("reverse", lines[::-1])):
        assert _grade(tmp_path / name, manifest, order, "grade")[0] == 0
        assert _grade(tmp_path / name, manifest, order, "prm")[0] == 0
        outputs.append([(tmp_path / name / path).read_bytes() for path in ("grade/accuracy.csv", "prm/prm.jsonl")])
    assert outputs[0] == outputs[1]
    assert 0 < outputs[0][1].count(b"\n") < 35  # some combos win, not a 35-way tie


def test_selfcheck(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: PASS" in out
    assert "FAIL" not in out
