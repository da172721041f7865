"""Every command that reads a graph, run in-process against one family of
malformed and degenerate graph files: each run ends with exit 0, 1 or 2,
at most one line on stderr and no traceback."""

import json
import time

from hyperbench import make_meta
from hyperbench.bench import TASK_TABLE
from hyperbench.cli import main
from hyperbench.core import VISUAL_FORMATS
from hyperbench.text_repr import TEXT_FORMATS

from conftest import manifest_rows

GRAPHS = {
    "n-1": {"n": 1, "edges": []},
    "n-0": {"n": 0, "edges": []},
    "n-negative": {"n": -1, "edges": []},
    "n-float": {"n": 3.0, "edges": [[0, 1, 2]]},
    "no-edges": {"n": 4, "edges": []},
    "repeated-vertex": {"n": 4, "edges": [[0, 0, 1], [1, 2, 3]]},
    "negative-vertex": {"n": 4, "edges": [[0, -1], [1, 2, 3]]},
    "out-of-range-vertex": {"n": 4, "edges": [[0, 4], [1, 2, 3]]},
    "empty-edge": {"n": 4, "edges": [[], [0, 1, 2], [2, 3]]},
    "one-vertex-edge": {"n": 4, "edges": [[0], [0, 1, 2], [2, 3]]},
    "edges-a-string": {"n": 4, "edges": "0,1"},
    "edges-an-object": {"n": 4, "edges": {"0": [0, 1]}},
    "top-level-list": [[0, 1], [1, 2]],
    "top-level-string": "0-1 1-2",
    "top-level-null": None,
    "disconnected": {"n": 4, "edges": [[0, 1], [2, 3]]},
    "one-3-vertex-edge": {"n": 3, "edges": [[0, 1, 2]]},
}

_PARAMS = ["--v", "0", "--k", "2", "--d", "1", "--s", "0", "--t", "1"]
_CERTS = {"3cl": "Coloring:[v0:c0, v1:c1, v2:c2]", "shc": "Cycle:[e0, e1]", "hhm": "Path:[e0, e1]"}


def _commands():
    """(name, argv with GRAPH and OUT placeholders) for every command that
    reads a graph file."""
    for fmt in TEXT_FORMATS + VISUAL_FORMATS:
        yield f"render {fmt}", ["render", "--format", fmt, "--graph", "GRAPH"]
        yield f"render {fmt} pair", ["render", "--format", fmt, "--graph", "GRAPH", "--graph-b", "GRAPH"]
    for spec in TASK_TABLE:
        task = spec.id.lower().replace("-", "")
        yield f"solve {task}", ["solve", "--task", task, "--graph", "GRAPH", "--graph-b", "GRAPH", *_PARAMS]
    for task, cert in _CERTS.items():
        yield f"verify {task}", ["verify", "--task", task, "--graph", "GRAPH", "--cert", cert, "--s", "0", "--t", "1"]
    yield "emit --pool", ["emit", "--seed", "1", "--per-task", "1", "--dry-run", "--pool", "GRAPH", "--out", "OUT"]
    yield "generate --pool", ["generate", "--seed", "1", "--source", "real", "--pool", "GRAPH", "--out", "OUT"]
    for cmd in ("grade", "prm"):
        yield f"{cmd} graph-in-row", [cmd, "--manifest", "ROW", "--responses", "REPLY", "--out", "OUT"]
        yield f"{cmd} graph-as-manifest", [cmd, "--manifest", "GRAPH", "--responses", "REPLY", "--out", "OUT"]


def test_malformed_graph_files_give_an_exit_code_and_one_line(tmp_path, capsys):
    row = manifest_rows(make_meta("3-CL", 0, "small", "synthetic", 3))[0]
    reply = tmp_path / "reply.jsonl"
    reply.write_text(json.dumps({"sample_id": row["sample_id"], "response": "Ans: " + _CERTS["3cl"]}) + "\n",
                     encoding="utf-8")
    commands = list(_commands())
    failures = []
    start = time.perf_counter()
    for name, graph in GRAPHS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph), encoding="utf-8")
        in_row = tmp_path / f"{name}.manifest.jsonl"
        in_row.write_text(json.dumps({**row, "answer_spec": {**row["answer_spec"], "graph": graph}}) + "\n",
                          encoding="utf-8")
        for index, (command, argv) in enumerate(commands):
            out = tmp_path / "out" / name / str(index)
            places = {"GRAPH": str(path), "ROW": str(in_row), "REPLY": str(reply), "OUT": str(out)}
            code = main([places.get(arg, arg) for arg in argv])
            err = capsys.readouterr().err
            if code not in (0, 1, 2) or len(err.splitlines()) > 1 or "Traceback" in err:
                failures.append((name, command, code, err))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert len(commands) == 45
    assert elapsed < 5
