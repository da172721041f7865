import functools
import json
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperbench import aggregate, build_prm, emit_corpus, generate, grade, grade_responses, make_meta, read_jsonl
from hyperbench.bench import ALL_COMBOS, REASONING_TASKS, TASKS, UNDERSTANDING_TASKS, task_spec
from hyperbench.core import VISUAL_FORMATS, from_json_dict, to_json_dict
from hyperbench.grade import (
    AccuracyTable,
    GradeOptions,
    GradeRecord,
    ParsedAnswer,
    PRMPair,
    canonical_answer_text,
    corrupted_answer_text,
    judge,
    parse_answer,
    write_prm,
)
from hyperbench.text_repr import TEXT_FORMATS

from conftest import manifest_rows, write_grades

STRICT = GradeOptions(lenient=False)


def write_jsonl(path, records) -> None:
    """One ``json.dumps(record, sort_keys=True)`` per line: the layout the
    grade writers' templates reproduce."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


# -- parsing ---------------------------------------------------------------


def test_parse_count_variants():
    assert parse_answer("VC", "Ans: 12").value == 12
    assert parse_answer("VC", "ans:12").value == 12
    assert parse_answer("VC", "thinking...\nAns: 5\n").value == 5
    p = parse_answer("VC", "Ans: there are 12 vertices")
    assert p.value == 12
    assert "prose" in p.flags


def test_parse_marker_selection():
    text = "Ans: 3 ... wait, recount. Ans: 4"
    assert parse_answer("VC", text).value == 4
    first = parse_answer("VC", text, GradeOptions(marker="first"))
    assert first.value == 3


def test_parse_no_marker():
    p = parse_answer("VC", "the count is 9")
    assert p.value == 9
    assert "no_marker" in p.flags
    s = parse_answer("VC", "the count is 9", STRICT)
    assert s.failed


def test_parse_failure():
    p = parse_answer("VC", "Ans: none of the above")
    assert p.failed
    assert "parse_failure" in p.flags


def test_parse_path_weight():
    assert parse_answer("OSP", "Ans: 14").value == 14
    assert parse_answer("OSP", "Ans: No path").value is None
    assert parse_answer("OSP", "ans: there is no path").value is None


def test_parse_vertex_set():
    assert parse_answer("Ne", "Ans: {v2,v5,v1}").value == [1, 2, 5]
    assert parse_answer("Ne", "Ans: {}").value == []
    assert parse_answer("Ne", "Ans: No neighbors").value == []
    assert parse_answer("ONe", "Ans: no n-neighbors").value == []
    p = parse_answer("Ne", "Ans: v1 and v3")
    assert p.value == [1, 3]
    assert "no_braces" in p.flags
    q = parse_answer("Ne", "Ans: {2, 4}")
    assert q.value == [2, 4]
    assert "bare_ids" in q.flags
    assert parse_answer("Ne", "Ans: {v1, v1, v2}").value == [1, 2]


def test_parse_yes_no():
    assert parse_answer("ISM", "Ans: Yes").value is True
    assert parse_answer("ISM", "Ans: [No]").value is False
    p = parse_answer("ISM", "Ans: I believe yes, they match")
    assert p.value is True
    assert "prose" in p.flags
    assert parse_answer("ISM", "Ans: maybe").failed


def test_parse_coloring():
    p = parse_answer("3-CL", "Ans: Coloring:[v0:c0, v1:c2, v2:c1]")
    assert p.value == {0: 0, 1: 2, 2: 1}
    assert p.flags == ()
    q = parse_answer("3-CL", "Ans: [v0:c0,v1:c1]")
    assert q.value == {0: 0, 1: 1}
    assert "missing_keyword" in q.flags
    r = parse_answer("3-CL", "Ans: v0=0, v1=2")
    assert r.value == {0: 0, 1: 2}
    dup = parse_answer("3-CL", "Ans: Coloring:[v0:c0, v0:c1]")
    assert dup.value == {0: 1}
    assert "duplicate_assignment" in dup.flags


def test_parse_cycle_and_path():
    p = parse_answer("SHC", "Ans: Cycle:[e0, e3, e2]")
    assert p.value == [0, 3, 2]
    assert p.flags == ()
    q = parse_answer("HHM", "Ans: Path:[e1,e1,e4]")
    assert q.value == [1, 1, 4]
    r = parse_answer("SHC", "Ans: [1, 2, 3]")
    assert r.value == [1, 2, 3]
    assert "bare_ids" in r.flags
    assert parse_answer("HHM", "Ans: impossible").failed


def test_strict_rejects_leniencies():
    assert parse_answer("Ne", "Ans: v1 and v3", STRICT).failed
    assert parse_answer("3-CL", "Ans: [v0:c0]", STRICT).failed
    assert not parse_answer("Ne", "Ans: {v1,v3}", STRICT).failed


def test_parse_unknown_task():
    with pytest.raises(ValueError):
        parse_answer("XYZ", "Ans: 1")


# The certificate and vertex-set parsers as they were written with one
# regex per search: same values and flags, but quadratic on replies that
# open many brackets without closing them or repeat long whitespace runs.


def _old_cert_region(payload, keyword, flags):
    m = re.search(rf"{keyword}\s*:?\s*\[([^\]]*)\]", payload, re.IGNORECASE)
    if m:
        return m.group(1)
    flags.append("missing_keyword")
    m = re.search(r"\[([^\]]*)\]", payload)
    if m:
        return m.group(1)
    flags.append("no_brackets")
    return payload


def _old_parse_coloring(payload, flags):
    region = _old_cert_region(payload, "coloring", flags)
    pairs = re.findall(r"v\s*(\d+)\s*[:=]\s*c?\s*([012])\b", region, re.IGNORECASE)
    if not pairs:
        return grade._UNPARSED
    value = {}
    for v, c in pairs:
        v = int(v)
        if v in value:
            flags.append("duplicate_assignment")
        value[v] = int(c)
    return value


def _old_parse_edge_sequence(payload, keyword, flags):
    region = _old_cert_region(payload, keyword, flags)
    ids = re.findall(r"e\s*(\d+)", region, re.IGNORECASE)
    if not ids:
        ids = re.findall(r"\d+", region)
        if ids:
            flags.append("bare_ids")
    if not ids:
        return grade._UNPARSED
    return [int(i) for i in ids]


def _old_parse_vertex_set(payload, flags):
    if re.search(r"no\s+n?-?\s*neighbors", payload, re.IGNORECASE):
        return []
    brace = re.search(r"\{([^{}]*)\}", payload)
    if brace and not brace.group(1).strip():
        return []
    region = brace.group(1) if brace else payload
    if not brace:
        flags.append("no_braces")
    ids = re.findall(r"v\s*(\d+)", region)
    if not ids:
        ids = re.findall(r"\d+", region)
        if ids:
            flags.append("bare_ids")
    if not ids:
        return grade._UNPARSED
    return sorted({int(i) for i in ids})


def _joined(*parts):
    return st.tuples(*parts).map("".join)


_WS = st.sampled_from(["", " ", "   ", "\n", "\t "])
_DIGITS = st.sampled_from(["0", "1", "2", "3", "12"])
# an item of a certificate or vertex set, whole or cut short: "v1: c2", "e3", "V 0=1", "7"
_ITEM = _joined(st.sampled_from(["v", "V", "e", "E", ""]), _WS, _DIGITS,
                st.sampled_from(["", ":", "=", ": c", ":C ", "=c"]), _WS, st.sampled_from(["", "0", "1", "2", "12"]))
_ITEMS = st.lists(_ITEM, max_size=4).map(", ".join)
_FRAGMENT = st.one_of(
    # a keyword bracket, closed or not
    _joined(st.sampled_from(["Coloring", "coloring", "Cycle", "cycle", "Path", "PATH", ""]), _WS,
            st.sampled_from(["", ":", "="]), _WS, st.sampled_from(["[", "", "{"]), _ITEMS,
            st.sampled_from(["]", "", "}", "]."])),
    # "no neighbors" and its near misses
    _joined(st.sampled_from(["no", "No", "NO", "n"]), _WS, st.sampled_from(["", "n", "N", "-", "n-", "n -"]), _WS,
            st.sampled_from(["neighbors", "Neighbors", "neighbor", "-neighbors"])),
    st.sampled_from(["[", "]", "{", "}", ":", " ", "yes", "x", "-"]),
)
_REPLIES = st.lists(_FRAGMENT, max_size=6).map("".join)


# answer kind -> old parser, as grade._PARSERS holds the new ones
_OLD_PARSERS = {
    "coloring": _old_parse_coloring,
    "cycle": lambda payload, flags: _old_parse_edge_sequence(payload, "cycle", flags),
    "path": lambda payload, flags: _old_parse_edge_sequence(payload, "path", flags),
    "vertex_set": _old_parse_vertex_set,
}


@settings(max_examples=600, deadline=None)
@given(_REPLIES)
@example("Path:[" * 40)
@example("Coloring:[v1" * 40)
@example("[" * 40 + "]")
@example("Coloring" + " " * 40 + ": [v0: c 1, v2 =C2]")
@example("[v1:" + " " * 40 + "c" + " " * 3 + "2]")
@example("no" + " " * 40 + "n -  neighbors")
def test_linear_parsers_match_the_regex_parsers(reply):
    for kind, old in _OLD_PARSERS.items():
        new_flags, old_flags = [], []
        assert (grade._PARSERS[kind](reply, new_flags), new_flags) == (old(reply, old_flags), old_flags), kind


_MB = 1 << 20


@pytest.mark.parametrize(("task", "reply", "flags"), [
    ("HHM", "Path:[" * (_MB // 6), ("missing_keyword", "no_brackets")),
    ("3-CL", "Coloring:[v1" * (_MB // 12), ("missing_keyword", "no_brackets")),
    ("SHC", "[" * _MB, ("missing_keyword", "no_brackets")),
    ("3-CL", "Coloring" + " " * _MB, ("missing_keyword", "no_brackets")),
    ("3-CL", "[v1:" + " " * _MB, ("missing_keyword", "no_brackets")),
    ("Ne", "no" + " " * _MB, ("no_braces",)),
    ("ONe", "no" + " " * _MB, ("no_braces",)),
], ids=["Path-brackets", "Coloring-brackets", "bare-brackets", "Coloring-spaces", "pair-spaces",
        "Ne-no-spaces", "ONe-no-spaces"])
def test_a_1mb_hostile_reply_parses_in_under_a_second(task, reply, flags):
    start = time.perf_counter()
    parsed = parse_answer(task, "Ans: " + reply)
    elapsed = time.perf_counter() - start
    assert parsed.flags == ("parse_failure", *flags)
    assert elapsed < 1.0


# -- judging ---------------------------------------------------------------


def _row(task, kind, value, graph=None, params=None, **extra):
    spec = {"kind": kind, "value": value, "params": params or {}}
    if graph is not None:
        spec["graph"] = to_json_dict(graph)
    row = {
        "sample_id": f"{task}-0000__LO-Inc__Enc-Hy",
        "meta_id": f"{task}-0000",
        "task": task,
        "text_format": "LO-Inc",
        "visual_format": "Enc-Hy",
        "prompt": "p",
        "answer_spec": spec,
    }
    row.update(extra)
    return row


def _answer(row):
    """The answer record that the index keeps for ``row``, which judge takes."""
    ((answer, *_),) = grade.index_manifest([row]).values()
    return answer


def test_judge_count():
    row = _answer(_row("VC", "count", 7))
    assert judge(row, parse_answer("VC", "Ans: 7"))[0]
    assert not judge(row, parse_answer("VC", "Ans: 8"))[0]
    assert not judge(row, parse_answer("VC", "Ans: nothing"))[0]


def test_judge_vertex_set_order_free():
    row = _answer(_row("Ne", "vertex_set", [1, 4]))
    assert judge(row, parse_answer("Ne", "Ans: {v4,v1}"))[0]
    assert not judge(row, parse_answer("Ne", "Ans: {v4}"))[0]


def test_judge_accepts_any_valid_certificate(hstar):
    row = _answer(_row("3-CL", "coloring", "Coloring:[v0:c0, v1:c1, v2:c2, v3:c0, v4:c1]", graph=hstar))
    # a different valid coloring still counts
    ok, _ = judge(row, parse_answer("3-CL", "Ans: Coloring:[v0:c1, v1:c2, v2:c0, v3:c1, v4:c2]"))
    assert ok
    bad, flags = judge(row, parse_answer("3-CL", "Ans: Coloring:[v0:c0, v1:c0, v2:c0, v3:c0, v4:c0]"))
    assert not bad
    partial, flags = judge(row, parse_answer("3-CL", "Ans: Coloring:[v0:c0, v1:c1]"))
    assert not partial
    assert "partial_coloring" in flags


def test_judge_shc_flags_two_cycle(hstar):
    row = _answer(_row("SHC", "cycle", "Cycle:[e0, e2]", graph=hstar))
    ok, flags = judge(row, parse_answer("SHC", "Ans: Cycle:[e0, e2]"))
    assert ok
    assert "shc_k2" in flags
    bad, flags = judge(row, parse_answer("SHC", "Ans: Cycle:[e0, e9]"))
    assert not bad
    assert "invalid_ids" in flags


def test_judge_hhm(hstar):
    row = _answer(_row("HHM", "path", "Path:[e0, e0, e1, e2]", graph=hstar, params={"s": 0, "t": 4}))
    assert judge(row, parse_answer("HHM", "Ans: Path:[e0, e0, e1, e2]"))[0]
    assert not judge(row, parse_answer("HHM", "Ans: Path:[e0, e1, e2]"))[0]


# -- judge fuzz: planted and real certificates, valid and corrupted ---------


def _coloring_holds(h, value: dict) -> bool:
    return set(value) == set(range(h.n)) and all(len({value[v] for v in e}) >= 2 for e in h.edges)


def _cycle_holds(h, ids: list) -> bool:
    pairs = zip(ids, ids[1:] + ids[:1])
    return len(ids) >= 2 and len(set(ids)) == len(ids) and all(len(set(h.edges[a]) & set(h.edges[b])) == 1 for a, b in pairs)


def _path_holds(h, ids: list, s: int, t: int) -> bool:
    """Breadth-first over (vertex, visited set) states, step by step: an
    order s..t through every vertex, step i inside hyperedge ids[i]."""
    if len(ids) != h.n - 1:
        return False
    states = {(s, 1 << s)}
    for j in ids:
        members = h.edges[j]
        states = {(w, mask | 1 << w) for v, mask in states if v in members for w in members if not mask >> w & 1}
    return (t, (1 << h.n) - 1) in states


def _edit_sequence(ids: list, edits, m: int) -> list:
    """``ids`` after each ``(op, i, x)`` edit; ids reach past the last edge."""
    ids = list(ids)
    for op, i, x in edits:
        if op == "insert":
            ids.insert(i % (len(ids) + 1), x % (m + 2))
        elif ids and op == "set":
            ids[i % len(ids)] = x % (m + 2)
        elif ids and op == "delete":
            del ids[i % len(ids)]
        elif ids and op == "swap":
            a, b = i % len(ids), x % len(ids)
            ids[a], ids[b] = ids[b], ids[a]
    return ids


_JUDGE_BOUND_S = 1.0  # per judge call; corpus-size certificates check in milliseconds


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["3-CL", "SHC", "HHM"]),
    st.sampled_from(["small", "medium", "large"]),
    st.sampled_from(["synthetic", "real"]),
    st.integers(0, 2**32),
    st.lists(st.tuples(st.sampled_from(["set", "insert", "delete", "swap"]), st.integers(0, 40),
                       st.integers(0, 40)), max_size=3),
)
def test_judge_agrees_with_the_certificate_definitions(task, scale, source, seed, edits):
    h, _, params, text = task_spec(task).build(generate.GenSpec(task, scale, source, seed), None)
    kind = task_spec(task).kind
    cert = parse_answer(task, "Ans: " + text).value
    if kind == "coloring":  # each edit drops, adds or recolors a vertex, perhaps one past the last
        value = dict(cert)
        for op, i, x in edits:
            if op == "delete":
                value.pop(i % (h.n + 2), None)
            else:
                value[i % (h.n + 2)] = x % 3
        reply = "Coloring:[" + ", ".join(f"v{v}:c{c}" for v, c in value.items()) + "]"
        in_range = True
        holds = _coloring_holds(h, value)
    else:
        value = _edit_sequence(cert, edits, len(h.edges))
        reply = ("Cycle:[" if kind == "cycle" else "Path:[") + ", ".join(f"e{j}" for j in value) + "]"
        in_range = all(j < len(h.edges) for j in value)
        holds = in_range and (_cycle_holds(h, value) if kind == "cycle" else _path_holds(h, value, **params))
    row = _answer(_row(task, kind, text, graph=h, params=params))
    parsed = parse_answer(task, "Ans: " + reply)
    start = time.perf_counter()
    ok, flags = judge(row, parsed)
    assert time.perf_counter() - start < _JUDGE_BOUND_S
    assert ok == holds
    assert ("invalid_ids" in flags) == (not in_range and not parsed.failed)
    if not edits:
        assert ok  # the stored certificate


def test_grade_responses_rejects_unknown_ids():
    rows = [_row("VC", "count", 3)]
    with pytest.raises(ValueError):
        grade_responses(rows, [{"sample_id": "nope", "raw_text": "Ans: 3"}])


def test_grade_responses_round_trip(tmp_path):
    rows = [_row("VC", "count", 3)]
    resp_path = tmp_path / "r.jsonl"
    resp_path.write_text(json.dumps({"sample_id": rows[0]["sample_id"], "raw_text": "Ans: 3"}) + "\n")
    records = grade_responses(rows, read_jsonl(resp_path))
    assert len(records) == 1 and records[0].correct
    out = tmp_path / "g.jsonl"
    write_grades(records, out)
    logged = json.loads(out.read_text().strip())
    assert logged["correct"] is True


# -- aggregation -----------------------------------------------------------


def _combo_rows(meta_id, task="VC", value=3):
    rows = []
    for text_fmt, visual_fmt in ALL_COMBOS:
        rows.append(
            {
                "sample_id": f"{meta_id}__{text_fmt}__{visual_fmt}",
                "meta_id": meta_id,
                "task": task,
                "text_format": text_fmt,
                "visual_format": visual_fmt,
                "prompt": f"prompt({meta_id},{text_fmt})",
                "answer_spec": {"kind": "count", "value": value, "params": {}},
            }
        )
    return rows


def test_aggregate_marginals():
    rows = _combo_rows("VC-0000")
    records = []
    for row in rows:
        correct = row["text_format"] == "N-Set"
        records.append(GradeRecord(row["sample_id"], ParsedAnswer("count", 3), correct, ()))
    table = aggregate(records, rows)
    assert table.cells["task", "VC"][0] == pytest.approx(5 / 35)
    assert table.cells["text_format", "N-Set"][0] == 1.0
    assert table.cells["text_format", "LO-Inc"][0] == 0.0
    assert table.cells["visual_format", "Enc-Hy"][0] == pytest.approx(1 / 7)
    assert table.cells["task", "OMF"][0] is None
    assert table.avg_u == pytest.approx(5 / 35)  # only VC graded among understanding tasks
    assert table.avg_r is None
    csv = table.to_csv()
    assert "task,VC,0.1429,35" in csv
    assert "task,OMF,,0" in csv
    assert "average,Avg.R,," in csv


def test_aggregate_order_invariant():
    rows = _combo_rows("VC-0000")
    records = [
        GradeRecord(r["sample_id"], ParsedAnswer("count", 3), i % 2 == 0, ())
        for i, r in enumerate(rows)
    ]
    a = aggregate(records, rows)
    b = aggregate(list(reversed(records)), rows)
    assert [a.cells["task", t] for t in TASKS] == [b.cells["task", t] for t in TASKS]
    assert [a.cells["text_format", t] for t in TEXT_FORMATS] == [b.cells["text_format", t] for t in TEXT_FORMATS]


def test_aggregate_and_prm_reject_repeated_manifest_id():
    rows = _combo_rows("VC-0000")
    records = [GradeRecord(r["sample_id"], ParsedAnswer("count", 3), True, ()) for r in rows]
    repeated = rows + [{**rows[0], "answer_spec": {**rows[0]["answer_spec"], "value": 999}}]
    for build in (aggregate, build_prm):
        with pytest.raises(ValueError, match=f"manifest row 36 \\({rows[0]['sample_id']}\\) repeats the sample id of an earlier row"):
            build(records, repeated)


# a broken field of a meta's first HO-Neigh row (None: the key left out), or
# None for that row's record given twice -> the error naming the row or id
_REJECTED = {
    "unknown text_format": ({"text_format": "bogus"}, "manifest row {n} ({sid}) has unknown text_format 'bogus'"),
    "no meta_id": ({"meta_id": None}, "manifest row {n} ({sid}) lacks meta_id"),
    "HO-Neigh prompt not a string": ({"prompt": 5}, "manifest row {n} ({sid}) has no string prompt"),
    "repeated record": (None, "sample id {sid} has more than one record"),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_aggregate_and_prm_name_the_row_or_id_they_reject(case):
    rows = _combo_rows("VC-0000")
    records = [GradeRecord(r["sample_id"], ParsedAnswer("count", 3), True, ()) for r in rows]
    i = next(i for i, row in enumerate(rows) if row["text_format"] == "HO-Neigh")
    broken, message = _REJECTED[case]
    if broken is None:
        records.append(records[i])
    else:
        rows[i] = {key: value for key, value in {**rows[i], **broken}.items() if value is not None}
    message = message.format(n=i + 1, sid=records[i].sample_id)
    for build in (aggregate, build_prm):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(records, rows)


def _records_with_accuracy(rows, accuracy_by_combo, repeats=2):
    """Records and the manifest rows they grade: ``repeats`` copies of each
    row, with distinct sample ids, the first ``round(acc * repeats)`` of a
    combo's copies right."""
    records, copies = [], []
    for row in rows:
        combo = (row["text_format"], row["visual_format"])
        acc = accuracy_by_combo[combo]
        hits = round(acc * repeats)
        for r in range(repeats):
            copies.append({**row, "sample_id": f"{row['sample_id']}#{r}"})
            records.append(
                GradeRecord(copies[-1]["sample_id"], ParsedAnswer("count", 3), r < hits, ())
            )
    return records, copies


def test_build_prm_unique_winner():
    rows = _combo_rows("VC-0000")
    acc = {combo: 0.5 for combo in ALL_COMBOS}
    acc[("N-Set", "Cli-Exp")] = 1.0
    pairs, _ = build_prm(*_records_with_accuracy(rows, acc))
    assert len(pairs) == 1
    assert pairs[0].label_combo == "N-Set+Cli-Exp"
    assert pairs[0].meta_id == "VC-0000"
    assert pairs[0].input_text == "prompt(VC-0000,HO-Neigh)"
    assert not pairs[0].degenerate_tie


def test_build_prm_tie_keeps_all():
    rows = _combo_rows("VC-0000")
    acc = {combo: 0.0 for combo in ALL_COMBOS}
    acc[("N-Set", "Cli-Exp")] = 1.0
    acc[("Inc-Mat", "Bi-Inc")] = 1.0
    pairs, _ = build_prm(*_records_with_accuracy(rows, acc))
    assert {p.label_combo for p in pairs} == {"N-Set+Cli-Exp", "Inc-Mat+Bi-Inc"}


def test_build_prm_degenerate_tie_flagged():
    rows = _combo_rows("VC-0000")
    acc = {combo: 0.0 for combo in ALL_COMBOS}
    pairs, _ = build_prm(*_records_with_accuracy(rows, acc))
    assert len(pairs) == 35
    assert all(p.degenerate_tie for p in pairs)


def test_build_prm_skips_partial_coverage():
    rows = _combo_rows("VC-0000") + _combo_rows("VC-0001")
    acc = {combo: 1.0 for combo in ALL_COMBOS}
    records, graded = _records_with_accuracy(rows[:35], acc)  # only the first meta
    records.append(GradeRecord(rows[35]["sample_id"], ParsedAnswer("count", 3), True, ()))
    pairs, skipped = build_prm(records, graded + rows[35:])
    assert {p.meta_id for p in pairs} == {"VC-0000"}
    assert skipped == ["VC-0001"]


# the per-sample-list aggregation that the per-cell tallies replaced, kept as
# the reference they must agree with, errors and their order included: one
# record per sample id, and one manifest row


def _reference_graded_rows(records, manifest_rows):
    seen = {}
    for n, row in enumerate(manifest_rows, 1):
        sid = row["sample_id"]
        if sid in seen:
            raise ValueError(f"manifest row {n} ({sid}) repeats the sample id of an earlier row")
        seen[sid] = None
    hits = {}
    unknown = []
    for rec in records:
        if rec.sample_id not in seen:
            unknown.append(rec.sample_id)
        elif rec.sample_id in hits:
            raise ValueError(f"sample id {rec.sample_id} has more than one record")
        else:
            hits[rec.sample_id] = [1 if rec.correct else 0]
    if unknown:
        raise ValueError(f"records reference unknown sample ids: {unknown[:10]}")
    return [(row, hits[row["sample_id"]]) for row in manifest_rows if row["sample_id"] in hits]


def _reference_aggregate(records, manifest_rows):
    axes = (("task", TASKS), ("text_format", TEXT_FORMATS), ("visual_format", VISUAL_FORMATS))
    tally = {(section, key): [] for section, keys in axes for key in keys}
    for row, hits in _reference_graded_rows(records, manifest_rows):
        for section, _ in axes:
            tally[section, row[section]].extend(hits)
    cells = {cell: (sum(h) / len(h) if h else None, len(h)) for cell, h in tally.items()}

    def mean(tasks):
        present = [cells["task", t][0] for t in tasks if cells["task", t][0] is not None]
        return sum(present) / len(present) if present else None

    return AccuracyTable(cells, mean(UNDERSTANDING_TASKS), mean(REASONING_TASKS))


def _reference_build_prm(records, manifest_rows):
    combo_hits = {}
    prompts = {}
    for row, hits in _reference_graded_rows(records, manifest_rows):
        meta_id = row["meta_id"]
        combo = (row["text_format"], row["visual_format"])
        combo_hits.setdefault(meta_id, {}).setdefault(combo, []).extend(hits)
        if row["text_format"] == "HO-Neigh":
            prompts.setdefault(meta_id, row["prompt"])
    pairs = []
    skipped = []
    for meta_id, by_combo in combo_hits.items():
        if any(combo not in by_combo for combo in ALL_COMBOS):
            skipped.append(meta_id)
            continue
        means = {combo: sum(h) / len(h) for combo, h in by_combo.items()}
        best = max(means.values())
        winners = [combo for combo in ALL_COMBOS if means[combo] == best]
        degenerate = len(winners) == len(ALL_COMBOS)
        for text_fmt, visual_fmt in winners:
            pairs.append(PRMPair(meta_id, text_fmt, visual_fmt, prompts[meta_id], degenerate))
    return pairs, skipped


def _outcome(build, records, rows):
    """What ``build`` returns, or the type and message of what it raises."""
    try:
        return build(records, rows)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_tallies_match_reference(records, rows):
    assert _outcome(aggregate, records, rows) == _outcome(_reference_aggregate, records, rows)
    assert _outcome(build_prm, records, rows) == _outcome(_reference_build_prm, records, rows)


@functools.cache
def _answer_spec(task):
    """An answer_spec of ``task`` that the index accepts, from a generated meta."""
    return manifest_rows(make_meta(task, 0, "small", "synthetic", 1))[0]["answer_spec"]


def _varied_rows(meta_id, task):
    """A meta's 35 rows, with an answer_spec of ``task``, each HO-Neigh prompt
    naming its visual format too, so that which one the PRM keeps shows."""
    return [{**row, "task": task, "answer_spec": _answer_spec(task), "prompt": f"{row['prompt']},{row['visual_format']}"}
            for row in _combo_rows(meta_id)]


@st.composite
def _graded_manifests(draw):
    """Rows of one to three metas, one to three rows (samples) of each combo,
    and records for them: each row has a record or, rarely, none, right or
    wrong, in a shuffled order; optionally records for ids the manifest
    lacks, a repeated record and a repeated manifest row."""
    rows = []
    for i, task in enumerate(draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=3))):
        samples = draw(st.integers(1, 3))
        rows += [{**row, "sample_id": f"{row['sample_id']}#{k}", "prompt": f"{row['prompt']}#{k}"}
                 for row in _varied_rows(f"{task}-{i:04d}", task) for k in range(samples)]
    # verdicts all right (every full meta a degenerate tie), mostly right
    # (ties among the best combos) or a coin toss
    verdicts = draw(st.sampled_from([st.just(True), st.sampled_from([True, True, True, False]), st.booleans()]))
    # one in 20 rows unanswered, and each kind of error in one case in 5 (a
    # drawn integer would lean to its bounds)
    unanswered, rarely = st.sampled_from([False] * 19 + [True]), st.sampled_from([False] * 4 + [True])
    records = [GradeRecord(row["sample_id"], ParsedAnswer("count", 3), draw(verdicts), ())
               for row in rows if not draw(unanswered)]
    if records and draw(rarely):
        records.append(records[draw(st.integers(0, len(records) - 1))])
    records += [GradeRecord(f"ghost-{j}", ParsedAnswer("count", 3), True, ())
                for j in range(draw(st.integers(1, 12)) if draw(rarely) else 0)]
    records = draw(st.permutations(records))
    if draw(rarely):
        rows.insert(draw(st.integers(1, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    return records, rows


@settings(max_examples=200, deadline=None)
@given(_graded_manifests())
def test_aggregate_and_prm_match_the_per_sample_reference(case):
    records, rows = case
    _assert_tallies_match_reference(records, rows)


def test_aggregate_and_prm_match_the_reference_on_fixed_cases():
    rows = _varied_rows("VC-0000", "VC") + _varied_rows("OSP-0001", "OSP")
    every = {combo: 0.5 for combo in ALL_COMBOS}
    halves, twice = _records_with_accuracy(rows, every, repeats=2)  # each combo two samples, one right
    cases = {
        "two samples a combo": (halves, twice),
        "degenerate tie": _records_with_accuracy(rows, {combo: 1.0 for combo in ALL_COMBOS}, repeats=2),
        "partial coverage": (halves[:-4], twice),
        "tie of two": _records_with_accuracy(rows, {**every, ("N-Set", "Cli-Exp"): 1.0, ("LO-Inc", "Enc-Hy"): 1.0}),
        "unknown ids": ([GradeRecord("nope", ParsedAnswer("count", 3), True, ()), *halves], twice),
        "repeated record": ([*halves, halves[0]], twice),
    }
    for records, graded in cases.values():
        _assert_tallies_match_reference(records, graded)
    pairs, skipped = build_prm(*cases["degenerate tie"])
    assert len(pairs) == 70 and all(p.degenerate_tie for p in pairs) and not skipped
    assert build_prm(*cases["partial coverage"])[1] == ["OSP-0001"]
    unknown_and_repeated = twice + [twice[3]]
    for build in (aggregate, build_prm):
        # a repeated manifest id is named before the unknown record ids
        repeats = f"manifest row {len(twice) + 1} ({twice[3]['sample_id']}) repeats the sample id of an earlier row"
        with pytest.raises(ValueError, match=f"^{re.escape(repeats)}$"):
            build(cases["unknown ids"][0], unknown_and_repeated)
        with pytest.raises(ValueError, match=re.escape("records reference unknown sample ids: ['nope']")):
            build(*cases["unknown ids"])
        with pytest.raises(ValueError, match=f"^{re.escape(f'sample id {halves[0].sample_id} has more than one record')}$"):
            build(*cases["repeated record"])


def test_write_prm(tmp_path):
    rows = _combo_rows("VC-0000")
    acc = {combo: 0.5 for combo in ALL_COMBOS}
    acc[("Adj-Mat", "Sh-Inc")] = 1.0
    pairs, _ = build_prm(*_records_with_accuracy(rows, acc))
    path = tmp_path / "prm.jsonl"
    write_prm(pairs, path)
    logged = [json.loads(line) for line in path.read_text().splitlines()]
    assert logged == [
        {
            "meta_id": "VC-0000",
            "input_text": "prompt(VC-0000,HO-Neigh)",
            "label_combo": "Adj-Mat+Sh-Inc",
        }
    ]



def test_write_prm_matches_write_jsonl(tmp_path):
    # several winners per meta share one prompt; a prompt equal to the last
    # but another object, non-ASCII text, quotes and newlines
    prompt = "G describes a hypergraph \u2229 \"e0\"\nAns?"
    pairs = [
        PRMPair("SHC-0000", "N-Set", "Bi-Inc", prompt),
        PRMPair("SHC-0000", "Inc-Mat", "Cli-Exp", prompt),
        PRMPair("SHC-0001", "LO-Inc", "Enc-Hy", "".join(["G describes ", "\u2229"]), True),
        PRMPair("VC-0000", "LO-Inc", "Enc-Hy", "other"),
    ]
    write_prm(pairs, tmp_path / "prm.jsonl")
    records = [{"meta_id": p.meta_id, "input_text": p.input_text, "label_combo": p.label_combo} for p in pairs]
    write_jsonl(tmp_path / "expected.jsonl", records)
    assert (tmp_path / "prm.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_write_prm_rejects_a_pair_without_a_prompt(tmp_path):
    # a library caller may make a pair without a prompt; its None is not
    # taken as a prompt already encoded
    path = tmp_path / "prm.jsonl"
    with pytest.raises(TypeError):
        write_prm([PRMPair("VC-0000", "N-Set", "Enc-Hy", None)], path)
    with pytest.raises(TypeError):
        write_prm([PRMPair("VC-0000", "N-Set", "Enc-Hy", "prompt"), PRMPair("VC-0001", "N-Set", "Enc-Hy", None)], path)
    assert [json.loads(line)["input_text"] for line in path.read_text().splitlines()] == ["prompt"]


def _grade_fields(rec: GradeRecord) -> dict:
    value = rec.parsed.value
    return {
        "sample_id": rec.sample_id,
        "correct": rec.correct,
        "flags": list(rec.flags),
        "parsed_kind": rec.parsed.kind,
        "parsed_value": {str(k): v for k, v in value.items()} if isinstance(value, dict) else value,
    }


# a parsed value of each kind: counts (negative too), weights or failures
# (None), vertex sets, yes/no, colorings (vertices 2 and 10 sort apart as
# strings) and cycles or paths
_PARSED = [
    ParsedAnswer("count", 17),
    ParsedAnswer("count", -3, ("prose",)),
    ParsedAnswer("flow", 0),
    ParsedAnswer("path_weight", None),
    ParsedAnswer("vertex_set", []),
    ParsedAnswer("vertex_set", [0, 4, 12], ("no_braces", "bare_ids")),
    ParsedAnswer("yes_no", True),
    ParsedAnswer("yes_no", False, ("prose",)),
    ParsedAnswer("coloring", {2: 1, 10: 0, 0: 2}, ("duplicate_assignment",)),
    ParsedAnswer("coloring", {}),
    ParsedAnswer("cycle", [3, 1, 3]),
    ParsedAnswer("path", [], ("missing_keyword", "no_brackets")),
    ParsedAnswer("failure", None, ("parse_failure", "no_marker")),
]


def test_write_grades_matches_write_jsonl(tmp_path):
    records = [
        GradeRecord(f"S-{i:04d}__\u2229 \"x\"", parsed, i % 2 == 0, parsed.flags + ("kind_mismatch",) * (i % 3 > 0))
        for i, parsed in enumerate(_PARSED * 2)
    ]
    write_grades(records, tmp_path / "grades.jsonl")
    write_jsonl(tmp_path / "expected.jsonl", map(_grade_fields, records))
    assert (tmp_path / "grades.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


_FLAGS = st.sampled_from(["prose", "no_marker", "bare_ids", "shc_k2", "invalid_ids", "kind_mismatch"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.text(max_size=12),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10**20, 10**20),
        st.lists(st.integers(-5, 10**6), max_size=6),
        st.dictionaries(st.integers(0, 30), st.integers(0, 2), max_size=8),
    ),
    st.booleans(),
    st.lists(_FLAGS, max_size=3).map(tuple),
), max_size=8))
def test_write_grades_matches_write_jsonl_on_any_parsed_value(tmp_path_factory, cases):
    records = [GradeRecord(sid, ParsedAnswer("count", value, flags), correct, flags)
               for sid, value, correct, flags in cases]
    out = tmp_path_factory.mktemp("grades")
    write_grades(records, out / "grades.jsonl")
    write_jsonl(out / "expected.jsonl", map(_grade_fields, records))
    assert (out / "grades.jsonl").read_bytes() == (out / "expected.jsonl").read_bytes()


# -- canonical / corrupted -------------------------------------------------


def test_canonical_and_corrupted_self_consistency(tmp_path):
    emit_corpus(per_task=1, master_seed=21, outdir=tmp_path, write_images=False)
    rows = read_jsonl(tmp_path / "manifest.jsonl")
    good = [{"sample_id": r["sample_id"], "raw_text": canonical_answer_text(r)} for r in rows]
    bad = [{"sample_id": r["sample_id"], "raw_text": corrupted_answer_text(r)} for r in rows]
    good_records = grade_responses(rows, good)
    bad_records = grade_responses(rows, bad)
    assert all(r.correct for r in good_records)
    assert not any(r.correct for r in bad_records)
    # canonical answers parse without leniency flags in strict mode too
    strict_records = grade_responses(rows, good, STRICT)
    assert all(r.correct for r in strict_records)


def test_corrupted_empty_set():
    row = _row("Ne", "vertex_set", [])
    assert corrupted_answer_text(row) == "Ans: {v0}"
    single = _row("Ne", "vertex_set", [2])
    assert not judge(_answer(single), parse_answer("Ne", corrupted_answer_text(single)))[0]


def test_corrupted_osp_none():
    row = _row("OSP", "path_weight", None)
    assert not judge(_answer(row), parse_answer("OSP", corrupted_answer_text(row)))[0]


def test_kind_mismatch_is_flagged():
    # a record whose answer kind disagrees with the task's, which the index would reject
    row = {"meta_id": "VC-0000", "task": "VC", "answer_spec": {"kind": "flow", "value": 3, "params": {}}}
    assert judge(row, parse_answer("VC", "Ans: 3")) == (False, ("kind_mismatch",))


# -- the certificate graph memo --------------------------------------------


def test_row_with_its_own_graph_is_judged_against_it():
    rows = manifest_rows(make_meta("3-CL", 0, "small", "synthetic", 5))
    coloring = parse_answer("3-CL", canonical_answer_text(rows[0])).value
    u, v = next((u, v) for u in coloring for v in coloring if u < v and coloring[u] == coloring[v])
    # a hyperedge the shared coloring leaves monochromatic, on one middle row only
    odd = 10
    graph = rows[odd]["answer_spec"]["graph"]
    rows[odd] = {**rows[odd], "answer_spec": {**rows[odd]["answer_spec"], "graph": {**graph, "edges": [*graph["edges"], [u, v]]}}}
    records = grade_responses(rows, [{"sample_id": r["sample_id"], "response": canonical_answer_text(r)} for r in rows])
    assert [rec.sample_id for rec in records if not rec.correct] == [rows[odd]["sample_id"]]


def test_each_certificate_meta_builds_one_graph(tmp_path, monkeypatch):
    emit_corpus(per_task=2, master_seed=21, outdir=tmp_path, write_images=False)
    rows = read_jsonl(tmp_path / "manifest.jsonl")
    responses = [{"sample_id": r["sample_id"], "response": canonical_answer_text(r)} for r in rows]
    builds = []
    real = grade.from_json_dict
    monkeypatch.setattr(grade, "from_json_dict", lambda obj: builds.append(obj) or real(obj))
    records = grade_responses(rows, responses)
    assert all(rec.correct for rec in records)
    certificate_metas = {r["meta_id"] for r in rows if r["answer_spec"]["kind"] in grade.CERTIFICATE_KINDS}
    assert len(certificate_metas) == 6  # 3-CL, SHC and HHM, two metas each
    assert len(builds) == len(certificate_metas)


def test_index_shares_one_built_graph_among_the_rows_of_a_meta():
    rows = manifest_rows(make_meta("HHM", 0, "small", "synthetic", 3))
    slim = list(grade.index_manifest(json.loads(json.dumps(row)) for row in rows).values())
    assert all(answer is slim[0][0] for answer, *_ in slim)
    assert slim[0][0]["graph"] == from_json_dict(rows[0]["answer_spec"]["graph"])


def test_index_keeps_slim_rows_sharing_one_spec_per_meta():
    rows = manifest_rows(make_meta("VC", 0, "small", "synthetic", 3))
    index = grade.index_manifest(json.loads(json.dumps(row)) for row in rows)  # streamed, one decode per row
    slim = list(index.values())
    assert list(index) == [r["sample_id"] for r in rows]
    answer = slim[0][0]
    assert answer == {"meta_id": "VC-0000", "task": "VC", "answer_spec": rows[0]["answer_spec"]}
    assert all(row[0] is answer for row in slim)
    assert [row[1:3] for row in slim] == [(r["text_format"], r["visual_format"]) for r in rows]
    assert all(row[1] is TEXT_FORMATS[TEXT_FORMATS.index(row[1])] for row in slim)
    prompts = [row[3] for row in slim if row[1] == "HO-Neigh"]
    assert len(prompts) == 5 and all(p is prompts[0] for p in prompts)
    assert prompts[0] == next(r["prompt"] for r in rows if r["text_format"] == "HO-Neigh")
    assert all(row[3] is None for row in slim if row[1] != "HO-Neigh")
    assert [row[4] for row in slim] == list(range(35))  # the rank under the shared record


def test_index_names_the_row_of_an_unusable_certificate():
    rows = manifest_rows(make_meta("HHM", 0, "small", "synthetic", 3))[:3]
    spec = rows[2]["answer_spec"]
    sid = rows[2]["sample_id"]
    bad_params = {**spec, "params": {**spec["params"], "t": spec["params"]["s"]}}
    bad_graph = {**spec, "graph": {**spec["graph"], "edges": 5}}
    for broken, message in ((bad_params, "has equal answer_spec.params s and t"),
                            (bad_graph, "has an answer_spec.graph that does not build: ")):
        with pytest.raises(ValueError, match=f"^manifest row 3 \\({sid}\\) {message}"):
            grade.index_manifest([*rows[:2], {**rows[2], "answer_spec": broken}])
