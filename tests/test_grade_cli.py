"""The grade and prm commands against the library composition they must equal
byte for byte, on fields of the wrong JSON type, and the memory they take per
graded sample."""

import contextlib
import io
import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbench import aggregate, build_prm, emit_corpus, grade_responses, read_jsonl
from hyperbench.cli import main
from hyperbench.grade import _ROW_KEYS, canonical_answer_text, corrupted_answer_text, write_prm

from conftest import write_grades


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """The rows of an emitted manifest of one meta per task (seed 7): half of
    them real-source, a real 3-CL certificate among them."""
    out = tmp_path_factory.mktemp("emitted")
    emit_corpus(per_task=1, master_seed=7, outdir=out, write_images=False)
    rows = read_jsonl(out / "manifest.jsonl")
    assert {r["source"] for r in rows} == {"real", "synthetic"}
    return rows


def _write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(map(str, argv)))
    return code, out.getvalue(), err.getvalue()


def _graded_case(data, emitted):
    """Manifest rows and responses drawn from the emitted ones.

    Each HO-Neigh prompt names its visual format, and up to three metas get
    a second HO-Neigh row (own sample id and prompt) at a random place, so
    which HO-Neigh row is the first graded one in manifest order shows in
    prm.jsonl; the rows may be shuffled, interleaving the metas.  Each meta
    has all, some or none of its rows answered, with canonical or corrupted
    replies, in a random order.
    """
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))  # a seed, as its hundreds of draws would be too large
    rows = [{**r, "prompt": f"{r['prompt']} [{r['visual_format']}]"} if r["text_format"] == "HO-Neigh" else r
            for r in emitted]
    metas = list(dict.fromkeys(r["meta_id"] for r in rows))
    for meta in data.draw(st.lists(st.sampled_from(metas), unique=True, max_size=3)):
        first = next(r for r in rows if r["meta_id"] == meta and r["text_format"] == "HO-Neigh")
        twin = {**first, "sample_id": first["sample_id"] + "-twin", "prompt": first["prompt"] + " (twin)"}
        rows.insert(rnd.randrange(len(rows) + 1), twin)
    if data.draw(st.booleans()):
        rnd.shuffle(rows)
    coverage = {meta: data.draw(st.sampled_from(["all", "some", "none"])) for meta in metas}
    right = data.draw(st.sampled_from([1.0, 0.8, 0.3]))
    responses = []
    for row in rows:
        cover = coverage[row["meta_id"]]
        if cover == "none" or (cover == "some" and rnd.random() < 0.3):
            continue
        reply = canonical_answer_text(row) if rnd.random() < right else corrupted_answer_text(row)
        responses.append({"sample_id": row["sample_id"], "response": reply})
    rnd.shuffle(responses)
    return rows, responses, coverage


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_grade_and_prm_write_what_the_library_composes(emitted, data):
    rows, responses, coverage = _graded_case(data, emitted)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_jsonl(tmp / "manifest.jsonl", rows)
        _write_jsonl(tmp / "responses.jsonl", responses)
        files = ("--manifest", tmp / "manifest.jsonl", "--responses", tmp / "responses.jsonl", "--out", tmp / "cli")
        graded = _cli("grade", *files)
        routed = _cli("prm", *files)

        records = grade_responses(rows, responses)
        lib = tmp / "lib"
        lib.mkdir()
        write_grades(records, lib / "grades.jsonl")
        (lib / "accuracy.csv").write_text(aggregate(records, rows).to_csv(), encoding="utf-8")
        pairs, skipped = build_prm(records, rows)
        write_prm(pairs, lib / "prm.jsonl")

        for name in ("grades.jsonl", "accuracy.csv", "prm.jsonl"):
            assert (tmp / "cli" / name).read_bytes() == (lib / name).read_bytes(), name
    unanswered = [f"{len(rows) - len(records)} manifest samples have no response\n"] if len(records) < len(rows) else []
    summary = {"graded": len(records), "correct": sum(r.correct for r in records),
               "grades": str(tmp / "cli" / "grades.jsonl"), "accuracy": str(tmp / "cli" / "accuracy.csv")}
    assert graded == (0, json.dumps(summary, sort_keys=True) + "\n", "".join(unanswered))
    if skipped:
        named = ", ".join(skipped[:10]) + (", ..." if len(skipped) > 10 else "")
        unanswered.append(f"{len(skipped)} metas lack graded responses for some combos and were skipped: {named}\n")
    summary = {"pairs": len(pairs), "path": str(tmp / "cli" / "prm.jsonl")}
    assert routed == (0, json.dumps(summary, sort_keys=True) + "\n", "".join(unanswered))
    # a meta with no response is not skipped but absent; a fully answered one is never skipped
    assert not {meta for meta, cover in coverage.items() if cover != "some"} & set(skipped)
    # metas come in the manifest order of their first answered rows, each
    # with the prompt of its first answered HO-Neigh row
    answered = [row for row in rows if row["sample_id"] in {resp["sample_id"] for resp in responses}]
    order = list(dict.fromkeys(row["meta_id"] for row in answered))
    assert [meta for meta in order if meta in skipped] == skipped
    assert list(dict.fromkeys(pair.meta_id for pair in pairs)) == [meta for meta in order if meta not in skipped]
    prompts = {}
    for row in answered:
        if row["text_format"] == "HO-Neigh":
            prompts.setdefault(row["meta_id"], row["prompt"])
    assert all(pair.input_text == prompts[pair.meta_id] for pair in pairs)


# each field grading reads: a manifest row's keys, its answer_spec's keys and a response's keys
_READ_FIELDS = [
    *(("row", key) for key in _ROW_KEYS),
    *(("answer_spec", key) for key in ("kind", "value", "params")),
    *(("response", key) for key in ("sample_id", "response")),
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text('ab" \u00e9\n', max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("st", max_size=2), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_a_field_of_the_wrong_json_type_is_exit_2_or_graded_into_json(emitted, data):
    # one field, in one row or response or in all of a meta's, holds a value
    # of another JSON type than the emitted one
    where, key = data.draw(st.sampled_from(_READ_FIELDS))
    rows = list(emitted)
    responses = [{"sample_id": row["sample_id"], "response": canonical_answer_text(row)} for row in rows]
    meta = data.draw(st.sampled_from(sorted({row["meta_id"] for row in rows})))
    targets = [i for i, row in enumerate(rows) if row["meta_id"] == meta]
    if data.draw(st.booleans()):
        targets = [data.draw(st.sampled_from(targets))]
    records = responses if where == "response" else rows
    original = records[targets[0]]
    kind = type((original["answer_spec"] if where == "answer_spec" else original).get(key))
    value = data.draw(_JSON_VALUES.filter(lambda v: type(v) is not kind))
    for i in targets:
        if where == "answer_spec":
            records[i] = {**records[i], "answer_spec": {**records[i]["answer_spec"], key: value}}
        else:
            records[i] = {**records[i], key: value}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_jsonl(tmp / "manifest.jsonl", rows)
        _write_jsonl(tmp / "responses.jsonl", responses)
        for cmd in ("grade", "prm"):
            code, _, err = _cli(cmd, "--manifest", tmp / "manifest.jsonl", "--responses", tmp / "responses.jsonl",
                                "--out", tmp / cmd)
            assert code in (0, 2), err
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, err
            for name in ("grades.jsonl", "prm.jsonl"):
                if (tmp / cmd / name).exists():
                    for line in (tmp / cmd / name).read_text(encoding="utf-8").splitlines():
                        json.loads(line)


# Peak of tracemalloc's traced memory while grade and prm run in process,
# per extra manifest sample, between emitted manifests of 2 and 8 metas per
# task (840 and 3,360 samples), over mixed replies (a third of them corrupted)
# or all-canonical ones (every meta a 35-way tie, so prm writes 35 pairs a
# meta).  Each command runs once untraced first, so that one-time costs
# (caches filled on first use) fall outside both peaks, whatever ran before.
# Measured on CPython 3.10-3.12: 290-313 B for grade, which spills its
# grades.jsonl lines to a temporary file and keeps no HO-Neigh prompt
# (498-525 B when it held both), and 314-341 and 290-320 B for prm, which
# writes its pairs as it makes them (349-380 and 385-415 B when it held them
# all).  Most of what is left is the manifest index.
_BYTES_PER_SAMPLE = {("grade", "mixed"): 360, ("prm", "mixed"): 550, ("prm", "canonical"): 360}


def test_grading_memory_per_sample_stays_small(tmp_path):
    peaks = {}
    for per_task in (2, 8):
        corpus = tmp_path / f"per-task-{per_task}"
        emit_corpus(per_task=per_task, master_seed=7, outdir=corpus, write_images=False)
        rows = read_jsonl(corpus / "manifest.jsonl")
        for replies, corrupt in (("mixed", lambda i: i % 3 == 0), ("canonical", lambda i: False)):
            _write_jsonl(corpus / f"{replies}.jsonl", (
                {"sample_id": row["sample_id"],
                 "response": (corrupted_answer_text if corrupt(i) else canonical_answer_text)(row)}
                for i, row in enumerate(rows)))
        samples = len(rows)
        del rows
        for cmd, replies in _BYTES_PER_SAMPLE:
            argv = (cmd, "--manifest", corpus / "manifest.jsonl", "--responses", corpus / f"{replies}.jsonl",
                    "--out", corpus / "out")
            if per_task == 2:
                _cli(*argv)
            tracemalloc.start()
            try:
                code, _, _ = _cli(*argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            peaks[cmd, replies, per_task] = samples, peak
    for (cmd, replies), bound in _BYTES_PER_SAMPLE.items():
        (small, low), (large, high) = peaks[cmd, replies, 2], peaks[cmd, replies, 8]
        assert (high - low) / (large - small) < bound, (cmd, replies, (high - low) / (large - small))
