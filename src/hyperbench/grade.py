"""Response parsing, judging, accuracy aggregation, and routing-label export.

Parsing finds the final "Ans:" marker (configurable to the first) and reads
the payload with the parser of the task's answer kind.  Lenient mode
tolerates surrounding prose, missing braces/keywords, bare numeric ids, and
casing — every tolerance applied is recorded as a flag on the grade record;
strict mode rejects any response that needed one.  NP-hard answers are judged by running the verifier on the
submitted certificate, so any valid certificate counts, not just the stored
one.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .bench import ALL_COMBOS, REASONING_TASKS, TASKS, UNDERSTANDING_TASKS, task_spec
from .core import VISUAL_FORMATS, from_json_dict, json_str
from .text_repr import TEXT_FORMATS
from .verify import format_coloring, format_cycle, format_path, verify_3cl, verify_hhm, verify_shc


@dataclass(frozen=True)
class GradeOptions:
    lenient: bool = True
    marker: str = "last"  # or "first"


@dataclass(frozen=True, slots=True)
class ParsedAnswer:
    kind: str
    value: object
    flags: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.kind == "failure"


@dataclass(frozen=True, slots=True)
class GradeRecord:
    sample_id: str
    parsed: ParsedAnswer
    correct: bool
    flags: tuple[str, ...] = ()


_MARKER_RE = re.compile(r"ans\s*:", re.IGNORECASE)


def _failure(*flags: str) -> ParsedAnswer:
    return ParsedAnswer("failure", None, ("parse_failure", *flags))


def _payload(raw_text: str, options: GradeOptions):
    markers = list(_MARKER_RE.finditer(raw_text))
    if markers:
        chosen = markers[-1] if options.marker == "last" else markers[0]
        return raw_text[chosen.end():], []
    if options.lenient:
        return raw_text, ["no_marker"]
    return None, ["no_marker"]


# what a parser returns when the payload holds no answer of its kind
_UNPARSED = object()


# the parsers' patterns; a certificate's keyword pattern is keyed by the keyword
_INT_RE = re.compile(r"-?\d+")
_NO_PATH_RE = re.compile(r"no\s+path", re.IGNORECASE)
_NO_NEIGHBORS_RE = re.compile(r"no\s+(?:(?:n-?|-)\s*)?neighbors", re.IGNORECASE)
_BRACES_RE = re.compile(r"\{([^{}]*)\}")
_VERTEX_IDS_RE = re.compile(r"v\s*(\d+)")
_DIGITS_RE = re.compile(r"\d+")
_YES_NO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_KEYWORD_RE = {kw: re.compile(rf"{kw}\s*(?::\s*)?\[", re.IGNORECASE) for kw in ("coloring", "cycle", "path")}
_COLOR_PAIRS_RE = re.compile(r"v\s*(\d+)\s*[:=]\s*(?:c\s*)?([012])\b", re.IGNORECASE)
_EDGE_IDS_RE = re.compile(r"e\s*(\d+)", re.IGNORECASE)


def _parse_count(payload: str, flags: list[str]):
    m = _INT_RE.search(payload)
    if not m:
        return _UNPARSED
    if payload.strip() != m.group(0):
        flags.append("prose")
    return int(m.group(0))


def _parse_path_weight(payload: str, flags: list[str]):
    if _NO_PATH_RE.search(payload):
        return None
    return _parse_count(payload, flags)


def _parse_vertex_set(payload: str, flags: list[str]):
    if _NO_NEIGHBORS_RE.search(payload):
        return []
    brace = _BRACES_RE.search(payload)
    if brace and not brace.group(1).strip():
        return []
    region = brace.group(1) if brace else payload
    if not brace:
        flags.append("no_braces")
    ids = _VERTEX_IDS_RE.findall(region)
    if not ids:
        ids = _DIGITS_RE.findall(region)
        if ids:
            flags.append("bare_ids")
    if not ids:
        return _UNPARSED
    return sorted({int(i) for i in ids})


def _parse_yes_no(payload: str, flags: list[str]):
    m = _YES_NO_RE.search(payload)
    if not m:
        return _UNPARSED
    stripped = payload.strip().strip("[].").strip().lower()
    if stripped not in ("yes", "no"):
        flags.append("prose")
    return m.group(1).lower() == "yes"


def _cert_region(payload: str, keyword: str, flags: list[str]) -> str:
    """The text between the first ``keyword[`` (or, failing that, the first
    ``[``) and the ``]`` after it.  If no ``]`` follows the first bracket,
    none follows a later one, so each bracket is searched for once and the
    work stays linear in the reply's length."""
    m = _KEYWORD_RE[keyword].search(payload)
    if m:
        end = payload.find("]", m.end())
        if end >= 0:
            return payload[m.end():end]
    flags.append("missing_keyword")
    start = payload.find("[")
    if start >= 0:
        end = payload.find("]", start)
        if end >= 0:
            return payload[start + 1:end]
    flags.append("no_brackets")
    return payload


def _parse_coloring(payload: str, flags: list[str]):
    region = _cert_region(payload, "coloring", flags)
    pairs = _COLOR_PAIRS_RE.findall(region)
    if not pairs:
        return _UNPARSED
    value: dict[int, int] = {}
    for v, c in pairs:
        v = int(v)
        if v in value:
            flags.append("duplicate_assignment")
        value[v] = int(c)
    return value


def _parse_edge_sequence(payload: str, keyword: str, flags: list[str]):
    region = _cert_region(payload, keyword, flags)
    ids = _EDGE_IDS_RE.findall(region)
    if not ids:
        ids = _DIGITS_RE.findall(region)
        if ids:
            flags.append("bare_ids")
    if not ids:
        return _UNPARSED
    return [int(i) for i in ids]


# answer kind -> parser(payload, flags): the value, or _UNPARSED; each
# leniency it applies is appended to ``flags``
_PARSERS = {
    "count": _parse_count,
    "flow": _parse_count,
    "path_weight": _parse_path_weight,
    "vertex_set": _parse_vertex_set,
    "yes_no": _parse_yes_no,
    "coloring": _parse_coloring,
    "cycle": lambda payload, flags: _parse_edge_sequence(payload, "cycle", flags),
    "path": lambda payload, flags: _parse_edge_sequence(payload, "path", flags),
}


def parse_answer(task: str, raw_text: str, options: GradeOptions = GradeOptions()) -> ParsedAnswer:
    """Extract the typed answer for ``task`` from a model reply."""
    kind = task_spec(task).kind
    payload, flags = _payload(raw_text, options)
    if payload is None:
        return _failure(*flags)
    value = _PARSERS[kind](payload, flags)
    if value is _UNPARSED:
        return _failure(*flags)
    if not options.lenient and flags:
        return _failure("strict_reject", *flags)
    return ParsedAnswer(kind, value, tuple(flags))


CERTIFICATE_KINDS = ("coloring", "cycle", "path")


def check_certificate(kind: str, h, value, params: dict) -> tuple[bool, tuple[str, ...]]:
    """Verify a parsed 3-CL coloring, SHC cycle or HHM path against ``h``.

    Returns the verdict and the flags it raises: ``partial_coloring`` when
    the coloring misses or adds a vertex, ``invalid_ids`` when an id is out
    of range, ``shc_k2`` when a valid hypercycle has only two hyperedges.
    """
    if kind == "coloring":
        if set(value) != set(range(h.n)):
            return False, ("partial_coloring",)
        return verify_3cl(h, value), ()
    try:
        if kind == "cycle":
            ok = verify_shc(h, value)
            return ok, ("shc_k2",) if ok and len(value) == 2 else ()
        return verify_hhm(h, value, params["s"], params["t"]), ()
    except IndexError:
        return False, ("invalid_ids",)


def judge(row: dict, parsed: ParsedAnswer) -> tuple[bool, tuple[str, ...]]:
    """Decide correctness of a parsed answer against an index's answer record
    (see :func:`index_manifest`); a certificate is checked against the
    record's ``graph``, built once by the index."""
    spec = row["answer_spec"]
    kind = spec["kind"]
    if parsed.failed:
        return False, parsed.flags
    if parsed.kind != kind:
        return False, parsed.flags + ("kind_mismatch",)
    if kind in CERTIFICATE_KINDS:
        ok, extra = check_certificate(kind, row["graph"], parsed.value, spec["params"])
        return ok, parsed.flags + extra
    if kind == "vertex_set":
        return parsed.value == sorted(spec["value"]), parsed.flags  # the parser sorts its set
    return parsed.value == spec["value"], parsed.flags


# what grading reads of each manifest row: its keys and the answer_spec's
# keys (a certificate is judged against graph and params, other kinds
# against value)
_ROW_KEYS = ("sample_id", "meta_id", "task", "text_format", "visual_format", "prompt", "answer_spec")
# the row keys accuracy is tallied over (one accuracy.csv section each), with
# the names each may hold
_AXES = tuple(
    (key, {name: name for name in names})
    for key, names in (("task", TASKS), ("text_format", TEXT_FORMATS), ("visual_format", VISUAL_FORMATS))
)


def _where(number: int, sid) -> str:
    """How an error names manifest row ``number``; built only for an error."""
    return f"manifest row {number}" + (f" ({sid})" if isinstance(sid, str) else "")


def _check_certificate_row(number: int, sid: str, spec: dict, task: str) -> None:
    """ValueError unless a certificate row's graph has an int ``n`` >= 1 and its
    params hold the task's parameters as distinct vertex ids."""
    graph, params = spec["graph"], spec["params"]
    n = graph.get("n") if isinstance(graph, dict) else None
    if type(n) is not int or n < 1:
        raise ValueError(f"{_where(number, sid)} has no answer_spec.graph object with an int n >= 1")
    if not isinstance(params, dict):
        raise ValueError(f"{_where(number, sid)} has an answer_spec.params that is not an object")
    names = task_spec(task).params
    for name in names:
        if type(params.get(name)) is not int or not 0 <= params[name] < n:
            raise ValueError(f"{_where(number, sid)} has answer_spec.params.{name} {params.get(name)!r}, not a vertex id in 0..{n - 1}")
    if names == ("s", "t") and params["s"] == params["t"]:
        raise ValueError(f"{_where(number, sid)} has equal answer_spec.params s and t")


def _certificate_graph(number: int, sid: str, spec: dict):
    """The hypergraph of a certificate row's spec; ValueError naming the row if it does not build."""
    try:
        return from_json_dict(spec["graph"])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{_where(number, sid)} has an answer_spec.graph that does not build: {exc}") from None


# answer kind -> (test, description) of the answer_spec.value it is judged
# against; a certificate is judged against its graph instead.  A bool is not
# an integer here, as in from_json_dict
_VALUES = {
    "count": (lambda v: type(v) is int, "an integer"),
    "flow": (lambda v: type(v) is int, "an integer"),
    "path_weight": (lambda v: v is None or type(v) is int, "an integer or null"),
    "vertex_set": (lambda v: type(v) is list and all(type(i) is int for i in v), "an array of integers"),
    "yes_no": (lambda v: type(v) is bool, "a boolean"),
}


def _shared(kept: list, value):
    """The value in ``kept`` equal to ``value``, or else ``value`` itself,
    appended to ``kept``."""
    for other in kept:
        if other == value:
            return other
    kept.append(value)
    return value


def index_manifest(manifest_rows, *, prompts: bool = True) -> dict[str, tuple]:
    """Check and index manifest rows, which may be streamed: by sample id, in
    manifest order, a tuple ``(answer, text_format, visual_format, prompt,
    rank)`` for each row.  Each row is checked as it is read, and only its
    tuple is kept:

    - ``answer``, its answer record: a dict of the row's ``meta_id``,
      ``task`` and ``answer_spec``, and for a certificate the ``graph`` built
      from the spec, which :func:`judge` takes.  The rows of a meta with
      equal tasks and specs share one record (and one meta id string), so a
      meta's certificate graph is built once;
    - its text and visual format names, the format tables' own strings;
    - its prompt if it is an HO-Neigh row (the router input :func:`build_prm`
      reads) and ``prompts`` is true, a meta's equal prompts sharing one
      string, and None otherwise (every row's prompt is still checked);
    - its rank among the rows sharing its answer record, which
      :class:`Grading` keeps the row's verdict under.

    ValueError names the first row that lacks a key grading reads, has a
    sample id, meta id or prompt that is not a string, names an unknown task
    or format, holds an answer kind other than its task's, an answer value
    not of its kind's JSON type or a certificate graph or params grading
    cannot use, or repeats an earlier row's sample id.
    """
    by_id: dict[str, tuple] = {}
    metas: dict[str, tuple] = {}  # meta id -> ([answer record, rows sharing it] of each, distinct prompts)
    for n, row in enumerate(manifest_rows, 1):
        row = row if isinstance(row, dict) else {}
        sid = row.get("sample_id")
        spec = row["answer_spec"] if isinstance(row.get("answer_spec"), dict) else {}
        certificate = spec.get("kind") in CERTIFICATE_KINDS
        missing = [k for k in _ROW_KEYS if k not in row]
        if "answer_spec" in row:
            reads = ("graph", "params") if certificate else ("value",)
            missing += [f"answer_spec.{k}" for k in ("kind", *reads) if k not in spec]
        if missing:
            raise ValueError(f"{_where(n, sid)} lacks {', '.join(missing)}")
        for key in ("sample_id", "meta_id", "prompt"):
            if not isinstance(row[key], str):
                raise ValueError(f"{_where(n, sid)} has no string {key}")
        names = []
        for key, axis in _AXES:
            # keep the axis's own name string, not the row's equal copy, so that rows share it
            name = axis.get(row[key]) if isinstance(row[key], str) else None
            if name is None:
                raise ValueError(f"{_where(n, sid)} has unknown {key} {row[key]!r}")
            names.append(name)
        task, text_format, visual_format = names
        kind = task_spec(task).kind
        if spec["kind"] != kind:
            raise ValueError(f"{_where(n, sid)} has answer_spec.kind {spec['kind']!r}, but {task} answers {kind!r}")
        if certificate:
            _check_certificate_row(n, sid, spec, task)
        if sid in by_id:
            raise ValueError(f"{_where(n, sid)} repeats the sample id of an earlier row")
        meta_id = row["meta_id"]
        answers, kept = metas.setdefault(meta_id, ([], []))
        shared = next((a for a in answers if a[0]["task"] is task and a[0]["answer_spec"] == spec), None)
        if shared is None:  # a record first kept: its value is checked or its graph built, for every row sharing it
            answer = {"meta_id": meta_id, "task": task, "answer_spec": spec}
            if certificate:
                answer["graph"] = _certificate_graph(n, sid, spec)
            elif not _VALUES[kind][0](spec["value"]):
                raise ValueError(f"{_where(n, sid)} has an answer_spec.value that is not {_VALUES[kind][1]}")
            shared = [answer, 0]
            answers.append(shared)
        prompt = _shared(kept, row["prompt"]) if prompts and text_format == "HO-Neigh" else None
        by_id[sid] = (shared[0], text_format, visual_format, prompt, shared[1])
        shared[1] += 1
    return by_id


class Grading:
    """One grading run against a manifest index (see :func:`index_manifest`).

    :meth:`grade` judges each response as it is read.  The run keeps no
    per-sample state: a verdict is two bits in the masks of its row's answer
    record, one that the row is graded and one that it was right, at the
    row's rank.  :meth:`graded_rows` reads them back in manifest order for
    :func:`tally_accuracy` and :func:`tally_prm`.
    """

    def __init__(self, index: dict, options: GradeOptions = GradeOptions()):
        self.index = index
        self.options = options
        self.graded = 0  # verdicts kept
        self.correct = 0  # of them, the right ones
        self._masks: dict[int, list[int]] = {}  # id of an answer record -> [graded, right] bit masks of its rows

    def _keep(self, row: tuple, correct) -> bool:
        """Keep the verdict of index row ``row``; False, keeping nothing, if
        the row has one already."""
        masks, bit = self._masks.setdefault(id(row[0]), [0, 0]), 1 << row[4]
        if masks[0] & bit:
            return False
        masks[0] |= bit
        self.graded += 1
        if correct:
            masks[1] |= bit
            self.correct += 1
        return True

    def grade(self, responses):
        """The :class:`GradeRecord` of each ``{"sample_id", "response"}``
        response, judged as it is read; the responses may be streamed.

        The text may be under ``raw_text`` instead of ``response``.  A
        response without either, a repeated sample id or an unknown one is a
        ValueError, the unknown ids once the responses have ended.
        """
        unknown: dict[str, None] = {}  # as a set, in the order first seen
        for n, resp in enumerate(responses, 1):
            sid = resp.get("sample_id") if isinstance(resp, dict) else None
            if not isinstance(sid, str):
                raise ValueError(f"response {n} has no string sample_id")
            text = resp["response"] if "response" in resp else resp.get("raw_text")
            if not isinstance(text, str):
                raise ValueError(f"response {n} ({sid}) has neither a 'response' nor a 'raw_text' string")
            row = self.index.get(sid)
            if row is None:
                if sid in unknown:
                    raise ValueError(f"sample id {sid} has more than one response (response {n})")
                unknown[sid] = None
                continue
            parsed = parse_answer(row[0]["task"], text, self.options)
            correct, flags = judge(row[0], parsed)
            if not self._keep(row, correct):
                raise ValueError(f"sample id {sid} has more than one response (response {n})")
            yield GradeRecord(sid, parsed, correct, flags)
        if unknown:
            raise ValueError(f"responses reference unknown sample ids: {list(unknown)[:10]}")

    def _take(self, records):
        """Keep the verdict of each :class:`GradeRecord`, then :meth:`graded_rows`.
        ValueError on a repeated record, and on unknown ids once the records end."""
        unknown = []
        for rec in records:
            row = self.index.get(rec.sample_id)
            if row is None:
                unknown.append(rec.sample_id)
            elif not self._keep(row, rec.correct):
                raise ValueError(f"sample id {rec.sample_id} has more than one record")
        if unknown:
            raise ValueError(f"records reference unknown sample ids: {unknown[:10]}")
        return self.graded_rows()

    def graded_rows(self):
        """``(row, correct)`` for each graded row of the index, in manifest
        order, ``correct`` being 1 or 0."""
        masks_of = self._masks.get
        for row in self.index.values():
            masks = masks_of(id(row[0]))
            if masks is not None and masks[0] >> row[4] & 1:
                yield row, masks[1] >> row[4] & 1


def grade_responses(manifest_rows, responses, options: GradeOptions = GradeOptions()) -> list[GradeRecord]:
    """Grade ``{"sample_id", "response"}`` responses against manifest rows;
    both may be streamed.

    The text may be under ``raw_text`` instead of ``response``.  A response
    without either, a repeated sample id or an unknown one is a ValueError,
    as is a manifest row that :func:`index_manifest` rejects.
    """
    return list(Grading(index_manifest(manifest_rows), options).grade(responses))


@dataclass
class AccuracyTable:
    """Accuracy and graded-sample count per ``(section, key)`` cell, the
    sections being the row keys in ``_AXES`` (a cell with no graded samples
    holds ``(None, 0)``), plus the Avg.U / Avg.R task macro averages."""

    cells: dict
    avg_u: float | None = None
    avg_r: float | None = None

    def to_csv(self) -> str:
        def fmt(acc):
            return "" if acc is None else f"{acc:.4f}"

        lines = ["section,key,accuracy,count"]
        for section, keys in _AXES:
            for key in keys:
                acc, count = self.cells[section, key]
                lines.append(f"{section},{key},{fmt(acc)},{count}")
        lines.append(f"average,Avg.U,{fmt(self.avg_u)},")
        lines.append(f"average,Avg.R,{fmt(self.avg_r)},")
        return "\n".join(lines) + "\n"


def tally_accuracy(graded_rows) -> AccuracyTable:
    """The accuracy table of ``(row, correct)`` verdicts, each ``row`` in the
    shape of an :func:`index_manifest` row and ``correct`` 1 or 0 (or a bool)."""
    tally = {(section, key): [0, 0] for section, keys in _AXES for key in keys}  # cell -> [correct, total]
    for row, correct in graded_rows:
        for cell in (("task", row[0]["task"]), ("text_format", row[1]), ("visual_format", row[2])):
            counts = tally[cell]
            counts[0] += correct
            counts[1] += 1
    cells = {cell: (correct / total if total else None, total) for cell, (correct, total) in tally.items()}

    def mean(tasks):
        present = [cells["task", t][0] for t in tasks if cells["task", t][0] is not None]
        return sum(present) / len(present) if present else None

    return AccuracyTable(cells, mean(UNDERSTANDING_TASKS), mean(REASONING_TASKS))


def aggregate(records, manifest_rows) -> AccuracyTable:
    """Accuracy per task and per representation axis, plus Avg.U / Avg.R, of
    one :class:`GradeRecord` per graded sample id, against manifest rows that
    :func:`index_manifest` accepts.

    Each axis marginalizes over the other (a text format's cell averages all
    its graded samples across the five visual formats, and vice versa).
    """
    return tally_accuracy(Grading(index_manifest(manifest_rows, prompts=False))._take(records))


@dataclass(frozen=True, slots=True)
class PRMPair:
    """One routing-label row: this meta is best served by this combo."""

    meta_id: str
    text_format: str
    visual_format: str
    input_text: str
    degenerate_tie: bool = False

    @property
    def label_combo(self) -> str:
        return f"{self.text_format}+{self.visual_format}"


def tally_prm(graded_rows) -> tuple[Iterator[PRMPair], list[str]]:
    """What :func:`build_prm` returns, of ``(row, correct)`` verdicts in
    manifest order, each ``row`` in the shape of an :func:`index_manifest`
    row and ``correct`` 1 or 0 (or a bool).  The verdicts are tallied and the
    skipped metas found at once, but the pairs are made as they are read."""
    slots = {combo: 2 * i for i, combo in enumerate(ALL_COMBOS)}  # where a combo's correct count is; total next
    tallies: dict[str, list[int]] = {}  # meta id -> correct, total of each combo in ALL_COMBOS order
    prompts: dict[str, str] = {}
    for row, correct in graded_rows:
        meta_id = row[0]["meta_id"]
        counts = tallies.get(meta_id)
        if counts is None:
            counts = tallies[meta_id] = [0] * (2 * len(ALL_COMBOS))
        slot = slots[row[1], row[2]]
        counts[slot] += correct
        counts[slot + 1] += 1
        if row[1] == "HO-Neigh":
            prompts.setdefault(meta_id, row[3])
    skipped = [meta_id for meta_id, counts in tallies.items() if 0 in counts[1::2]]

    def pairs():
        for meta_id, counts in tallies.items():
            totals = counts[1::2]
            if 0 in totals:
                continue
            means = [correct / total for correct, total in zip(counts[::2], totals)]
            best = max(means)
            winners = [combo for combo, mean in zip(ALL_COMBOS, means) if mean == best]
            degenerate = len(winners) == len(ALL_COMBOS)
            for text_fmt, visual_fmt in winners:
                yield PRMPair(meta_id, text_fmt, visual_fmt, prompts[meta_id], degenerate)

    return pairs(), skipped


def build_prm(records, manifest_rows) -> tuple[list[PRMPair], list[str]]:
    """Per meta, the combo(s) with the highest mean accuracy (ties all kept),
    and the ids of the metas skipped, in manifest order, because they lack
    graded records for some of the 35 combos; the records and rows are
    checked as by :func:`aggregate`.  The router input is the HO-Neigh
    prompt (rendering + question) of the meta's first graded HO-Neigh row.
    """
    pairs, skipped = tally_prm(Grading(index_manifest(manifest_rows))._take(records))
    return list(pairs), skipped


# ---------------------------------------------------------------------------
# reference answers (used by the self-consistency and corruption suites)
# ---------------------------------------------------------------------------


def _reply(task: str, kind: str, value) -> str:
    """``value`` written as the canonical reply to ``task``."""
    if value is None or value == []:
        return f"Ans: {task_spec(task).none}"
    if kind == "vertex_set":
        return "Ans: {" + ",".join(f"v{v}" for v in value) + "}"
    if kind == "yes_no":
        return "Ans: Yes" if value else "Ans: No"
    return f"Ans: {value}"  # counts, weights, flows and stored certificates


def canonical_answer_text(row: dict) -> str:
    """Render a manifest row's ground truth as a canonical model reply."""
    spec = row["answer_spec"]
    return _reply(row["task"], spec["kind"], spec["value"])


def _corrupt_certificate(kind: str, h, cert) -> str:
    if kind == "coloring":
        vec = [cert[v] for v in range(h.n)]
        for v, c in itertools.product(range(h.n), range(3)):
            wrong = vec[:v] + [c] + vec[v + 1:]
            if c != vec[v] and not verify_3cl(h, wrong):
                return format_coloring(wrong)
        # every single recoloring stays valid; collapse to monochrome
        return format_coloring([0] * h.n)
    if kind == "cycle":
        return format_cycle([cert[1], *cert[1:]])  # a duplicate id violates strictness
    return format_path(cert[:-1])  # one step short of covering every vertex


def corrupted_answer_text(row: dict) -> str:
    """A reply one mutation away from the truth that must grade incorrect:
    off-by-one counts, one-vertex-wrong sets, flipped booleans, and a
    verifier-violating edit for certificates, which are read back through
    their kind's parser."""
    spec = row["answer_spec"]
    kind, value = spec["kind"], spec["value"]
    if kind in CERTIFICATE_KINDS:
        cert = _PARSERS[kind](value, [])
        return "Ans: " + _corrupt_certificate(kind, from_json_dict(spec["graph"]), cert)
    if kind == "vertex_set":
        wrong = value[1:] if value else [0]
    elif kind == "yes_no":
        wrong = not value
    else:  # counts, flows and weights; an unreachable pair gets a weight
        wrong = 5 if value is None else value + 1
    return _reply(row["task"], kind, wrong)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------


# a grades.jsonl line: a record's fields in sorted key order, as
# json.dumps(fields, sort_keys=True) writes them
_GRADE_LINE = '{"correct": %s, "flags": %s, "parsed_kind": %s, "parsed_value": %s, "sample_id": %s}\n'
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def _value_json(value) -> str:
    """``json.dumps(value, sort_keys=True)``, a dict's int keys written as
    strings (JSON's keys), with the common values (None, bools, ints, lists
    of ints) written directly."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is list and all(type(v) is int for v in value):
        return "[" + ", ".join(map(int.__repr__, value)) + "]"
    if isinstance(value, dict):  # a coloring: its keys sort as strings
        value = {str(k): v for k, v in value.items()}
    return _encode_sorted(value)


def grade_line_encoder():
    """A function giving a record's grades.jsonl line, its fields in sorted
    key order.  Records share a few flag tuples, so it encodes each once."""
    flags_json: dict[tuple, str] = {}

    def line(rec: GradeRecord) -> str:
        flags = flags_json.get(rec.flags)
        if flags is None:
            flags = flags_json[rec.flags] = _encode_sorted(list(rec.flags))
        return _GRADE_LINE % (_value_json(rec.correct), flags, json_str(rec.parsed.kind),
                              _value_json(rec.parsed.value), json_str(rec.sample_id))

    return line


# a prm.jsonl line: the fields of a pair in sorted key order
_PRM_LINE = '{"input_text": %s, "label_combo": %s, "meta_id": %s}\n'


def write_prm(pairs, path) -> int:
    """One line per pair, keys sorted, the pairs maybe streamed; the number
    of pairs written.  The pairs of a meta share its prompt, so it is encoded
    once per meta, not once per winning combo."""
    text = object()  # no pair's input_text is this one, so the first pair's is encoded
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for written, pair in enumerate(pairs, 1):
            if pair.input_text is not text:
                text = pair.input_text
                prompt = json_str(text)
            fh.write(_PRM_LINE % (prompt, json_str(pair.label_combo), json_str(pair.meta_id)))
    return written

