"""Simulated model responses for the grade-models workload, with the verdict
and flags each must get, known by construction.

Every response is one answer value wrapped in one response style.  The
value is the manifest's answer (checked beforehand by ``checkers``), an
alternative that the checkers confirm is also valid, or a wrong value of the
task's kind.  The styles cover the grader's parser branches: marker variants,
prose, a decoy first answer, no marker, no braces, bare ids, a missing
keyword or brackets, repeated assignments, and unparsable text.  Each style
states the flags the lenient last-marker parse records; ``expect`` derives
the outcome under ``--marker first`` and ``--strict`` from that.

The mix is made to cover the parser, not to model real LVLM traffic: the
styles are drawn uniformly, and each model's chance of a right answer is an
arbitrary figure that varies by task, text format and visual format only so
that the routing labels built from its grades are not all ties.  Neither is
calibrated against real model outputs or the paper's accuracy tables.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict
from dataclasses import dataclass

import checkers as ck

# (name, extra CLI flags, base chance of a right answer; arbitrary, not calibrated)
MODELS = (
    ("model-a", (), 0.78),
    ("model-b", (), 0.52),
    ("model-c", ("--marker", "first"), 0.66),
    ("model-d", ("--strict",), 0.70),
)

FILLER = "\nOn reflection that was wrong.\n"


@dataclass(frozen=True)
class Reply:
    text: str
    value: object  # the answer the last marker carries
    flags: frozenset  # lenient, last-marker parse flags
    parses: bool = True
    first: tuple | None = None  # (value, flags) when --marker first reads a decoy


# ---------------------------------------------------------------------------
# answer values of each kind, and how the grader judges them
# ---------------------------------------------------------------------------


def set_body(ids, prefix="v") -> str:
    return "{" + ",".join(f"{prefix}{v}" for v in ids) + "}"


def seq_body(word: str, ids, prefix="e") -> str:
    return f"{word}:[" + ", ".join(f"{prefix}{j}" for j in ids) + "]"


def coloring_body(colors: dict, keyword=True, brackets=True) -> str:
    inner = ", ".join(f"v{v}:c{c}" for v, c in colors.items())
    if not brackets:
        return inner
    return ("Coloring:" if keyword else "") + f"[{inner}]"


def judge(kind: str, meta: dict, value) -> tuple[bool, frozenset]:
    """The verdict and judge-added flags of a parsed value, decided with the
    benchmark's own checkers."""
    spec = meta["spec"]
    n, edges = meta["graphs"][0]
    if kind in ("count", "flow", "path_weight", "yes_no"):
        return value == spec["value"], frozenset()
    if kind == "vertex_set":
        return sorted(value) == spec["value"], frozenset()
    if kind == "coloring":
        if sorted(value) != list(range(n)):
            return False, frozenset({"partial_coloring"})
        return ck.coloring_ok(n, edges, value), frozenset()
    if not all(j < len(edges) for j in value):
        return False, frozenset({"invalid_ids"})
    if kind == "cycle":
        ok = ck.cycle_ok(edges, list(value))
        return ok, frozenset({"shc_k2"} if ok and len(value) == 2 else ())
    p = spec["params"]
    return ck.hhm_ok(n, edges, list(value), p["s"], p["t"]), frozenset()


def right_values(kind: str, meta: dict) -> list:
    """The stored answer and, for certificates, a second valid one."""
    v = meta["spec"]["value"]
    if kind == "vertex_set":
        return [v, v[::-1]]
    if kind == "coloring":
        colors = ck.coloring_of(v)
        return [colors, {u: (c + 1) % 3 for u, c in colors.items()}]
    if kind == "cycle":
        ids = ck.ids_in(v, "e")
        edges = meta["graphs"][0][1]
        pairs = [[a, b] for a in range(len(edges)) for b in range(a + 1, len(edges)) if ck.cycle_ok(edges, [a, b])]
        return [ids, ids[1:] + ids[:1]] + pairs[:1]
    if kind == "path":
        return [ck.ids_in(v, "e")]
    return [v]


def wrong_values(kind: str, meta: dict) -> list:
    v = meta["spec"]["value"]
    n, edges = meta["graphs"][0]
    m = len(edges)
    if kind in ("count", "flow", "path_weight"):
        return [v + 1, v + 2, v - 1 if v > 0 else v + 3]
    if kind == "yes_no":
        return [not v]
    if kind == "vertex_set":
        outside = [u for u in range(n) if u not in v]
        out = [sorted(v + outside[:1]) if outside else v[1:], [n + 2]]
        return out + ([v[1:]] if len(v) > 1 else [])
    if kind == "coloring":
        colors = ck.coloring_of(v)
        return [{u: 0 for u in colors}, {u: c for u, c in colors.items() if u != n - 1}, {**colors, n + 3: 1}]
    ids = ck.ids_in(v, "e")
    if kind == "cycle":
        return [[ids[0]] + ids[:-1], ids[:-1] + [m + 4]]
    return [ids[:-1], [m + 4] + ids[1:]]


# ---------------------------------------------------------------------------
# response styles
# ---------------------------------------------------------------------------


def render(kind: str, task: str, value) -> str:
    """The canonical answer text of a value."""
    if kind in ("count", "flow", "path_weight"):
        return str(value)
    if kind == "yes_no":
        return "[Yes]" if value else "[No]"
    if kind == "vertex_set":
        if not value:
            return "No n-neighbors" if task == "ONe" else "No neighbors"
        return set_body(value)
    if kind == "coloring":
        return coloring_body(value)
    return seq_body("Cycle" if kind == "cycle" else "Path", value)


def styles(kind: str, task: str, value, decoy) -> list[Reply]:
    """Every way the simulated models phrase ``value`` for this kind."""
    body = render(kind, task, value)
    out = [
        Reply(f"Ans: {body}", value, frozenset()),
        Reply(f"ANS : {body}", value, frozenset()),
        Reply(f"ans:{body}", value, frozenset()),
    ]
    numeric = kind in ("count", "flow", "path_weight")
    if decoy is not None:
        # a decoy body never holds the phrases the parser searches first
        decoy_body = set_body(decoy) if kind == "vertex_set" else render(kind, task, decoy)
        last_body = set_body(value) if kind == "vertex_set" else body
        first_flags = frozenset({"prose"} if numeric or kind == "yes_no" else ())
        out.append(Reply(f"Ans: {decoy_body}{FILLER}Ans: {last_body}", value, frozenset(),
                         first=(decoy, first_flags)))
    if numeric:
        out += [
            Reply(f"Ans: there are {value} in total.", value, frozenset({"prose"})),
            Reply(f"I count {value} of them.", value, frozenset({"no_marker", "prose"})),
        ]
    elif kind == "yes_no":
        word = "Yes" if value else "No"
        out += [
            Reply(f"Ans: I believe the answer is {word}", value, frozenset({"prose"})),
            Reply(f"My verdict is {word}.", value, frozenset({"no_marker", "prose"})),
        ]
    elif kind == "vertex_set":
        no_marker = f"The set is {set_body(value)}." if value else "There are no neighbors."
        out.append(Reply(no_marker, value, frozenset({"no_marker"})))
        out.append(Reply(f"Ans: the set is {set_body(value)}.", value, frozenset()))
        if value:
            out += [
                Reply(f"Ans: {', '.join(f'v{u}' for u in value)}", value, frozenset({"no_braces"})),
                Reply(f"Ans: {set_body(value, '')}", value, frozenset({"bare_ids"})),
                Reply(f"Ans: {', '.join(map(str, value))}", value, frozenset({"no_braces", "bare_ids"})),
            ]
    else:
        out += [
            Reply(f"Here it is: {body}.", value, frozenset({"no_marker"})),
            Reply(f"Ans: here it is, {body}.", value, frozenset()),
        ]
        if kind == "coloring":
            first = next(iter(value.items()))
            out += [
                Reply(f"Ans: {coloring_body(value, keyword=False)}", value, frozenset({"missing_keyword"})),
                Reply(f"Ans: {coloring_body(value, brackets=False)}", value,
                      frozenset({"missing_keyword", "no_brackets"})),
                Reply(f"Ans: {body[:-1]}, v{first[0]}:c{first[1]}]", value, frozenset({"duplicate_assignment"})),
            ]
        else:
            word = "Cycle" if kind == "cycle" else "Path"
            out += [
                Reply(f"Ans: {seq_body(word, value, '')}", value, frozenset({"bare_ids"})),
                Reply(f"Ans: [{body.split('[', 1)[1]}", value, frozenset({"missing_keyword"})),
                Reply(f"Ans: {', '.join(f'e{j}' for j in value)}", value,
                      frozenset({"missing_keyword", "no_brackets"})),
            ]
    return out


UNPARSABLE = {
    "count": ("Ans: I cannot tell.", ()),
    "flow": ("Ans: I cannot tell.", ()),
    "path_weight": ("Ans: I cannot tell.", ()),
    "yes_no": ("Ans: maybe", ()),
    "vertex_set": ("Ans: unclear", ("no_braces",)),
    "coloring": ("Ans: Coloring:[unknown]", ()),
    "cycle": ("Ans: Cycle:[none]", ()),
    "path": ("Ans: Path:[none]", ()),
}


def expect(reply: Reply, kind: str, meta: dict, options: tuple) -> tuple[bool, frozenset]:
    """The verdict and flags hyperbench's grader must give ``reply``."""
    if not reply.parses:
        return False, reply.flags
    value, flags = reply.value, reply.flags
    if "--marker" in options and reply.first is not None:
        value, flags = reply.first
    if "--strict" in options and flags:
        if "no_marker" in flags:
            return False, frozenset({"parse_failure", "no_marker"})
        return False, frozenset({"parse_failure", "strict_reject"}) | flags
    ok, extra = judge(kind, meta, value)
    return ok, flags | extra


# ---------------------------------------------------------------------------
# one model's responses and the tallies its outputs must equal
# ---------------------------------------------------------------------------


def simulate(metas: dict, seed: int, model: str, options: tuple, base: float):
    """Responses of one model for every sample, plus the expected grades."""
    profile = random.Random(model)  # a model's strengths do not change with the seed
    task_off = {t: profile.uniform(-0.25, 0.2) for t in ck.TASKS}
    text_off = {t: profile.uniform(-0.12, 0.12) for t in ck.TEXT_FORMATS}
    vis_off = {v: profile.uniform(-0.12, 0.12) for v in ck.VISUAL_FORMATS}
    rng = random.Random(f"{seed}:{model}")
    lines, expected = [], {}
    for meta_id, meta in metas.items():
        task = meta["task"]
        kind = ck.KIND_OF_TASK[task]
        rights, wrongs = right_values(kind, meta), wrong_values(kind, meta)
        for text_fmt, visual_fmt in ck.COMBOS:
            p = base + task_off[task] + text_off[text_fmt] + vis_off[visual_fmt]
            if rng.random() < min(max(p, 0.02), 0.98):
                replies = styles(kind, task, rng.choice(rights), rng.choice(wrongs))
            else:
                replies = styles(kind, task, rng.choice(wrongs), rng.choice(wrongs))
                text, flags = UNPARSABLE[kind]
                replies.append(Reply(text, None, frozenset({"parse_failure", *flags}), parses=False))
                if kind == "path_weight":
                    replies.append(Reply("Ans: No path", None, frozenset()))
            reply = rng.choice(replies)
            sid = f"{meta_id}__{text_fmt}__{visual_fmt}"
            lines.append(json.dumps({"sample_id": sid, "raw_text": reply.text}))
            expected[sid] = expect(reply, kind, meta, options)
    return "\n".join(lines) + "\n", expected


def accuracy_cells(metas: dict, expected: dict) -> dict:
    """(section, key) -> (accuracy text, count text), as accuracy.csv holds them."""
    hits = defaultdict(list)
    for sid, (ok, _) in expected.items():
        meta_id, text_fmt, visual_fmt = sid.split("__")
        for cell in (("task", metas[meta_id]["task"]), ("text_format", text_fmt), ("visual_format", visual_fmt)):
            hits[cell].append(1 if ok else 0)
    acc = {cell: sum(h) / len(h) for cell, h in hits.items()}
    cells = {cell: (f"{acc[cell]:.4f}", str(len(h))) for cell, h in hits.items()}
    for key, tasks in (("Avg.U", ck.UNDERSTANDING), ("Avg.R", ck.REASONING)):
        present = [acc[("task", t)] for t in tasks if ("task", t) in acc]
        cells[("average", key)] = (f"{sum(present) / len(present):.4f}" if present else "", "")
    return cells


def prm_rows(metas: dict, expected: dict) -> list[tuple[str, str, str]]:
    """Sorted (meta_id, label_combo, input_text): each meta's best combos."""
    rows = []
    for meta_id, meta in metas.items():
        hits = {c: expected[f"{meta_id}__{c[0]}__{c[1]}"][0] for c in ck.COMBOS}
        best = max(hits.values())
        rows += [(meta_id, f"{t}+{v}", meta["ho_neigh_prompt"]) for (t, v), ok in hits.items() if ok == best]
    return sorted(rows)
