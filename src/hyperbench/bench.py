"""Meta-problem assembly and corpus emission.

A meta problem is one task instance (hypergraph(s) + parameters + ground
truth).  Each meta expands into 35 QA samples — one per (textual, visual)
representation combination — sharing the same answer.  ``emit_corpus``
generates the metas with the paper's 1:2:1 small:medium:large scale mix and
a 1:1 synthetic:real source mix, and writes the SVGs and a JSONL manifest
(keys sorted, no timestamps, byte-stable for a fixed seed).  One function
makes, renders and encodes each chunk of ``_CHUNK`` metas, in ``jobs``
worker processes or in this one; the parent appends the encoded lines in
emission order.  A worker appends a chunk's lines to its own spool file, in
a temporary directory inside the output directory, and returns only where
they are (the file, an offset, each meta's length in bytes); the parent
reads them from there, so no manifest byte is pickled through the pool's
result pipe, and none waits in the parent's memory for its turn.

``_certified`` builds each 3-CL, SHC and HHM meta: the task's constructor
plants the certificate for a synthetic meta, and for a real one the task's
search finds it on a subsample (both give ``(h, certificate)`` in one shape).

Each distinct byte is made once.  ``sample_rows`` is the one row writer: it
encodes a meta's fields and answer spec once, each text format's prompt once
for its 5 rows, and joins the meta's 35 manifest lines from those parts into
one string; no row is built as a dict.  Each (meta, visual) SVG is written
once, at its first sample path; the other six paths are hard links to it, or
copies where the filesystem refuses a link.  A chunk's Cli-Exp spring
layouts, ISM pairs' included, are computed together in one
``visual_repr.layout_springs`` batch before its SVGs are drawn: a layout is
100 steps of numpy calls over at most 20 points, so a batch pays each call's
overhead once, and its positions are those of laying each graph out alone.
With ``jobs`` > 1 the pool's ordered ``map`` hands out every chunk at once
and the workers run ahead of the parent without a bound: a chunk's result is
only a location, so what waits behind a slow meta is bytes in the spool, not
in the parent.  ``jobs`` = 1 runs the same chunks in order, so no output
depends on ``jobs``.

Only the SVGs need numpy.  ``VISUAL_FORMATS`` comes from ``core``, and
``visual_repr`` is imported inside ``render_meta_svg`` and ``_write_svgs``,
and each SVG looks up its renderer on the module, so a dry run never imports
numpy.  An image emit imports ``visual_repr`` before the worker pool forks,
so that the workers inherit numpy rather than each importing it.
"""

from __future__ import annotations

import json
import os
import random
import signal
from collections.abc import Callable
from contextlib import ExitStack, closing
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

from . import generate
from .core import VISUAL_FORMATS, Hypergraph, json_str, to_json_dict
from .generate import (
    SCALE_CLASSES,
    SOURCES,
    GenSpec,
    SourcePool,
    derive_seed,
    gen_3cl_instance,
    gen_generic,
    gen_hhm_instance,
    gen_ism_pair,
    gen_shc_instance,
)
from .solve import solve_dvc, solve_ism, solve_oec, solve_omf, solve_osp
from .text_repr import TEXT_FORMATS, render_text
from .verify import find_3cl, find_hhm, find_hhm_any, find_shc, format_coloring, format_cycle, format_path

SCALE_MIX = (1, 2, 1)  # small:medium:large, the paper's split

# all 35 combos, text-major order
ALL_COMBOS = tuple((t, v) for t in TEXT_FORMATS for v in VISUAL_FORMATS)


@dataclass(frozen=True)
class TaskSpec:
    """Everything that differs between tasks, defined once per task.

    ``question`` is a ``str.format`` template over the task's parameters
    and ``none``, the reply that states there is no answer (no neighbors,
    no path), which the question quotes and the canonical reply uses.
    ``params`` names them in the order the CLI asks for them; ``draw`` picks
    them from a generated instance.  ``solve(h, params, h_b)`` gives the exact
    answer fields (``{"value": ...}``).  ``build(spec, pool)`` replaces random
    generation plus ``solve`` for the tasks whose instances are made by a
    constructor or kept as certified real subsamples; it returns
    ``(h, h_b, params, value)``.
    """

    id: str
    level: int
    kind: str
    question: str
    solve: Callable
    params: tuple[str, ...] = ()
    draw: Callable | None = None
    build: Callable | None = None
    pair: bool = False  # two hypergraphs, H and G
    none: str | None = None


def _draw_s_t(h: Hypergraph, rng: random.Random) -> dict:
    s, t = rng.sample(range(h.n), 2)
    return {"s": s, "t": t}


def _solve_osp(h: Hypergraph, p: dict, _h_b) -> dict:
    res = solve_osp(h, p["s"], p["t"])
    return {"value": res.total_weight, "witness": list(res.witness) if res.witness else None}


def _build_ism(spec: GenSpec, pool):
    pair = gen_ism_pair(spec, pool)
    return pair.a, pair.b, {}, pair.isomorphic


def _certified(spec: GenSpec, pool, construct, search, fmt, params=lambda cert: {}):
    """A certified task's ``(h, None, params(cert), fmt(cert))``.  For a real
    spec, ``h`` is a subsample of ``pool`` on which ``search`` finds ``cert``
    (the certificate found while accepting it); otherwise ``construct(spec)``
    plants both."""
    if spec.source == "real":
        found = []

        def require(g: Hypergraph) -> bool:
            found.append(search(g))
            return found[-1] is not None

        h = generate.subsample_real(pool, spec, require=require)
        cert = found[-1]
    else:
        h, cert = construct(spec)
    return h, None, params(cert), fmt(cert)


TASK_TABLE = (
    TaskSpec(
        "VC", 1, "count",
        'Q: How many vertices are in the hypergraph G? List the answer after "Ans:".',
        solve=lambda h, p, _: {"value": h.num_vertices},
    ),
    TaskSpec(
        "HEC", 1, "count",
        'Q: How many hyperedges are in the hypergraph G? List the answer after "Ans:".',
        solve=lambda h, p, _: {"value": h.num_edges},
    ),
    TaskSpec(
        "Ne", 1, "vertex_set",
        "Q: What are the direct neighbors of vertex v{u} in hypergraph G? "
        "(Neighbors = vertices sharing at least one hyperedge with v{u}). "
        'List the answer after "Ans:" in the format {{v1,v2,...}} or "{none}".',
        solve=lambda h, p, _: {"value": list(h.neighbors(p["u"]))},
        params=("u",),
        draw=lambda h, rng: {"u": rng.randrange(h.n)},
        none="No neighbors",
    ),
    TaskSpec(
        "DVC", 2, "count",
        "Q: How many vertices have degree {d} in hypergraph G? "
        "(Degree = number of hyperedges the vertex belongs to). "
        'List the answer after "Ans:".',
        solve=lambda h, p, _: {"value": solve_dvc(h, p["d"])},
        params=("d",),
        draw=lambda h, rng: {"d": rng.choice(sorted(set(h.degree_sequence())))},
    ),
    TaskSpec(
        "OEC", 2, "count",
        "Q: How many hyperedges have order {k} in hypergraph G? "
        "(Order = number of vertices in the hyperedge). "
        'List the answer after "Ans:".',
        solve=lambda h, p, _: {"value": solve_oec(h, p["k"])},
        params=("k",),
        draw=lambda h, rng: {"k": rng.choice(sorted(set(h.order_sequence())))},
    ),
    TaskSpec(
        "ONe", 2, "vertex_set",
        "Q: What are the neighbors of vertex v{u} when only considering "
        "hyperedges with order >= {k} in hypergraph G? "
        'List the answer after "Ans:" in the format {{v1,v2,...}} or "{none}".',
        solve=lambda h, p, _: {"value": list(h.neighbors_filtered(p["u"], p["k"]))},
        params=("u", "k"),
        draw=lambda h, rng: {"u": rng.randrange(h.n), "k": rng.choice(sorted(set(h.order_sequence())))},
        none="No n-neighbors",
    ),
    TaskSpec(
        "OSP", 3, "path_weight",
        "Q: What is the shortest path length from vertex v{s} to vertex v{t} "
        "in hypergraph G, where each hyperedge's weight equals its order (number of "
        'vertices)? If no path exists, answer "{none}". List the answer after "Ans:".',
        solve=_solve_osp,
        params=("s", "t"),
        draw=_draw_s_t,
        none="No path",
    ),
    TaskSpec(
        "OMF", 3, "flow",
        "Q: What is the estimated maximum flow from vertex v{s} to vertex v{t} "
        "in hypergraph G, where each hyperedge's capacity equals its order? "
        'If no flow exists, answer "0". List the answer after "Ans:".',
        solve=lambda h, p, _: {"value": solve_omf(h, p["s"], p["t"])},
        params=("s", "t"),
        draw=_draw_s_t,
    ),
    TaskSpec(
        "ISM", 3, "yes_no",
        "Q: Are these two hypergraphs isomorphic? (Two hypergraphs are isomorphic if "
        "there exists a vertex relabeling that transforms one into the other). "
        'List the answer after "Ans:" in the format [Yes/No].',
        solve=lambda h, p, h_b: {"value": solve_ism(h, h_b)},
        build=_build_ism,
        pair=True,
    ),
    TaskSpec(
        "3-CL", 4, "coloring",
        "Q: Please provide a 3-coloring strategy such that each hyperedge contains "
        "nodes with at least 2 different colors (assign each vertex a color from "
        '{{c0, c1, c2}}). List the answer after "Ans:" as "Coloring:[v0:c0,v1:c1,...]".',
        solve=lambda h, p, _: {"value": find_3cl(h)},
        # each helper is looked up on this module at each call, so that one
        # replaced here (as by a tracer) is the one that runs
        build=lambda spec, pool: _certified(spec, pool, gen_3cl_instance, find_3cl, format_coloring),
    ),
    TaskSpec(
        "SHC", 4, "cycle",
        "Q: Please identify a strict hypercycle in the hypergraph G (A strict "
        "hypercycle is a sequence of hyperedges e1,e2,...,ek where adjacent "
        "hyperedges share exactly one vertex, i.e., |e_i ∩ e_{{i+1}}| = 1, and "
        '|e_k ∩ e_1| = 1, forming a closed loop). List the hypercycle after "Ans:" '
        'as "Cycle:[e0,e1,...]".',
        solve=lambda h, p, _: {"value": find_shc(h)},
        build=lambda spec, pool: _certified(spec, pool, gen_shc_instance, find_shc, format_cycle),
    ),
    TaskSpec(
        "HHM", 4, "path",
        "Q: Please provide a valid Hamiltonian path from v{s} to v{t}.\n"
        "(Hamiltonian path = path visiting all vertices exactly once). "
        'List the answer after "Ans:" as "Path:[e0,e1,...]".',
        solve=lambda h, p, _: {"value": find_hhm(h, p["s"], p["t"])},
        params=("s", "t"),
        build=lambda spec, pool: _certified(spec, pool, gen_hhm_instance, find_hhm_any,
                                            lambda cert: format_path(cert[0]), lambda cert: dict(s=cert[1], t=cert[2])),
    ),
)
TASK_SPECS = {spec.id: spec for spec in TASK_TABLE}
TASKS = tuple(TASK_SPECS)
UNDERSTANDING_TASKS = tuple(spec.id for spec in TASK_TABLE if spec.level <= 2)
REASONING_TASKS = tuple(spec.id for spec in TASK_TABLE if spec.level >= 3)


def task_spec(task: str) -> TaskSpec:
    spec = TASK_SPECS.get(task)
    if spec is None:
        raise ValueError(f"unknown task {task!r}")
    return spec


@dataclass
class MetaProblem:
    id: str
    task: str
    level: int
    scale: str
    source: str
    seed: int
    hypergraph: Hypergraph
    hypergraph_b: Hypergraph | None
    params: dict
    answer: dict


def sample_params(h: Hypergraph, task: str, seed: int) -> dict:
    """Task parameters drawn from the instance itself.

    Degree/order targets come from the distinct values present (uniform), so
    the counting answer is nonzero.
    """
    draw = task_spec(task).draw
    return draw(h, random.Random(derive_seed(seed, "params"))) if draw else {}


def make_meta(
    task: str,
    index: int,
    scale: str,
    source: str,
    master_seed: int,
    pool: SourcePool | None = None,
) -> MetaProblem:
    """Build one fully-solved meta problem deterministically from its seed."""
    spec = task_spec(task)
    seed = derive_seed(master_seed, task, index)
    gen_spec = GenSpec(task, scale, source, seed)
    if spec.build is not None:
        h, h2, params, value = spec.build(gen_spec, pool)
        answer = {"kind": spec.kind, "value": value}
    else:
        h, h2 = gen_generic(gen_spec, pool), None
        params = sample_params(h, task, seed)
        answer = {"kind": spec.kind, **spec.solve(h, params, None)}
    return MetaProblem(
        id=f"{task}-{index:04d}",
        task=task,
        level=spec.level,
        scale=scale,
        source=source,
        seed=seed,
        hypergraph=h,
        hypergraph_b=h2,
        params=params,
        answer=answer,
    )


def question_sentence(meta: MetaProblem) -> str:
    """The task question with parameters substituted (no graph rendering)."""
    spec = task_spec(meta.task)
    return spec.question.format(none=spec.none, **meta.params)


def prompt_for(meta: MetaProblem, text_fmt: str) -> str:
    """Full textual prompt: rendering(s) plus the question sentence."""
    if meta.hypergraph_b is not None:
        return (
            "There are two hypergraphs: H and G.\n"
            "The description of H is:\n"
            + render_text(meta.hypergraph, text_fmt, name="H")
            + "\nThe description of G is:\n"
            + render_text(meta.hypergraph_b, text_fmt, name="G")
            + "\n"
            + question_sentence(meta)
        )
    return render_text(meta.hypergraph, text_fmt) + "\n" + question_sentence(meta)


def _svg_seed(meta: MetaProblem, visual_fmt: str) -> int:
    return derive_seed(meta.seed, "svg", visual_fmt)


def render_meta_svg(meta: MetaProblem, visual_fmt: str, layouts=None) -> str:
    """The sample image for a meta (ISM pairs share one canvas and seed).
    ``layouts`` holds, for a force format, the abstract layout of each of the
    meta's hypergraphs already computed."""
    from . import visual_repr  # numpy; looked up per call, not bound at import

    svg_seed = _svg_seed(meta, visual_fmt)
    if meta.hypergraph_b is not None:
        return visual_repr.render_svg_pair(
            meta.hypergraph, meta.hypergraph_b, visual_fmt, seed=svg_seed, layouts=layouts
        )
    layout = None if layouts is None else layouts[0]
    return visual_repr.render_svg(meta.hypergraph, visual_fmt, seed=svg_seed, layout=layout)


# the parts of a manifest line that depend on a format alone, each with the
# key that follows it: the line's keys are in sorted order, as
# json.dumps(row, sort_keys=True) writes them
_TEXT_PART = {fmt: json_str(fmt) + ', "visual_format": ' for fmt in TEXT_FORMATS}
_VISUAL_PART = {fmt: json_str(fmt) + "}\n" for fmt in VISUAL_FORMATS}


def sample_rows(meta: MetaProblem) -> str:
    """The meta's 35 manifest lines, in text-major combo order.

    A sample's row holds the meta's fields, its text and visual formats, its
    prompt and image path, and the answer spec: kind/value plus the graph(s)
    and params, so graded re-verification never needs the generator.  Each
    line is ``json.dumps(row, sort_keys=True)`` and a newline, joined from
    parts: the meta's fields and answer spec are encoded once, each text
    format's prompt once for its 5 rows."""
    spec = {**meta.answer, "graph": to_json_dict(meta.hypergraph), "params": meta.params}
    if meta.hypergraph_b is not None:
        spec["graph_b"] = to_json_dict(meta.hypergraph_b)
    head = f'{{"answer_spec": {json.dumps(spec, sort_keys=True)}, "image_path": '
    ident = f', "level": {meta.level}, "meta_id": {json_str(meta.id)}, "prompt": '
    tail = (f', "scale": {json_str(meta.scale)}, "source": {json_str(meta.source)}, '
            f'"task": {json_str(meta.task)}, "text_format": ')
    parts = []
    for text_fmt in TEXT_FORMATS:
        prompt = json_str(prompt_for(meta, text_fmt)) + ', "sample_id": '
        for visual_fmt in VISUAL_FORMATS:
            sample_id = f"{meta.id}__{text_fmt}__{visual_fmt}"
            parts += (head, json_str(f"images/{sample_id}.svg"), ident, prompt, json_str(sample_id), tail,
                      _TEXT_PART[text_fmt], _VISUAL_PART[visual_fmt])
    return "".join(parts)


def plan_mix(count: int, labels, weights, rng: random.Random) -> list[str]:
    """Exact largest-remainder split of ``count`` over labels, shuffled."""
    total = sum(weights)
    base = [count * w // total for w in weights]
    fracs = [count * w % total for w in weights]
    order = sorted(range(len(labels)), key=lambda i: (-fracs[i], rng.random()))
    for i in order[: count - sum(base)]:
        base[i] += 1
    out: list[str] = []
    for label, c in zip(labels, base):
        out.extend([label] * c)
    rng.shuffle(out)
    return out


def plan_assignments(per_task: int, master_seed: int, source_mix=(1, 1)):
    """(task, index, scale, source) for every meta, in emission order."""
    out = []
    for task in TASKS:
        rng = random.Random(derive_seed(master_seed, task, "mix"))
        scales = plan_mix(per_task, SCALE_CLASSES, SCALE_MIX, rng)
        sources = plan_mix(per_task, SOURCES, source_mix, rng)
        for idx in range(per_task):
            out.append((task, idx, scales[idx], sources[idx]))
    return out


def _write_svgs(metas: list[MetaProblem], images_dir: Path) -> None:
    """Each SVG of the metas, written once at its first sample path and
    hard-linked at the other six, or copied there where a link fails.  The
    Cli-Exp spring layouts of all the metas' hypergraphs are computed first,
    as one batch; each SVG is then drawn and written in turn."""
    from . import visual_repr

    drawn = [(meta, (meta.hypergraph,) if meta.hypergraph_b is None else (meta.hypergraph, meta.hypergraph_b))
             for meta in metas]
    springs = iter(visual_repr.layout_springs(
        (h.n, h.vertex_pairs(), _svg_seed(meta, "Cli-Exp")) for meta, graphs in drawn for h in graphs
    ))
    for meta, graphs in drawn:
        spring = [next(springs) for _ in graphs]
        for visual_fmt in VISUAL_FORMATS:
            svg = render_meta_svg(meta, visual_fmt, spring if visual_fmt == "Cli-Exp" else None)
            first, *others = (images_dir / f"{meta.id}__{text_fmt}__{visual_fmt}.svg" for text_fmt in TEXT_FORMATS)
            first.write_text(svg, encoding="utf-8")
            for path in others:
                path.unlink(missing_ok=True)
                try:
                    os.link(first, path)
                except OSError:
                    path.write_text(svg, encoding="utf-8")


_WORKER_CONTEXT = None  # a worker process's (master_seed, pool, images_dir), set once by _init_worker
_SPOOL = None  # a worker process's spool file, opened once by _init_worker
_CHUNK = 8  # metas made, laid out and encoded together, and sent to a worker at once


def _init_worker(spool_dir, *context) -> None:
    global _WORKER_CONTEXT, _SPOOL
    _WORKER_CONTEXT = context
    # Ctrl-C reaches the whole process group; the parent alone handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _SPOOL = open(os.path.join(spool_dir, str(os.getpid())), "xb")


def _chunks(assignments):
    return (assignments[start:start + _CHUNK] for start in range(0, len(assignments), _CHUNK))


def _emit_chunk(assignments, context=None) -> list[bytes]:
    """Make a chunk of metas, write their SVGs unless ``images_dir`` is None,
    and return each meta's 35 manifest lines, encoded.  ``context`` is
    ``(master_seed, pool, images_dir)``; in a worker process it defaults to
    ``_WORKER_CONTEXT``."""
    master_seed, pool, images_dir = context or _WORKER_CONTEXT
    metas = [make_meta(*assignment, master_seed, pool) for assignment in assignments]
    if images_dir is not None:
        _write_svgs(metas, images_dir)
    return [sample_rows(meta).encode() for meta in metas]


def _spool_chunk(assignments) -> tuple[str, int, list[int]]:
    """``_emit_chunk`` in a worker process, its lines appended to the
    worker's spool and flushed; returns where they are: the spool's path,
    their offset in it and each meta's length in bytes."""
    encoded = _emit_chunk(assignments)
    offset = _SPOOL.tell()
    _SPOOL.writelines(encoded)
    _SPOOL.flush()
    return _SPOOL.name, offset, [len(lines) for lines in encoded]


def _read_spooled(path: str, offset: int, lengths: list[int]):
    """Each meta's manifest bytes of a chunk that ``_spool_chunk`` spooled."""
    with open(path, "rb") as spool:
        spool.seek(offset)
        for length in lengths:
            yield spool.read(length)


def emit_corpus(
    per_task: int,
    master_seed: int,
    outdir,
    pool: SourcePool | None = None,
    source_mix=(1, 1),
    jobs: int = 1,
    write_images: bool = True,
    log=None,
) -> dict:
    """Generate, render, and write the corpus; returns a summary dict.

    The manifest is identical for a given seed regardless of ``jobs`` or
    ``write_images`` (image files are simply skipped when disabled).
    """
    if per_task < 1:
        raise ValueError("per_task must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    images_dir = outdir / "images"
    if write_images:
        images_dir.mkdir(exist_ok=True)
        from . import visual_repr  # noqa: F401  imported once here, so that forked workers inherit numpy
    assignments = plan_assignments(per_task, master_seed, source_mix)
    context = (master_seed, pool, images_dir if write_images else None)
    manifest_path = outdir / "manifest.jsonl"
    # written under a temporary name and renamed over the old manifest only
    # when complete, so that an emit that stops part-way leaves it intact
    partial_path = outdir / "manifest.jsonl.tmp"
    try:
        with ExitStack() as stack:
            if jobs > 1:
                from concurrent.futures import ProcessPoolExecutor  # imported only for a pooled emit
                from tempfile import TemporaryDirectory

                # the workers' spool files; entered before the pool, so that
                # it is removed after the pool shuts down, however the emit ends
                spool_dir = stack.enter_context(TemporaryDirectory(dir=outdir, prefix=".manifest-spool-"))
                ex = stack.enter_context(
                    ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(spool_dir, *context))
                )
                # closed before the pool shuts down, which cancels the chunks
                # not yet started, so that a failed or interrupted emit waits
                # only for the chunks already running
                spooled = stack.enter_context(closing(ex.map(_spool_chunk, _chunks(assignments))))
                emitted = chain.from_iterable(_read_spooled(*where) for where in spooled)
            else:
                emitted = chain.from_iterable(map(_emit_chunk, _chunks(assignments), repeat(context)))
            mf = stack.enter_context(open(partial_path, "wb"))
            for (task, idx, scale, source), lines in zip(assignments, emitted):
                if log:
                    log(f"meta {task}-{idx:04d} ({scale}/{source})")
                mf.write(lines)
        os.replace(partial_path, manifest_path)
    except BaseException:
        partial_path.unlink(missing_ok=True)
        raise
    samples = len(assignments) * len(ALL_COMBOS)  # one row, and with images one SVG, per combo
    return {
        "metas": len(assignments),
        "samples": samples,
        "images": samples if write_images else 0,
        "manifest": str(manifest_path),
    }
