"""Command-line front end: generate | render | solve | verify | emit | grade | prm | selfcheck.

Exit codes: 0 success, 1 graded failure (invalid certificate, failed
selfcheck), 2 usage error, 130 interrupted (Ctrl-C), 141 standard output
closed early (a pipe into ``head``, say).  All randomness flows
from --seed; repeated invocations with the same flags produce identical
bytes.  HYPERBENCH_OUT provides the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

from . import generate as gen
from .bench import TASK_TABLE, emit_corpus, plan_assignments
from .core import VISUAL_FORMATS, Hypergraph, iter_jsonl, load_json, save_json
from .grade import (
    CERTIFICATE_KINDS,
    GradeOptions,
    Grading,
    check_certificate,
    grade_line_encoder,
    index_manifest,
    parse_answer,
    tally_accuracy,
    tally_prm,
    write_prm,
)
from .solve import oracle_ism, oracle_omf, oracle_osp, solve_ism, solve_omf, solve_osp
from .text_repr import TEXT_FORMATS, render_text
from .verify import verify_3cl, verify_hhm, verify_shc


class UsageError(Exception):
    pass


# CLI task names are the task ids in lower case without hyphens (3-CL -> 3cl)
_CLI_TASKS = {spec.id.lower().replace("-", ""): spec for spec in TASK_TABLE}
_VERIFY_TASKS = [name for name, spec in _CLI_TASKS.items() if spec.kind in CERTIFICATE_KINDS]
_GENERATE_TASKS = ["generic"] + [name for name, spec in _CLI_TASKS.items() if spec.build is not None]
_PARAM_FLAGS = {"u": "v"}  # the vertex parameter is spelled --v
_NAMED_METAS = 10  # skipped metas that prm names on stderr
# the golden text renderings of the reference hypergraph, shipped with the package
_FIXTURES = Path(__file__).parent / "fixtures"


def _default_out() -> str:
    return os.environ.get("HYPERBENCH_OUT", "hyperbench-out")


def _parse_source_mix(text: str) -> tuple[int, int]:
    fields = text.split(":")
    if len(fields) != 2 or not all(f.isdecimal() for f in fields) or not any(map(int, fields)):
        raise UsageError(f"--source-mix must be two colon-separated integers with a positive total, got {text!r}")
    return int(fields[0]), int(fields[1])


def _load(what: str, loader, path: str):
    """``loader(path)``, with a missing, unreadable or malformed file as a usage error."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}")
    except OSError as exc:  # a directory, or a file it may not read
        raise UsageError(f"cannot read {what} file {path}: {exc.strerror}")
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise UsageError(f"bad {what} file {path}: {exc}")


def _out_dir(path: str) -> Path:
    """The output directory ``path``, made if missing; a usage error if it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc.strerror}")
    return Path(path)


def _load_graph(path: str) -> Hypergraph:
    return _load("graph", load_json, path)


def _load_pool(path: str | None, scales) -> gen.SourcePool | None:
    """The pool file at ``path``, or None without one; a usage error if it, or
    its largest component, has fewer vertices than a real subsample of one of
    ``scales`` may draw."""
    if not path:
        return None
    pool = _load("pool", gen.load_pool, path)
    need = max((gen.SCALE_RANGES[scale][1] for scale in scales), default=0)
    if pool.hypergraph.n < need:
        raise UsageError(f"pool too small: {path} has {pool.hypergraph.n} vertices, this run may draw {need}")
    if pool.largest < need:
        largest = f"{path}'s largest component has {pool.largest} vertices"
        raise UsageError(f"pool too small: {largest}, this run may draw {need}")
    return pool


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    pool = _load_pool(args.pool, [args.scale] if args.source == "real" else [])
    outdir = _out_dir(args.out)
    for i in range(args.count):
        spec = gen.GenSpec("generic", args.scale, args.source, gen.derive_seed(args.seed, "cli-gen", i))
        shown = {}
        if args.task == "generic":
            h = gen.gen_generic(spec, pool)
        else:  # the task's own constructor, or certified real subsample
            h, h_b, params, value = _CLI_TASKS[args.task].build(spec, pool)
            if h_b is not None:
                pa = outdir / f"g-{i:04d}-a.json"
                pb = outdir / f"g-{i:04d}-b.json"
                save_json(h, pa)
                save_json(h_b, pb)
                print(json.dumps({"a": str(pa), "b": str(pb), "isomorphic": value}, sort_keys=True))
                continue
            shown = {**params, "certificate": value}  # as `verify` takes them: --s, --t and --cert
        path = outdir / f"g-{i:04d}.json"
        save_json(h, path)
        print(json.dumps({"path": str(path), "n": h.n, "m": len(h.edges), **shown}, sort_keys=True))
    return 0


def _cmd_render(args) -> int:
    h = _load_graph(args.graph)
    if args.format in TEXT_FORMATS:
        if args.graph_b:
            raise UsageError(f"--graph-b is for a side-by-side SVG, not the text format {args.format}")
        text = render_text(h, args.format)
    elif args.format in VISUAL_FORMATS:
        from . import visual_repr  # numpy, imported only to draw

        if args.graph_b:
            text = visual_repr.render_svg_pair(h, _load_graph(args.graph_b), args.format, seed=args.seed)
        else:
            text = visual_repr.render_svg(h, args.format, seed=args.seed)
    else:
        raise UsageError(f"unknown format {args.format!r}")
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}")
    return 0


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for task {args.task}")


def _task_params(args, spec) -> dict:
    """The task's parameters, read from their flags."""
    flags = [_PARAM_FLAGS.get(name, name) for name in spec.params]
    _require(args, *flags)
    return {name: getattr(args, flag) for name, flag in zip(spec.params, flags)}


def _cmd_solve(args) -> int:
    h = _load_graph(args.graph)
    spec = _CLI_TASKS[args.task]
    params = _task_params(args, spec)
    h_b = None
    if spec.pair:
        _require(args, "graph_b")
        h_b = _load_graph(args.graph_b)
    try:
        answer = spec.solve(h, params, h_b)
    except (ValueError, IndexError) as exc:  # a parameter the solver rejects
        raise UsageError(str(exc))
    except RecursionError:  # the 3-CL, HHM and ISM searches recurse once per vertex
        raise UsageError(f"graph too deep for the {args.task} search: {h.n} vertices") from None
    print(json.dumps({"task": args.task, **answer}, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    h = _load_graph(args.graph)
    spec = _CLI_TASKS[args.task]
    parsed = parse_answer(spec.id, "Ans: " + args.cert)
    if parsed.failed:
        raise UsageError(f"could not parse certificate {args.cert!r}")
    params = _task_params(args, spec)
    try:
        for v in params.values():
            h.check_vertex(v)  # a bad endpoint is a usage error, not an invalid path
        valid, _ = check_certificate(spec.kind, h, parsed.value, params)
    except (ValueError, IndexError) as exc:  # out-of-range or equal path endpoints
        raise UsageError(str(exc))
    print("VALID" if valid else "INVALID")
    return 0 if valid else 1


def _cmd_emit(args) -> int:
    if args.per_task < 1:
        raise UsageError(f"--per-task must be at least 1, got {args.per_task}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    source_mix = _parse_source_mix(args.source_mix)
    real_scales = {
        scale for _, _, scale, source in plan_assignments(args.per_task, args.seed, source_mix) if source == "real"
    }
    pool = _load_pool(args.pool, real_scales)
    outdir = _out_dir(args.out)
    if not args.dry_run:
        _out_dir(str(outdir / "images"))
    summary = emit_corpus(
        per_task=args.per_task,
        master_seed=args.seed,
        pool=pool,
        outdir=outdir,
        source_mix=source_mix,
        jobs=args.jobs,
        write_images=not args.dry_run,
        log=print if args.verbose else None,
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _open_rows(stack: ExitStack, path: str, what: str):
    """The records of a JSONL file, streamed; the file is opened now, so that
    a missing or unreadable one is a usage error here rather than at the
    first record."""
    try:
        return iter_jsonl(stack.enter_context(open(path, encoding="utf-8")))
    except FileNotFoundError:
        raise UsageError(f"{what} not found: {path}")
    except OSError as exc:  # a directory, or a file it may not read
        raise UsageError(f"cannot read {what} {path}: {exc.strerror}")


def _grading(args, each=None, prompts=True) -> Grading:
    """The finished grading run of the responses against the manifest, both
    files streamed: each response is judged as it is read, and its record
    passed to ``each``.  The index keeps HO-Neigh prompts only if ``prompts``
    is true.  Says on stderr how many manifest samples have no response."""
    options = GradeOptions(lenient=not args.strict, marker=args.marker)
    with ExitStack() as stack:
        manifest = _open_rows(stack, args.manifest, "manifest")
        responses = _open_rows(stack, args.responses, "responses")
        try:
            run = Grading(index_manifest(manifest, prompts=prompts), options)
            for record in run.grade(responses):
                if each is not None:
                    each(record)
        except ValueError as exc:
            raise UsageError(str(exc))
    unanswered = len(run.index) - run.graded
    if unanswered:
        print(f"{unanswered} manifest samples have no response", file=sys.stderr)
    return run


def _cmd_grade(args) -> int:
    line = grade_line_encoder()
    # grades.jsonl, spilled to an anonymous file and copied out only once every response is judged
    with tempfile.TemporaryFile() as grades:
        run = _grading(args, lambda record: grades.write(line(record).encode()), prompts=False)
        table = tally_accuracy(run.graded_rows())
        outdir = _out_dir(args.out)
        grades.seek(0)
        with open(outdir / "grades.jsonl", "wb") as fh:
            shutil.copyfileobj(grades, fh)
    (outdir / "accuracy.csv").write_text(table.to_csv(), encoding="utf-8")
    print(
        json.dumps(
            {
                "graded": run.graded,
                "correct": run.correct,
                "grades": str(outdir / "grades.jsonl"),
                "accuracy": str(outdir / "accuracy.csv"),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_prm(args) -> int:
    pairs, skipped = tally_prm(_grading(args).graded_rows())
    if skipped:
        named = ", ".join(skipped[:_NAMED_METAS]) + (", ..." if len(skipped) > _NAMED_METAS else "")
        print(f"{len(skipped)} metas lack graded responses for some combos and were skipped: {named}",
              file=sys.stderr)
    outdir = _out_dir(args.out)
    path = outdir / "prm.jsonl"
    count = write_prm(pairs, path)  # the pairs are made as they are written
    print(json.dumps({"pairs": count, "path": str(path)}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def _selfcheck_oracles(report) -> bool:
    import itertools
    import random

    ok = True
    start = time.monotonic()
    mismatches = 0
    for i in range(40):
        rng = random.Random(gen.derive_seed(0xC0FFEE, "selfcheck", i))
        n = rng.randint(2, 6)
        m = rng.randint(1, 6)
        edges = []
        for _ in range(m):
            edges.append(rng.sample(range(n), rng.randint(2, min(4, n))))
        h = Hypergraph(n, edges)
        for s, t in itertools.combinations(range(n), 2):
            got = solve_osp(h, s, t)
            want = oracle_osp(h, s, t)
            if (got.total_weight, got.witness) != (want.total_weight, want.witness):
                mismatches += 1
            if solve_omf(h, s, t) != oracle_omf(h, s, t):
                mismatches += 1
    ok &= report("oracle osp/omf agreement", mismatches == 0)
    ism_bad = 0
    for i in range(40):
        spec = gen.GenSpec(task="ISM", scale="small", seed=gen.derive_seed(0xC0FFEE, "selfcheck-ism", i))
        pair = gen.gen_ism_pair(spec)
        if pair.a.n <= 6 and len(pair.a.edges) <= 8 and len(pair.b.edges) <= 8:
            if solve_ism(pair.a, pair.b) != oracle_ism(pair.a, pair.b):
                ism_bad += 1
    ok &= report("oracle ism agreement", ism_bad == 0)
    report(f"oracle suite time {time.monotonic() - start:.1f}s", True)
    return ok


def _cmd_selfcheck(args) -> int:
    failures = 0

    def report(name: str, passed: bool) -> bool:
        nonlocal failures
        print(("ok   - " if passed else "FAIL - ") + name)
        if not passed:
            failures += 1
        return passed

    h = Hypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])  # the README's reference hypergraph
    report("reference degrees", [h.degree(v) for v in range(5)] == [1, 2, 3, 2, 1])
    osp = solve_osp(h, 0, 4)
    report("reference shortest path", osp.total_weight == 6 and osp.witness == (0, 2))
    report("reference max flow v0->v4", solve_omf(h, 0, 4) == 3)
    report("reference max flow v1->v3", solve_omf(h, 1, 3) == 6)
    report("reference co-occurring pairs", len(h.vertex_pairs()) == 7)

    _selfcheck_oracles(report)

    for fmt in TEXT_FORMATS:
        path = _FIXTURES / (fmt.lower().replace("-", "_") + ".txt")  # LO-Inc -> lo_inc.txt
        report(f"golden {fmt}", path.is_file() and render_text(h, fmt) == path.read_text(encoding="utf-8"))

    gen_ok = True
    for i in range(5):
        seed = gen.derive_seed(0xC0FFEE, "selfcheck-gen", i)
        g, cycle = gen.gen_shc_instance(gen.GenSpec(task="SHC", scale="small", seed=seed))
        gen_ok &= verify_shc(g, cycle)
        g, (steps, s, t) = gen.gen_hhm_instance(gen.GenSpec(task="HHM", scale="small", seed=seed))
        gen_ok &= verify_hhm(g, steps, s, t)
        g, coloring = gen.gen_3cl_instance(gen.GenSpec(task="3-CL", scale="small", seed=seed))
        gen_ok &= verify_3cl(g, coloring)
    report("constructor certificates", gen_ok)

    print(f"selfcheck: {'PASS' if failures == 0 else f'{failures} FAILURE(S)'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbench",
        description="Scale-controlled hypergraph QA benchmark pipeline.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write hypergraph JSON files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--task", choices=_GENERATE_TASKS, default="generic")
    p.add_argument("--scale", choices=gen.SCALE_CLASSES, default="small")
    p.add_argument("--source", choices=gen.SOURCES, default="synthetic")
    p.add_argument("--pool", help="source pool file (.json or hMETIS) for real subsampling")
    p.add_argument("--out", default=_default_out())

    p = sub.add_parser("render", help="render one hypergraph to text or SVG")
    p.add_argument("--graph", required=True)
    p.add_argument("--graph-b", dest="graph_b", help="second graph (side-by-side SVG)")
    p.add_argument("--format", required=True, metavar="|".join(TEXT_FORMATS + VISUAL_FORMATS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output file, or - for stdout")

    p = sub.add_parser("solve", help="exact ground truth for one task instance")
    p.add_argument("--task", required=True, choices=list(_CLI_TASKS))
    p.add_argument("--graph", required=True)
    p.add_argument("--graph-b", dest="graph_b")
    p.add_argument("--v", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)

    p = sub.add_parser("verify", help="check a certificate; prints VALID/INVALID")
    p.add_argument("--task", required=True, choices=_VERIFY_TASKS)
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)

    p = sub.add_parser("emit", help="emit the QA corpus (manifest + images)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-task", dest="per_task", type=int, default=200)
    p.add_argument("--source-mix", dest="source_mix", default="1:1")
    p.add_argument("--pool")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="skip SVG files; manifest only")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", default=_default_out())

    for name, help_text in (
        ("grade", "grade responses; write grades + accuracy CSV"),
        ("prm", "build best-combo routing dataset from graded responses"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True)
        p.add_argument("--responses", required=True)
        p.add_argument("--strict", action="store_true", help="reject answers needing leniency")
        p.add_argument("--marker", choices=["last", "first"], default="last")
        p.add_argument("--out", default=_default_out())

    sub.add_parser("selfcheck", help="run built-in oracle and golden-file checks")

    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "render": _cmd_render,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "emit": _cmd_emit,
    "grade": _cmd_grade,
    "prm": _cmd_prm,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.cmd](args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone: as the Python docs advise, exit flushing into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except gen.GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input too large for this machine, such as a layout's all-pairs matrix
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, Exception) as exc:
        # an interrupt landing in threading.Condition.wait between its release of the lock
        # and its try makes the wait's with raise RuntimeError, the interrupt as its context
        if not isinstance(exc, KeyboardInterrupt) and not isinstance(exc.__context__, KeyboardInterrupt):
            raise
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports it


if __name__ == "__main__":
    raise SystemExit(main())
