"""Command-line front end: generate | render | solve | verify | emit | grade | prm | selfcheck.

Exit codes: 0 success, 1 graded failure (invalid certificate, failed
selfcheck), 2 usage error.  All randomness flows from --seed; repeated
invocations with the same flags produce identical bytes.  HYPERBENCH_OUT
provides the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import generate as gen
from .bench import emit_corpus
from .core import Hypergraph, load_json, save_json
from .grade import (
    GradeOptions,
    aggregate,
    build_prm,
    grade_responses,
    parse_answer,
    read_responses,
    write_grades,
    write_prm,
)
from .solve import (
    oracle_ism,
    oracle_omf,
    oracle_osp,
    solve_dvc,
    solve_hec,
    solve_ism,
    solve_ne,
    solve_oec,
    solve_omf,
    solve_one,
    solve_osp,
    solve_vc,
)
from .text_repr import TEXT_FORMATS, render_text
from .verify import verify_3cl, verify_hhm, verify_shc
from .visual_repr import VISUAL_FORMATS, render_svg, render_svg_pair


class UsageError(Exception):
    pass


def _default_out() -> str:
    return os.environ.get("HYPERBENCH_OUT", "hyperbench-out")


def _parse_mix(text: str, parts: int) -> tuple[int, ...]:
    fields = text.split(":")
    if len(fields) != parts or not all(f.isdigit() for f in fields):
        raise UsageError(f"mix must be {parts} colon-separated integers, got {text!r}")
    mix = tuple(int(f) for f in fields)
    if sum(mix) == 0:
        raise UsageError("mix must have a positive total")
    return mix


def _load_graph(path: str) -> Hypergraph:
    try:
        return load_json(path)
    except FileNotFoundError:
        raise UsageError(f"graph file not found: {path}")
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad graph file {path}: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    pool = gen.load_pool(args.pool) if args.pool else None
    if args.source == "real" and pool is None:
        pool = gen.demo_pool()
    for i in range(args.count):
        spec = gen.GenSpec(
            task="generic",
            scale=args.scale,
            source=args.source,
            seed=gen.derive_seed(args.seed, "cli-gen", i),
        )
        if args.task == "ism":
            pair = gen.gen_ism_pair(spec, pool=pool)
            pa = outdir / f"g-{i:04d}-a.json"
            pb = outdir / f"g-{i:04d}-b.json"
            save_json(pair.a, pa)
            save_json(pair.b, pb)
            print(json.dumps({"a": str(pa), "b": str(pb), "isomorphic": pair.isomorphic}, sort_keys=True))
            continue
        if args.task == "3cl":
            h = gen.gen_3cl_instance(spec).hypergraph
        elif args.task == "shc":
            h = gen.gen_shc_instance(spec).hypergraph
        elif args.task == "hhm":
            h = gen.gen_hhm_instance(spec).hypergraph
        elif args.source == "real":
            h = gen.subsample_real(pool, spec)
        else:
            h = gen.gen_random_connected(spec)
        path = outdir / f"g-{i:04d}.json"
        save_json(h, path)
        print(json.dumps({"path": str(path), "n": h.n, "m": len(h.edges)}, sort_keys=True))
    return 0


def _cmd_render(args) -> int:
    h = _load_graph(args.graph)
    if args.format in TEXT_FORMATS:
        text = render_text(h, args.format)
    elif args.format in VISUAL_FORMATS:
        if args.graph_b:
            text = render_svg_pair(h, _load_graph(args.graph_b), args.format, seed=args.seed)
        else:
            text = render_svg(h, args.format, seed=args.seed)
    else:
        raise UsageError(f"unknown format {args.format!r}")
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for task {args.task}")


def _cmd_solve(args) -> int:
    h = _load_graph(args.graph)
    task = args.task
    result: dict = {"task": task}
    if task == "vc":
        result["value"] = solve_vc(h)
    elif task == "hec":
        result["value"] = solve_hec(h)
    elif task == "ne":
        _require(args, "v")
        result["value"] = solve_ne(h, args.v)
    elif task == "dvc":
        _require(args, "d")
        result["value"] = solve_dvc(h, args.d)
    elif task == "oec":
        _require(args, "k")
        result["value"] = solve_oec(h, args.k)
    elif task == "one":
        _require(args, "v", "k")
        result["value"] = solve_one(h, args.v, args.k)
    elif task == "osp":
        _require(args, "s", "t")
        res = solve_osp(h, args.s, args.t)
        result["value"] = res.total_weight
        result["witness"] = list(res.witness) if res.witness is not None else None
    elif task == "omf":
        _require(args, "s", "t")
        result["value"] = solve_omf(h, args.s, args.t)
    elif task == "ism":
        _require(args, "graph_b")
        result["value"] = solve_ism(h, _load_graph(args.graph_b))
    elif task == "3cl":
        from .verify import find_3cl

        coloring = find_3cl(h)
        result["value"] = coloring
    elif task == "shc":
        from .verify import find_shc

        result["value"] = find_shc(h)
    elif task == "hhm":
        _require(args, "s", "t")
        from .verify import find_hhm

        result["value"] = find_hhm(h, args.s, args.t)
    else:
        raise UsageError(f"unknown task {task!r}")
    print(json.dumps(result, sort_keys=True))
    return 0


_VERIFY_TASK = {"3cl": "3-CL", "shc": "SHC", "hhm": "HHM"}


def _cmd_verify(args) -> int:
    h = _load_graph(args.graph)
    parsed = parse_answer(_VERIFY_TASK[args.task], "Ans: " + args.cert)
    if parsed.failed:
        raise UsageError(f"could not parse certificate {args.cert!r}")
    if args.task == "3cl":
        if set(parsed.value) != set(range(h.n)):
            valid = False
        else:
            valid = verify_3cl(h, [parsed.value[v] for v in range(h.n)])
    elif args.task == "shc":
        try:
            valid = verify_shc(h, parsed.value)
        except IndexError:
            valid = False
    else:
        _require(args, "s", "t")
        try:
            valid = verify_hhm(h, parsed.value, args.s, args.t)
        except IndexError:
            valid = False
    print("VALID" if valid else "INVALID")
    return 0 if valid else 1


def _cmd_emit(args) -> int:
    pool = gen.load_pool(args.pool) if args.pool else None
    summary = emit_corpus(
        per_task=args.per_task,
        master_seed=args.seed,
        outdir=args.out,
        pool=pool,
        scale_mix=_parse_mix(args.scale_mix, 3),
        source_mix=_parse_mix(args.source_mix, 2),
        jobs=args.jobs,
        write_images=not args.dry_run,
        log=print if args.verbose else None,
    )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _grade_options(args) -> GradeOptions:
    return GradeOptions(lenient=not args.strict, marker=args.marker)


def _read_manifest(path: str) -> list[dict]:
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    try:
                        rows.append(json.loads(line))
                    except ValueError as exc:
                        raise UsageError(f"{path}:{lineno}: malformed JSON line: {exc}") from None
    except FileNotFoundError:
        raise UsageError(f"manifest not found: {path}")
    return rows


def _grade_files(args):
    """The manifest rows and the grade records of the responses file."""
    manifest = _read_manifest(args.manifest)
    try:
        responses = read_responses(args.responses)
        return manifest, grade_responses(manifest, responses, _grade_options(args))
    except FileNotFoundError:
        raise UsageError(f"responses not found: {args.responses}")
    except ValueError as exc:
        raise UsageError(str(exc))


def _cmd_grade(args) -> int:
    manifest, records = _grade_files(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_grades(records, outdir / "grades.jsonl")
    table = aggregate(records, manifest)
    (outdir / "accuracy.csv").write_text(table.to_csv(), encoding="utf-8")
    correct = sum(1 for r in records if r.correct)
    print(
        json.dumps(
            {
                "graded": len(records),
                "correct": correct,
                "grades": str(outdir / "grades.jsonl"),
                "accuracy": str(outdir / "accuracy.csv"),
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_prm(args) -> int:
    manifest, records = _grade_files(args)
    try:
        pairs = build_prm(records, manifest)
    except ValueError as exc:
        raise UsageError(str(exc))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "prm.jsonl"
    write_prm(pairs, path)
    print(json.dumps({"pairs": len(pairs), "path": str(path)}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


def _fixtures_dir() -> Path | None:
    env = os.environ.get("HYPERBENCH_FIXTURES")
    if env:
        p = Path(env)
        return p if p.is_dir() else None
    local = Path("fixtures/text")
    if local.is_dir():
        return local
    packaged = Path(__file__).resolve().parents[2] / "fixtures" / "text"
    return packaged if packaged.is_dir() else None


_GOLDEN_FILES = {
    "LO-Inc": "lo_inc.txt",
    "N-Pair": "n_pair.txt",
    "Adj-Mat": "adj_mat.txt",
    "HO-Neigh": "ho_neigh.txt",
    "HO-Inc": "ho_inc.txt",
    "N-Set": "n_set.txt",
    "Inc-Mat": "inc_mat.txt",
}


def _reference_graph() -> Hypergraph:
    return Hypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])


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
            size = rng.randint(2, min(4, n)) if n >= 2 else 2
            edges.append(rng.sample(range(n), size))
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

    h = _reference_graph()
    report("reference degrees", [h.degree(v) for v in range(5)] == [1, 2, 3, 2, 1])
    osp = solve_osp(h, 0, 4)
    report("reference shortest path", osp.total_weight == 6 and osp.witness == (0, 2))
    report("reference max flow v0->v4", solve_omf(h, 0, 4) == 3)
    report("reference max flow v1->v3", solve_omf(h, 1, 3) == 6)
    report("reference co-occurring pairs", len(h.vertex_pairs()) == 7)

    _selfcheck_oracles(report)

    fixtures = _fixtures_dir()
    if fixtures is None:
        print("skip - golden text files (fixtures directory not found)")
    else:
        for fmt, fname in _GOLDEN_FILES.items():
            path = fixtures / fname
            if not path.is_file():
                print(f"skip - golden {fmt} (missing {fname})")
                continue
            golden = path.read_text(encoding="utf-8")
            report(f"golden {fmt}", render_text(h, fmt) == golden)

    gen_ok = True
    for i in range(5):
        seed = gen.derive_seed(0xC0FFEE, "selfcheck-gen", i)
        shc = gen.gen_shc_instance(gen.GenSpec(task="SHC", scale="small", seed=seed))
        gen_ok &= verify_shc(shc.hypergraph, shc.cycle)
        hhm = gen.gen_hhm_instance(gen.GenSpec(task="HHM", scale="small", seed=seed))
        gen_ok &= verify_hhm(hhm.hypergraph, hhm.path, hhm.start, hhm.end)
        tcl = gen.gen_3cl_instance(gen.GenSpec(task="3-CL", scale="small", seed=seed))
        gen_ok &= verify_3cl(tcl.hypergraph, tcl.coloring)
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
    p.add_argument("--task", choices=["generic", "3cl", "shc", "hhm", "ism"], default="generic")
    p.add_argument("--scale", choices=["small", "medium", "large"], default="small")
    p.add_argument("--source", choices=["synthetic", "real"], default="synthetic")
    p.add_argument("--pool", help="source pool file (.json or hMETIS) for real subsampling")
    p.add_argument("--out", default=_default_out())

    p = sub.add_parser("render", help="render one hypergraph to text or SVG")
    p.add_argument("--graph", required=True)
    p.add_argument("--graph-b", dest="graph_b", help="second graph (side-by-side SVG)")
    p.add_argument("--format", required=True, metavar="|".join(TEXT_FORMATS + VISUAL_FORMATS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output file, or - for stdout")

    p = sub.add_parser("solve", help="exact ground truth for one task instance")
    p.add_argument("--task", required=True,
                   choices=["vc", "hec", "ne", "dvc", "oec", "one", "osp", "omf", "ism", "3cl", "shc", "hhm"])
    p.add_argument("--graph", required=True)
    p.add_argument("--graph-b", dest="graph_b")
    p.add_argument("--v", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)

    p = sub.add_parser("verify", help="check a certificate; prints VALID/INVALID")
    p.add_argument("--task", required=True, choices=["3cl", "shc", "hhm"])
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)

    p = sub.add_parser("emit", help="emit the QA corpus (manifest + images)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-task", dest="per_task", type=int, default=200)
    p.add_argument("--scale-mix", dest="scale_mix", default="1:2:1")
    p.add_argument("--source-mix", dest="source_mix", default="1:1")
    p.add_argument("--pool")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--dry-run", dest="dry_run", action="store_true",
                   help="skip SVG files; manifest only")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", default=_default_out())

    p = sub.add_parser("grade", help="grade responses; write grades + accuracy CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--strict", action="store_true", help="reject answers needing leniency")
    p.add_argument("--marker", choices=["last", "first"], default="last")
    p.add_argument("--out", default=_default_out())

    p = sub.add_parser("prm", help="build best-combo routing dataset from graded responses")
    p.add_argument("--manifest", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--strict", action="store_true")
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
        return _COMMANDS[args.cmd](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except gen.GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
