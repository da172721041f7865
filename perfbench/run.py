"""Benchmark of the hyperbench pipeline, driven through its CLI.

    python3 perfbench/run.py --workload corpus-full --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  One workload per invocation, closed loop:
one process runs the CLI (``python3 -m hyperbench.cli`` on the checkout's
``src``), waits for it, checks every output with the benchmark's own
checkers, and repeats whole rounds until ``--seconds`` of timed work is done.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` emits the
workload's corpus once with the timed ``--jobs 2`` command, then runs the
workload in this process with ``--jobs 1``, once plainly and once with the
program's public functions wrapped (see ``tracing.py``), and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import checkers as ck
import responses as rs

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
JOBS = min(2, os.cpu_count() or 1)
COMMAND_TIMEOUT = 170.0

PINNED_SEED = 1234  # emit seed of corpus-full and of the graded manifest; see README
# setup_s is the median of set-ups made before each round and after the last
# one, so that it spans the run as the rounds do: this many interpreter starts
# (emit workloads) or manifest emits (grade-models) each time
IMPORT_STARTS = 8
GRADE_SETUPS = 3

# workload -> (per task, source mix, with images, pinned emit seed or None for --seed)
EMITS = {
    "corpus-full": (200, (1, 1), False, PINNED_SEED),
    "corpus-images": (20, (1, 0), True, None),
    "grade-models": (50, (1, 1), False, PINNED_SEED),
}


def python_env() -> dict:
    """The caller's environment, with ``src`` on the path and Python's
    bytecode cache on and inside the checkout, as after an earlier run of
    the program, whatever the caller's environment says about it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_python(args: list[str]) -> tuple[int, float, float, float, float]:
    """Run ``python3 <args>`` to its end; (exit code, wall s, user and system
    CPU s of it and its workers, largest RSS MB of any of its processes)."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "cli.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=log, stderr=log, env=python_env(), start_new_session=True
        )
        timer = threading.Timer(COMMAND_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        end_group(proc.pid)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print(f"command failed ({code}): {' '.join(args)}; see {OUT / 'cli.log'}", file=sys.stderr)
    return code, wall, usage.ru_utime, usage.ru_stime, usage.ru_maxrss / 1024.0


def end_group(pgid: int) -> None:
    """Untimed: kill whatever the command left in its process group (the
    workers of a command that was killed or crashed) and wait until none of
    them is left."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        return
    print(f"error: processes of group {pgid} outlived SIGKILL by 10 s", file=sys.stderr)


def cli(*args) -> tuple[int, float, float, float, float]:
    return run_python(["-m", "hyperbench.cli", *map(str, args)])


def emit_args(workload: str, seed: int, dest: Path, jobs: int) -> list[str]:
    per_task, mix, images, pinned = EMITS[workload]
    args = ["emit", "--seed", pinned or seed, "--per-task", per_task,
            "--source-mix", f"{mix[0]}:{mix[1]}", "--jobs", jobs, "--out", dest]
    return [str(a) for a in args] + ([] if images else ["--dry-run"])


def fresh(path: Path) -> Path:
    """Untimed: delete what the previous round left at ``path``."""
    shutil.rmtree(path, ignore_errors=True)
    return path


def emptied_slot(workload: str, seed: int) -> Path:
    """Untimed: the directory a workload's timed emits write, round after
    round and run after run, with the files of the previous emit cut to zero
    length, so that the timed emit opens existing, empty files.  The sample
    ids, and so the file names, do not depend on the seed.  The first emit in
    a checkout, which creates the files, is untimed.

    The root filesystem here is ext4 without a journal, mounted with
    ``discard``.  On it, creating files soon after a large deletion costs
    extra system time that varies from round to round: the inode allocator
    passes over inodes freed in the last 30-180 s one by one.  Emitting each
    round into a new directory, the previous one deleted just before, spent
    2.0-4.5 s of system time a ``corpus-images`` round, and run medians of
    ``wall_s`` spread by 28 % over ten seeds.  Overwriting full files made
    each truncation wait for a discard, 2-3 s a round.
    """
    corpus = OUT / workload / "emit"
    if not (corpus / "manifest.jsonl").exists():
        cli(*emit_args(workload, seed, fresh(corpus), JOBS))
    for dirpath, _, files in os.walk(corpus):
        for name in files:
            os.truncate(os.path.join(dirpath, name), 0)
    return corpus


def output_bytes(path: Path) -> int:
    """Bytes under ``path``, each distinct inode counted once."""
    seen, total = set(), 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            st = os.lstat(os.path.join(dirpath, name))
            if (st.st_dev, st.st_ino) not in seen:
                seen.add((st.st_dev, st.st_ino))
                total += st.st_size
    return total


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount, fstype = fields[4], fields[fields.index("-") + 1]
                if str(path).startswith(mount) and len(mount) >= len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


# ---------------------------------------------------------------------------
# checks
#
# A child's ru_maxrss includes the peak RSS of the process that spawned it,
# so the process that runs the timed commands must stay smaller than any of
# them.  Timed runs therefore make their checks in a separate process, which
# keeps the parsed manifest and the expected grades in _STATE between calls.
# ---------------------------------------------------------------------------

_STATE: dict = {}


@contextlib.contextmanager
def collecting(errors: list[str], what: str):
    try:
        yield
    except (ck.CheckError, OSError, ValueError, KeyError) as exc:
        errors.append(f"{what}: {type(exc).__name__}: {exc}")


def check_corpus(workload: str, corpus: Path) -> list[str]:
    """Independent checks of an emitted corpus."""
    per_task, mix, images, _ = EMITS[workload]
    errors: list[str] = []
    _STATE["metas"] = {}
    with collecting(errors, f"{workload} manifest"):
        _STATE["metas"] = metas = ck.check_manifest(corpus / "manifest.jsonl", per_task, source_mix=mix)
        if images:
            ck.check_images(corpus, metas)
    return errors


def write_responses(seed: int, base: Path) -> list[tuple[str, tuple, Path, int]]:
    """Each simulated model's responses to the last checked manifest:
    (model, extra CLI flags, responses file, number of responses)."""
    models = []
    for name, flags, accuracy in rs.MODELS:
        text, _STATE[name] = rs.simulate(_STATE["metas"], seed, name, flags, accuracy)
        path = base / f"responses-{name}.jsonl"
        path.write_text(text, encoding="utf-8")
        models.append((name, flags, path, len(_STATE[name])))
    return models


def check_grades(out: Path, name: str) -> list[str]:
    """``grade`` and ``prm`` outputs of one model against the expected tally."""
    metas, expected = _STATE["metas"], _STATE[name]
    errors: list[str] = []
    with collecting(errors, f"grades of {name}"):
        got = {}
        with open(out / "grades.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                ck.require(rec["sample_id"] not in got, f"{rec['sample_id']} graded twice")
                got[rec["sample_id"]] = (rec["correct"], frozenset(rec["flags"]))
        ck.require(got.keys() == expected.keys(), f"{len(got)} grades for {len(expected)} responses")
        wrong = [sid for sid in expected if got[sid] != expected[sid]]
        if wrong:
            first = wrong[0]
            raise ck.CheckError(f"{len(wrong)} verdicts differ; {first}: got {got[first]}, want {expected[first]}")
        lines = (out / "accuracy.csv").read_text(encoding="utf-8").splitlines()
        ck.require(lines[0] == "section,key,accuracy,count", "accuracy.csv header")
        cells = {tuple(line.split(",")[:2]): tuple(line.split(",")[2:]) for line in lines[1:]}
        ck.require(cells == rs.accuracy_cells(metas, expected), "accuracy.csv differs from the tally")
        with open(out / "prm.jsonl", encoding="utf-8") as fh:
            prm = sorted((r["meta_id"], r["label_combo"], r["input_text"]) for r in map(json.loads, fh))
        ck.require(prm == rs.prm_rows(metas, expected), "prm.jsonl differs from the tally")
    return errors


class Run:
    """Operations attempted and failed, the check failures seen, and where
    checks run: in a separate process for timed runs, here when traced."""

    def __init__(self, checker: ProcessPoolExecutor | None = None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checker = checker

    def call(self, fn, *args):
        return self.checker.submit(fn, *args).result() if self.checker else fn(*args)

    def check(self, fn, *args) -> None:
        for error in self.call(fn, *args):
            self.errors.append(error)
            print(f"check failed: {error}", file=sys.stderr)


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def import_starts() -> list[float]:
    """Interpreter start plus ``import hyperbench.cli``, ``IMPORT_STARTS`` times."""
    times = []
    for _ in range(IMPORT_STARTS):
        code, wall, *_ = run_python(["-c", "import hyperbench.cli"])
        if code != 0:
            raise SystemExit("error: hyperbench.cli does not import")
        times.append(wall)
    return times


def new_rounds() -> dict[str, list[float]]:
    return {"wall_s": [], "cpu_s": [], "sys_s": [], "peak_rss_mb": [], "output_mb": []}


def emit_workload(workload: str, seed: int, seconds: float, run: Run) -> dict:
    samples = EMITS[workload][0] * len(ck.TASKS) * 35
    rounds, setup = new_rounds(), []
    spent = 0.0
    while spent < seconds:
        setup += import_starts()
        corpus = emptied_slot(workload, seed)
        code, wall, user, system, rss = cli(*emit_args(workload, seed, corpus, JOBS))
        spent += wall
        run.attempted += samples
        if code != 0:
            run.failed += samples
            continue
        for name, value in (("wall_s", wall), ("cpu_s", user + system), ("sys_s", system),
                            ("peak_rss_mb", rss), ("output_mb", output_bytes(corpus) / 1e6)):
            rounds[name].append(value)
        run.check(check_corpus, workload, corpus)
    setup += import_starts()
    return {**rounds, "setup_s": setup}


def grade_workload(seed: int, seconds: float, run: Run) -> dict:
    """Set-up (timed as ``setup_s``): emit the graded manifest, check it and
    write each model's responses.  Rounds: ``grade`` and ``prm`` per model.
    The manifest is emitted again after the last round, only to time it."""
    base = OUT / "grade-models"
    corpus, graded = base / "corpus", base / "graded"

    def emits() -> list[float]:
        times = []
        for _ in range(GRADE_SETUPS):
            code, wall, *_ = cli(*emit_args("grade-models", seed, fresh(corpus), JOBS))
            if code != 0:
                raise SystemExit("error: the grade-models manifest could not be emitted")
            times.append(wall)
        return times

    setup = emits()
    run.check(check_corpus, "grade-models", corpus)
    models = run.call(write_responses, seed, base)
    rounds = new_rounds()
    spent = 0.0
    while spent < seconds:
        fresh(graded)
        cpu, system, rss, ok = 0.0, 0.0, 0.0, True
        start = time.perf_counter()
        for name, flags, path, count in models:
            for cmd in ("grade", "prm"):
                code, _, user, sys_s, peak = cli(cmd, "--manifest", corpus / "manifest.jsonl",
                                                 "--responses", path, "--out", graded / name, *flags)
                cpu, system, rss = cpu + user + sys_s, system + sys_s, max(rss, peak)
                run.attempted += count
                if code != 0:
                    run.failed += count
                    ok = False
        wall = time.perf_counter() - start
        spent += wall
        if not ok:
            continue
        for name, value in (("wall_s", wall), ("cpu_s", cpu), ("sys_s", system),
                            ("peak_rss_mb", rss), ("output_mb", output_bytes(graded) / 1e6)):
            rounds[name].append(value)
        for name, *_ in models:
            run.check(check_grades, graded / name, name)
    setup += emits()
    return {**rounds, "setup_s": setup}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced_run(workload: str, seed: int, run: Run) -> dict:
    """The workload's emit once as a ``--jobs 2`` command, whose outputs are
    checked, then twice in this process with ``--jobs 1``, untraced and
    traced; both manifests must be byte-identical to the command's.  The
    grading commands run in both passes.  The per-layer metrics come from
    the traced pass; the difference between the passes is the tracing
    overhead."""
    sys.path.insert(0, str(SRC))
    import tracing
    from hyperbench import cli as hb_cli

    def main(*args) -> float:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = hb_cli.main([str(a) for a in args])
        if code != 0:
            raise SystemExit(f"error: hyperbench {args[0]} exited {code} in the traced run")
        return time.perf_counter() - start

    base = OUT / f"{workload}-trace"
    fresh(base)
    reference = base / "jobs2"
    if cli(*emit_args(workload, seed, reference, JOBS))[0] != 0:
        raise SystemExit(f"error: the --jobs {JOBS} emit failed in the traced run")
    run.check(check_corpus, workload, reference)
    want = digest(reference / "manifest.jsonl")
    models = write_responses(seed, base) if workload == "grade-models" else []
    manifest = reference / "manifest.jsonl"

    def emit_pass(name: str) -> float:
        corpus = emptied_slot(workload, seed)
        took = main(*emit_args(workload, seed, corpus, 1))
        if digest(corpus / "manifest.jsonl") != want:
            run.errors.append(f"{name} --jobs 1 manifest differs from the --jobs {JOBS} command's")
        return took

    plain_s = emit_pass("plain")
    for name, flags, path, _ in models:
        for cmd in ("grade", "prm"):
            plain_s += main(cmd, "--manifest", manifest, "--responses", path, "--out", base / "plain-graded" / name, *flags)

    tracer = tracing.Tracer()
    tracer.install()
    traced_s = emit_pass("traced")
    if not models:
        run.attempted += EMITS[workload][0] * len(ck.TASKS) * 35
    for name, flags, path, count in models:
        for cmd in ("grade", "prm"):
            traced_s += main(cmd, "--manifest", manifest, "--responses", path, "--out", base / "traced-graded" / name, *flags)
            run.attempted += count
        run.check(check_grades, base / "traced-graded" / name, name)
    if not run.errors:
        print(f"--jobs 1 manifests are byte-identical to the --jobs {JOBS} command's", file=sys.stderr)

    metrics = tracer.metrics()
    traced = OUT / workload / "emit"
    images = traced / "images"
    metrics["bench.manifest.bytes"] = ((traced / "manifest.jsonl").stat().st_size, "bytes")
    metrics["bench.images.files"] = (len(list(images.iterdir())) if images.is_dir() else 0, "count")
    metrics["bench.images.bytes"] = (output_bytes(images), "bytes")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    report = {"workload": workload, "untraced_s": round(plain_s, 3), "traced_s": round(traced_s, 3),
              "slowest_metas": tracer.slowest_metas()}
    print(json.dumps(report))
    (OUT / f"{workload}-trace.json").write_text(json.dumps(
        {**report, "metrics": {k: v for k, (v, _) in sorted(metrics.items())}}, indent=1))
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(EMITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperbench" / "cli.py").is_file():
        print(f"error: no hyperbench source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        run = Run()
        metrics = traced_run(args.workload, args.seed, run)
    else:
        # fork, not spawn or forkserver: those start a resource tracker
        # process that outlives the benchmark by a moment
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as checker:
            run = Run(checker)
            if args.workload == "grade-models":
                rounds = grade_workload(args.seed, args.seconds, run)
            else:
                rounds = emit_workload(args.workload, args.seed, args.seconds, run)
        if not rounds["cpu_s"]:
            print("error: no round of the workload completed", file=sys.stderr)
            return 1
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "output_mb": "MB", "setup_s": "s"}
        metrics = {name: (statistics.median(rounds[name]), unit) for name, unit in units.items()}
        print(json.dumps({"workload": args.workload, "rounds": len(rounds["wall_s"]), "output_fs": filesystem_of(OUT),
                          **{k: [round(x, 4) for x in v] for k, v in rounds.items()}}))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
