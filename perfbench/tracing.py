"""Per-layer tracing for the traced run: wraps hyperbench's public functions
from outside the program and records calls, busy time, self time and
per-call durations.

A function is replaced under every name that a hyperbench module binds to
it, so callers that imported it by name (``from .bench import emit_corpus``
in ``cli``) reach the wrapper and the real function still runs.  A target
the program no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from checkers import KIND_OF_TASK, TASKS, TEXT_FORMATS, VISUAL_FORMATS

SOURCES = ("synthetic", "real")
ANSWER_KINDS = tuple(dict.fromkeys(KIND_OF_TASK.values()))
GRADE_FLAGS = (
    "parse_failure", "no_marker", "prose", "no_braces", "bare_ids", "missing_keyword", "no_brackets",
    "duplicate_assignment", "strict_reject", "kind_mismatch", "partial_coloring", "invalid_ids", "shc_k2",
)
CONSTRUCTORS = ("gen_random_connected", "gen_3cl_instance", "gen_shc_instance", "gen_hhm_instance", "gen_ism_pair")


class Stat:
    __slots__ = ("calls", "busy", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations: list[float] = []


def _meta_key(a) -> str:
    return f"bench.make_meta.{a['task']}.{a['source']}"


def _after_make_meta(tracer, a, meta, elapsed):
    tracer.metas.append((elapsed * 1e3, meta.id, meta.task, meta.scale, meta.source))


def _after_find_hhm_any(tracer, a, result, elapsed):
    # only the searches subsample_real makes to accept a subsample, so that
    # found/calls is the share of subsamples tried that yield a path
    if tracer.open["generate.subsample_real"]:
        tracer.counts["verify.find_hhm_any.calls"] += 1
        tracer.counts["verify.find_hhm_any.found"] += result is not None


def _after_grade(tracer, a, records, elapsed):
    tracer.counts["grade.responses.count"] += len(records)
    for rec in records:
        tracer.counts.update(f"grade.flags.{flag}.count" for flag in rec.flags)


# module -> (function, stat name, key for a keyed stat, hook after each call)
TARGETS = {
    "hyperbench.bench": [
        ("make_meta", "bench.make_meta", _meta_key, _after_make_meta),
        ("sample_rows", "bench.sample_rows", None, None),
        ("emit_corpus", "bench.emit_corpus", None, None),
    ],
    "hyperbench.generate": [("subsample_real", "generate.subsample_real", None, None)]
    + [(name, f"generate.{name}", None, None) for name in CONSTRUCTORS],
    "hyperbench.verify": [
        ("find_hhm_any", "verify.find_hhm_any", None, _after_find_hhm_any),
        ("find_hhm", "verify.find_hhm", None, None),
        ("find_3cl", "verify.find_3cl", None, None),
        ("find_shc", "verify.find_shc", None, None),
    ],
    "hyperbench.solve": [(name, f"solve.{name}", None, None) for name in ("solve_ism", "solve_osp", "solve_omf")],
    "hyperbench.text_repr": [("render_text", "text_repr.render", lambda a: f"text_repr.{a['fmt']}", None)],
    "hyperbench.visual_repr": [
        ("render_svg", "visual_repr.render", lambda a: f"visual_repr.{a['fmt']}", None),
        ("render_svg_pair", "visual_repr.render", lambda a: f"visual_repr.{a['fmt']}", None),
    ],
    "hyperbench.cli": [("_read_manifest", "grade.read_manifest", None, None)],
    "hyperbench.grade": [
        ("read_responses", "grade.read_responses", None, None),
        ("parse_answer", "grade.parse_answer", None, None),
        ("judge", "grade.judge", lambda a: f"grade.judge.{a['row']['answer_spec']['kind']}", None),
        ("grade_responses", "grade.grade_responses", None, _after_grade),
        ("aggregate", "grade.aggregate", None, None),
        ("build_prm", "grade.build_prm", None, None),
        ("write_grades", "grade.write", None, None),
        ("write_prm", "grade.write", None, None),
    ],
    "hyperbench.core": [("from_json_dict", "core.from_json_dict", None, None)],
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: Counter = Counter()
        self.metas: list[tuple] = []
        self.open: Counter = Counter()  # calls of each stat now running
        self._children: list[float] = []  # traced time inside the open calls

    def _record(self, name: str, elapsed: float, own: float) -> None:
        st = self.stats[name]
        st.calls += 1
        st.busy += elapsed
        st.self_time += own
        st.durations.append(elapsed)

    def wrap(self, fn, name, key=None, after=None):
        signature = inspect.signature(fn)
        children, running = self._children, self.open

        def traced(*args, **kwargs):
            children.append(0.0)
            running[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                running[name] -= 1
                own = elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                self._record(name, elapsed, own)
            if key or after:
                arguments = signature.bind(*args, **kwargs).arguments
                if key:
                    self._record(key(arguments), elapsed, own)
                if after:
                    after(self, arguments, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under each name a hyperbench module binds to it."""
        modules = [importlib.import_module(name) for name in TARGETS]
        for module in modules:
            for fn_name, name, key, after in TARGETS[module.__name__]:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(original, name, key, after)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("hyperbench"):
                        for attr, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, attr, wrapper)

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        st = self.stats
        out: dict[str, tuple[float, str]] = {}

        def busy(metric: str, name: str) -> None:
            out[metric] = (st[name].busy, "s")

        def pct_ms(name: str, q: float) -> float:
            d = sorted(st[name].durations)
            return d[min(len(d) - 1, int(q * len(d)))] * 1e3 if d else 0.0

        busy("bench.make_meta.busy_s", "bench.make_meta")
        out["bench.make_meta.p50_ms"] = (pct_ms("bench.make_meta", 0.50), "ms")
        out["bench.make_meta.p99_ms"] = (pct_ms("bench.make_meta", 0.99), "ms")
        out["bench.make_meta.max_ms"] = (pct_ms("bench.make_meta", 1.0), "ms")
        for task in TASKS:
            for source in SOURCES:
                busy(f"bench.make_meta.{task}.{source}.busy_s", f"bench.make_meta.{task}.{source}")
        busy("bench.sample_rows.busy_s", "bench.sample_rows")
        out["bench.emit_corpus.self_s"] = (st["bench.emit_corpus"].self_time, "s")
        out["generate.subsample_real.calls"] = (st["generate.subsample_real"].calls, "count")
        busy("generate.subsample_real.busy_s", "generate.subsample_real")
        for name in CONSTRUCTORS:
            busy(f"generate.{name}.busy_s", f"generate.{name}")
        out["verify.find_hhm_any.calls"] = (self.counts["verify.find_hhm_any.calls"], "count")
        out["verify.find_hhm_any.found"] = (self.counts["verify.find_hhm_any.found"], "count")
        out["verify.find_hhm.calls"] = (st["verify.find_hhm"].calls, "count")
        busy("verify.find_hhm.busy_s", "verify.find_hhm")
        out["verify.find_hhm.max_ms"] = (pct_ms("verify.find_hhm", 1.0), "ms")
        busy("verify.find_3cl.busy_s", "verify.find_3cl")
        busy("verify.find_shc.busy_s", "verify.find_shc")
        out["solve.solve_ism.calls"] = (st["solve.solve_ism"].calls, "count")
        for name in ("solve_ism", "solve_osp", "solve_omf"):
            busy(f"solve.{name}.busy_s", f"solve.{name}")
        for fmt in TEXT_FORMATS:
            busy(f"text_repr.{fmt}.busy_s", f"text_repr.{fmt}")
        for fmt in VISUAL_FORMATS:
            busy(f"visual_repr.{fmt}.busy_s", f"visual_repr.{fmt}")
        out["visual_repr.render.p99_ms"] = (pct_ms("visual_repr.render", 0.99), "ms")
        for name in ("read_manifest", "read_responses", "parse_answer", "aggregate", "build_prm", "write"):
            busy(f"grade.{name}.busy_s", f"grade.{name}")
        for kind in ANSWER_KINDS:
            busy(f"grade.judge.{kind}.busy_s", f"grade.judge.{kind}")
        out["grade.responses.count"] = (self.counts["grade.responses.count"], "count")
        for flag in GRADE_FLAGS:
            out[f"grade.flags.{flag}.count"] = (self.counts[f"grade.flags.{flag}.count"], "count")
        out["core.from_json_dict.calls"] = (st["core.from_json_dict"].calls, "count")
        return out

    def slowest_metas(self, count: int = 5) -> list[dict]:
        rows = sorted(self.metas, reverse=True)[:count]
        return [{"id": i, "task": t, "scale": sc, "source": so, "ms": round(ms, 1)} for ms, i, t, sc, so in rows]
