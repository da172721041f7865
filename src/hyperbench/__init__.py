"""Scale-controlled hypergraph QA benchmark pipeline.

Generate hypergraphs with exact ground truth for twelve comprehension and
reasoning tasks, render each instance in seven textual and five visual
(SVG) representations, emit the cross-product QA corpus, grade model
responses, and build the best-representation routing dataset.

The package exports the entry points the README documents; everything else
is imported from its submodule (``hyperbench.generate``, ``hyperbench.grade``,
...).
"""

from .bench import emit_corpus, make_meta
from .core import Hypergraph, load_hmetis, load_json, read_jsonl, save_json
from .grade import aggregate, build_prm, grade_responses
from .solve import solve_ism, solve_omf, solve_osp
from .text_repr import parse_honeigh, parse_incmat, parse_nset, render_text
from .verify import find_hhm, verify_shc

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "make_meta",
    "emit_corpus",
    "render_text",
    "render_svg",
    "solve_osp",
    "solve_omf",
    "solve_ism",
    "verify_shc",
    "find_hhm",
    "grade_responses",
    "aggregate",
    "build_prm",
    "save_json",
    "load_json",
    "load_hmetis",
    "read_jsonl",
    "parse_nset",
    "parse_incmat",
    "parse_honeigh",
]


def __getattr__(name):
    # render_svg is imported on first use: visual_repr imports numpy, which
    # nothing else in the package needs at import time
    if name == "render_svg":
        from .visual_repr import render_svg

        return render_svg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
