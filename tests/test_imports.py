"""numpy is imported only where an SVG is laid out and by the two oracles,
multiprocessing only for a pooled emit, and ``_hashlib`` (which maps
OpenSSL's libcrypto) never.

Each check runs in a fresh interpreter, since the test process has long
imported numpy by the time it gets here.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from hyperbench.generate import derive_seed

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str, cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_and_cli_leaves_numpy_out(tmp_path):
    _run("""
        import sys
        import hyperbench, hyperbench.cli
        assert "numpy" not in sys.modules
        assert "hyperbench.visual_repr" not in sys.modules
    """, tmp_path)


def test_grade_prm_and_dry_run_emit_never_import_numpy(tmp_path):
    _run("""
        import json, sys
        from hyperbench.cli import main
        from hyperbench.grade import canonical_answer_text

        def check(*argv):
            assert main(list(argv)) == 0, argv
            assert "numpy" not in sys.modules, f"{argv[0]} imported numpy"
            assert "multiprocessing" not in sys.modules, f"{argv[0]} imported multiprocessing"

        check("emit", "--seed", "5", "--per-task", "1", "--dry-run", "--jobs", "1", "--out", "corpus")
        with open("corpus/manifest.jsonl", encoding="utf-8") as rows, open("responses.jsonl", "w", encoding="utf-8") as out:
            for line in rows:
                row = json.loads(line)
                out.write(json.dumps({"sample_id": row["sample_id"], "response": canonical_answer_text(row)}) + "\\n")
        check("grade", "--manifest", "corpus/manifest.jsonl", "--responses", "responses.jsonl", "--out", "out")
        check("prm", "--manifest", "corpus/manifest.jsonl", "--responses", "responses.jsonl", "--out", "out")
    """, tmp_path)


def test_render_svg_is_served_from_visual_repr_on_first_use(tmp_path):
    _run("""
        import sys
        import hyperbench
        assert "numpy" not in sys.modules
        render_svg = hyperbench.render_svg
        assert "numpy" in sys.modules
        assert render_svg is hyperbench.visual_repr.render_svg
        try:
            hyperbench.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("hyperbench.no_such_name did not raise AttributeError")
    """, tmp_path)


def test_an_image_emit_imports_visual_repr_before_the_pool_forks(tmp_path):
    _run("""
        import concurrent.futures
        import sys
        from hyperbench.cli import main

        imported_at_fork = []

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                imported_at_fork.append("hyperbench.visual_repr" in sys.modules)
                super().__init__(*args, **kwargs)

        concurrent.futures.ProcessPoolExecutor = Pool
        assert main(["emit", "--seed", "5", "--per-task", "1", "--source-mix", "1:0", "--jobs", "2", "--out", "corpus"]) == 0
        assert imported_at_fork == [True]
    """, tmp_path)


def test_the_cli_and_its_commands_never_load_openssl(tmp_path):
    # a bare interpreter may already load _hashlib (from site), so the
    # check is that hyperbench adds it to no process that lacked it
    _run("""
        import json, sys
        bare = "_hashlib" in sys.modules
        from hyperbench.cli import main
        from hyperbench.grade import canonical_answer_text

        def check(*argv):
            if argv:
                assert main(list(argv)) == 0, argv
            assert ("_hashlib" in sys.modules) == bare, f"{argv[:1]} loaded _hashlib"

        check()
        check("emit", "--seed", "5", "--per-task", "1", "--dry-run", "--jobs", "1", "--out", "corpus")
        with open("corpus/manifest.jsonl", encoding="utf-8") as rows, open("responses.jsonl", "w", encoding="utf-8") as out:
            for line in rows:
                row = json.loads(line)
                out.write(json.dumps({"sample_id": row["sample_id"], "response": canonical_answer_text(row)}) + "\\n")
        check("grade", "--manifest", "corpus/manifest.jsonl", "--responses", "responses.jsonl", "--out", "out")
        check("prm", "--manifest", "corpus/manifest.jsonl", "--responses", "responses.jsonl", "--out", "out")
        check("emit", "--seed", "5", "--per-task", "1", "--dry-run", "--jobs", "2", "--out", "pooled")
    """, tmp_path)


def _hashlib_seed(master, *labels):
    """``derive_seed`` as written with ``hashlib.blake2b``."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(master).encode())
    for label in labels:
        raw = str(label).encode()
        digest.update(len(raw).to_bytes(4, "big"))
        digest.update(raw)
    return int.from_bytes(digest.digest(), "big")


def test_derive_seed_equals_the_hashlib_blake2b_digest():
    for master, labels in [(0, ()), (1234, ("meta", "VC", 7)), (42, ("a", "b")), (42, ("a:b",)),
                           (-5, ("real", "large", 3, "subsample")), (2**70, ("é", ""))]:
        assert derive_seed(master, *labels) == _hashlib_seed(master, *labels)
