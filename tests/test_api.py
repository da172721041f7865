"""The package exports exactly the names that the README's Python API section imports."""

import re
from pathlib import Path

import hyperbench

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_import_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"from hyperbench import \([^)]*\)", section)
    assert match, "the Python API section has no `from hyperbench import (...)` block"
    return match.group(0)


def test_readme_import_block_is_package_all():
    block = _readme_import_block()
    names = [name.strip() for name in block.split("(", 1)[1].rstrip(")").split(",") if name.strip()]
    assert names == list(hyperbench.__all__)


def test_every_exported_name_imports():
    namespace: dict = {}
    exec(_readme_import_block(), namespace)
    for name in hyperbench.__all__:
        assert namespace[name] is getattr(hyperbench, name)
    star: dict = {}
    exec("from hyperbench import *", star)
    assert sorted(k for k in star if not k.startswith("__")) == sorted(hyperbench.__all__)
