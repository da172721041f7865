"""Output bytes pinned to fixed digests.

A small corpus (two metas per task, seed 1234, no images) and the grades,
accuracy table and routing rows of its canonical and corrupted answers must
keep these exact bytes.  Unlike the determinism tests, which compare runs of
the same code with each other, this catches a change to generation, prompts,
parsing or judging that alters any byte of the outputs.
"""

import hashlib
import json

import pytest

from hyperbench import emit_corpus
from hyperbench.cli import main
from hyperbench.grade import canonical_answer_text, corrupted_answer_text

MANIFEST_SHA256 = "0da995a1be4cecbe6b998cdabd06c595222853e190095edaf6fba94bfe8b3ba3"

OUTPUT_SHA256 = {
    "canonical": {
        "grades.jsonl": "9989f7a626638cd0228e697c2d533ead78e99da3c54aaf383f8fdd4eec1755bd",
        "accuracy.csv": "2cdc652fd57cd58be4514285a1a8c93b859ca84cd65a90c6b4db00bd0c787158",
        "prm.jsonl": "2b5601722ae335d66b2de49c204a93c2a106a3d5cd250be8e00c05f15ec431d2",
    },
    "corrupted": {
        "grades.jsonl": "8a6139023c7752fe3c531b9bfcafbd926ccb53e92c578c9eeed031ec8577ae34",
        "accuracy.csv": "3f2bebccfe5391166a24f4b894296513c2491154c94791cf771ef8b29c3a8b55",
        "prm.jsonl": "2b5601722ae335d66b2de49c204a93c2a106a3d5cd250be8e00c05f15ec431d2",
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("pinned")
    emit_corpus(per_task=2, master_seed=1234, outdir=out, write_images=False)
    return out / "manifest.jsonl"


def test_manifest_bytes_pinned(manifest):
    assert _sha256(manifest) == MANIFEST_SHA256


@pytest.mark.parametrize("name, answer", [("canonical", canonical_answer_text), ("corrupted", corrupted_answer_text)])
def test_grade_and_prm_bytes_pinned(tmp_path, manifest, capsys, name, answer):
    rows = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    responses = tmp_path / "responses.jsonl"
    responses.write_text(
        "".join(json.dumps({"sample_id": r["sample_id"], "response": answer(r)}) + "\n" for r in rows),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    for cmd in ("grade", "prm"):
        assert main([cmd, "--manifest", str(manifest), "--responses", str(responses), "--out", str(out)]) == 0
    assert {f: _sha256(out / f) for f in OUTPUT_SHA256[name]} == OUTPUT_SHA256[name]
