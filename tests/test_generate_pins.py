"""``generate`` output bytes pinned to fixed digests.

``hyperbench generate --seed 7 --count 3`` for the generic instance and for
each task with its own constructor, from each source.  A digest covers the
JSON files written, by name, and stdout with the output directory cut out,
so that a change to any generator, subsampling walk or certificate search
that alters one byte shows here.  At this seed the first small walk of each
real run already carries a 3-CL, SHC and HHM certificate, so those three
write the generic real graphs; ``generate`` prints no certificate.
"""

import hashlib

import pytest

from hyperbench.cli import main

GENERATE_SHA256 = {
    ("generic", "synthetic"): "68765bf2073a8b4d133f0769218db999ee1dcee72d600b0a701c5f18be8b8663",
    ("generic", "real"): "ab6819a373fce9b529d8054aa8b2b5686828e30cd24f5b1fd98626968720168e",
    ("ism", "synthetic"): "a235fa4cb0b986ccc7e154992569aab4d273242b6149ff1471e7628dc8b846e5",
    ("ism", "real"): "b73fc12a656794b7e8c0c14006899e08f33a5e7d2c4e14441328a92a0bdafa58",
    ("3cl", "synthetic"): "c990f663325a428a942dfeb7b2cc0cfdae7f759a930001561493c687dd4d0477",
    ("3cl", "real"): "ab6819a373fce9b529d8054aa8b2b5686828e30cd24f5b1fd98626968720168e",
    ("shc", "synthetic"): "abf0f858547cfbd43dbf56042901ac0da594d1f6767c5bc4f0ae5519ba52d086",
    ("shc", "real"): "ab6819a373fce9b529d8054aa8b2b5686828e30cd24f5b1fd98626968720168e",
    ("hhm", "synthetic"): "cb2528b0ed1dd94d55a1cd2d02a6a638f107d8214208df735437d776e3530a98",
    ("hhm", "real"): "ab6819a373fce9b529d8054aa8b2b5686828e30cd24f5b1fd98626968720168e",
}


def generate_digest(tmp_path, capsys, task: str, source: str) -> str:
    out = tmp_path / "out"
    args = ["generate", "--seed", "7", "--count", "3", "--task", task, "--source", source, "--out", str(out)]
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.replace(str(out), "OUT").encode())
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(("task", "source"), list(GENERATE_SHA256))
def test_generate_output_is_pinned(tmp_path, capsys, task, source):
    assert generate_digest(tmp_path, capsys, task, source) == GENERATE_SHA256[task, source]
