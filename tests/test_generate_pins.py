"""``generate`` output bytes pinned to fixed digests.

``hyperbench generate --seed 7 --count 3`` for the generic instance and for
each task with its own constructor, from each source.  A digest covers the
JSON files written, by name, and stdout with the output directory cut out,
so that a change to any generator, subsampling walk or certificate search
that alters one byte shows here.  At this seed the first small walk of each
real run already carries a 3-CL, SHC and HHM certificate, so those three
write the generic real graphs; ``generate`` prints each graph's certificate
(and HHM's ``s`` and ``t``) beside its path, so their digests differ.
"""

import hashlib

import pytest

from hyperbench.cli import main

GENERATE_SHA256 = {
    ("generic", "synthetic"): "68765bf2073a8b4d133f0769218db999ee1dcee72d600b0a701c5f18be8b8663",
    ("generic", "real"): "ab6819a373fce9b529d8054aa8b2b5686828e30cd24f5b1fd98626968720168e",
    ("ism", "synthetic"): "a235fa4cb0b986ccc7e154992569aab4d273242b6149ff1471e7628dc8b846e5",
    ("ism", "real"): "b73fc12a656794b7e8c0c14006899e08f33a5e7d2c4e14441328a92a0bdafa58",
    ("3cl", "synthetic"): "c1f40b8bd10829bfd16fa99276cd22fd6d565b0c9c1e7f08d03bd7c164f28758",
    ("3cl", "real"): "6e49f2530cf211718b09140766bc081911887f628889cb05c567277f1ac25d4e",
    ("shc", "synthetic"): "da48ae6ee5d2978f41ddd95ca1897f67715a9fa2e07a4c77344c9bd884a9037c",
    ("shc", "real"): "8f905c9faa857f537f529dd14a1e99c375b953a4aa006fb52dcb2900341b569e",
    ("hhm", "synthetic"): "789c2e1b154718964f52ce55ae3fe9d3361b76a30538e437289a9f330a350142",
    ("hhm", "real"): "5fb2b497c840903bba1cf4ca91c77fdb9e5d225b2cc9a041dc1cdcf9ace5c59e",
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
