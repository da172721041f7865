import json
import random

import pytest

from hyperbench import Hypergraph
from hyperbench.bench import sample_rows
from hyperbench.grade import grade_line_encoder


@pytest.fixture
def hstar():
    # worked reference: degrees (1,2,3,2,1), OSP(v0,v4)=6 via e0,e2, OMF(v0,v4)=3
    return Hypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])


def random_hypergraph(rng: random.Random, nmax: int = 8, mmax: int = 8) -> Hypergraph:
    n = rng.randint(2, nmax)
    m = rng.randint(1, mmax)
    edges = [rng.sample(range(n), rng.randint(2, min(4, n))) for _ in range(m)]
    return Hypergraph(n, edges)


@pytest.fixture
def make_random():
    return random_hypergraph


def manifest_rows(meta) -> list[dict]:
    """The meta's 35 manifest rows, decoded from the lines ``sample_rows`` writes."""
    return [json.loads(line) for line in sample_rows(meta).splitlines()]


def write_grades(records, path) -> None:
    """One grades.jsonl line per record, as ``grade`` writes it through
    ``grade_line_encoder``."""
    line = grade_line_encoder()
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(line(rec))
