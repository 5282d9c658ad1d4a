"""Complexes shared by the test modules."""

import os
from pathlib import Path

import pytest

from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import serialize

# CLI tests start `python -m floeralg.cli` in a subprocess; let it import the
# same source tree as this process, as pyproject's pytest pythonpath does here
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH"))
    if p)


@pytest.fixture(scope="module")
def t2():
    """Perfect Morse torus complex: NL=2, op_1 the witness derivation."""
    ring = ga.build_exterior(2)
    d = ga.derivation_from_generator_values(
        ring, -1, {ring.index_of("x1"): ring.one(), ring.index_of("x2"): frozenset()})
    return fcx.complex_from_ring(ring, 2, derivation=d, with_products=True)


@pytest.fixture(scope="module")
def t2_tables(t2):
    """The product tables of t2 as {l: {(i, j): frozenset of k}}, read from
    its serialized triples, for building complexes with other tables."""
    tables = {}
    for key, triples in serialize.complex_to_dict(t2)["products"].items():
        table = tables.setdefault(int(key), {})
        for i, j, k in triples:
            table[i, j] = table.get((i, j), frozenset()) | {k}
    return tables


@pytest.fixture(scope="module")
def mixed_boundary():
    """Nonzero Morse boundary (a degree +1 derivation), so pages have real
    boundary spaces and a differential that only shows up on page two."""
    ring = ga.build_exterior(3)
    up = ga.derivation_from_generator_values(
        ring, +1, {ring.index_of("x1"): ring.element("x2x3")})
    down = ga.derivation_from_generator_values(
        ring, -1, {ring.index_of("x1"): ring.one()})
    return fcx.complex_from_ring(ring, 2, derivation=down, boundary=up,
                                 with_products=True)
