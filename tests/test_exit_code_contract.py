"""Exit-code contract under Hypothesis: every schema-valid input file ends
in exit 0 or 1 (a verdict), 2 (bad input) or 3 (sampling guard), and no
other exception escapes the CLI.

Files are small, so each command runs in milliseconds in-process. Most
operator and product entries respect their degree shifts and most rings
are built-in ones, so many files reach a verdict; an entry placed anywhere,
a dropped or added product and a changed degree exercise the validation
paths.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from floeralg import gradedalg as ga
from floeralg import serialize
from floeralg.cli import main

SETTINGS = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@st.composite
def complex_files(draw):
    dimL = draw(st.integers(0, 4))
    NL = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(0, 3), min_size=dimL + 1, max_size=dimL + 1))
    gens = [{"name": f"g{m}_{i}", "index": m}
            for m, c in enumerate(counts) for i in range(c)]
    if gens and draw(st.integers(0, 9)) == 7:
        gens[-1]["index"] = dimL + 1  # a generator index past dimL
    n = len(gens)
    index = [g["index"] for g in gens]
    nu = (dimL + 1) // NL
    operators = {}
    for k in draw(st.sets(st.integers(0, nu + 1), max_size=3)):
        pairs = [[row, col] for col in range(n) for row in range(n)
                 if index[row] - index[col] == 1 - k * NL]
        operators[str(k)] = draw(st.lists(st.sampled_from(pairs), unique_by=tuple,
                                          max_size=4)) if pairs else []
    data = {"dimL": dimL, "NL": NL, "generators": gens, "operators": operators}
    triples = [[i, j, k] for i in range(n) for j in range(n) for k in range(n)
               if index[k] == index[i] + index[j]]
    if triples and draw(st.booleans()):
        data["products"] = {"0": draw(st.lists(st.sampled_from(triples), unique_by=tuple,
                                               max_size=6))}
    if n and draw(st.integers(0, 9)) == 7:
        # one entry anywhere, often of the wrong degree or out of range
        data["operators"].setdefault("0", []).append(
            [draw(st.integers(0, n)), draw(st.integers(0, n))])
    return data


RINGS = [ga.build_exterior(2), ga.build_exterior(3), ga.build_truncated_poly(2),
         ga.build_truncated_poly(4), ga.GradedRing(
             [ga.BasisElement(name, d) for name, d in [("1", 0), ("a", 1), ("b", 1)]],
             0, {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,), (0, 2): (2,), (2, 0): (2,)})]


@st.composite
def ring_files(draw):
    """A built-in or flat ring, as written by ``ring_to_dict``, sometimes
    with one entry dropped, one degree changed or one product added."""
    data = serialize.ring_to_dict(draw(st.sampled_from(RINGS)))
    dim = len(data["basis"])
    change = draw(st.sampled_from(["none", "none", "drop", "degree", "extra"]))
    if change == "drop":
        data["mult"].pop(draw(st.integers(0, len(data["mult"]) - 1)))
    elif change == "degree":
        data["basis"][draw(st.integers(0, dim - 1))]["degree"] = draw(st.integers(0, 3))
    elif change == "extra":
        data["mult"].append([draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)),
                             draw(st.lists(st.integers(0, dim), max_size=2))])
    return data


def assert_contract(path, data, args):
    path.write_text(json.dumps(data))
    r = CliRunner().invoke(main, args)
    escaped = r.exception if not isinstance(r.exception, SystemExit) else None
    assert escaped is None and r.exit_code in (0, 1, 2, 3), (data, args, r.exc_info)


@SETTINGS
@given(complex_files(), st.sampled_from(["--paranoid", "--no-paranoid"]),
       st.lists(st.sampled_from(["--verbose-pages", "--format=table"]), unique=True))
def test_ss_run_keeps_the_exit_code_contract(workdir, data, paranoid, flags):
    path = workdir / "complex.json"
    assert_contract(path, data, ["ss", "run", str(path), paranoid, *flags])


@SETTINGS
@given(ring_files(), st.integers(2, 4), st.booleans())
def test_audin_ring_keeps_the_exit_code_contract(workdir, data, nl, displaceable):
    path = workdir / "ring.json"
    args = ["audin", "ring", "--ring-file", str(path), "--maslov", str(nl)]
    assert_contract(path, data, args + ["--displaceable"] * displaceable)


@SETTINGS
@given(ring_files(), st.integers(-2, 1))
def test_derivations_enumerate_keeps_the_exit_code_contract(workdir, data, shift):
    path = workdir / "ring.json"
    assert_contract(path, data, ["derivations", "enumerate", "--ring-file", str(path),
                                 "--shift", str(shift)])
