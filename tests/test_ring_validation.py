"""The jsonschema-free fast path for ring files: `_plain_ring` implies the schema."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

import floeralg
from floeralg import gradedalg as ga
from floeralg import serialize
from floeralg.cli import main

SCHEMA = json.loads(resources.files("floeralg.schemas").joinpath("ring.schema.json")
                    .read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def test_ring_schema_pinned():
    # _plain_ring mirrors this schema keyword by keyword; review it on any edit
    index = {"type": "integer", "minimum": 0}
    assert SCHEMA == {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "Graded F2 ring",
        "type": "object",
        "required": ["basis", "unit", "mult"],
        "additionalProperties": False,
        "properties": {
            "basis": {"type": "array", "minItems": 1, "items": {
                "type": "object", "required": ["name", "degree"],
                "additionalProperties": False,
                "properties": {"name": {"type": "string", "minLength": 1},
                               "degree": index}}},
            "unit": index,
            "mult": {"type": "array", "items": {
                "type": "array",
                "prefixItems": [index, index, {"type": "array", "items": index}],
                "minItems": 3, "maxItems": 3, "items": False}},
        },
    }


def plain(n=2):
    return json.loads(serialize.canonical_json(
        serialize.ring_to_dict(ga.build_exterior(n))))


def _set(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


# Each mutation makes the data something _plain_ring must not pass; the
# schema rejects all of them but the integral floats, which it calls integers.
SCHEMA_VALID = {"degree = 1.0", "unit = 0.0", "output = 3.0"}
MUTATIONS = {
    "degree = True": lambda d: _set(d, ["basis", 1, "degree"], True),
    "degree = 1.0": lambda d: _set(d, ["basis", 1, "degree"], 1.0),
    "degree = -1": lambda d: _set(d, ["basis", 2, "degree"], -1),
    "degree = '1'": lambda d: _set(d, ["basis", 2, "degree"], "1"),
    "empty name": lambda d: _set(d, ["basis", 0, "name"], ""),
    "name = 1": lambda d: _set(d, ["basis", 0, "name"], 1),
    "extra basis key": lambda d: _set(d, ["basis", 1, "sign"], 0),
    "missing degree": lambda d: _set(d, ["basis", 1], {"name": "x1"}),
    "basis item not an object": lambda d: _set(d, ["basis", 1], ["x1", 1]),
    "empty basis": lambda d: _set(d, ["basis"], []),
    "unit = -1": lambda d: _set(d, ["unit"], -1),
    "unit = False": lambda d: _set(d, ["unit"], False),
    "unit = 0.0": lambda d: _set(d, ["unit"], 0.0),
    "unit = null": lambda d: _set(d, ["unit"], None),
    "extra key": lambda d: _set(d, ["extra"], 1),
    "missing mult": lambda d: {"basis": d["basis"], "unit": d["unit"]},
    "mult not a list": lambda d: _set(d, ["mult"], {}),
    "2-item entry": lambda d: _set(d, ["mult", 1], [0, 1]),
    "4-item entry": lambda d: _set(d, ["mult", 1], [0, 1, [1], 0]),
    "entry not a list": lambda d: _set(d, ["mult", 1], "0 1 1"),
    "negative index": lambda d: _set(d, ["mult", 2, 0], -1),
    "index = True": lambda d: _set(d, ["mult", 2, 1], True),
    "outputs not a list": lambda d: _set(d, ["mult", 2, 2], 3),
    "output = 3.0": lambda d: _set(d, ["mult", 2, 2, 0], 3.0),
    "output = ''": lambda d: _set(d, ["mult", 2, 2, 0], ""),
    "negative output": lambda d: _set(d, ["mult", 2, 2, 0], -3),
    "not an object": lambda d: d["basis"],
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_leaves_the_fast_path(name):
    data = MUTATIONS[name](plain())
    assert not serialize._plain_ring(data)
    assert VALIDATOR.is_valid(data) == (name in SCHEMA_VALID)


@pytest.mark.parametrize("name", [m for m in MUTATIONS if m not in SCHEMA_VALID])
def test_cli_reports_the_schema_message(tmp_path, name):
    data = MUTATIONS[name](plain())
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    error = best_match(VALIDATOR.iter_errors(data))
    where = "/".join(str(p) for p in error.absolute_path) or "(root)"
    r = CliRunner().invoke(main, ["derivations", "enumerate", "--ring-file", str(path),
                                  "--shift", "-1"])
    assert r.exit_code == 2
    assert r.stderr == f"error: ring JSON invalid at {where}: {error.message}\n"


@pytest.mark.parametrize("name", sorted(SCHEMA_VALID))
def test_schema_valid_mutation_runs_as_its_int_twin(tmp_path, name):
    # stdout, stderr and exit code match the same file written with ints
    text = json.dumps(MUTATIONS[name](plain()))
    twin = json.dumps(json.loads(text, parse_float=lambda s: int(float(s))))
    assert "." in text and "." not in twin
    runs = []
    for content in (text, twin):
        path = tmp_path / "ring.json"
        path.write_text(content)
        r = CliRunner().invoke(main, ["derivations", "enumerate", "--shift", "-1",
                                      "--ring-file", str(path)])
        runs.append((r.exit_code, r.stdout, r.stderr))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("text", [
    # a number past int()'s 4,300-digit limit, and arrays nested too deep to parse
    json.dumps(dict(plain(), unit="LONG")).replace('"LONG"', "2" * 4400),
    "[" * 200_000,
], ids=["long number", "deep nesting"])
def test_unparsable_json_exits_2(tmp_path, text):
    path = tmp_path / "ring.json"
    path.write_text(text)
    r = CliRunner().invoke(main, ["derivations", "enumerate", "--ring-file", str(path),
                                  "--shift", "-1"])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr.startswith(f"error: {path} is not valid JSON: ")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("data", [
    json.loads((Path(__file__).parent / "golden" / name).read_text(encoding="utf-8"))
    for name in ("ring_rp_3.json", "ring_torus_2.json")
] + [serialize.ring_to_dict(ga.build_exterior(n)) for n in range(1, 7)]
  + [serialize.ring_to_dict(ga.build_truncated_poly(n)) for n in range(1, 9)])
def test_ring_dict_round_trip(data):
    assert serialize.ring_to_dict(serialize.ring_from_dict(data)) == data


def test_plain_rings_take_the_fast_path(tmp_path):
    rings = [ga.build_exterior(n) for n in (1, 3)] + [ga.build_truncated_poly(4)]
    for ring in rings:
        data = json.loads(serialize.canonical_json(serialize.ring_to_dict(ring)))
        assert serialize._plain_ring(data) and VALIDATOR.is_valid(data)
    assert serialize._plain_ring({"basis": [{"name": "1", "degree": 0}], "unit": 0,
                                  "mult": []})
    # a plain ring file is read without importing jsonschema
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(plain(3)))
    code = ("import contextlib, io, sys\nfrom floeralg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    main.main(args=['derivations', 'enumerate', '--ring-file', {str(path)!r},"
            " '--shift', '-1'], standalone_mode=False)\n"
            "assert '\"count\": 8' in out.getvalue()\n"
            "print('jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(floeralg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_schema_fallback_keeps_jsonschema_verdict():
    # an integral float degree is valid JSON Schema and loads as before
    assert serialize.ring_from_dict(MUTATIONS["degree = 1.0"](plain())).dim == 4
    with pytest.raises(serialize.InputError, match="ring JSON invalid at basis/1/degree"):
        serialize.ring_from_dict(MUTATIONS["degree = True"](plain()))


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=True), st.text(max_size=2))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["basis", "unit", "mult", "name", "degree", "x"]),
                        inner, max_size=3)),
    max_leaves=12)
naturals = st.integers(0, 10**30)


@st.composite
def schema_rings(draw):
    """Rings the schema accepts, indices not necessarily in range."""
    basis = draw(st.lists(st.fixed_dictionaries({"name": st.text(min_size=1, max_size=3),
                                                 "degree": naturals}),
                          min_size=1, max_size=4))
    mult = draw(st.lists(st.tuples(naturals, naturals, st.lists(naturals, max_size=3))
                         .map(list), max_size=4))
    return {"basis": basis, "unit": draw(naturals), "mult": mult}


@settings(max_examples=100, deadline=None)
@given(schema_rings())
def test_schema_rings_take_the_fast_path(data):
    assert VALIDATOR.is_valid(data) and serialize._plain_ring(data)


def _paths(node, path=()):
    yield list(path)
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@settings(max_examples=200, deadline=None)
@given(schema_rings(), st.data())
def test_fast_path_implies_schema_on_mutated_rings(ring, data):
    # replace up to two nodes, each by an integer, a list of integers, a
    # float, the empty string or any JSON value
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(_paths(ring))))
        value = data.draw(st.one_of(st.integers(-2, 3), st.lists(st.integers(-2, 3),
                                                                  max_size=3),
                                    st.floats(), st.just(""), json_values))
        ring = _set(ring, path, value) if path else value
    if serialize._plain_ring(ring):
        assert VALIDATOR.is_valid(ring)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_fast_path_implies_schema(data):
    if serialize._plain_ring(data):
        assert VALIDATOR.is_valid(data)
