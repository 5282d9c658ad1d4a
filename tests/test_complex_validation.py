"""The jsonschema-free fast path for complex files: `_plain_complex` implies
the schema, and the fallback reads a complex exactly as the fast path does."""

import copy
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import serialize
from floeralg.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(resources.files("floeralg.schemas").joinpath("complex.schema.json")
                    .read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def test_complex_schema_pinned():
    # _plain_complex mirrors this schema keyword by keyword; review it on any edit
    index = {"type": "integer", "minimum": 0}

    def table(width):
        return {"type": "object", "patternProperties": {"^[0-9]+$": {
            "type": "array", "items": {
                "type": "array", "prefixItems": [index] * width,
                "minItems": width, "maxItems": width, "items": False}}},
            "additionalProperties": False}
    assert SCHEMA == {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "T-periodic Floer complex",
        "type": "object",
        "required": ["dimL", "NL", "generators", "operators"],
        "additionalProperties": False,
        "properties": {
            "dimL": index,
            "NL": {"type": "integer", "minimum": 2},
            "generators": {"type": "array", "items": {
                "type": "object", "required": ["name", "index"],
                "additionalProperties": False,
                "properties": {"name": {"type": "string", "minLength": 1},
                               "index": index}}},
            "operators": table(2),
            "products": table(3),
        },
    }


def plain():
    """The worked example: a torus complex with op_1 and a product table."""
    return json.loads((GOLDEN / "t2_complex.json").read_text(encoding="utf-8"))


def _set(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def _rename(data, table, old, new):
    data[table] = {new if key == old else key: v for key, v in data[table].items()}
    return data


def _as_float(data, path):
    target = data
    for key in path:
        target = target[key]
    return _set(data, path, float(target))


# Each mutation makes the data something _plain_complex must not pass; the
# schema rejects all of them but the integral floats, which it calls
# integers, and the key "1\n", which its pattern matches (``$`` matches
# before a final newline). Each of those reads as the unchanged file.
SCHEMA_VALID = {"dimL = 2.0", "NL = 2.0", "index = 1.0", "operator entry = 0.0",
                "product entry = 3.0", "operator key '1\\n'", "product key '0\\n'"}
MUTATIONS = {
    "dimL = True": lambda d: _set(d, ["dimL"], True),
    "dimL = 2.0": lambda d: _as_float(d, ["dimL"]),
    "dimL = -1": lambda d: _set(d, ["dimL"], -1),
    "dimL = '2'": lambda d: _set(d, ["dimL"], "2"),
    "NL = 1": lambda d: _set(d, ["NL"], 1),
    "NL = 2.0": lambda d: _as_float(d, ["NL"]),
    "NL = False": lambda d: _set(d, ["NL"], False),
    "NL = null": lambda d: _set(d, ["NL"], None),
    "index = True": lambda d: _set(d, ["generators", 1, "index"], True),
    "index = 1.0": lambda d: _as_float(d, ["generators", 1, "index"]),
    "index = -1": lambda d: _set(d, ["generators", 0, "index"], -1),
    "index = '1'": lambda d: _set(d, ["generators", 1, "index"], "1"),
    "empty name": lambda d: _set(d, ["generators", 0, "name"], ""),
    "name = 1": lambda d: _set(d, ["generators", 0, "name"], 1),
    "extra generator key": lambda d: _set(d, ["generators", 1, "sign"], 0),
    "missing index": lambda d: _set(d, ["generators", 1], {"name": "x1"}),
    "generator not an object": lambda d: _set(d, ["generators", 1], ["x1", 1]),
    "generators not a list": lambda d: _set(d, ["generators"], {}),
    "1-item operator entry": lambda d: _set(d, ["operators", "1", 0], [0]),
    "3-item operator entry": lambda d: _set(d, ["operators", "1", 0], [0, 1, 0]),
    "operator entry not a list": lambda d: _set(d, ["operators", "1", 0], "0 1"),
    "operator entry = 0.0": lambda d: _as_float(d, ["operators", "1", 0, 0]),
    "operator entry = True": lambda d: _set(d, ["operators", "1", 0, 1], True),
    "operator entry = -1": lambda d: _set(d, ["operators", "1", 1, 0], -1),
    "operator entry = '2'": lambda d: _set(d, ["operators", "1", 1, 0], "2"),
    "operator table not a list": lambda d: _set(d, ["operators", "1"], {}),
    "operators not an object": lambda d: _set(d, ["operators"], [[0, 1]]),
    "2-item product entry": lambda d: _set(d, ["products", "0", 2], [0, 2]),
    "4-item product entry": lambda d: _set(d, ["products", "0", 2], [0, 2, 2, 0]),
    "product entry = 3.0": lambda d: _as_float(d, ["products", "0", 3, 2]),
    "product entry = True": lambda d: _set(d, ["products", "0", 0, 0], True),
    "product entry = -1": lambda d: _set(d, ["products", "0", 4, 1], -1),
    "products not an object": lambda d: _set(d, ["products"], []),
    "operator key 'x'": lambda d: _rename(d, "operators", "1", "x"),
    "operator key '²'": lambda d: _rename(d, "operators", "1", "²"),
    "operator key '1\\n'": lambda d: _rename(d, "operators", "1", "1\n"),
    "operator key ''": lambda d: _rename(d, "operators", "1", ""),
    "operator key '-1'": lambda d: _rename(d, "operators", "1", "-1"),
    "product key '٠'": lambda d: _rename(d, "products", "0", "٠"),
    "product key '0\\n'": lambda d: _rename(d, "products", "0", "0\n"),
    "extra key": lambda d: _set(d, ["extra"], 1),
    "missing operators": lambda d: {k: v for k, v in d.items() if k != "operators"},
    "missing dimL": lambda d: {k: v for k, v in d.items() if k != "dimL"},
    "not an object": lambda d: d["generators"],
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_leaves_the_fast_path(name):
    data = MUTATIONS[name](plain())
    assert not serialize._plain_complex(data)
    assert VALIDATOR.is_valid(data) == (name in SCHEMA_VALID)


@pytest.mark.parametrize("name", [m for m in MUTATIONS if m not in SCHEMA_VALID])
def test_cli_reports_the_schema_message(tmp_path, name):
    data = MUTATIONS[name](plain())
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    error = best_match(VALIDATOR.iter_errors(data))
    where = "/".join(str(p) for p in error.absolute_path) or "(root)"
    r = CliRunner().invoke(main, ["ss", "run", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == f"error: complex JSON invalid at {where}: {error.message}\n"


@pytest.mark.parametrize("name", sorted(SCHEMA_VALID))
def test_schema_valid_mutation_reads_as_the_plain_file(tmp_path, name):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(MUTATIONS[name](plain())))
    r = CliRunner().invoke(main, ["ss", "run", str(path)])
    expected = (GOLDEN / "ss_run_t2.json").read_text(encoding="utf-8")
    assert (r.exit_code, r.stdout, r.stderr) == (0, expected, "")


# -- long table keys ----------------------------------------------------------


@pytest.mark.parametrize("table,key", [("operators", "1"), ("products", "0")])
def test_zero_padded_long_key_reads_as_the_plain_file(tmp_path, table, key):
    # 4,401 digits, past int()'s default limit, but only the last one counts
    data = _rename(plain(), table, key, "0" * 4400 + key)
    assert serialize._plain_complex(data)
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    r = CliRunner().invoke(main, ["ss", "run", str(path)])
    expected = (GOLDEN / "ss_run_t2.json").read_text(encoding="utf-8")
    assert (r.exit_code, r.stdout, r.stderr) == (0, expected, "")


@pytest.mark.parametrize("table,what", [("operators", "operator"),
                                        ("products", "product")])
@pytest.mark.parametrize("entries", [[], "copy"])
def test_key_too_long_to_read_exits_2(tmp_path, table, what, entries):
    data = plain()
    first = next(iter(data[table].values()))
    data[table]["0" * 10 + "1" * 4400] = first if entries == "copy" else entries
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    r = CliRunner().invoke(main, ["ss", "run", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == (f"error: {what} key of 4400 significant digits is too "
                        f"long to read\n")


def test_operator_key_beyond_nu_exits_2_before_its_shift_is_printed(tmp_path):
    # 1 - k * NL has 4,301 digits here, too many for str()
    data = plain()
    data["operators"]["9" * 4300] = [[0, 1]]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    r = CliRunner().invoke(main, ["ss", "run", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == f"error: operator index {'9' * 4300} outside 0..nu=1\n"


@pytest.mark.parametrize("text", [
    # a number past int()'s 4,300-digit limit, arrays nested too deep to parse
    # and bytes that are not UTF-8
    json.dumps(dict(plain(), NL="LONG")).replace('"LONG"', "2" * 4400).encode(),
    b"[" * 200_000,
    b"\xff\xfe{",
], ids=["long number", "deep nesting", "not utf-8"])
def test_unparsable_json_exits_2(tmp_path, text):
    path = tmp_path / "complex.json"
    path.write_bytes(text)
    r = CliRunner().invoke(main, ["ss", "run", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr.startswith(f"error: {path} is not valid JSON: ")
    assert r.stderr.count("\n") == 1


def _census(seed, dims, nl):
    return serialize.complex_to_dict(fcx.random_complex_census(seed, dims, nl)[0])


def _from_ring(ring, nl, with_products):
    d = ga.derivation_from_generator_values(
        ring, 1 - nl, {ring.index_of("x1"): ring.one()})
    return serialize.complex_to_dict(
        fcx.complex_from_ring(ring, nl, derivation=d, with_products=with_products))


# Valid complexes: census ones (no products) and ring-derived ones with and
# without product tables, all as written to disk.
VALID = [json.loads(serialize.canonical_json(d)) for d in (
    plain(),
    _census(3, (2, 4, 2), 2),
    _census(4, (1, 3, 3, 1), 3),
    _census(5, (2, 0, 3, 0, 1), 2),
    _from_ring(ga.build_exterior(2), 2, True),
    _from_ring(ga.build_exterior(3), 2, False),
    _from_ring(ga.build_exterior(3), 2, True),
)]


def test_valid_complexes_take_the_fast_path():
    assert any("products" in d for d in VALID)
    assert any("products" not in d for d in VALID)
    for data in VALID:
        assert serialize._plain_complex(data) and VALIDATOR.is_valid(data)
        fc = serialize.complex_from_dict(data)
        assert serialize.complex_to_dict(fc) == data
    assert serialize._plain_complex({"dimL": 0, "NL": 2, "generators": [],
                                     "operators": {}, "products": {}})


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=True), st.text(max_size=2))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["dimL", "NL", "generators", "operators",
                                         "products", "name", "index", "0", "1"]),
                        inner, max_size=4)),
    max_leaves=12)
naturals = st.integers(0, 10**30)
table_keys = st.one_of(st.from_regex(r"[0-9]{1,3}", fullmatch=True),
                       st.sampled_from(["1\n", "²", "٣", "", "x", "-1", " 1"]))


@st.composite
def schema_complexes(draw):
    """Complexes the schema accepts, indices not necessarily in range."""
    def table(width):
        return draw(st.dictionaries(
            st.from_regex(r"[0-9]{1,3}", fullmatch=True),
            st.lists(st.lists(naturals, min_size=width, max_size=width), max_size=3),
            max_size=3))
    data = {"dimL": draw(naturals), "NL": draw(st.integers(2, 10**30)),
            "generators": draw(st.lists(st.fixed_dictionaries(
                {"name": st.text(min_size=1, max_size=3), "index": naturals}),
                max_size=4)),
            "operators": table(2)}
    if draw(st.booleans()):
        data["products"] = table(3)
    return data


@settings(max_examples=100, deadline=None)
@given(schema_complexes())
def test_schema_complexes_take_the_fast_path(data):
    assert VALIDATOR.is_valid(data) and serialize._plain_complex(data)


def _paths(node, path=()):
    yield list(path)
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


def _mutate(data, draw):
    """Replace up to two nodes, each by an integer, a list of integers, a
    float, the empty string or any JSON value, or rename a key of a table."""
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(data))))
        target = data
        for key in path:
            target = target[key]
        if isinstance(target, dict) and target and draw(st.booleans()):
            old = draw(st.sampled_from(sorted(target)))
            new = draw(table_keys)
            renamed = {new if k == old else k: v for k, v in target.items()}
            data = _set(data, path, renamed) if path else renamed
            continue
        value = draw(st.one_of(st.integers(-2, 3),
                               st.lists(st.integers(-2, 3), max_size=3),
                               st.floats(), st.just(""), json_values))
        data = _set(data, path, value) if path else value
    return data


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VALID), st.data())
def test_fast_path_implies_schema_on_mutated_valid_complexes(base, data):
    mutated = _mutate(copy.deepcopy(base), data.draw)
    if serialize._plain_complex(mutated):
        assert VALIDATOR.is_valid(mutated)


@settings(max_examples=200, deadline=None)
@given(schema_complexes(), st.data())
def test_fast_path_implies_schema_on_mutated_schema_complexes(base, data):
    mutated = _mutate(base, data.draw)
    if serialize._plain_complex(mutated):
        assert VALIDATOR.is_valid(mutated)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_fast_path_implies_schema(data):
    if serialize._plain_complex(data):
        assert VALIDATOR.is_valid(data)


# -- the fallback reads what the fast path reads -----------------------------


def test_fallback_matches_fast_path(tmp_path, monkeypatch):
    runner = CliRunner()
    for seed, dims, nl in ((11, "2,4,6,4,2", "2"), (31, "3,0,5,0,0,7,0,3", "3")):
        r = runner.invoke(main, ["corpus", "--seed", str(seed), "--count", "10",
                                 "--dims", dims, "--maslov", nl, "--out", str(tmp_path)])
        assert r.exit_code == 0
    paths = sorted(tmp_path.glob("complex_*.json")) + [GOLDEN / "t2_complex.json"]
    assert len(paths) == 21

    def read_and_run():
        out = []
        for path in paths:
            data = serialize.load_json(str(path))
            r = runner.invoke(main, ["ss", "run", str(path)])
            out.append((serialize.complex_to_dict(serialize.complex_from_dict(data)),
                        r.exit_code, r.stdout, r.stderr))
        return out

    assert all(serialize._plain_complex(serialize.load_json(str(p))) for p in paths)
    fast = read_and_run()
    monkeypatch.setattr(serialize, "_plain_complex", lambda data: False)
    assert read_and_run() == fast
    assert all(code == 0 for _, code, _, _ in fast)
