"""The jsonschema-free fast path for loop files: `_plain_loop` implies the schema."""

import gc
import json
from importlib import resources

import jsonschema
import loops
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match

from floeralg import serialize
from floeralg.cli import main
from floeralg.errors import InputError

SCHEMA = json.loads(resources.files("floeralg.schemas").joinpath("loop.schema.json")
                    .read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def test_loop_schema_pinned():
    # _plain_loop mirrors this schema keyword by keyword; review it on any edit
    pair = {"type": "array", "prefixItems": [{"type": "number"}, {"type": "number"}],
            "minItems": 2, "maxItems": 2, "items": False}
    assert SCHEMA == {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": "Sampled loop of Lagrangian frames",
        "type": "object",
        "required": ["n", "samples"],
        "additionalProperties": False,
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "samples": {"type": "array", "minItems": 1, "items": {
                "type": "array", "items": {"type": "array", "items": pair}}},
        },
    }


def plain(n=2, frames=2):
    return json.loads(serialize.canonical_json(
        serialize.loop_to_dict(loops.rotating_loop(n, frames))))


def _set(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


# Each mutation makes the data something _plain_loop must not pass; the
# schema rejects all of them but n = 2.0, which it calls an integer.
MUTATIONS = {
    "bool leaf": lambda d: _set(d, ["samples", 0, 0, 0, 0], True),
    "string leaf": lambda d: _set(d, ["samples", 0, 1, 1, 1], "1.0"),
    "null leaf": lambda d: _set(d, ["samples", 1, 0, 0, 1], None),
    "1-element pair": lambda d: _set(d, ["samples", 0, 0, 1], [1.0]),
    "3-element pair": lambda d: _set(d, ["samples", 1, 1, 0], [1.0, 0.0, 0.0]),
    "n = 0": lambda d: _set(d, ["n"], 0),
    "n = True": lambda d: _set(d, ["n"], True),
    "n = 2.0": lambda d: _set(d, ["n"], 2.0),
    "extra key": lambda d: _set(d, ["extra"], 1),
    "missing n": lambda d: {"samples": d["samples"]},
    "empty samples": lambda d: _set(d, ["samples"], []),
    "samples not a list": lambda d: _set(d, ["samples"], {"0": d["samples"][0]}),
    "frame not a list": lambda d: _set(d, ["samples", 1], 1.0),
    "row not a list": lambda d: _set(d, ["samples", 0, 1], {"re": 1.0}),
    "pair not a list": lambda d: _set(d, ["samples", 0, 0, 0], 1.0),
    "not an object": lambda d: d["samples"],
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_leaves_the_fast_path(name):
    data = MUTATIONS[name](plain())
    assert not serialize._plain_loop(data)
    assert VALIDATOR.is_valid(data) == (name == "n = 2.0")


@pytest.mark.parametrize("name", [m for m in MUTATIONS if m != "n = 2.0"])
def test_cli_reports_the_schema_message(tmp_path, name):
    data = MUTATIONS[name](plain())
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(data))
    error = best_match(VALIDATOR.iter_errors(data))
    where = "/".join(str(p) for p in error.absolute_path) or "(root)"
    r = CliRunner().invoke(main, ["maslov", "index", str(path)])
    assert r.exit_code == 2
    assert r.stderr == f"error: loop JSON invalid at {where}: {error.message}\n"


@pytest.mark.parametrize("text", [
    # a number past int()'s 4,300-digit limit, and arrays nested too deep to parse
    json.dumps(dict(plain(), n="LONG")).replace('"LONG"', "2" * 4400),
    "[" * 200_000,
], ids=["long number", "deep nesting"])
def test_unparsable_json_exits_2(tmp_path, text):
    path = tmp_path / "loop.json"
    path.write_text(text)
    r = CliRunner().invoke(main, ["maslov", "index", str(path)])
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr.startswith(f"error: {path} is not valid JSON: ")
    assert r.stderr.count("\n") == 1


def test_plain_loops_take_the_fast_path():
    for n, frames in ((1, 1), (2, 5), (4, 3)):
        data = plain(n, frames)
        assert serialize._plain_loop(data) and VALIDATOR.is_valid(data)
    assert serialize._plain_loop({"n": 1, "samples": [[[[1, -2]]]]})


def test_schema_fallback_keeps_jsonschema_verdict():
    # n = 2.0 is valid JSON Schema and loads as before; the others raise
    assert len(serialize.loop_from_dict(MUTATIONS["n = 2.0"](plain()))) == 2
    with pytest.raises(InputError, match="loop JSON invalid at samples/0/0/0/0"):
        serialize.loop_from_dict(MUTATIONS["bool leaf"](plain()))


def test_first_defective_sample_is_named():
    # each sample is checked for its shape, then for an entry too large for a
    # float, then for a NaN or infinite entry; the first sample with any
    # defect is named, with its first defect in that order
    good = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    short = good[:1]
    huge = [[[10 ** 400, 0.0], [0.0, 0.0]], good[1]]
    nan = [[[float("nan"), 0.0], [0.0, 0.0]], good[1]]
    huge_and_nan = [[[10 ** 400, float("inf")], [0.0, 0.0]], good[1]]
    cases = [
        ([good, nan, short], "sample 1 has a NaN or infinite entry"),
        ([good, short, nan], "sample 1 is not an 2 x 2 frame"),
        ([huge, good, short], "sample 0 has an entry too large for a float"),
        ([good, nan, huge], "sample 1 has a NaN or infinite entry"),
        ([good, huge_and_nan], "sample 1 has an entry too large for a float"),
        ([short + [[[float("nan"), 0.0]]]], "sample 0 is not an 2 x 2 frame"),
    ]
    for samples, message in cases:
        with pytest.raises(InputError) as exc:
            serialize.loop_from_dict({"n": 2, "samples": samples})
        assert str(exc.value) == message
    # frames of one shape, but not the stated one
    with pytest.raises(InputError, match="^sample 0 is not an 3 x 3 frame$"):
        serialize.loop_from_dict({"n": 3, "samples": [good, good]})


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.floats(allow_nan=True), st.text(max_size=2))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["n", "samples", "x"]),
                                            inner, max_size=3)),
    max_leaves=12)
numbers = st.one_of(st.integers(-10**30, 10**30), st.floats())


@st.composite
def schema_loops(draw, min_size=0):
    """Loops the schema accepts, frames not necessarily n x n."""
    n = draw(st.integers(1, 3))
    pair = st.lists(numbers, min_size=2, max_size=2)
    frames = st.lists(st.lists(pair, min_size=min_size, max_size=3),
                      min_size=min_size, max_size=3)
    return {"n": n, "samples": draw(st.lists(frames, min_size=1, max_size=3))}


@settings(max_examples=100, deadline=None)
@given(schema_loops())
def test_schema_loops_take_the_fast_path(data):
    assert VALIDATOR.is_valid(data) and serialize._plain_loop(data)


def _paths(node, path=()):
    yield list(path)
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@settings(max_examples=200, deadline=None)
@given(schema_loops(min_size=1), st.data())
def test_fast_path_implies_schema_on_mutated_loops(loop, data):
    # replace up to two nodes, each by a number, a list of numbers or any
    # JSON value
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(_paths(loop))))
        value = data.draw(st.one_of(numbers, st.lists(numbers, max_size=3), json_values))
        loop = _set(loop, path, value) if path else value
    if serialize._plain_loop(loop):
        assert VALIDATOR.is_valid(loop)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_fast_path_implies_schema(data):
    if serialize._plain_loop(data):
        assert VALIDATOR.is_valid(data)


# -- the read path of `maslov index` -----------------------------------------


def old_read_path(path):
    return serialize.loop_from_dict(serialize.load_json(path))


def _read_path_files():
    """name -> file text: every mutation above, and the layouts, numbers and
    odd JSON that `load_loop` must read exactly as `old_read_path` does."""
    texts = {f"mutation {name}": json.dumps(fn(plain())) for name, fn in MUTATIONS.items()}
    # eight samples: a loop whose index the guard lets through
    text = json.dumps(plain(2, 8))
    long_int = "2" * 4400
    texts.update({
        "plain": text,
        "canonical": serialize.canonical_json(plain(2, 8)),
        "duplicate n": '{"n": 2, ' + text[1:],
        "duplicate samples": text[:-1] + ', "samples": []}',
        "only n, twice": '{"n": 2, "n": 2}',
        "n = 1.0": json.dumps(dict(plain(1, 64), n=1.0)),
        "NaN": text.replace("1.0", "NaN", 1),
        "Infinity": text.replace("1.0", "Infinity", 1),
        "-Infinity": text.replace("0.0", "-Infinity", 1),
        "NaN as n": text.replace("2", "NaN", 1),
        "-0 in a zero entry": text.replace("0.0", "-0", 1),
        "-0 in a unit entry": text.replace("1.0", "-0", 1),
        "int entries": text.replace("1.0", "1").replace("0.0", "0"),
        "ints of 4,400 digits": text.replace("1.0", long_int, 1),
        "n of 4,400 digits": text.replace("2", long_int, 1),
        "float past the range": text.replace("1.0", "1e400", 1),
        "int past the float range": text.replace("1.0", "1" + "0" * 400, 1),
        "BOM": "\ufeff" + text,
        "CRLF, pretty": json.dumps(plain(2, 8), indent=2).replace("\n", "\r\n"),
        "pretty, 1 x 1": json.dumps(plain(1, 64), indent=4),
        "empty object": "{}",
    })
    for depth, path in enumerate([["samples"], ["samples", 0], ["samples", 0, 0],
                                  ["samples", 0, 0, 0], ["samples", 0, 0, 0, 0]]):
        texts[f"{{}} at depth {depth + 1}"] = json.dumps(_set(plain(2, 8), path, {}))
    return texts


READ_PATH_FILES = _read_path_files()


@pytest.mark.parametrize("name", READ_PATH_FILES)
def test_load_loop_matches_the_old_read_path(tmp_path, monkeypatch, name):
    path = tmp_path / "loop.json"
    path.write_text(READ_PATH_FILES[name], encoding="utf-8", newline="")

    def run():
        r = CliRunner().invoke(main, ["maslov", "index", str(path)])
        return r.exit_code, r.stdout, r.stderr
    got = run()
    monkeypatch.setattr(serialize, "load_loop", old_read_path)
    assert got == run()
    assert got[0] in (0, 2, 3), got


@pytest.mark.parametrize("name", ["plain", "canonical", "-0 in a zero entry",
                                  "int entries", "CRLF, pretty", "pretty, 1 x 1"])
def test_plain_files_skip_the_entry_walk(tmp_path, monkeypatch, name):
    path = tmp_path / "loop.json"
    path.write_text(READ_PATH_FILES[name], encoding="utf-8", newline="")
    expected = old_read_path(str(path))
    monkeypatch.setattr(serialize, "_plain_loop", lambda data: pytest.fail("entries walked"))
    loop = serialize.load_loop(str(path))
    assert loop.n == expected.n and np.array_equal(loop.samples, expected.samples)
    assert not loop.samples.flags.writeable


def _collections(fn, *args):
    """Collections the cyclic collector starts while fn(*args) runs."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])
    gc.callbacks.append(record)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(record)
    return started


def test_load_loop_runs_no_collection(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(serialize.canonical_json(serialize.loop_to_dict(loops.rotating_loop(2, 1024))))
    assert gc.isenabled()
    # the 7,000-odd lists of a 1,024-sample file start collections when
    # decoded with the collector running
    assert _collections(serialize.load_json, str(path))
    assert _collections(serialize.load_loop, str(path)) == []
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", [
    json.dumps(plain()), json.dumps(MUTATIONS["n = 2.0"](plain())),
    json.dumps(MUTATIONS["bool leaf"](plain())), "{not json", "[" * 200_000,
], ids=["plain", "fallback", "schema error", "invalid JSON", "deep nesting"])
def test_load_loop_restores_the_collector_state(tmp_path, enabled, text):
    path = tmp_path / "loop.json"
    path.write_text(text)
    if not enabled:
        gc.disable()
    try:
        try:
            serialize.load_loop(str(path))
        except InputError:
            pass
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
