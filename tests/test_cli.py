"""CLI contract: exit codes, formats, golden files, determinism."""

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path

import loops
import pytest
from click.testing import CliRunner

import floeralg
from floeralg import gradedalg as ga
from floeralg import maslov as mv
from floeralg import serialize
from floeralg.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    # click >= 8.2 separates stdout and stderr by default
    return CliRunner().invoke(main, list(args))


def run_proc(*args):
    return subprocess.run([sys.executable, "-m", "floeralg.cli", *args],
                          capture_output=True, text=True)


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


def loaded_after(imports):
    """Which of numpy, jsonschema and floeralg.maslov a fresh interpreter
    holds after ``imports``."""
    code = (f"import sys\n{imports}\n"
            "print(*(m for m in ('numpy', 'jsonschema', 'floeralg.maslov')"
            " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(floeralg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    return proc.stdout.split()


def in_process(args, stdout):
    """Code that runs ``floeralg *args`` in the interpreter it is run in and
    asserts its stdout and an exit code of 0."""
    return ("import contextlib, io\nfrom floeralg.cli import main\n"
            "code = 0\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    try:\n"
            f"        main.main(args={list(args)!r}, standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            f"assert (code, out.getvalue()) == (0, {stdout!r})\n")


def test_import_isolation(tmp_path):
    # the exact F2 core needs no numpy; jsonschema loads only to validate a
    # file, and a plain loop or complex file is checked without it
    assert "numpy" not in loaded_after(
        "from floeralg import f2linalg, gradedalg, floercomplex, spectral, theorems")
    # numpy loads on the first Maslov computation, not with floeralg.maslov,
    # which the CLI imports with every other layer
    assert loaded_after("import floeralg.cli") == ["floeralg.maslov"]
    path = tmp_path / "loop.json"
    path.write_text(serialize.canonical_json(serialize.loop_to_dict(loops.rotating_loop(2, 64))))
    maslov = ("maslov", "index", str(path))
    expected = run_cli(*maslov)
    assert (expected.exit_code, json.loads(expected.stdout)["index"]) == (0, 1)
    assert loaded_after(in_process(maslov, expected.stdout)) == ["numpy", "floeralg.maslov"]
    # no command but maslov index loads numpy, nor do plain files jsonschema
    corpus = ("corpus", "--seed", "1", "--count", "1", "--dims", "1,2,1",
              "--maslov", "2", "--out", str(tmp_path / "corpus"))
    expected = run_cli(*corpus)
    assert (expected.exit_code, json.loads(expected.stdout)["passed"]) == (0, 1)
    for args, stdout in (
            (("ss", "run", str(GOLDEN / "t2_complex.json")), golden("ss_run_t2.json")),
            (("ring", "rp", "--n", "3"), golden("ring_rp_3.json")),
            (("audin", "torus", "--n", "3", "--maslov", "4", "--displaceable"),
             golden("audin_torus_3_4.json")),
            (corpus, expected.stdout),
            (("derivations", "enumerate", "--kind", "torus", "--n", "2", "--shift", "-1"),
             golden("derivations_torus_2_m1.json"))):
        assert loaded_after(in_process(args, stdout)) == ["floeralg.maslov"], args


# -- ring ------------------------------------------------------------------


def test_ring_torus_golden():
    r = run_cli("ring", "torus", "--n", "2")
    assert r.exit_code == 0
    assert r.stdout == golden("ring_torus_2.json")
    assert len(json.loads(r.stdout)["basis"]) == 4


def test_ring_rp_golden():
    r = run_cli("ring", "rp", "--n", "3")
    assert r.exit_code == 0
    assert r.stdout == golden("ring_rp_3.json")
    data = json.loads(r.stdout)
    assert [b["degree"] for b in data["basis"]] == [0, 1, 2, 3]


def test_in_process_run_releases_redirected_stdout():
    buf = io.StringIO()
    ref = weakref.ref(buf)
    with contextlib.redirect_stdout(buf):
        main.main(args=["ring", "torus", "--n", "2"], standalone_mode=False)
    assert buf.getvalue() == golden("ring_torus_2.json")
    del buf
    gc.collect()
    assert ref() is None


def test_ring_size_limit_exit_2():
    r = run_cli("ring", "torus", "--n", "99")
    assert r.exit_code == 2
    assert r.stderr.startswith("error:")


@pytest.mark.parametrize("args", [
    ("ring", "rp", "--n", "0"), ("ring", "rp", "--n", "-3"),
    ("derivations", "enumerate", "--kind", "rp", "--n", "0", "--shift", "-1"),
])
def test_rp_ring_below_rank_one_exit_2(args):
    r = run_cli(*args)
    assert r.exit_code == 2
    assert r.stderr.startswith("error: truncated polynomial ring")


def limited_proc(*args):
    """``floeralg *args`` in a subprocess whose address space is capped at 2 GB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    env = dict(os.environ, PYTHONPATH=str(Path(floeralg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "floeralg.cli", *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=cap, timeout=60)


@pytest.mark.parametrize("args", [
    ("ring", "rp", "--n", "1000000"), ("rp", "--n", "1000000", "--maslov", "3"),
    ("derivations", "enumerate", "--kind", "rp", "--n", "1000000", "--shift", "-1"),
])
def test_rp_ring_above_the_degree_cap_exit_2(args):
    r = limited_proc(*args)
    assert r.returncode == 2
    assert r.stderr == ("error: truncated polynomial ring supported for n <= "
                        f"{ga.MAX_TRUNCATED_DEGREE}, got 1000000\n")


def test_ring_round_trip():
    r = run_cli("ring", "torus", "--n", "3")
    ring = serialize.ring_from_dict(json.loads(r.stdout))
    assert serialize.canonical_json(serialize.ring_to_dict(ring)) == r.stdout


def test_unknown_flag_is_an_error():
    r = run_cli("ring", "torus", "--n", "2", "--bogus")
    assert r.exit_code == 2


# -- ss run -------------------------------------------------------------------


def test_ss_run_worked_example_golden():
    r = run_cli("ss", "run", str(GOLDEN / "t2_complex.json"))
    assert r.exit_code == 0
    assert r.stdout == golden("ss_run_t2.json")
    data = json.loads(r.stdout)
    assert data["pages"][1]["V"] == {"0": 1, "1": 2, "2": 1}
    assert data["pages"][2]["V"] == {"0": 0, "1": 0, "2": 0}


def test_ss_run_corrupted_operator_exit_2(tmp_path):
    data = json.loads(golden("t2_complex.json"))
    data["operators"]["1"] = sorted(data["operators"]["1"] + [[1, 3]])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    r = run_cli("ss", "run", str(bad))
    assert r.exit_code == 2
    assert "witness generator" in r.stderr


def test_ss_run_zero_higher_ops(tmp_path):
    data = json.loads(golden("t2_complex.json"))
    data["operators"] = {"0": []}
    data.pop("products")
    path = tmp_path / "frozen.json"
    path.write_text(json.dumps(data))
    r = run_cli("ss", "run", str(path))
    assert r.exit_code == 0
    out = json.loads(r.stdout)
    dims = out["pages"][1]["V"]
    assert all(p["V"] == dims for p in out["pages"][1:])


def test_ss_run_verbose_pages():
    r = run_cli("ss", "run", str(GOLDEN / "t2_complex.json"), "--verbose-pages")
    assert r.exit_code == 0
    data = json.loads(r.stdout)
    assert "representatives" in data["pages"][1]
    assert "delta" in data["pages"][1]


@pytest.mark.parametrize("nl", [10**5, 10**8])
def test_ss_run_maslov_above_the_cap_exit_2(tmp_path, nl):
    # without the cap, NL 10^8 builds residue dicts of 10^8 entries
    from floeralg import floercomplex as fcx

    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dimL": 0, "NL": nl, "operators": {},
                                "generators": [{"name": "x", "index": 0}]}))
    r = limited_proc("ss", "run", str(path))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: NL {nl} exceeds {fcx.MAX_CENSUS_NL}\n"


@pytest.mark.parametrize("dimL", [1001, 10**8])
def test_ss_run_dimL_above_the_cap_exit_2(tmp_path, dimL):
    # without the cap, dimL 4,000 ends in a MemoryError traceback under 3 GB
    from floeralg import floercomplex as fcx

    path = tmp_path / "one.json"
    path.write_text(json.dumps({"dimL": dimL, "NL": 2, "operators": {},
                                "generators": [{"name": "x", "index": 0}]}))
    r = limited_proc("ss", "run", str(path))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: dimL {dimL} exceeds {fcx.MAX_DIML}\n"


def test_ss_run_chain_file_gets_its_paranoid_verdict(tmp_path):
    # one generator per degree and no operators: 201 pages of 401 degrees,
    # each paranoid lift one D product
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "dimL": 400, "NL": 2, "operators": {},
        "generators": [{"name": f"x{i:04d}", "index": i} for i in range(401)]}))
    r = limited_proc("ss", "run", str(path), "--paranoid")
    assert (r.returncode, r.stderr) == (0, "")
    report = json.loads(r.stdout)
    assert report["convergence"]["ok"] and len(report["pages"]) == 202
    assert [v["einf"] for v in report["convergence"]["residues"]] == [201, 200]


def test_ss_run_wide_file_gets_its_verdict(tmp_path):
    # 10,000 generators in one degree: each Z or quotient coordinate read is
    # one XOR per pivot bit the vector holds, not a scan of the whole basis
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "dimL": 0, "NL": 2, "operators": {},
        "generators": [{"name": f"x{i:05d}", "index": 0} for i in range(10000)]}))
    r = limited_proc("ss", "run", str(path))
    assert (r.returncode, r.stderr) == (0, "")
    report = json.loads(r.stdout)
    assert report["convergence"]["ok"]
    assert [v["einf"] for v in report["convergence"]["residues"]] == [10000, 0]


def test_ss_run_generator_count_above_the_cap_exit_2(tmp_path):
    from floeralg import floercomplex as fcx

    n = fcx.MAX_GENERATORS + 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "dimL": 0, "NL": 2, "operators": {},
        "generators": [{"name": f"x{i:05d}", "index": 0} for i in range(n)]}))
    r = limited_proc("ss", "run", str(path))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: {n} generators exceed {fcx.MAX_GENERATORS}\n"


def _empty_products_probe(tmp_path, keys):
    """10,000 generators, 2,000 in each degree of dimL 4, NL 2, no
    operators, and an empty product table for each of ``keys`` (none: no
    ``products`` at all)."""
    data = {"dimL": 4, "NL": 2, "operators": {},
            "generators": [{"name": f"x{i:05d}", "index": i // 2000}
                           for i in range(10000)]}
    if keys is not None:
        data["products"] = {key: [] for key in keys}
    path = tmp_path / f"products_{'_'.join(keys or ['none'])}.json"
    path.write_text(json.dumps(data))
    return path


def test_ss_run_empty_product_tables_cost_nothing(tmp_path):
    # a table is held as its nonzero rows: three empty tables over 10,000
    # generators are three empty dicts, not 10^8 ints each
    r = limited_proc("ss", "run", str(_empty_products_probe(tmp_path, ["0", "1", "2"])))
    plain = limited_proc("ss", "run", str(_empty_products_probe(tmp_path, None)))
    assert (r.returncode, r.stderr) == (0, "")
    assert plain.returncode == 0 and r.stdout == plain.stdout


def test_ss_run_product_index_above_the_bound_exit_2(tmp_path):
    r = limited_proc("ss", "run",
                     str(_empty_products_probe(tmp_path, ["0", "1", "2", "5"])))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: product index 5 outside 0..4\n"  # 2 * dimL // NL = 4


def test_ss_run_morse_boundary_not_squaring_to_zero_exit_2(tmp_path):
    # op_0(a) = b and op_0(b) = c: op_0 squared sends a to c, so the
    # convolution identity l = 0 fails with a as its witness
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "dimL": 2, "NL": 2, "operators": {"0": [[1, 0], [2, 1]]},
        "generators": [{"name": "a", "index": 0}, {"name": "b", "index": 1},
                       {"name": "c", "index": 2}]}))
    r = run_cli("ss", "run", str(path))
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == "error: convolution identity fails at l=0, witness generator a\n"


def test_ss_run_rejects_bad_schema(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"dimL": 2}')
    r = run_cli("ss", "run", str(path))
    assert r.exit_code == 2


def test_ss_run_rejects_duplicate_entries(tmp_path):
    data = json.loads(golden("t2_complex.json"))
    data["operators"]["1"] = data["operators"]["1"] + data["operators"]["1"][:1]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    r = run_cli("ss", "run", str(path))
    assert r.exit_code == 2
    assert "twice" in r.stderr


@pytest.mark.parametrize("table, key, copy", [
    ("operators", "01", "1"), ("operators", "00", "0"), ("products", "00", "0")])
def test_ss_run_rejects_keys_naming_the_same_k(tmp_path, table, key, copy):
    # "1" and "01" both name op_1; their entries must not be merged (a copy
    # of op_1 under "01" would cancel it mod 2)
    data = json.loads(golden("t2_complex.json"))
    data[table][key] = data[table][copy]
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(data))
    r = run_cli("ss", "run", str(path))
    what = table[:-1]
    k = int(copy)
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == f"error: {what} keys {copy!r} and {key!r} both name k = {k}\n"


def test_complex_file_round_trip():
    # the golden file comes back as it is; given its m_0 triples in reverse
    # order and an empty m_1, the triples come back sorted by (i, j, k) and
    # the empty table keeps its key
    data = json.loads(golden("t2_complex.json"))
    reversed_m0 = dict(data, products={"0": data["products"]["0"][::-1], "1": []})
    sorted_m0 = dict(data, products={"0": sorted(data["products"]["0"]), "1": []})
    for given, written in ((data, data), (reversed_m0, sorted_m0)):
        fc = serialize.complex_from_dict(given)
        assert serialize.complex_to_dict(fc) == written


# -- audin / rp ------------------------------------------------------------------


def test_audin_contradiction_exit_0_golden():
    r = run_cli("audin", "torus", "--n", "3", "--maslov", "4", "--displaceable")
    assert r.exit_code == 0
    assert r.stdout == golden("audin_torus_3_4.json")


def test_audin_consistent_exit_1_golden():
    r = run_cli("audin", "torus", "--n", "2", "--maslov", "2", "--displaceable")
    assert r.exit_code == 1
    assert r.stdout == golden("audin_torus_2_2.json")


def test_audin_odd_maslov_warning_on_stderr():
    r = run_cli("audin", "torus", "--n", "3", "--maslov", "3", "--displaceable")
    assert r.exit_code == 0
    assert "warning" in r.stderr


def test_audin_ring_file(tmp_path):
    ring_json = run_cli("ring", "rp", "--n", "4").stdout
    path = tmp_path / "rp4.json"
    path.write_text(ring_json)
    r = run_cli("audin", "ring", "--ring-file", str(path), "--maslov", "3",
                "--displaceable")
    assert r.exit_code == 0
    assert json.loads(r.stdout)["verdict"] == "contradiction"


def test_rp_golden():
    r = run_cli("rp", "--n", "5", "--maslov", "3")
    assert r.exit_code == 0
    assert r.stdout == golden("rp_5_3.json")
    d = json.loads(r.stdout)
    assert d["hf_total_rank"] == 6 and d["intersection_bound"] == 6


def test_rp_hypothesis_failure_exit_2():
    r = run_cli("rp", "--n", "4", "--maslov", "2")
    assert r.exit_code == 2


# -- derivations ------------------------------------------------------------------


def test_derivations_enumerate_golden():
    r = run_cli("derivations", "enumerate", "--kind", "torus", "--n", "2",
                "--shift", "-1")
    assert r.exit_code == 0
    assert r.stdout == golden("derivations_torus_2_m1.json")
    d = json.loads(r.stdout)
    assert d["count"] == 4 and d["nonzero"] == 3


def test_derivations_forced_zero():
    r = run_cli("derivations", "enumerate", "--kind", "rp", "--n", "5",
                "--shift", "-2")
    d = json.loads(r.stdout)
    assert d["count"] == 1 and d["nonzero"] == 0


def _ring_file(tmp_path, names, mult):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"basis": [{"name": n, "degree": d} for n, d in names],
                                "unit": 0, "mult": mult}))
    return str(path)


def _zero_product_ring(tmp_path, n):
    """A unit and n degree-1 generators whose products are all zero."""
    return _ring_file(tmp_path, [("1", 0)] + [(f"x{i}", 1) for i in range(1, n + 1)],
                      [[0, 0, [0]]] + [[0, i, [i]] for i in range(1, n + 1)]
                      + [[i, 0, [i]] for i in range(1, n + 1)])


def test_derivations_of_twenty_generators_in_seconds(tmp_path):
    # 2^20 generator assignments, of which only 0 is consistent: the bound
    # holds for 20 extensions, not for a search that tries each assignment
    start = time.monotonic()
    r = limited_proc("derivations", "enumerate", "--ring-file",
                     _zero_product_ring(tmp_path, 20), "--shift", "-1")
    assert time.monotonic() - start < 10
    assert (r.returncode, r.stderr) == (0, "")
    data = json.loads(r.stdout)
    assert (data["count"], data["nonzero"], len(data["derivations"])) == (1, 0, 1)
    assert not any(data["derivations"][0]["generator_values"].values())


def test_derivations_of_the_rank_12_torus_in_seconds():
    # 4,096 derivations, printed from the generator values of the 12 basis
    # elements: no derivation beyond the basis is built over 4,096 images
    start = time.monotonic()
    r = limited_proc("derivations", "enumerate", "--kind", "torus", "--n", "12",
                     "--shift", "-1")
    assert time.monotonic() - start < 10
    assert (r.returncode, r.stderr) == (0, "")
    data = json.loads(r.stdout)
    assert (data["count"], data["nonzero"], len(data["derivations"])) == (4096, 4095, 4096)
    assert data["derivations"][-1]["generator_values"] == {
        f"x{i}": ["1"] for i in range(1, 13)}


@pytest.mark.parametrize("maslov, code", [("3", 0), ("2", 2)])
def test_audin_ring_of_6000_generators_in_seconds(tmp_path, maslov, code):
    # the ring check skips the pairs that cannot fail; NL 2 still hits the
    # cap on generator assignments before any extension
    start = time.monotonic()
    r = limited_proc("audin", "ring", "--ring-file", _zero_product_ring(tmp_path, 6000),
                     "--maslov", maslov, "--displaceable")
    assert time.monotonic() - start < 10
    assert r.returncode == code
    if code == 2:
        assert r.stderr == ("error: 2^6000 generator assignments exceed the "
                            "enumeration bound\n")
    else:
        assert json.loads(r.stdout)["verdict"] == "contradiction"


# 1 a = 0 but a 1 = a; F2[a]/(a^4) without a^2 a = a^3, so (a a) a != a (a a);
# and 1 a = 1, a degree-1 product in degree 0
BROKEN_RINGS = {
    "non-unital": ([("1", 0), ("a", 1)], [[0, 0, [0]], [1, 0, [1]]],
                   "ring breaks the unit law at a: 1 is not a two-sided unit"),
    "non-associative": (
        [("1", 0), ("a", 1), ("a^2", 2), ("a^3", 3)],
        [[i, j, [i + j]] for i in range(4) for j in range(4)
         if i + j <= 3 and (i, j) != (2, 1)],
        "ring is not associative: (a a) a != a (a a)"),
    "non-degree-additive": ([("1", 0), ("a", 1)], [[0, 0, [0]], [0, 1, [0]], [1, 0, [1]]],
                            "product table is not degree-additive"),
}


@pytest.mark.parametrize("ring", BROKEN_RINGS)
@pytest.mark.parametrize("args", [
    ("derivations", "enumerate", "--shift", "-1"),
    ("audin", "ring", "--maslov", "2", "--displaceable"),
])
def test_ring_axiom_failure_exit_2(tmp_path, ring, args):
    names, mult, message = BROKEN_RINGS[ring]
    r = run_cli(*args, "--ring-file", _ring_file(tmp_path, names, mult))
    assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def test_repeated_mult_output_index_exit_2(tmp_path):
    # [0, 1, [1, 1]] is 1 a = a + a = 0 if read mod 2; it is rejected instead
    path = _ring_file(tmp_path, [("1", 0), ("a", 1)],
                      [[0, 0, [0]], [0, 1, [1, 1]], [1, 0, [1]]])
    r = run_cli("derivations", "enumerate", "--ring-file", path, "--shift", "-1")
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == "error: mult entry [0, 1, [1, 1]] lists an output index twice\n"


@pytest.mark.parametrize("mult", [
    [[0, 0, [0]], [0, 1, []], [0, 1, [1]], [1, 0, [1]]],
    [[0, 0, [0]], [0, 1, [1]], [0, 1, []], [1, 0, [1]]],
], ids=["empty first", "empty second"])
def test_duplicate_pair_exit_2_whatever_the_order(tmp_path, mult):
    # an empty entry still names its pair, so a second entry for it is a duplicate
    path = _ring_file(tmp_path, [("1", 0), ("a", 1)], mult)
    r = run_cli("derivations", "enumerate", "--ring-file", path, "--shift", "-1")
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == "error: duplicate mult entry for pair (0, 1)\n"


# one bad entry each, appended to a valid table of 1 and a
MULT_FAULTS = {
    "out of range": ([1, 2, []], "mult entry [1, 2, []] has out-of-range indices"),
    "output out of range": ([1, 1, [5]], "mult entry [1, 1, [5]] has out-of-range indices"),
    "repeated output": ([1, 1, [1, 1]], "mult entry [1, 1, [1, 1]] lists an output index twice"),
    "duplicate pair": ([0, 1, [1]], "duplicate mult entry for pair (0, 1)"),
}


@pytest.mark.parametrize("faults", [
    ("out of range",), ("output out of range",), ("out of range", "repeated output"), ("repeated output", "out of range"),
    ("duplicate pair", "out of range"), ("out of range", "duplicate pair"),
])
def test_first_bad_mult_entry_in_file_order_is_named(tmp_path, faults):
    mult = [[0, 0, [0]], [0, 1, [1]], [1, 0, [1]]] + [MULT_FAULTS[f][0] for f in faults]
    r = run_cli("derivations", "enumerate", "--ring-file",
                _ring_file(tmp_path, [("1", 0), ("a", 1)], mult), "--shift", "-1")
    assert (r.exit_code, r.stdout) == (2, "")
    assert r.stderr == f"error: {MULT_FAULTS[faults[0]][1]}\n"


def _exterior_8_file(tmp_path):
    """``build_exterior(8)`` as a ring file: 256 basis elements, 6,561 entries."""
    path = tmp_path / "exterior_8.json"
    path.write_text(json.dumps(serialize.ring_to_dict(ga.build_exterior(8))))
    return str(path)


def test_audin_on_a_rank_8_ring_file_in_seconds(tmp_path):
    # NL 2: the shift -1 derivations do not vanish, so the verdict is consistent
    start = time.monotonic()
    r = limited_proc("audin", "ring", "--ring-file", _exterior_8_file(tmp_path), "--maslov", "2")
    assert time.monotonic() - start < 10
    assert (r.returncode, r.stderr) == (1, "")
    data = json.loads(r.stdout)
    assert data["verdict"] == "consistent"
    assert data["witness"]["kind"] == "nonzero_shift_minus_one_derivation"


def test_derivations_of_a_rank_8_ring_file_in_seconds(tmp_path):
    start = time.monotonic()
    r = limited_proc("derivations", "enumerate", "--ring-file", _exterior_8_file(tmp_path),
                     "--shift", "-1")
    assert time.monotonic() - start < 10
    assert (r.returncode, r.stderr) == (0, "")
    data = json.loads(r.stdout)
    assert (data["count"], data["nonzero"], len(data["derivations"])) == (256, 255, 256)


def test_listing_above_the_derivation_cap_exit_2():
    # the shift +1 derivations of the rank-4 torus form a 24-dimensional space
    start = time.monotonic()
    r = limited_proc("derivations", "enumerate", "--kind", "torus", "--n", "4", "--shift", "1")
    assert time.monotonic() - start < 10
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == ("error: 2^24 derivations exceed MAX_LISTED_DERIVATIONS = "
                        f"{ga.MAX_LISTED_DERIVATIONS}\n")


# -- maslov ---------------------------------------------------------------------


def test_maslov_index_rotating(tmp_path):
    loop = loops.rotating_loop(1, 256)
    path = tmp_path / "loop.json"
    path.write_text(serialize.canonical_json(serialize.loop_to_dict(loop)))
    r = run_cli("maslov", "index", str(path))
    assert r.exit_code == 0
    assert json.loads(r.stdout)["index"] == 1


def test_maslov_index_constant(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(serialize.canonical_json(
        serialize.loop_to_dict(loops.constant_loop(2))))
    r = run_cli("maslov", "index", str(path))
    assert r.exit_code == 0
    assert json.loads(r.stdout)["index"] == 0


def test_maslov_coarse_exit_3(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(serialize.canonical_json(
        serialize.loop_to_dict(loops.rotating_loop(1, 4))))
    r = run_cli("maslov", "index", str(path))
    assert r.exit_code == 3
    assert "resample" in r.stderr


@pytest.mark.parametrize("literal, message", [
    ("NaN", "NaN or infinite"), ("Infinity", "NaN or infinite"),
    ("-Infinity", "NaN or infinite"), ("1e400", "NaN or infinite"),
    ("1" + "0" * 400, "too large for a float"),
])
def test_maslov_non_finite_sample_exit_2(tmp_path, literal, message):
    # json.load accepts these literals and the schema sees plain numbers
    text = serialize.canonical_json(serialize.loop_to_dict(loops.rotating_loop(2, 64)))
    path = tmp_path / "loop.json"
    path.write_text(text.replace("1.0", literal, 1))
    r = run_cli("maslov", "index", str(path))
    assert r.exit_code == 2
    assert r.stderr.startswith("error: sample 0 ") and message in r.stderr


def test_maslov_extreme_scale_loops(tmp_path):
    # A^H A overflows or underflows at these scales; a positive factor per
    # frame changes neither the subspaces nor the index
    for scale in (1e300, 1e-300, 5e307 * (1 + 1j)):
        loop = mv.LagrangianLoop.from_frames(scale * f for f in loops.rotating_loop(2, 64).samples)
        path = tmp_path / "loop.json"
        path.write_text(serialize.canonical_json(serialize.loop_to_dict(loop)))
        r = run_cli("maslov", "index", str(path))
        assert r.exit_code == 0, r.stderr
        assert json.loads(r.stdout)["index"] == 1


# -- corpus ---------------------------------------------------------------------


def test_corpus_all_pass(tmp_path):
    out = tmp_path / "corpus"
    r = run_cli("corpus", "--seed", "42", "--count", "8", "--dims", "1,2,2,1",
                "--maslov", "2", "--out", str(out))
    assert r.exit_code == 0
    d = json.loads(r.stdout)
    assert d["passed"] == 8 and not d["failed_seeds"]
    assert len(list(out.glob("complex_*.json"))) == 8


def test_corpus_checks_d_squared_once_per_complex(tmp_path, monkeypatch):
    # assemble checks d^2 = 0; the corpus verdict and the folded homology
    # oracle reuse that report
    from floeralg import floercomplex as fcx

    checked = []
    check = fcx.check_d_squared
    monkeypatch.setattr(fcx, "check_d_squared", lambda fc: checked.append(fc) or check(fc))
    r = run_cli("corpus", "--seed", "42", "--count", "3", "--dims", "1,2,2,1",
                "--maslov", "2", "--out", str(tmp_path / "corpus"))
    assert r.exit_code == 0 and json.loads(r.stdout)["passed"] == 3
    assert len(checked) == len({id(fc) for fc in checked}) == 3


def test_corpus_empty(tmp_path):
    r = run_cli("corpus", "--seed", "1", "--count", "0", "--dims", "1,1",
                "--maslov", "2", "--out", str(tmp_path / "c"))
    assert r.exit_code == 0
    assert json.loads(r.stdout)["count"] == 0


def _one_error_line(r):
    """Exit 2 with exactly one error line on stderr and nothing on stdout."""
    errors = [line for line in r.stderr.splitlines() if line.lower().startswith("error")]
    return r.exit_code == 2 and r.stdout == "" and len(errors) == 1


def test_corpus_negative_dimension_exit_2(tmp_path):
    r = run_cli("corpus", "--seed", "1", "--count", "1", "--dims", "1,-1,1",
                "--maslov", "2", "--out", str(tmp_path / "c"))
    assert _one_error_line(r)
    assert r.stderr == "error: negative dimension in (1, -1, 1)\n"


@pytest.mark.parametrize("nl", ["10000000", "100000000"])
def test_corpus_maslov_above_the_cap_exit_2(tmp_path, nl):
    # without the cap these end in a MemoryError traceback under the 2 GB limit
    from floeralg import floercomplex as fcx

    r = limited_proc("corpus", "--seed", "1", "--count", "1", "--dims", "1,2,1",
                     "--maslov", nl, "--out", str(tmp_path / "c"))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: NL {nl} exceeds {fcx.MAX_CENSUS_NL}\n"


@pytest.mark.parametrize("nl", ["10001", "100000000", "99999999999999999999"])
def test_rp_maslov_above_the_cap_exit_2(nl):
    # without the cap the residue report holds NL entries: 100,000,000 ends
    # in a MemoryError traceback under the 2 GB limit
    from floeralg import floercomplex as fcx

    r = limited_proc("rp", "--n", "5", "--maslov", nl)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: NL {nl} exceeds {fcx.MAX_CENSUS_NL}\n"


def test_rp_maslov_at_the_cap_exits_0():
    from floeralg import floercomplex as fcx

    r = limited_proc("rp", "--n", "5", "--maslov", str(fcx.MAX_CENSUS_NL))
    assert r.returncode == 0
    assert json.loads(r.stdout)["hf_total_rank"] == 6


def test_corpus_dims_above_the_dimL_cap_exit_2(tmp_path):
    # without the cap, 20,000 degrees end in a MemoryError traceback under 3 GB
    from floeralg import floercomplex as fcx

    dims = ",".join(["1"] + ["0"] * 19_999)
    r = limited_proc("corpus", "--seed", "1", "--count", "1", "--dims", dims,
                     "--maslov", "2", "--out", str(tmp_path / "c"))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: dimL 19999 exceeds {fcx.MAX_DIML}\n"


def test_corpus_out_is_a_file_exit_2(tmp_path):
    out = tmp_path / "taken"
    out.write_text("")
    r = run_cli("corpus", "--seed", "1", "--count", "1", "--dims", "1,2,1",
                "--maslov", "2", "--out", str(out))
    assert _one_error_line(r)
    assert r.stderr.startswith(f"error: cannot create output directory {out}: ")
    # a complex file that cannot be written is an input error too
    (tmp_path / "c" / "complex_000001.json").mkdir(parents=True)
    r = run_cli("corpus", "--seed", "1", "--count", "1", "--dims", "1,2,1",
                "--maslov", "2", "--out", str(tmp_path / "c"))
    assert _one_error_line(r)
    assert r.stderr.startswith(f"error: cannot write {tmp_path / 'c' / 'complex_000001.json'}: ")


def test_corpus_negative_count_is_a_usage_error(tmp_path):
    r = run_cli("corpus", "--seed", "1", "--count", "-1", "--dims", "1,2,1",
                "--maslov", "2", "--out", str(tmp_path / "c"))
    assert _one_error_line(r)
    assert "Invalid value for '--count'" in r.stderr


def test_corpus_files_reload_and_revalidate(tmp_path):
    out = tmp_path / "corpus"
    run_cli("corpus", "--seed", "7", "--count", "3", "--dims", "2,2,2",
            "--maslov", "3", "--out", str(out))
    for path in sorted(out.glob("complex_*.json")):
        data = json.loads(path.read_text())
        fc = serialize.complex_from_dict(data)
        assert serialize.complex_to_dict(fc) == data


def test_corpus_file_feeds_ss_run(tmp_path):
    # end to end across two commands: generate, then analyze the emitted file
    out = tmp_path / "corpus"
    run_cli("corpus", "--seed", "3", "--count", "1", "--dims", "1,3,3,1",
            "--maslov", "2", "--out", str(out))
    path = next(out.glob("complex_*.json"))
    r = run_cli("ss", "run", str(path))
    assert r.exit_code == 0
    assert json.loads(r.stdout)["convergence"]["ok"]


# -- determinism across processes ---------------------------------------------------


@pytest.mark.parametrize("args", [
    ("ring", "torus", "--n", "3"),
    ("audin", "torus", "--n", "4", "--maslov", "5", "--displaceable"),
    ("derivations", "enumerate", "--kind", "torus", "--n", "3", "--shift", "-1"),
    ("rp", "--n", "6", "--maslov", "4"),
])
def test_rerun_byte_identical(args):
    a = run_proc(*args)
    b = run_proc(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode


def test_table_format_renders():
    r = run_cli("audin", "torus", "--n", "3", "--maslov", "4", "--displaceable",
                "--format", "table")
    assert r.exit_code == 0
    assert "verdict: contradiction" in r.stdout
    r2 = run_cli("ss", "run", str(GOLDEN / "t2_complex.json"), "--format", "table")
    assert "convergence ok: True" in r2.stdout
