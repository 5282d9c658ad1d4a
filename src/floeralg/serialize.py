"""JSON formats for rings, complexes and loops, with schema validation.

All dumps use sorted keys and fixed array orderings so repeated runs are
byte-identical; global generator coordinates always refer to the canonical
generator order (sorted by (index, name)), which loaders enforce.

Each loader first asks a jsonschema-free predicate (``_plain_loop``,
``_plain_ring``, ``_plain_complex``) that is sufficient for its schema, so a
well-formed file never imports jsonschema; any other data is validated, and
a rejection carries jsonschema's ``best_match`` message. Every number in the
ring and complex schemas is an integer, which JSON Schema takes to include
integral floats such as 2.0; such data is read with each float as an int,
so it loads exactly as the same file written with ints. ``load_loop``, the
reader of ``maslov index``, skips even ``_plain_loop`` on a loop file whose
text and array shape already imply it, and decodes with the cyclic garbage
collector paused.
"""

from __future__ import annotations

import gc
import json
from itertools import chain
from typing import Any, Callable, Iterable

from .errors import InputError, ShapeMismatch
from .f2linalg import _bits_of
from .floercomplex import FloerComplex, Generator, MorseComplex, assemble
from .gradedalg import BasisElement, GradedRing
from .maslov import LagrangianLoop

_VALIDATORS: dict[str, Any] = {}


def _validator(name: str):
    """Validator for a bundled schema, built and checked once per name."""
    if name not in _VALIDATORS:
        # both only needed once a file is validated
        from importlib import resources

        import jsonschema

        text = resources.files("floeralg.schemas").joinpath(f"{name}.schema.json") \
            .read_text(encoding="utf-8")
        schema = json.loads(text)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _VALIDATORS[name] = cls(schema)
    return _VALIDATORS[name]


def validate_against_schema(data: Any, name: str) -> None:
    from jsonschema.exceptions import best_match

    # the error jsonschema.validate would raise, without re-checking the schema
    error = best_match(_validator(name).iter_errors(data))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise InputError(f"{name} JSON invalid at {path}: {error.message}") from error


def _schema_integers(data: Any, name: str) -> Any:
    """``data`` checked against a schema whose every number is an integer,
    then copied with each float (necessarily integral) read as an int."""
    validate_against_schema(data, name)

    def ints(node):
        if isinstance(node, float):
            return int(node)
        if isinstance(node, list):
            return [ints(x) for x in node]
        if isinstance(node, dict):
            return {k: ints(v) for k, v in node.items()}
        return node
    return ints(data)


def _naturals(rows: Iterable[list]) -> bool:
    """Whether every item of every row is an int >= 0: ``type: integer`` (a
    bool is an int to Python but not to JSON Schema, hence ``type`` and not
    ``isinstance``) and ``minimum: 0``. One pass over all rows, not one per
    row, as this is most of the cost of a plain file's check."""
    return all(type(x) is int and x >= 0 for row in rows for x in row)


def canonical_json(data: Any) -> str:
    """Deterministic serialization: sorted keys, fixed separators, newline."""
    return json.dumps(data, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# -- rings ---------------------------------------------------------------


def ring_to_dict(ring: GradedRing) -> dict:
    return {
        "basis": [{"name": b.name, "degree": b.degree} for b in ring.basis],
        "unit": ring.unit,
        "mult": [[i, j, list(_bits_of(ks))] for i, row in enumerate(ring.rows)
                 for j, ks in sorted(row.items())],
    }


def _plain_ring(data: Any) -> bool:
    """True only for data that ``ring.schema.json`` accepts; needs no jsonschema.

    As in ``_plain_loop``, ``type(x) is int`` is a JSON Schema integer (a
    bool is not), and each clause implies the schema keywords it names:

    - a dict whose keys are exactly {basis, unit, mult}: ``type: object``,
      ``required`` and ``additionalProperties: false``;
    - basis a non-empty list: ``type: array`` and ``minItems: 1``;
    - every basis item a dict with keys exactly {name, degree}: its
      ``type: object``, ``required`` and ``additionalProperties: false``;
    - name a non-empty str: ``type: string`` and ``minLength: 1`` (both
      count code points);
    - degree and unit ints >= 0: ``type: integer`` and ``minimum: 0``;
    - mult a list: ``type: array``;
    - every mult entry a list of three items: ``type: array``,
      ``minItems: 3``, ``maxItems: 3`` and ``items: false`` past the prefix;
    - its first two items ints >= 0 and its third a list of ints >= 0
      (``_naturals``): ``prefixItems``, with the nested ``items`` of the
      third.

    The converse fails (a degree of 2.0 is a JSON Schema integer), so False
    only means "ask jsonschema".
    """
    if type(data) is not dict or data.keys() != {"basis", "unit", "mult"}:
        return False
    basis, unit, mult = data["basis"], data["unit"], data["mult"]
    if type(basis) is not list or not basis or type(unit) is not int or unit < 0:
        return False
    for b in basis:
        if (type(b) is not dict or b.keys() != {"name", "degree"}
                or type(b["name"]) is not str or not b["name"]
                or type(b["degree"]) is not int or b["degree"] < 0):
            return False
    return (type(mult) is list
            and all(type(e) is list and len(e) == 3 and type(e[2]) is list
                    for e in mult)
            and _naturals(e[:2] for e in mult) and _naturals(e[2] for e in mult))


def ring_from_dict(data: dict, label: str = "ring") -> GradedRing:
    """Ring from its JSON form, checked against ``ring.schema.json``.

    Besides the schema, indices must be in range, a pair (i, j) may not be
    given outputs twice, and an entry may not list an output index twice:
    a repeat is rejected, not cancelled mod 2.

    The schema makes every index an int >= 0, so the three checks run in
    bulk: one ``max`` over the pairs and outputs, one key count of the
    pair -> outputs dict and set sizes of the entries with two or more
    outputs. Only a file that fails one of them is walked entry by entry
    (``_first_bad_entry``), to name its first bad entry in file order.
    """
    if not _plain_ring(data):
        data = _schema_integers(data, "ring")
    basis = [BasisElement(b["name"], b["degree"]) for b in data["basis"]]
    dim = len(basis)
    if not (0 <= data["unit"] < dim):
        raise InputError("unit index out of range")
    entries = data["mult"]
    mult = {(i, j): ks for i, j, ks in entries}
    if not (len(mult) == len(entries)
            and max(chain.from_iterable(chain(mult, mult.values())), default=0) < dim
            and all(len(set(ks)) == len(ks) for ks in mult.values() if len(ks) > 1)):
        raise _first_bad_entry(entries, dim)
    try:
        return GradedRing(basis, data["unit"], mult, label=label)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _first_bad_entry(entries: list, dim: int) -> InputError:
    """The error for the first mult entry, in file order, with an index out
    of range, a pair given before or an output index listed twice."""
    seen = set()
    for entry in entries:
        i, j, ks = entry
        if not (0 <= i < dim and 0 <= j < dim and all(0 <= k < dim for k in ks)):
            return InputError(f"mult entry {entry} has out-of-range indices")
        if (i, j) in seen:
            return InputError(f"duplicate mult entry for pair ({i}, {j})")
        if len(set(ks)) != len(ks):
            return InputError(f"mult entry {entry} lists an output index twice")
        seen.add((i, j))
    raise AssertionError("every mult entry is valid")


# -- complexes ---------------------------------------------------------------


def complex_to_dict(fc: FloerComplex) -> dict:
    gens = fc.morse.generators
    operators: dict[str, list[list[int]]] = {}
    for k in sorted(fc.ops):
        entries = sorted((row, col) for col, image in enumerate(fc.ops[k])
                         for row in _bits_of(image))
        if entries or k == 0:
            operators[str(k)] = [[row, col] for row, col in entries]

    out = {
        "dimL": fc.dimL,
        "NL": fc.NL,
        "generators": [{"name": g.name, "index": g.index} for g in gens],
        "operators": operators,
    }
    if fc.products is not None:
        # rows are visited in (i, j, k) order, so the triples come out sorted
        out["products"] = {
            str(l): [[i, j, k] for i, row in enumerate(fc.products[l])
                     for j, bits in enumerate(row)
                     for k in _bits_of(bits)]
            for l in sorted(fc.products)
        }
    return out


_COMPLEX_KEYS = {"dimL", "NL", "generators", "operators"}


def _plain_complex(data: Any) -> bool:
    """True only for data that ``complex.schema.json`` accepts; needs no
    jsonschema.

    As in ``_plain_loop``, ``type(x) is int`` is a JSON Schema integer (a
    bool is not), and each clause implies the schema keywords it names:

    - a dict whose keys are {dimL, NL, generators, operators}, optionally
      with products: ``type: object``, ``required`` and
      ``additionalProperties: false``;
    - dimL an int >= 0 and NL an int >= 2: ``type: integer`` with
      ``minimum: 0`` and ``minimum: 2``;
    - generators a list: ``type: array``;
    - every generator a dict with keys exactly {name, index}: its
      ``type: object``, ``required`` and ``additionalProperties: false``;
    - name a non-empty str: ``type: string`` and ``minLength: 1`` (both
      count code points);
    - index an int >= 0: ``type: integer`` and ``minimum: 0``;
    - operators and products dicts: ``type: object``;
    - every key a non-empty str of ASCII digits: it matches ``^[0-9]+$``,
      so ``additionalProperties: false`` passes it (``isdigit`` alone would
      pass '²'; the pattern, searched with ``$``, also matches "1\\n",
      which is left to jsonschema);
    - every value a list of lists of two (operators) or three (products)
      ints >= 0 (``_naturals``): that pattern's ``type: array``, and its
      ``items`` with ``type: array``, ``minItems``, ``maxItems``,
      ``items: false`` past the prefix and ``prefixItems``.

    The converse fails (dimL = 2.0 is a JSON Schema integer), so False only
    means "ask jsonschema".
    """
    if type(data) is not dict or data.keys() - {"products"} != _COMPLEX_KEYS:
        return False
    dimL, NL, gens = data["dimL"], data["NL"], data["generators"]
    if (type(dimL) is not int or dimL < 0 or type(NL) is not int or NL < 2
            or type(gens) is not list):
        return False
    for g in gens:
        if (type(g) is not dict or g.keys() != {"name", "index"}
                or type(g["name"]) is not str or not g["name"]
                or type(g["index"]) is not int or g["index"] < 0):
            return False
    for table, width in ((data["operators"], 2), (data.get("products", {}), 3)):
        if type(table) is not dict:
            return False
        for key, entries in table.items():
            if (type(key) is not str or not (key.isascii() and key.isdigit())
                    or type(entries) is not list
                    or not all(type(e) is list and len(e) == width for e in entries)
                    or not _naturals(entries)):
                return False
    return True


def _table_index(key: str, seen: dict[int, str], what: str) -> int:
    """The k a table key names; two keys may not name the same k.

    The key is read without its leading zeros, so no number of them hits
    the int-from-str digit limit; a value still beyond it is an input error.
    """
    digits = key.strip().lstrip("0") or "0"  # the schema allows a final "\n"
    try:
        k = int(digits)
    except ValueError as exc:
        raise InputError(f"{what} key of {len(digits)} significant digits is "
                         f"too long to read") from exc
    if k in seen:
        raise InputError(f"{what} keys {seen[k]!r} and {key!r} both name k = {k}")
    seen[k] = key
    return k


def complex_from_dict(data: dict) -> FloerComplex:
    """Complex from its JSON form, checked against ``complex.schema.json``.

    Besides the schema, generators must be in canonical order, entries in
    range and of the right degree shift, a table may not list an entry
    twice, and two operator (or product) keys may not name the same k, as
    "1" and "01" do: either repeat is rejected, not cancelled mod 2.
    """
    if not _plain_complex(data):
        data = _schema_integers(data, "complex")
    dimL, NL = data["dimL"], data["NL"]
    gens = [Generator(g["name"], g["index"]) for g in data["generators"]]
    canonical = sorted(gens, key=lambda g: (g.index, g.name))
    if gens != canonical:
        raise InputError("generators must be listed in canonical order, "
                         "sorted by (index, name)")
    morse = MorseComplex(gens, dimL)
    nu = (dimL + 1) // NL
    n = len(gens)

    ops: dict[int, tuple[int, ...]] = {}
    op_keys: dict[int, str] = {}
    for key, entries in data["operators"].items():
        k = _table_index(key, op_keys, "operator")
        if not entries:
            continue
        if k > nu:
            # no entry fits, and 1 - k * NL may be too long to print
            raise ShapeMismatch(f"operator index {k} outside 0..nu={nu}")
        images = [0] * n
        for row, col in entries:
            if row >= n or col >= n:
                raise InputError(f"operator {k} entry ({row}, {col}) out of range")
            if images[col] >> row & 1:
                raise InputError(f"operator {k} lists entry ({row}, {col}) twice")
            images[col] |= 1 << row
            shift = gens[row].index - gens[col].index
            if shift != 1 - k * NL:
                raise ShapeMismatch(
                    f"op_{k} entry {gens[col].name} -> {gens[row].name} has "
                    f"degree shift {shift}, expected {1 - k * NL}")
        ops[k] = tuple(images)

    products = None
    if "products" in data:
        products = {}
        product_keys: dict[int, str] = {}
        for key, triples in data["products"].items():
            l = _table_index(key, product_keys, "product")
            table: dict[tuple[int, int], list[int]] = {}
            seen = set()
            for i, j, k in triples:
                if max(i, j, k) >= len(gens):
                    raise InputError(f"product entry ({i}, {j}, {k}) out of range")
                if (i, j, k) in seen:
                    raise InputError(f"product table {key} lists entry "
                                     f"({i}, {j}, {k}) twice")
                seen.add((i, j, k))
                table.setdefault((i, j), []).append(k)
            products[l] = table

    return assemble(morse, NL, ops, products)


# -- loops ------------------------------------------------------------------


def loop_to_dict(loop: LagrangianLoop) -> dict:
    return {
        "n": loop.n,
        "samples": [[[[float(z.real), float(z.imag)] for z in row] for row in frame]
                    for frame in loop.samples],
    }


def _plain_loop(data: Any) -> bool:
    """True only for data that ``loop.schema.json`` accepts; needs no jsonschema.

    jsonschema's types are a dict for an object, a list for an array, an int
    or float that is not a bool for a number and an int for an integer, so
    each clause implies the schema keywords it names:

    - a dict whose keys are exactly {n, samples}: ``type: object``,
      ``required`` and ``additionalProperties: false``;
    - ``type(n) is int`` and n >= 1: ``type: integer`` (a bool is an int to
      Python but not to JSON Schema, hence ``type`` and not ``isinstance``)
      and ``minimum: 1``;
    - samples a non-empty list: ``type: array`` and ``minItems: 1``;
    - every frame and every row a list: the two nested ``type: array``;
    - every entry a list of two items: ``type: array``, ``minItems: 2``,
      ``maxItems: 2`` and ``items: false`` past the prefix;
    - each item's ``type`` int or float: ``prefixItems`` of ``type: number``.

    The converse fails (n = 2.0 is a JSON Schema integer, a tuple is not a
    list), so False only means "ask jsonschema".
    """
    if type(data) is not dict or data.keys() != {"n", "samples"}:
        return False
    n, samples = data["n"], data["samples"]
    if type(n) is not int or n < 1 or type(samples) is not list or not samples:
        return False
    number = (int, float)
    for frame in samples:
        if type(frame) is not list:
            return False
        for row in frame:
            if type(row) is not list:
                return False
            for z in row:
                if (type(z) is not list or len(z) != 2
                        or type(z[0]) not in number or type(z[1]) not in number):
                    return False
    return True


def loop_from_dict(data: dict) -> LagrangianLoop:
    if not _plain_loop(data):
        validate_against_schema(data, "loop")
    n, samples = data["n"], data["samples"]
    parts = _sample_array(samples, n)
    if parts is None:
        raise _first_bad_sample(samples, n)
    return _loop_of(parts)


def _sample_array(samples: list, n: int):
    """``samples`` as one (S, n, n, 2) float array of finite values, or None."""
    import numpy as np  # loop files only; maslov needs it anyway

    try:
        parts = np.array(samples, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        # ragged, a non-number, or an int beyond the float range
        return None
    if parts.shape != (len(samples), n, n, 2) or not np.isfinite(parts).all():
        return None
    return parts


def _loop_of(parts) -> LagrangianLoop:
    import numpy as np

    frames = parts.view(np.complex128)[..., 0]
    frames.flags.writeable = False
    return LagrangianLoop(frames.shape[1], frames)


def load_loop(path: str) -> LagrangianLoop:
    """``loop_from_dict(load_json(path))``, with most of its work skipped on
    a plain loop file.

    The file is read by ``load_json`` itself, so every read and decoding
    error is the same. The cyclic collector is paused from the read until
    the decoded lists are converted and released, and its prior state is
    restored however this ends: decoded JSON holds no reference cycles, so
    a collection could only walk its lists and free nothing. Any file that
    ``_decode_loop`` does not accept goes through ``loop_from_dict`` on the
    value ``load_json`` would have returned, so every message and exit code
    is unchanged.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        read = load_json(path, _decode_loop)
        if type(read) is LagrangianLoop:
            return read
    finally:
        if enabled:
            gc.enable()
    return loop_from_dict(read)


def _decode_loop(text: str) -> Any:
    """The loop a plain loop file holds, else its decoded JSON.

    A file is plain when its text has exactly four ``"`` and no ``true``,
    ``false`` or ``null`` token, the decoded data is a dict with keys
    exactly {n, samples}, ``type(n) is int`` with n >= 1, samples is a
    non-empty list, and ``_sample_array`` reads it with shape
    (len(samples), n, n, 2) and finite values. Then ``_plain_loop(data)``
    holds, clause by clause:

    - the dict and its keys are checked directly;
    - so are n and samples;
    - the two keys take the four ``"``, so the file holds no other string,
      and without the three tokens no bool or null: every other value is
      an int, a float, a list or an empty dict (a non-empty one has keys);
    - numpy descends only into lists here and converts no dict to a float
      (TypeError), so shape (S, n, n, 2) makes every frame, row and entry
      a list, every entry of two items, and every item a number, hence an
      int or a float.

    ``loop_from_dict`` would then read the same array, check the same shape
    and finiteness, and return the same loop.
    """
    data = json.loads(text)
    if text.count('"') != 4 or "true" in text or "false" in text or "null" in text:
        return data
    if type(data) is not dict or data.keys() != {"n", "samples"}:
        return data
    n, samples = data["n"], data["samples"]
    if type(n) is not int or n < 1 or type(samples) is not list or not samples:
        return data
    parts = _sample_array(samples, n)
    return data if parts is None else _loop_of(parts)


def _first_bad_sample(samples: list, n: int) -> InputError:
    """The error for the first sample that is not a finite n x n frame.

    Each sample is checked for its shape, then for an entry too large for a
    float, then for a NaN or infinite entry; the first sample with any of
    these defects is the one named.
    """
    import numpy as np

    for t, frame in enumerate(samples):
        if len(frame) != n or any(len(row) != n for row in frame):
            return InputError(f"sample {t} is not an {n} x {n} frame")
        try:
            parts = np.array(frame, dtype=np.float64)
        except OverflowError:
            return InputError(f"sample {t} has an entry too large for a float")
        if not np.isfinite(parts).all():
            return InputError(f"sample {t} has a NaN or infinite entry")
    raise AssertionError("every sample is a finite frame")


def load_json(path: str, decode: Callable[[str], Any] = json.loads) -> Any:
    """``decode`` of the UTF-8 text of ``path``.

    ``decode`` raises ValueError or RecursionError only for text that is not
    valid JSON, as ``json.loads`` does; those and OSError are InputErrors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decode(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable bytes and numbers past
        # int's digit limit; RecursionError, arrays or objects nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
