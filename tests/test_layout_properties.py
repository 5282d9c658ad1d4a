"""Property tests: glued operator families against the block-by-block
oracles.

``MorseComplex.glue`` and ``cut`` are the only map between degree-local
and global coordinates, and the census conjugation and the d^2 check run
on glued matrices; the oracles in ``oracles.py`` do both block by block.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import census_oracle, d_squared_oracle

from floeralg import floercomplex as fcx
from floeralg import serialize
from floeralg.f2linalg import F2Matrix

SETTINGS = settings(max_examples=40, deadline=None)

# dims of up to seven degrees, empty degrees included, within MAX_TOTAL_DIM
dims_lists = st.lists(st.integers(0, 4), min_size=1, max_size=7)


@SETTINGS
@given(dims_lists, st.integers(2, 5), st.integers(0, 2**16))
def test_census_equals_the_blockwise_conjugation(dims, NL, seed):
    fc, expected = fcx.random_complex_census(seed, dims, NL)
    want, want_expected = census_oracle(seed, dims, NL)
    assert expected == want_expected
    assert fc.ops == want.ops  # op_0 is the Morse boundary


@SETTINGS
@given(dims_lists, st.integers(2, 4), st.integers(0, 2**16), st.integers(0, 3))
def test_d_squared_equals_the_blockwise_check(dims, NL, seed, flips):
    # flip bits in admissible blocks (both degrees occupied), so most
    # complexes fail some identity and the witnesses are compared too
    fc, _ = fcx.random_complex_census(seed, dims, NL)
    rng = random.Random(seed)
    ops = {k: dict(per) for k, per in fc.ops.items()}
    slots = [(k, m) for k in range(fc.nu + 1) for m in range(fc.dimL + 1)
             if 0 <= m + 1 - k * NL <= fc.dimL and dims[m] and dims[m + 1 - k * NL]]
    for _ in range(flips if slots else 0):
        k, m = rng.choice(slots)
        t = m + 1 - k * NL
        mat = ops.setdefault(k, {}).get(m) or F2Matrix.zeros(dims[t], dims[m])
        bits = list(mat.bits)
        bits[rng.randrange(dims[t])] ^= 1 << rng.randrange(dims[m])
        ops[k][m] = F2Matrix(mat.rows, mat.cols, tuple(bits))
    bad = fcx.FloerComplex(fc.morse, NL, ops)
    assert fcx.check_d_squared(bad) == d_squared_oracle(bad)


@SETTINGS
@given(dims_lists, st.data())
def test_cut_undoes_glue(dims, data):
    gens = [fcx.Generator(f"g{m}_{i}", m) for m, d in enumerate(dims) for i in range(d)]
    morse = fcx.MorseComplex(gens, len(dims) - 1)
    shift = data.draw(st.integers(-len(dims), len(dims)))
    blocks = {}
    for m in range(len(dims)):
        if 0 <= m + shift < len(dims):
            rows, cols = dims[m + shift], dims[m]
            bits = data.draw(st.lists(st.integers(0, (1 << cols) - 1),
                                      min_size=rows, max_size=rows))
            blocks[m] = F2Matrix(rows, cols, tuple(bits))
    glued = morse.glue(blocks, shift)
    assert morse.cut(glued, shift) == {m: b for m, b in blocks.items() if not b.is_zero()}


@SETTINGS
@given(dims_lists, st.integers(2, 5), st.integers(0, 2**16))
def test_census_dict_round_trip(dims, NL, seed):
    d = serialize.complex_to_dict(fcx.random_complex_census(seed, dims, NL)[0])
    assert serialize.complex_to_dict(serialize.complex_from_dict(d)) == d
