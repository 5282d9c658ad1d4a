"""Property tests: operator families stored as images over the generator
order, against the block-by-block oracles.

Each op_k is stored once, as its nonzero images op_k(g), and D as their XOR; the
census conjugation, the d^2 check, the folded homology, the paranoid tail
system and the page engine's lifts run on those, and the window and E_1
oracles cut their columns from each op_k. ``MorseComplex.glue`` places
per-degree blocks over the generator order and ``oracles.operator_block``
cuts a block back out; the oracles in ``oracles.py`` do each computation
block by block.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (census_oracle, d_squared_oracle, e1_blocks_oracle, flipped,
                     folded_homology_oracle, lift_slots, operator_block,
                     slot_pages, slots_chain, solve_oracle, tail_freedom_oracle,
                     window_homology_oracle, window_matrix_oracle)

from floeralg import f2linalg as f2
from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import serialize
from floeralg import spectral as sp
from floeralg.f2linalg import F2Matrix, Subspace

SETTINGS = settings(max_examples=40, deadline=None)

# dims of up to seven degrees, empty degrees included, within MAX_TOTAL_DIM
dims_lists = st.lists(st.integers(0, 4), min_size=1, max_size=7)
# up to twelve degrees, mostly empty
sparse_dims = st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=1, max_size=12)


@st.composite
def complexes(draw):
    """Census complexes, dense or sparse, and ring complexes with a shift -1
    derivation."""
    if draw(st.booleans()):
        ring = draw(st.sampled_from([ga.build_exterior(2), ga.build_exterior(3),
                                     ga.build_truncated_poly(2),
                                     ga.build_truncated_poly(4)]))
        d = draw(st.sampled_from(ga.enumerate_derivations(ring, -1)))
        return fcx.complex_from_ring(ring, 2, derivation=d)
    dims = draw(st.one_of(dims_lists, sparse_dims))
    return fcx.random_complex_census(draw(st.integers(0, 2**16)), dims,
                                     draw(st.integers(2, 5)))[0]


@st.composite
def oracle_complexes(draw):
    """Census complexes, dense or sparse, NL 2..7, so often with no op_1;
    and exterior-ring complexes with or without a Morse boundary op_0 and
    with or without a shift -1 derivation op_1."""
    if draw(st.booleans()):
        dims = draw(st.one_of(dims_lists, sparse_dims))
        return fcx.random_complex_census(draw(st.integers(0, 2**16)), dims,
                                         draw(st.integers(2, 7)))[0]
    n = draw(st.integers(1, 4))
    ring = ga.build_exterior(n)
    gens = ring.degree_basis(1)
    up, free, down = None, range(n), None
    if n >= 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(n)))[:3]
        up = ga.derivation_from_generator_values(
            ring, 1, {gens[a]: ring.mul(frozenset({gens[b]}), frozenset({gens[c]}))})
        free = [i for i in range(n) if i not in (b, c)]
    if draw(st.booleans()):
        sent = draw(st.sets(st.sampled_from(free)))
        down = ga.derivation_from_generator_values(ring, -1, {gens[i]: ring.one() for i in sent})
    return fcx.complex_from_ring(ring, 2, derivation=down, boundary=up)


@SETTINGS
@given(oracle_complexes())
def test_window_oracle_equals_the_blockwise_window(fc):
    assert sp.window_homology_dims(fc) == window_homology_oracle(fc)


@SETTINGS
@given(oracle_complexes())
def test_window_columns_are_the_blockwise_window_matrices(fc):
    # ranks alone hardly see a misplaced block (the T-shift is an
    # automorphism), so the columns filed for each differential l = -1..NL-1
    # are compared, in order, with the columns of the assembled matrix
    filed = []
    insert = f2._echelon_insert

    def recording(pivots, v):
        if not filed or filed[-1][0] is not pivots:
            filed.append((pivots, []))
        filed[-1][1].append(v)
        return insert(pivots, v)

    with mock.patch.object(f2, "_echelon_insert", recording):
        sp.window_homology_dims(fc)
    matrices = [window_matrix_oracle(fc, l) for l in range(-1, fc.NL)]
    assert [cols for _, cols in filed] == [list(m.transpose().bits) for m in matrices if m.cols]


@SETTINGS
@given(oracle_complexes())
def test_e1_oracle_equals_the_blockwise_e1(fc):
    # dims and every delta_1 matrix, bit for bit
    assert sp.e1_oracle(fc) == e1_blocks_oracle(fc)


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
    ops = dict(fc.ops)
    slots = [(k, m) for k in range(fc.nu + 1) for m in range(fc.dimL + 1)
             if 0 <= m + 1 - k * NL <= fc.dimL and dims[m] and dims[m + 1 - k * NL]]
    for _ in range(flips if slots else 0):
        k, m = rng.choice(slots)
        t = m + 1 - k * NL
        tgt = fc.morse.degree_positions(t)[rng.randrange(dims[t])]
        ops[k] = flipped(ops[k], fc.morse.degree_positions(m)[rng.randrange(dims[m])], tgt)
    bad = fcx.FloerComplex(fc.morse, NL, ops)
    assert fcx.check_d_squared(bad) == d_squared_oracle(bad)


def cut(morse, matrix, shift):
    """The nonzero blocks C^m -> C^(m+shift) of an n x n matrix over the
    generator order, by ascending m; entries outside them are ignored."""
    out = {}
    for m in range(morse.dimL + 1):
        src = morse.degree_positions(m)
        mask = (1 << len(src)) - 1
        bits = tuple(matrix.bits[t] >> morse.degree_offset(m) & mask
                     for t in morse.degree_positions(m + shift))
        if any(bits):
            out[m] = F2Matrix(len(bits), len(src), bits)
    return out


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
    assert cut(morse, glued, shift) == {m: b for m, b in blocks.items() if not b.is_zero()}
    # degree m starts after the generators of lower degree, occupied or not
    assert ([morse.degree_offset(m) for m in range(-1, len(dims) + 1)]
            == [sum(dims[:max(m, 0)]) for m in range(-1, len(dims) + 1)])


@SETTINGS
@given(complexes())
def test_operator_blocks_glue_back_to_the_stored_images(fc):
    # op_k cut into its blocks and glued again is ops[k]; a k past nu, a
    # negative k and degrees outside 0..dimL give zero blocks of the shape
    # (dim C^(m+1-k*NL), dim C^m), zero when either degree is empty
    morse = fc.morse
    for k in range(fc.nu + 1):
        blocks = {m: operator_block(fc, k, m) for m in range(fc.dimL + 1)}
        columns = morse.glue(blocks, 1 - k * fc.NL).transpose().bits
        assert {g: col for g, col in enumerate(columns) if col} == fc.ops.get(k, {})
    for k in (-1, fc.nu + 1):
        for m in range(-1, fc.dimL + 2):
            t = m + 1 - k * fc.NL
            assert operator_block(fc, k, m) == F2Matrix.zeros(morse.dim_at(t), morse.dim_at(m))
    for m in (-1, fc.dimL + 1):
        for k in range(fc.nu + 1):
            t = m + 1 - k * fc.NL
            assert operator_block(fc, k, m) == F2Matrix.zeros(morse.dim_at(t), 0)


@SETTINGS
@given(dims_lists, st.integers(2, 5), st.integers(0, 2**16))
def test_census_dict_round_trip(dims, NL, seed):
    d = serialize.complex_to_dict(fcx.random_complex_census(seed, dims, NL)[0])
    assert serialize.complex_to_dict(serialize.complex_from_dict(d)) == d


@SETTINGS
@given(complexes())
def test_folded_homology_equals_the_blockwise_fold(fc):
    assert fcx.folded_homology(fc) == folded_homology_oracle(fc)


@SETTINGS
@given(complexes())
def test_tail_freedom_solves_the_zig_zag_system(fc):
    # every tail solves sum_{j=1..s} op_(s-j) t_j = 0 for s = 1..depth, and
    # one exists exactly when the block system has a nonzero solution
    N = fc.NL
    for m in range(fc.dimL + 1):
        for depth in range(fc.nu + 2):
            chain = sp._tail_freedom(fc, m, depth)
            assert bool(chain) == bool(tail_freedom_oracle(fc, m, depth))
            if not chain:
                continue
            # the chain lies in the slots t_1..t_depth, degrees m - s*NL
            x, tail = lift_slots(fc, depth + 1, m, chain)
            assert x == 0 and chain == slots_chain(fc, m, (0,) + tail)
            assert len(tail) == depth and any(tail)
            for s in range(1, depth + 1):
                out = 0
                for j in range(1, s + 1):
                    out ^= operator_block(fc, s - j, m - j * N).mul_vec(tail[j - 1])
                assert out == 0


@SETTINGS
@given(complexes())
def test_page_engine_equals_the_slot_tuple_engine(fc):
    # the same pages, and each lift and antecedent chain is the slot
    # engine's tuple laid out over the generator order: y_s in degree
    # m - s*NL, and w_i of a page-r boundary in degree m - 1 + (r-1-i)*NL
    N = fc.NL
    for page, want in zip(sp.run_to_collapse(fc).pages, slot_pages(fc), strict=True):
        assert page.dims() == want.dims()
        assert page.delta == want.delta
        assert page.data.keys() == want.data.keys()
        for m, deg in page.data.items():
            w = want.data[m]
            assert page.reps(m) == want.reps(m)
            assert deg.obs == w.obs
            assert deg.lifts == tuple(slots_chain(fc, m, (g.vec,) + g.tail)
                                      for g in w.z_basis)
            # B as a span, and the chains as one linear map on it: each
            # echelon row's chain is the slot chains combined by the row's
            # coefficients over the slot engine's spanning vectors
            vecs = [b.vec for b in w.b_span]
            chains = [slots_chain(fc, m - 1 + (page.r - 1) * N, b.chain)
                      for b in w.b_span]
            assert deg.quotient.sub == Subspace.from_vectors(fc.morse.dim_at(m), vecs)
            b_matrix = F2Matrix.from_row_ints(vecs, fc.morse.dim_at(m)).transpose()
            assert len(deg.b_chains) == deg.quotient.sub.dim
            for b, chain in zip(deg.quotient.sub.basis, deg.b_chains):
                coeff = solve_oracle(b_matrix, b)
                assert coeff is not None
                assert chain == f2._combine(chains, coeff)


@SETTINGS
@given(complexes())
def test_boundary_chains_are_antecedents(fc):
    # b = sum_{i+k=r-1} op_k w_i with w_i in degree m - 1 + (r-1-i)*NL, read
    # through the op_k blocks; page 0 has no boundaries
    N = fc.NL
    for page in sp.run_to_collapse(fc).pages:
        r = page.r
        for m, deg in page.data.items():
            assert len(deg.b_chains) == deg.quotient.sub.dim
            assert r or not deg.b_chains
            top = m - 1 + (r - 1) * N
            for b, chain in zip(deg.quotient.sub.basis, deg.b_chains):
                w0, tail = lift_slots(fc, r, top, chain)
                ws = (w0,) + tail
                assert chain == slots_chain(fc, top, ws)
                out = 0
                for i, w in enumerate(ws):
                    out ^= operator_block(fc, r - 1 - i, top - i * N).mul_vec(w)
                assert out == b


# dims whose first or last degree (or both) may be forced empty
padded_dims = st.tuples(st.integers(0, 2), dims_lists, st.integers(0, 2)).map(
    lambda t: [0] * t[0] + t[1] + [0] * t[2])


@SETTINGS
@given(padded_dims, st.integers(2, 5), st.data())
def test_layout_lookups_equal_a_scan_of_the_generators(dims, NL, data):
    # every m in -2*NL..dimL + 3, since callers ask below degree 0 and past
    # dimL; the generators are given shuffled, the layout sorts them
    gens = [fcx.Generator(f"g{m}_{i}", m) for m, d in enumerate(dims) for i in range(d)]
    random.Random(len(gens)).shuffle(gens)
    morse = fcx.MorseComplex(gens, len(dims) - 1)
    n = len(gens)
    chain = data.draw(st.integers(0, (1 << n) - 1))
    for m in range(-2 * NL, morse.dimL + 4):
        positions = [p for p, g in enumerate(morse.generators) if g.index == m]
        assert morse.dim_at(m) == len(positions)
        assert morse.degree_offset(m) == sum(g.index < m for g in morse.generators)
        assert list(morse.degree_positions(m)) == positions
        assert morse.degree_mask(m) == sum(1 << p for p in positions)
        assert morse.part(chain, m) == sum((chain >> p & 1) << i
                                           for i, p in enumerate(positions))
