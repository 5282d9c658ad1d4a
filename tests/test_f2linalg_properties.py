"""Property tests for the int-row F2 core, with shrinking counterexamples."""

from functools import reduce
from operator import or_, xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (image_oracle, kernel_oracle, quotient_reps_oracle, rank_oracle,
                     rref_oracle, solve_oracle)

from floeralg import f2linalg as f2

MAX_DIM = 10


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=MAX_DIM):
    rows = draw(st.integers(0, max_dim)) if rows is None else rows
    cols = draw(st.integers(0, max_dim)) if cols is None else cols
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return f2.F2Matrix.from_row_ints(bits, cols)


@st.composite
def products(draw):
    """A pair (A, B) with A.cols == B.rows."""
    inner = draw(st.integers(0, MAX_DIM))
    return draw(matrices(cols=inner)), draw(matrices(rows=inner))


@given(matrices())
def test_transpose_is_entrywise_involution(m):
    t = m.transpose()
    assert (t.rows, t.cols) == (m.cols, m.rows)
    assert all(t.get(j, i) == m.get(i, j) for i in range(m.rows) for j in range(m.cols))
    assert t.transpose() == m


@given(products(), st.integers(0, (1 << MAX_DIM) - 1))
def test_matmul_transpose_and_action(pair, x):
    a, b = pair
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    x &= (1 << b.cols) - 1
    assert (a @ b).mul_vec(x) == a.mul_vec(b.mul_vec(x))


@given(matrices())
def test_rank_of_transpose(m):
    assert f2.rank(m) == f2.rank(m.transpose())


@given(matrices())
def test_rank_nullity(m):
    r = f2.rank(m)
    assert r + f2.kernel(m).dim == m.cols
    assert image_oracle(m).dim == r


@settings(max_examples=60)
@given(matrices(max_dim=7), st.integers(0, (1 << 7) - 1))
def test_solutions_are_a_coset_of_kernel(m, b):
    b &= (1 << m.rows) - 1
    solutions = {x for x in range(1 << m.cols) if m.mul_vec(x) == b}
    x0 = f2.solve_many(m, [b])[0]
    if x0 is None:
        assert not solutions
    else:
        assert solutions == {x0 ^ v for v in f2.kernel(m).vectors()}


@given(matrices())
def test_dense_and_entries_round_trip(m):
    dense = [[m.get(i, j) for j in range(m.cols)] for i in range(m.rows)]
    if m.rows:  # an empty list carries no column count
        assert f2.F2Matrix.from_dense(dense) == m
    entries = m.entries()
    assert entries == sorted(entries)
    assert f2.F2Matrix.from_entries(m.rows, m.cols, entries) == m
    assert all(r >> m.cols == 0 for r in m.bits)


# -- one elimination record per matrix -------------------------------------------


@st.composite
def systems(draw, max_dim=MAX_DIM):
    """A matrix (0 x n and n x 0 shapes included) and right-hand sides for it,
    some in its column span and some arbitrary, so often inconsistent."""
    m = draw(matrices(max_dim=max_dim))
    xs = draw(st.lists(st.integers(0, (1 << m.cols) - 1), max_size=4))
    others = draw(st.lists(st.integers(0, (1 << m.rows) - 1), max_size=4))
    bs = [m.mul_vec(x) for x in xs] + others
    return m, draw(st.permutations(bs))


@given(systems())
def test_solve_many_matches_one_elimination_per_rhs(system):
    m, bs = system
    assert f2.solve_many(m, bs) == [solve_oracle(m, b) for b in bs]
    assert [f2.solve_many(m, [b])[0] for b in bs] == [solve_oracle(m, b) for b in bs]


@st.composite
def sparse_wide_matrices(draw):
    """Up to 12 rows over up to 200 columns, each row zero or a few bits."""
    cols = draw(st.integers(0, 200))
    column = st.integers(0, max(cols - 1, 0))
    rows = draw(st.lists(st.sets(column, max_size=3 if cols else 0), max_size=12))
    return f2.F2Matrix.from_row_ints([sum(1 << j for j in row) for row in rows], cols)


@given(st.one_of(matrices(), sparse_wide_matrices(),
                 st.builds(f2.F2Matrix.zeros, st.integers(0, 12), st.integers(0, 200))),
       st.booleans())
def test_rank_and_kernel_match_the_oracle_elimination(m, eliminated):
    # rank counts pivots whether or not m already holds an Elimination
    if eliminated:
        f2.left_kernel(m)
        assert "_elimination" in m.__dict__
    assert f2.rank(m) == rank_oracle(m)
    assert f2.kernel(m) == kernel_oracle(m)
    # the cached record takes no part in equality, hashing or repr
    fresh = f2.F2Matrix.from_row_ints(list(m.bits), m.cols)
    assert fresh == m and hash(fresh) == hash(m) and repr(fresh) == repr(m)


@given(matrices(cols=0), matrices(rows=0))
def test_solve_many_on_empty_shapes(tall, wide):
    # n x 0: only b = 0 is solvable; 0 x n: b = 0 always is, with x = 0
    assert f2.solve_many(tall, [0, (1 << tall.rows) - 1]) == \
        [0, None if tall.rows else 0]
    assert f2.solve_many(wide, [0]) == [0]
    assert f2.solve_many(wide, []) == []


# -- the combination routine --------------------------------------------------


vector_lists = st.lists(st.integers(0, (1 << MAX_DIM) - 1), max_size=MAX_DIM)


@given(vector_lists, st.data())
def test_combine_is_the_xor_of_the_selected_vectors(vectors, data):
    c = data.draw(st.integers(0, (1 << len(vectors)) - 1))
    acc = 0
    for i in f2._bits_of(c):
        acc ^= vectors[i]
    assert f2._combine(vectors, c) == acc
    assert f2._combine(vectors, 0) == 0


@given(vector_lists, st.data())
def test_combine_is_linear_in_the_coefficients(vectors, data):
    top = (1 << len(vectors)) - 1
    c1, c2 = data.draw(st.integers(0, top)), data.draw(st.integers(0, top))
    assert f2._combine(vectors, c1 ^ c2) == \
        f2._combine(vectors, c1) ^ f2._combine(vectors, c2)


def is_reduced_echelon(rows):
    """Nonzero rows, lowest set bits strictly ascending, and no row holding
    another row's lowest set bit."""
    lows = [v & -v for v in rows]
    pivots = reduce(or_, lows, 0)
    return (all(lows) and all(a < b for a, b in zip(lows, lows[1:]))
            and all(v & pivots == low for v, low in zip(rows, lows)))


@given(matrices())
def test_from_vectors_gives_back_exactly_reduced_echelon_rows(m):
    # reduced echelon form is unique: rows come back unchanged iff they are
    # reduced echelon and independent, i.e. the canonical basis of their span
    canon = f2.Subspace.from_vectors(m.cols, m.bits)
    assert is_reduced_echelon(canon.basis)
    assert f2.Subspace.from_vectors(m.cols, canon.basis).basis == canon.basis
    assert (f2.Subspace.from_vectors(m.cols, m.bits).basis == m.bits) == \
        is_reduced_echelon(m.bits)
    if canon.dim >= 2:  # echelon with the same span, but not reduced
        rows = (canon.basis[0] ^ canon.basis[1],) + canon.basis[1:]
        assert not is_reduced_echelon(rows)
        assert f2.Subspace.from_vectors(m.cols, rows) == canon
    if canon.dim:  # reduced echelon rows plus a dependent one
        rows = canon.basis + canon.basis[:1]
        assert f2.Subspace.from_vectors(m.cols, rows).basis != rows
    with pytest.raises(ValueError):
        f2.Subspace.from_vectors(m.cols, (1 << m.cols,))


# -- the echelon routine against the column scan --------------------------------


@st.composite
def sparse_matrices(draw, max_rows=12, max_cols=200):
    """Wide matrices of sparse rows, zero rows and empty shapes frequent."""
    cols = draw(st.integers(0, max_cols))
    picks = st.lists(st.integers(0, cols - 1), max_size=3) if cols else st.just([])
    rows = draw(st.lists(picks, max_size=max_rows))
    return f2.F2Matrix.from_row_ints(
        [reduce(xor, (1 << j for j in row), 0) for row in rows], cols)


@given(st.one_of(matrices(), sparse_matrices()))
def test_rref_and_elimination_match_the_column_scan(m):
    red, pivots = rref_oracle(m.bits, m.cols)
    rank = len(pivots)
    assert f2._rref_ints(m.bits) == (red[:rank], pivots)
    assert not any(red[rank:])
    # T is invertible and T m = rref(m), zero rows past the rank
    rec = f2._elimination(m)
    assert rec.pivots == tuple(pivots)
    t = f2.F2Matrix(m.rows, m.rows, rec.transform)
    assert rank_oracle(t) == m.rows
    assert (t @ m).bits == tuple(red)


# -- the two reads that skip an elimination -------------------------------------


@st.composite
def nested_pairs(draw, max_dim=MAX_DIM):
    """(sub, sup) with sub ⊂ sup, ambient dimension 0 and the extremes sub = 0
    and sub = sup included."""
    amb = draw(st.integers(0, max_dim))
    sup = f2.Subspace.from_vectors(
        amb, draw(st.lists(st.integers(0, (1 << amb) - 1), max_size=max_dim)))
    top = (1 << sup.dim) - 1
    kind = draw(st.sampled_from(["zero", "full", "some"]))
    masks = {"zero": [], "full": [1 << i for i in range(sup.dim)],
             "some": draw(st.lists(st.integers(0, top), max_size=max_dim))}[kind]
    sub = f2.Subspace.from_vectors(amb, [f2._combine(sup.basis, c) for c in masks])
    return sub, sup


@given(nested_pairs())
def test_quotient_reps_equal_the_reduced_rows_eliminated(pair):
    sub, sup = pair
    qm = f2.quotient_map(sub, sup)
    want = quotient_reps_oracle(sub, sup)
    assert qm.reps == want and qm.reps.basis == want.basis
    assert qm.dim == sup.dim - sub.dim


@given(st.one_of(matrices(), sparse_matrices()))
def test_kernels_are_read_off_reduced_echelon(m):
    # the transform rows past the rank are taken as the basis as they stand
    for ker, want, amb in ((f2.kernel(m), kernel_oracle(m), m.cols),
                           (f2.left_kernel(m), kernel_oracle(m.transpose()), m.rows)):
        assert ker == want and ker.ambient_dim == amb
        assert is_reduced_echelon(ker.basis)
        assert f2.Subspace.from_vectors(amb, ker.basis).basis == ker.basis
