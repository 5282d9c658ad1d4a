"""F2 linear algebra on int rows: examples and invariants."""

import random

import pytest
from oracles import image_oracle

from floeralg import f2linalg as f2
from floeralg.errors import NotASubspace


def random_matrix(rng, rows, cols):
    return f2.F2Matrix.from_row_ints([rng.getrandbits(cols) for _ in range(rows)], cols)


# -- rank -----------------------------------------------------------------


def test_rank_identity():
    assert f2.rank(f2.F2Matrix.identity(3)) == 3


def test_rank_equal_rows():
    assert f2.rank(f2.F2Matrix.from_dense([[1, 1], [1, 1]])) == 1


def test_rank_transpose_random_64():
    rng = random.Random(640)
    m = random_matrix(rng, 64, 64)
    assert f2.rank(m) == f2.rank(m.transpose())


def test_rank_transpose_property():
    rng = random.Random(1)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(0, 12), rng.randint(0, 12))
        assert f2.rank(m) == f2.rank(m.transpose())


# -- kernel / image ----------------------------------------------------------


def test_kernel_zero_map():
    assert f2.kernel(f2.F2Matrix.zeros(2, 4)).dim == 4


def test_kernel_identity():
    assert f2.kernel(f2.F2Matrix.identity(3)).dim == 0


def test_kernel_members_annihilated():
    rng = random.Random(2)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        ker = f2.kernel(m)
        for v in ker.basis:
            assert m.mul_vec(v) == 0
        assert ker.dim + f2.rank(m) == m.cols


def test_image_zero_and_identity():
    assert image_oracle(f2.F2Matrix.zeros(3, 2)).dim == 0
    assert image_oracle(f2.F2Matrix.identity(4)) == f2.Subspace.full(4)


def test_image_contains_columns():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        im = image_oracle(m)
        for j in range(m.cols):
            assert im.contains(m.mul_vec(1 << j))
        assert im.dim == f2.rank(m)


# -- quotient -----------------------------------------------------------------


def test_quotient_equal_spaces():
    s = f2.Subspace.from_vectors(5, [0b101, 0b011])
    assert f2.quotient_map(s, s).dim == 0


def test_quotient_by_zero_injective():
    sup = f2.Subspace.from_vectors(6, [0b1, 0b110, 0b101000])
    qm = f2.quotient_map(f2.Subspace.zero(6), sup)
    assert qm.dim == sup.dim
    seen = {qm.project(v) for v in sup.vectors()}
    assert len(seen) == 1 << sup.dim


def test_quotient_projector_kills_exactly_sub():
    rng = random.Random(4)
    for _ in range(30):
        amb = rng.randint(2, 10)
        sup = f2.Subspace.from_vectors(amb, [rng.getrandbits(amb) for _ in range(5)])
        picks = [b for b in sup.basis if rng.random() < 0.5]
        sub = f2.Subspace.from_vectors(amb, picks)
        qm = f2.quotient_map(sub, sup)
        assert qm.dim == sup.dim - sub.dim
        for v in sup.vectors():  # exhaustive at ambient dim <= 10
            assert (qm.project(v) == 0) == sub.contains(v)


def test_quotient_rejects_non_subspace():
    sup = f2.Subspace.from_vectors(4, [0b0011])
    sub = f2.Subspace.from_vectors(4, [0b0100])
    with pytest.raises(NotASubspace):
        f2.quotient_map(sub, sup)


def test_quotient_dims_additive_for_nested_triple():
    rng = random.Random(5)
    for _ in range(30):
        amb = rng.randint(3, 10)
        c = f2.Subspace.from_vectors(amb, [rng.getrandbits(amb) for _ in range(6)])
        b = f2.Subspace.from_vectors(amb, [v for v in c.basis if rng.random() < 0.7])
        a = f2.Subspace.from_vectors(amb, [v for v in b.basis if rng.random() < 0.7])
        d_ca = f2.quotient_map(a, c).dim
        d_cb = f2.quotient_map(b, c).dim
        d_ba = f2.quotient_map(a, b).dim
        assert d_ca == d_cb + d_ba


# -- solve ---------------------------------------------------------------------


def test_solve_identity():
    m = f2.F2Matrix.identity(5)
    assert f2.solve_many(m, [0b10110])[0] == 0b10110


def test_solve_zero_matrix_inconsistent():
    assert f2.solve_many(f2.F2Matrix.zeros(3, 4), [0b001])[0] is None
    assert f2.solve_many(f2.F2Matrix.zeros(3, 4), [0])[0] == 0


def test_solve_random_solvable():
    rng = random.Random(6)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        b = m.mul_vec(rng.getrandbits(m.cols))
        x = f2.solve_many(m, [b])[0]
        assert x is not None and m.mul_vec(x) == b


def test_solution_set_is_coset_of_kernel():
    # exhaustive at small ambient dimension
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        ker = f2.kernel(m)
        b = m.mul_vec(rng.getrandbits(cols))
        solutions = {x for x in range(1 << cols) if m.mul_vec(x) == b}
        x0 = f2.solve_many(m, [b])[0]
        assert x0 in solutions
        assert solutions == {x0 ^ v for v in ker.vectors()}


# -- representation ---------------------------------------------------------


def test_payload_shape_and_padding():
    m = f2.F2Matrix.from_dense([[1, 0, 1], [0, 1, 1]])
    assert m.bits == (0b101, 0b110)  # row i packed with bit j = column j
    assert m.rows == 2 and m.cols == 3
    assert all(r >> m.cols == 0 for r in m.bits)
    with pytest.raises(ValueError):
        f2.F2Matrix.from_row_ints([0b1000], 3)  # bit beyond cols
    with pytest.raises(ValueError):
        f2.F2Matrix.from_row_ints([-1], 3)  # infinitely many bits
    with pytest.raises(ValueError):
        f2.F2Matrix(2, 3, (0b1,))  # row count disagrees with rows


def test_subspace_equality_is_payload_equality():
    a = f2.Subspace.from_vectors(4, [0b0011, 0b0110])
    b = f2.Subspace.from_vectors(4, [0b0101, 0b0110, 0b0011])
    assert a == b


def test_matmul_and_inverse():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 9)
        m = random_matrix(rng, n, n)
        if f2.rank(m) < n:
            continue
        assert m @ m.inverse() == f2.F2Matrix.identity(n)
        x = rng.getrandbits(n)
        assert m.mul_vec(m.inverse().mul_vec(x)) == x


def test_empty_shapes():
    z = f2.F2Matrix.zeros(0, 5)
    assert f2.rank(z) == 0 and f2.kernel(z).dim == 5
    z2 = f2.F2Matrix.zeros(4, 0)
    assert f2.rank(z2) == 0 and image_oracle(z2).dim == 0


def test_census_scale_elimination():
    # int-row elimination must stay usable at ~1000 columns
    import time
    rng = random.Random(1)
    m = random_matrix(rng, 1024, 1024)
    start = time.monotonic()
    r = f2.rank(m)
    assert f2.kernel(m).dim == 1024 - r
    assert time.monotonic() - start < 5.0
