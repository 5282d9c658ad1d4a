"""Property tests: spectral pages of census complexes and their stored
obstructions, chain bitmasks, m_0.

Census complexes are small (at most four degrees of at most three
generators); ring complexes are the exterior and truncated rings of rank at
most 3 and 4 with a shift -1 derivation, so each example runs in
milliseconds.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (basis_mul, class_oracle, delta_oracle, lift_slots,
                     obstruction_oracle, operator_block, slots_chain,
                     z_coords_oracle)

from floeralg import f2linalg
from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import spectral as sp
from floeralg.errors import LiftFailure
from floeralg.f2linalg import F2Matrix, Subspace

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def census_complexes(draw):
    dims = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    NL = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**16))
    return fcx.random_complex_census(seed, dims, NL)


@st.composite
def ring_complexes(draw):
    ring = draw(st.sampled_from([ga.build_exterior(2), ga.build_exterior(3),
                                 ga.build_truncated_poly(2),
                                 ga.build_truncated_poly(4)]))
    d = draw(st.sampled_from(ga.enumerate_derivations(ring, -1)))
    return ring, fcx.complex_from_ring(ring, 2, derivation=d, with_products=True)


@SETTINGS
@given(census_complexes())
def test_page_dims_never_grow(census):
    fc, _ = census
    pages = sp.run_to_collapse(fc).pages
    for before, after in zip(pages, pages[1:]):
        assert all(b >= a for b, a in zip(before.dims(), after.dims()))


@SETTINGS
@given(census_complexes())
def test_every_delta_squares_to_zero(census):
    fc, _ = census
    for page in sp.run_to_collapse(fc).pages:
        shift = 1 - page.r * fc.NL
        for m in range(fc.dimL + 1):
            t = m + shift
            if 0 <= t <= fc.dimL:
                assert (page.delta_matrix(t) @ page.delta_matrix(m)).is_zero()


@SETTINGS
@given(census_complexes())
def test_pages_store_occupied_degrees_with_echelon_z_bases(census):
    # each lift is its Z vector in degree m plus parts in degrees m - s*NL, s < r
    fc, _ = census
    for page in sp.run_to_collapse(fc).pages:
        assert all(fc.morse.dim_at(m) > 0 for m in page.data)
        for m, deg in page.data.items():
            assert len(deg.lifts) == len(deg.quotient.sup.basis)
            for lift, z in zip(deg.lifts, deg.quotient.sup.basis):
                x, tail = lift_slots(fc, page.r, m, lift)
                assert x == z and lift == slots_chain(fc, m, (x,) + tail)


@SETTINGS
@given(census_complexes())
def test_boundary_spanning_vectors_are_independent(census):
    fc, _ = census
    for page in sp.run_to_collapse(fc).pages:
        for m, deg in page.data.items():
            vecs = list(deg.quotient.sub.basis)
            assert len(deg.b_chains) == len(vecs)
            assert Subspace.from_vectors(fc.morse.dim_at(m), vecs).dim == len(vecs)
            assert deg.quotient.sub == Subspace.from_vectors(fc.morse.dim_at(m), vecs)


@SETTINGS
@given(census_complexes())
def test_limit_page_matches_folded_and_window(census):
    fc, expected = census
    report = sp.check_convergence(sp.run_to_collapse(fc))
    assert report.ok
    for v in report.residues:
        assert v.einf == v.folded == v.window == expected[v.residue]


@SETTINGS
@given(census_complexes(), st.data())
def test_chain_and_vector_round_trip(census, data):
    fc, _ = census
    m = data.draw(st.integers(0, fc.dimL))
    positions = fc.morse.degree_positions(m)
    vec = data.draw(st.integers(0, (1 << len(positions)) - 1))
    chain = fc.vec_to_chain(vec, m)
    assert chain == {g for p, g in enumerate(positions) if (vec >> p) & 1}
    assert fc.chain_to_vec(chain, m) == vec


@SETTINGS
@given(ring_complexes(), st.data())
def test_product_vec_matches_ring_product(ring_complex, data):
    ring, fc = ring_complex
    # m_0 is the ring multiplication, taken pair by pair through the ring
    ring_index = {fc.morse.position_of(b.name): i for i, b in enumerate(ring.basis)}
    position = {i: p for p, i in ring_index.items()}
    m1, m2 = data.draw(st.integers(0, fc.dimL)), data.draw(st.integers(0, fc.dimL))
    v1 = data.draw(st.integers(0, (1 << fc.morse.dim_at(m1)) - 1))
    v2 = data.draw(st.integers(0, (1 << fc.morse.dim_at(m2)) - 1))
    a = [ring_index[g] for g in fc.vec_to_chain(v1, m1)]
    b = [ring_index[g] for g in fc.vec_to_chain(v2, m2)]
    prod = frozenset()
    for i in a:
        for j in b:
            prod ^= basis_mul(ring, i, j)
    mt = m1 + m2
    if mt > fc.dimL:
        expected = None if prod else 0
    else:
        expected = fc.chain_to_vec(frozenset(position[k] for k in prod), mt)
    assert fc.product_vec(m1, v1, m2, v2) == expected


# -- stored obstructions -------------------------------------------------------

# (dims, NL): census shapes with empty degrees or several pages
CENSUS_SHAPES = [((2, 0, 3, 0, 2, 0, 2), 2), ((1, 2, 4, 4, 2, 1), 3),
                 ((3, 0, 3, 0, 0, 3, 0, 2), 4), ((2, 3, 3, 2), 2)]


def fixed_census():
    return [fcx.random_complex_census(seed, dims, NL)[0]
            for seed in range(3) for dims, NL in CENSUS_SHAPES]


def assert_obs_and_delta_match_the_oracle(fc):
    for page in sp.run_to_collapse(fc).pages:
        for m, deg in page.data.items():
            assert len(deg.obs) == len(deg.lifts)
            for lift, o in zip(deg.lifts, deg.obs):
                assert o == obstruction_oracle(fc, page.r, m,
                                               *lift_slots(fc, page.r, m, lift))
        oracle = delta_oracle(fc, page.r, page.data)
        for m in range(fc.dimL + 1):
            assert page.delta_matrix(m) == oracle[m]


@SETTINGS
@given(census_complexes())
def test_stored_obstructions_and_delta_match_the_oracle(census):
    assert_obs_and_delta_match_the_oracle(census[0])


def test_stored_obstructions_and_delta_match_the_oracle_on_census():
    for fc in fixed_census():
        assert_obs_and_delta_match_the_oracle(fc)


@SETTINGS
@given(st.one_of(census_complexes().map(lambda census: census[0]),
                 ring_complexes().map(lambda ring_fc: ring_fc[1])))
def test_stored_classes_match_the_oracle_and_give_delta(fc):
    # each Z row's class is its obstruction's class in the target page (0
    # where the target is not stored), and delta_r's columns are the class
    # rows of the representatives
    for page in sp.run_to_collapse(fc).pages:
        for m, deg in page.data.items():
            t = m + 1 - page.r * fc.NL
            tgt = page.data.get(t)
            assert page.classes[m] == tuple(class_oracle(tgt, o) if tgt else 0
                                            for o in deg.obs)
            rows = []
            for q in page.reps(m):
                c = z_coords_oracle(deg, q)
                assert c & (c - 1) == 0  # a representative is one Z row
                rows.append(c.bit_length() - 1)
            assert page.delta[m] == F2Matrix.from_row_ints(
                [page.classes[m][i] for i in rows], page.dim(t))


def corruptions(fc):
    """(page, degree, data with one obstruction moved by a nonzero target class)."""
    for page in sp.run_to_collapse(fc).pages:
        for m, deg in page.data.items():
            t = m + 1 - page.r * fc.NL
            if not (0 <= t <= fc.dimL) or not deg.quotient.dim or not page.dim(t):
                continue
            # a Z generator that the first representative uses
            c = z_coords_oracle(deg, deg.quotient.reps.basis[0])
            i = next(f2linalg._bits_of(c))
            obs = list(deg.obs)
            obs[i] ^= page.reps(t)[0]
            data = dict(page.data)
            data[m] = dataclasses.replace(deg, obs=tuple(obs))
            yield page, m, data


def test_corrupted_obstruction_fails_the_second_lift(monkeypatch):
    # the corrupted delta may no longer square to zero; that check is turned
    # off so the second lift alone must notice
    monkeypatch.setattr(sp, "_assert_delta_squares", lambda *args: None)
    seen = 0
    for fc in fixed_census():
        for page, m, data in corruptions(fc):
            delta = sp._classify(fc, page.r, data)[1]
            assert delta[m] != page.delta[m]
            with pytest.raises(LiftFailure, match="depends on the lift"):
                sp._second_lift_check(fc, page.r, data, delta)
            seen += 1
    assert seen >= 10


def lift_corruptions(fc):
    """(page, degree, data with one stored lift moved in a slot y_s below m).

    The generator e added in degree m - s*NL has op_k e nonzero for some
    k < r - s, which breaks zig-zag equation s + k, and op_(r-s) e = 0, so
    the obstruction of every lift it enters is unchanged.
    """
    N = fc.NL
    for page in sp.run_to_collapse(fc).pages:
        r = page.r
        for m, deg in page.data.items():
            if m + 1 - r * N not in page.data or not deg.quotient.dim:
                continue
            # a Z generator that the perturbed first representative uses
            b = deg.quotient.sub.basis[0] if deg.quotient.sub.basis else 0
            i = next(f2linalg._bits_of(z_coords_oracle(deg, deg.quotient.reps.basis[0] ^ b)))
            for s in range(1, r):
                y = m - s * N
                for j in range(fc.morse.dim_at(y)):
                    if (operator_block(fc, r - s, y).mul_vec(1 << j)
                            or not any(operator_block(fc, k, y).mul_vec(1 << j)
                                       for k in range(r - s))):
                        continue
                    lifts = list(deg.lifts)
                    lifts[i] ^= 1 << (fc.morse.degree_offset(y) + j)
                    data = dict(page.data)
                    data[m] = dataclasses.replace(deg, lifts=tuple(lifts))
                    yield page, m, data


def test_corrupted_lift_fails_the_second_lift():
    # such generators need a nonzero page r >= 2, rare in small complexes
    shapes = CENSUS_SHAPES + [((2, 2, 2, 2, 2, 2, 2), 2), ((1, 2, 3, 3, 2, 1), 2)]
    seen = 0
    for fc in (fcx.random_complex_census(seed, dims, NL)[0]
               for seed in range(10) for dims, NL in shapes):
        for page, m, data in lift_corruptions(fc):
            assert sp._classify(fc, page.r, data)[1] == page.delta
            with pytest.raises(LiftFailure, match="breaks the zig-zag equations"):
                sp._second_lift_check(fc, page.r, data, page.delta)
            seen += 1
    assert seen >= 20


# -- carried degrees -----------------------------------------------------------


def carried_degrees(fc):
    """(page r, page r + 1, degree m) for each degree with no nonzero
    obstruction in or out on page r, which page r + 1 carries over: the
    same quotient object."""
    pages = sp.run_to_collapse(fc).pages
    for page, nxt in zip(pages, pages[1:]):
        for m, deg in page.data.items():
            sdeg = page.data.get(m - 1 + page.r * fc.NL)
            if not any(deg.obs) and not (sdeg and any(sdeg.obs)):
                assert nxt.data[m].quotient is deg.quotient
                yield page, nxt, m


def with_degree(page, m, **fields):
    return dataclasses.replace(page, data={**page.data, m: dataclasses.replace(
        page.data[m], **fields)})


def test_corrupted_lift_of_a_carried_degree_fails_the_turn():
    # flip the first generator of degree m in one stored lift: its Z part
    # no longer matches the stored echelon basis
    seen = 0
    for fc in fixed_census():
        for page, _, m in carried_degrees(fc):
            lifts = page.data[m].lifts
            if not lifts:
                continue
            broken = with_degree(page, m, lifts=(
                lifts[0] ^ 1 << fc.morse.degree_offset(m),) + lifts[1:])
            with pytest.raises(LiftFailure, match="dependent or non-echelon cycle basis"):
                sp.turn_page(broken, paranoid=False)
            seen += 1
    assert seen >= 50


def test_corrupted_image_of_a_carried_degree_fails_the_second_lift(monkeypatch):
    # move the stored D*lift of a representative's Z row by a representative
    # of the next page's target: the next obstruction, cut from it, moves
    # delta, and only the second lift, which multiplies by D afresh, sees it
    monkeypatch.setattr(sp, "_assert_delta_squares", lambda *args: None)
    shapes = CENSUS_SHAPES + [((2, 2, 2, 2, 2, 2, 2), 2), ((1, 2, 3, 3, 2, 1), 2)]
    seen = 0
    for fc in (fcx.random_complex_census(seed, dims, NL)[0]
               for seed in range(3) for dims, NL in shapes):
        for page, nxt, m in carried_degrees(fc):
            deg = page.data[m]
            t = m + 1 - nxt.r * fc.NL
            if not (nxt.dim(t) and deg.quotient.dim):
                continue
            i = deg.quotient.sup.basis.index(deg.quotient.reps.basis[0])
            images = list(deg.images)
            images[i] ^= nxt.reps(t)[0] << fc.morse.degree_offset(t)
            broken = with_degree(page, m, images=tuple(images))
            assert sp.turn_page(broken, paranoid=False).delta[m] != nxt.delta[m]
            with pytest.raises(LiftFailure, match="depends on the lift"):
                sp.turn_page(broken, paranoid=True)
            seen += 1
    assert seen >= 20


def test_corrupted_obstruction_of_a_carried_degree_fails_the_second_lift(monkeypatch):
    monkeypatch.setattr(sp, "_assert_delta_squares", lambda *args: None)
    seen = 0
    for fc in fixed_census():
        carried = {(nxt.r, m) for _, nxt, m in carried_degrees(fc)}
        for page, m, data in corruptions(fc):
            if (page.r, m) not in carried:
                continue
            delta = sp._classify(fc, page.r, data)[1]
            assert delta[m] != page.delta[m]
            with pytest.raises(LiftFailure, match="depends on the lift"):
                sp._second_lift_check(fc, page.r, data, delta)
            seen += 1
    assert seen >= 10


def test_the_page_engine_reads_no_operator_block():
    # lifts, obstructions, tail repairs and the second lift all read D:
    # once D is cached, the op_k themselves are taken away
    complexes = fixed_census()
    for ring in (ga.build_exterior(3), ga.build_truncated_poly(4)):
        complexes += [fcx.complex_from_ring(ring, 2, derivation=d)
                      for d in ga.enumerate_derivations(ring, -1)]
    for fc in complexes:
        fc.differential_images
        fc.ops = None
        assert len(sp.run_to_collapse(fc, paranoid=True).pages) == fc.nu + 2
