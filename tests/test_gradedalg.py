"""Graded rings, cup products, derivations and the vanishing argument."""

import itertools
from math import comb

import pytest

from floeralg import f2linalg as f2
from floeralg import gradedalg as ga
from oracles import check_associative, check_commutative, check_unit

from floeralg.errors import (
    InconsistentExtension,
    NotApplicable,
    NotDegreeOneGenerated,
    NotShiftMinusOne,
    SizeLimit,
    ZeroDerivation,
)


@pytest.fixture(scope="module")
def ext2():
    return ga.build_exterior(2)


@pytest.fixture(scope="module")
def ext3():
    return ga.build_exterior(3)


def witness_derivation(ring):
    values = {g: (ring.one() if i == 0 else frozenset())
              for i, g in enumerate(ring.degree_basis(1))}
    return ga.derivation_from_generator_values(ring, -1, values)


# -- ring builders -------------------------------------------------------------


def test_exterior_dims_are_binomial():
    r = ga.build_exterior(3)
    assert r.dims_by_degree() == {d: comb(3, d) for d in range(4)}


def test_exterior_no_signs(ext2):
    x1, x2 = ext2.element("x1"), ext2.element("x2")
    assert ext2.mul(x1, x2) == ext2.mul(x2, x1) == ext2.element("x1x2")


def test_exterior_top_class_all_orderings():
    r = ga.build_exterior(4)
    tops = set()
    for perm in itertools.permutations(["x1", "x2", "x3", "x4"]):
        e = r.one()
        for nm in perm:
            e = r.mul(e, r.element(nm))
        tops.add(e)
    assert tops == {r.element("x1x2x3x4")}


def test_exterior_size_limit():
    with pytest.raises(SizeLimit):
        ga.build_exterior(13)
    with pytest.raises(SizeLimit):
        ga.build_exterior(0)


def test_truncated_poly_dims():
    r = ga.build_truncated_poly(4)
    assert r.dims_by_degree() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


def test_truncated_poly_truncation():
    r = ga.build_truncated_poly(4)
    a = r.element("a")
    a2 = r.mul(a, a)
    a3 = r.mul(a2, a)
    assert r.mul(a2, a3) == frozenset()
    assert r.mul(a, a3) == r.element("a^4")


def test_ring_axioms_small():
    for ring in (ga.build_exterior(3), ga.build_truncated_poly(5)):
        assert check_unit(ring)
        assert check_commutative(ring)
        assert check_associative(ring)


# -- cup -------------------------------------------------------------------


def test_cup_unit_identity(ext3):
    for i in range(ext3.dim):
        assert ext3.mul(ext3.one(), frozenset({i})) == frozenset({i})


def test_cup_square_of_generator_vanishes(ext2):
    assert ext2.mul(ext2.element("x1"), ext2.element("x1")) == frozenset()


def test_cup_square_of_sum_vanishes(ext2):
    s = ext2.element("x1") ^ ext2.element("x2")
    assert ext2.mul(s, s) == frozenset()


# -- derivations ------------------------------------------------------------


def test_zero_values_give_zero_derivation(ext2):
    d = ga.derivation_from_generator_values(ext2, -1, {})
    assert d.is_zero()


def test_leibniz_expansion_on_product(ext2):
    d = witness_derivation(ext2)
    assert d.apply(ext2.element("x1x2")) == ext2.element("x2")


def test_shift_below_minus_one_forces_zero(ext2):
    assert len(ga.enumerate_derivations(ext2, -2)) == 1
    with pytest.raises(ValueError):
        ga.derivation_from_generator_values(
            ext2, -2, {ext2.index_of("x1"): ext2.one()})


def test_check_leibniz_accepts_constructions(ext3):
    for d in ga.enumerate_derivations(ext3, -1):
        assert ga.check_leibniz(d)


def test_check_leibniz_rejects_non_derivation(ext2):
    bad = ga.Derivation(ext2, -1, {
        0: f2.F2Matrix.zeros(0, 1),
        1: f2.F2Matrix.zeros(1, 2),
        2: f2.F2Matrix.from_dense([[0], [1]]),  # x1x2 -> x2, generators -> 0
    })
    assert not ga.check_leibniz(bad)


def test_derivation_kernel_is_subring():
    ring = ga.build_exterior(3)
    for d in ga.enumerate_derivations(ring, -1):
        kernel_basis = [frozenset({i}) for i in range(ring.dim)
                        if d.apply(frozenset({i})) == frozenset()]
        for a in kernel_basis:
            for b in kernel_basis:
                assert d.apply(ring.mul(a, b)) == frozenset()
        assert ring.one() in kernel_basis
        assert d.apply(ring.one()) == frozenset()


def test_inconsistent_extension_detected():
    # F2[a]/(a^3): shift -1 with d(a) = 1 forces d(a^3) = 3a^2 = a^2 != 0 = d(0)
    ring = ga.build_truncated_poly(2)
    with pytest.raises(InconsistentExtension):
        ga.derivation_from_generator_values(ring, -1, {ring.index_of("a"): ring.one()})


def test_truncated_poly_odd_degree_admits_derivation():
    ring = ga.build_truncated_poly(3)  # a^4 = 0, d(a^4) = 4a^3 = 0: consistent
    d = ga.derivation_from_generator_values(ring, -1, {ring.index_of("a"): ring.one()})
    assert d.apply(ring.element("a^2")) == frozenset()  # 2a = 0
    assert d.apply(ring.element("a^3")) == ring.element("a^2")


# -- enumeration ---------------------------------------------------------------


def test_enumeration_counts():
    assert len(ga.enumerate_derivations(ga.build_exterior(2), -1)) == 4
    ds3 = ga.enumerate_derivations(ga.build_exterior(3), -1)
    assert len(ds3) == 8
    assert sum(not d.is_zero() for d in ds3) == 7


def test_enumeration_requires_degree_one_generated():
    s2 = ga.GradedRing(
        [ga.BasisElement("1", 0), ga.BasisElement("u", 2)], 0,
        {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,)}, label="sphere")
    with pytest.raises(NotDegreeOneGenerated):
        ga.enumerate_derivations(s2, -1)


def test_enumeration_deterministic_order(ext2):
    a = ga.enumerate_derivations(ext2, -1)
    b = ga.enumerate_derivations(ext2, -1)
    assert [d.generator_values() for d in a] == [d.generator_values() for d in b]


# -- vanishing lemma -------------------------------------------------------------


def test_vanishing_certificate_exterior():
    ring = ga.build_exterior(3)
    cert = ga.vanishing_lemma(ring, -3)
    assert all(f.image_degree == -2 and f.image_dim == 0 for f in cert.generators)
    assert cert.replay(ring)


def test_vanishing_certificate_truncated_poly():
    ring = ga.build_truncated_poly(5)
    cert = ga.vanishing_lemma(ring, -2)
    assert cert.replay(ring)


def test_vanishing_not_applicable_at_shift_minus_one(ext2):
    with pytest.raises(NotApplicable):
        ga.vanishing_lemma(ext2, -1)
    assert sum(not d.is_zero() for d in ga.enumerate_derivations(ext2, -1)) == 3


def test_vanishing_matches_enumeration_oracle():
    for n in (2, 3):
        ring = ga.build_exterior(n)
        for shift in range(-2, -(n + 2), -1):
            cert = ga.vanishing_lemma(ring, shift)
            assert cert.replay(ring)
            derivs = ga.enumerate_derivations(ring, shift)
            assert len(derivs) == 1 and derivs[0].is_zero()


# -- top class ------------------------------------------------------------------


def test_top_class_witness_basic(ext2):
    d = witness_derivation(ext2)
    w = ga.top_class_nonvanishing(d)
    assert w.identity_holds and w.d_top_nonzero
    assert w.y == ("x2",)
    assert d.apply(ext2.element("x1x2")) == ext2.element("x2")


def test_top_class_relabeled_generator(ext3):
    values = {ext3.index_of("x1"): frozenset(), ext3.index_of("x2"): frozenset(),
              ext3.index_of("x3"): ext3.one()}
    d = ga.derivation_from_generator_values(ext3, -1, values)
    w = ga.top_class_nonvanishing(d)
    assert w.generator_order[0] == "x3"
    assert d.apply(ext3.element("x1x2x3")) == ext3.element("x1x2")
    assert w.identity_holds


def test_top_class_all_nonzero_derivations(ext3):
    nonzero = [d for d in ga.enumerate_derivations(ext3, -1) if not d.is_zero()]
    assert len(nonzero) == 7
    for d in nonzero:
        w = ga.top_class_nonvanishing(d)
        assert w.identity_holds and w.d_top_nonzero


def test_top_class_rejects_zero_and_wrong_shift(ext2):
    with pytest.raises(ZeroDerivation):
        ga.top_class_nonvanishing(ga.derivation_from_generator_values(ext2, -1, {}))
    zero2 = ga.enumerate_derivations(ext2, -2)[0]
    with pytest.raises((ZeroDerivation, NotShiftMinusOne)):
        ga.top_class_nonvanishing(zero2)
