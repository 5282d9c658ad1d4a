"""The generator-pair Leibniz check and the ring-hypothesis check, against
the all-pairs and all-triples oracles.

``check_leibniz`` tests d(1) = 0 and the pairs (degree-1 generator, basis
element); ``check_leibniz_all_pairs`` tests every basis pair. The two must
agree on every linear map, Leibniz or not, over a ring that meets
``require_leibniz_hypotheses``. That check (unit law and associativity on
degree-1 triples, over bitmask rows) must agree with ``check_unit`` and the
all-triples ``check_associative`` on seeded single-entry corruptions.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import check_associative, check_leibniz_all_pairs, check_unit

from floeralg import f2linalg as f2
from floeralg import gradedalg as ga
from floeralg import theorems as th
from floeralg.errors import InconsistentExtension, NotDegreeOneGenerated, RingAxiomFailure
from floeralg.f2linalg import F2Matrix



def rebased(ring, seed):
    """The same ring in a seeded random basis of each degree, so products
    of basis elements are sums of several basis elements."""
    rng = random.Random(seed)
    to_new, old_of = {}, {}
    for d in ring.degrees():
        idx = ring.degree_basis(d)
        while True:  # row i of p is new basis element i in the old basis
            p = F2Matrix.from_row_ints([rng.getrandbits(len(idx)) for _ in idx], len(idx))
            if f2.rank(p) == len(idx):
                break
        to_new[d] = p.transpose().inverse()
        for i, row in zip(idx, p.bits):
            old_of[i] = ring.element_of(row, d)
    mult = {}
    for a in range(ring.dim):
        for b in range(ring.dim):
            prod = ring.mul(old_of[a], old_of[b])
            if prod:
                d = ring.basis[a].degree + ring.basis[b].degree
                new = to_new[d].mul_vec(ring.vector_of(prod, d))
                mult[a, b] = tuple(sorted(ring.element_of(new, d)))
    return ga.GradedRing(ring.basis, ring.unit, mult, label=f"{ring.label}_rebased")


RINGS = [ga.build_exterior(n) for n in range(1, 6)] + \
    [ga.build_truncated_poly(n) for n in range(1, 6)] + \
    [rebased(ga.build_exterior(3), 1), rebased(ga.build_exterior(4), 2)]


def _shape(ring, shift, d):
    return len(ring.degree_basis(d + shift)), len(ring.degree_basis(d))


@st.composite
def linear_maps(draw):
    """A derivation, a derivation with one entry flipped, or a random map."""
    ring = draw(st.sampled_from(RINGS))
    shift = draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(["derivation", "flipped", "random"]))
    if kind != "random":
        target = ring.degree_basis(1 + shift)
        values = {g: frozenset(k for k in target if draw(st.booleans()))
                  for g in ring.degree_basis(1)}
        try:
            d = ga.derivation_from_generator_values(ring, shift, values)
        except InconsistentExtension:
            kind = "random"
    if kind == "random":
        maps = {}
        for deg in ring.degrees():
            rows, cols = _shape(ring, shift, deg)
            maps[deg] = F2Matrix.from_row_ints(
                [draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)], cols)
        return ga.Derivation(ring, shift, maps)
    if kind == "flipped":
        degs = [deg for deg in ring.degrees() if all(_shape(ring, shift, deg))]
        if degs:
            deg = draw(st.sampled_from(degs))
            rows, cols = _shape(ring, shift, deg)
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            m = d.matrix(deg)
            maps = dict(d.maps)
            maps[deg] = F2Matrix.from_row_ints(
                [r ^ (1 << j) if r_i == i else r for r_i, r in enumerate(m.bits)], cols)
            return ga.Derivation(ring, shift, maps)
    return d


@settings(max_examples=300, deadline=None)
@given(linear_maps())
def test_generator_pairs_match_all_pairs(d):
    assert ga.check_leibniz(d) == check_leibniz_all_pairs(d)


def corrupted(ring, rng):
    """The ring with one output index toggled in one table entry, keeping
    the table degree-additive."""
    while True:
        i, j = rng.randrange(ring.dim), rng.randrange(ring.dim)
        target = ring.degree_basis(ring.basis[i].degree + ring.basis[j].degree)
        if target:
            break
    mult = dict(ring.mult)
    prod = set(mult.pop((i, j), ())) ^ {rng.choice(target)}
    if prod:
        mult[i, j] = tuple(sorted(prod))
    return ga.GradedRing(ring.basis, ring.unit, mult, label="corrupted")


def test_ring_check_matches_unit_and_associativity_oracles():
    outcomes = {"ok": 0, "axiom": 0, "generation": 0}
    for base in (ga.build_exterior(2), ga.build_exterior(3), RINGS[-2],
                 ga.build_truncated_poly(2), ga.build_truncated_poly(4)):
        for seed in range(40):
            ring = corrupted(base, random.Random(seed))
            if not ring.is_degree_one_generated():
                with pytest.raises(NotDegreeOneGenerated):
                    ring.require_leibniz_hypotheses()
                outcomes["generation"] += 1
            elif check_unit(ring) and check_associative(ring):
                ring.require_leibniz_hypotheses()
                outcomes["ok"] += 1
            else:
                with pytest.raises(RingAxiomFailure):
                    ring.require_leibniz_hypotheses()
                outcomes["axiom"] += 1
    assert all(outcomes.values()), outcomes


def test_rebased_rings_have_the_same_derivations():
    # several-term products: the same ring, the same derivation counts
    for ring, n in zip(RINGS[-2:], (3, 4)):
        assert any(len(prod) > 1 for prod in ring.mult.values())
        ring.require_leibniz_hypotheses()
        assert len(ga.enumerate_derivations(ring, -1)) == 2 ** n


def non_unital():
    # 1 a = 0 but a 1 = a
    return ga.GradedRing([ga.BasisElement("1", 0), ga.BasisElement("a", 1)], 0,
                         {(0, 0): (0,), (1, 0): (1,)}, label="non_unital")


def test_derivation_entry_points_require_the_ring_hypotheses():
    ring = non_unital()
    a = ring.index_of("a")
    calls = [lambda: ga.derivation_from_generator_values(ring, -1, {a: ring.one()}),
             lambda: ga.enumerate_derivations(ring, -1),
             lambda: ga.vanishing_lemma(ring, -2),
             lambda: ga.check_leibniz(ga.Derivation(ring, 0, {})),
             lambda: th.audin_general(ring, 2)]
    for call in calls:
        with pytest.raises(RingAxiomFailure, match="unit law at a"):
            call()
    # an input error of its own, not a contradiction iter_derivations skips
    assert not issubclass(RingAxiomFailure, InconsistentExtension)


def test_first_associativity_failure_is_named():
    # F2[a]/(a^4) with a^2 a = a^3 dropped: still generated in degree 1
    # (a a^2 = a^3 stays), but (a a) a = 0 != a^3 = a (a a)
    ring = ga.build_truncated_poly(3)
    mult = dict(ring.mult)
    del mult[2, 1]
    broken = ga.GradedRing(ring.basis, ring.unit, mult, label="broken")
    with pytest.raises(RingAxiomFailure,
                       match=r"^broken is not associative: \(a a\) a != a \(a a\)$"):
        broken.require_leibniz_hypotheses()


def test_maslov_two_disc_argument_at_rank_10_is_fast():
    start = time.monotonic()
    report = th.maslov_two_disc_argument(10)
    assert report.all_top_nonvanishing
    assert time.monotonic() - start < 6.0
