"""The generator-pair Leibniz check and the ring-hypothesis check, against
the all-pairs and all-triples oracles.

``check_leibniz`` tests d(1) = 0 and the pairs (degree-1 generator, basis
element); ``check_leibniz_all_pairs`` tests every basis pair. The two must
agree on every linear map, Leibniz or not, over a ring that meets
``require_leibniz_hypotheses``. That check (unit law and associativity on
degree-1 triples, over bitmask rows) must agree with ``check_unit`` and the
all-triples ``check_associative`` on seeded single-entry corruptions. The
derivations of a shift, found from one kernel, must be the brute-force
``derivations_oracle`` list, in its order. The Leibniz residue, gathered one
generator row at a time, must be the pair-by-pair ``leibniz_residue_oracle``
int, and the product preimages read off the table must multiply back to
their targets and give the derivations that the one-elimination
``product_preimages_oracle`` gives.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_associative,
    check_leibniz_all_pairs,
    check_unit,
    derivations_oracle,
    leibniz_residue_oracle,
    mult_table,
    product_preimages_oracle,
)

from floeralg import f2linalg as f2
from floeralg import gradedalg as ga
from floeralg import theorems as th
from floeralg.errors import InconsistentExtension, NotDegreeOneGenerated, RingAxiomFailure
from floeralg.f2linalg import F2Matrix



def _indices_at(ring, coords, d):
    """The basis indices whose coordinates in the degree-d slot are set."""
    idx = ring.degree_basis(d)
    return tuple(idx[q] for q in range(len(idx)) if (coords >> q) & 1)


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
            old_of[i] = frozenset(_indices_at(ring, row, d))
    mult = {}
    for a in range(ring.dim):
        for b in range(ring.dim):
            prod = ring.mul(old_of[a], old_of[b])
            if prod:
                d = ring.basis[a].degree + ring.basis[b].degree
                new = to_new[d].mul_vec(ring._local(sum(1 << k for k in prod), d))
                mult[a, b] = _indices_at(ring, new, d)
    return ga.GradedRing(ring.basis, ring.unit, mult, label=f"{ring.label}_rebased")


RINGS = [ga.build_exterior(n) for n in range(1, 6)] + \
    [ga.build_truncated_poly(n) for n in range(1, 6)] + \
    [rebased(ga.build_exterior(3), 1), rebased(ga.build_exterior(4), 2)]


def _target(ring, shift, i):
    """The basis of the degree d(e_i) lies in."""
    return ring.degree_basis(ring.basis[i].degree + shift)


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
        images = tuple(sum(1 << k for k in _target(ring, shift, i) if draw(st.booleans()))
                       for i in range(ring.dim))
        return ga.Derivation(ring, shift, images)
    if kind == "flipped":
        flippable = [i for i in range(ring.dim) if _target(ring, shift, i)]
        if flippable:
            i = draw(st.sampled_from(flippable))
            k = draw(st.sampled_from(_target(ring, shift, i)))
            images = list(d.images)
            images[i] ^= 1 << k
            return ga.Derivation(ring, shift, tuple(images))
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
    mult = mult_table(ring)
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
        assert any(len(prod) > 1 for prod in mult_table(ring).values())
        ring.require_leibniz_hypotheses()
        assert len(ga.enumerate_derivations(ring, -1)) == 2 ** n


def zero_products(n):
    """A unit and n degree-1 generators whose products are all zero: for
    n >= 2 every nonzero shift -1 assignment is inconsistent."""
    basis = [ga.BasisElement("1", 0)] + [ga.BasisElement(f"x{i}", 1) for i in range(1, n + 1)]
    mult = {(0, 0): (0,)}
    for i in range(1, n + 1):
        mult[0, i] = mult[i, 0] = (i,)
    return ga.GradedRing(basis, 0, mult, label=f"zero_products_{n}")


def one_relation():
    """The exterior algebra on a, b, c modulo bc = ab + ac, so abc = 0. A
    shift -1 derivation has d(a) = d(b) = d(c): its only nonzero one sends
    all three to 1, a kernel vector of three assignment bits."""
    names = ["1", "a", "b", "c", "ab", "ac"]
    basis = [ga.BasisElement(n, len(n) if n != "1" else 0) for n in names]
    mult = {(0, i): (i,) for i in range(6)} | {(i, 0): (i,) for i in range(6)}
    mult |= {(1, 2): (4,), (2, 1): (4,), (1, 3): (5,), (3, 1): (5,),
             (2, 3): (4, 5), (3, 2): (4, 5)}
    return ga.GradedRing(basis, 0, mult, label="one_relation")


ENUMERATED = [ga.build_exterior(n) for n in range(1, 5)] + \
    [ga.build_truncated_poly(n) for n in range(1, 7)] + RINGS[-2:] + \
    [zero_products(1), zero_products(3), one_relation(), rebased(one_relation(), 3)]


def _assignment_bits(ring, shift):
    return len(ring.degree_basis(1)) * len(ring.degree_basis(1 + shift) if 1 + shift >= 0 else ())


@st.composite
def ring_shifts(draw):
    """A ring and a shift of at most 12 generator-assignment bits."""
    ring = draw(st.sampled_from(ENUMERATED))
    return ring, draw(st.sampled_from([s for s in range(-3, 4)
                                       if _assignment_bits(ring, s) <= 12]))


@settings(max_examples=60, deadline=None)
@given(ring_shifts())
def test_derivations_match_the_brute_force_oracle(case):
    ring, shift = case
    oracle = derivations_oracle(ring, shift)
    assert [d.images for d in ga.enumerate_derivations(ring, shift)] == [d.images for d in oracle]
    # the NL = 2 witness is the first nonzero shift -1 derivation
    first = next((d for d in derivations_oracle(ring, -1) if not d.is_zero()), None)
    witness = th.audin_general(ring, 2).witness
    assert (witness and witness["generator_values"]) == (first and first.generator_values())


def test_oracle_rings_cover_inconsistent_assignments_and_dependencies():
    assert [len(derivations_oracle(r, -1)) for r in ENUMERATED[-4:]] == [2, 1, 2, 2]
    assert [d.generator_values() for d in ga.enumerate_derivations(one_relation(), -1)] == [
        {"a": (), "b": (), "c": ()}, {"a": ("1",), "b": ("1",), "c": ("1",)}]


def fresh(ring):
    """A copy of the ring with caches of its own."""
    return ga.GradedRing(ring.basis, ring.unit, mult_table(ring), label=ring.label)


@st.composite
def residue_cases(draw):
    """A ring, a shift and images: random multi-bit images of every basis
    element, or the extension of random degree-1 values (a derivation only
    when they are consistent)."""
    ring = draw(st.sampled_from(ENUMERATED))
    shift = draw(st.integers(-3, 3))
    images = []
    for i in range(ring.dim):
        target = _target(ring, shift, i)
        bits = draw(st.integers(0, (1 << len(target)) - 1))
        images.append(sum(1 << k for q, k in enumerate(target) if bits >> q & 1))
    if draw(st.booleans()):
        gens = set(ring.degree_basis(1))
        images = list(ga._extend(ring, [x if i in gens else 0 for i, x in enumerate(images)]))
    return ring, images


@settings(max_examples=300, deadline=None)
@given(residue_cases())
def test_residue_rows_match_the_pairwise_oracle(case):
    ring, images = case
    assert ga._leibniz_residue(ring, images) == leibniz_residue_oracle(ring, images)


def no_single_products():
    """Degree-1 x, y and degree-2 u, v, w with x x = u + v, x y = u + w and
    y x = u + v + w: generated in degree 1, but no product is a basis element."""
    names = [("1", 0), ("x", 1), ("y", 1), ("u", 2), ("v", 2), ("w", 2)]
    basis = [ga.BasisElement(n, d) for n, d in names]
    mult = {(0, i): (i,) for i in range(6)} | {(i, 0): (i,) for i in range(1, 6)}
    mult |= {(1, 1): (3, 4), (1, 2): (3, 5), (2, 1): (3, 4, 5)}
    return ga.GradedRing(basis, 0, mult, label="no_single_products")


@pytest.mark.parametrize("ring, solved", [
    (RINGS[-2], {2: 1}), (RINGS[-1], {2: 6, 3: 1}), (no_single_products(), {2: 3}),
    (ga.build_exterior(4), {}), (ga.build_truncated_poly(5), {}),
], ids=lambda x: x.label if isinstance(x, ga.GradedRing) else str(x))
def test_preimages_multiply_back_to_their_targets(ring, solved, monkeypatch):
    # ``solved``: degree -> elements no single product hits, left to solve_many
    ring, rhs = fresh(ring), []
    degrees = [d for d in ring.degrees() if d >= 2]
    oracle_pairs = {d: product_preimages_oracle(ring, d)[0] for d in degrees}
    solve_many = f2.solve_many

    def counted(m, bs):
        rhs.append(len(bs))
        return solve_many(m, bs)
    monkeypatch.setattr(f2, "solve_many", counted)
    solved_at = {}
    for d in degrees:
        pair_cols, coords = ring._product_preimages(d)
        assert pair_cols == oracle_pairs[d]
        for e, c in zip(ring.degree_basis(d), coords):
            product = 0
            for q in f2._bits_of(c):
                g, f = pair_cols[q]
                product ^= ring.rows[g].get(f, 0)
            assert product == 1 << e
        if rhs:
            solved_at[d] = rhs.pop()
    assert solved_at == solved


def test_derivations_do_not_depend_on_the_preimages():
    differ, rng = 0, random.Random(5)
    for base in ENUMERATED + [no_single_products()]:
        engine, oracle = fresh(base), fresh(base)
        degrees = [d for d in base.degrees() if d >= 2]
        oracle.__dict__["_preimage_cache"] = {
            d: product_preimages_oracle(oracle, d) for d in degrees}
        differ += any(engine._product_preimages(d) != oracle._product_preimages(d)
                      for d in degrees)
        for shift in range(-3, 4):
            assert ([d.images for d in ga.derivation_basis(engine, shift)]
                    == [d.images for d in ga.derivation_basis(oracle, shift)])
            target = engine.degree_basis(1 + shift) if 1 + shift >= 0 else ()
            for _ in range(8):
                values = {g: frozenset(k for k in target if rng.random() < 0.5)
                          for g in engine.degree_basis(1)}
                outcomes = []
                for ring in (engine, oracle):
                    try:
                        outcomes.append(ga.derivation_from_generator_values(
                            ring, shift, values).images)
                    except InconsistentExtension:
                        outcomes.append(None)
                assert outcomes[0] == outcomes[1]
    assert differ  # the two choices of preimages are not the same everywhere


def test_rank_8_exterior_preimages_need_no_elimination(monkeypatch):
    def no_elimination(m, bs):
        raise AssertionError("solve_many called")
    monkeypatch.setattr(f2, "solve_many", no_elimination)
    ring = fresh(ga.build_exterior(8))
    for d in range(2, 9):
        ring._product_preimages(d)


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
             lambda: ga.check_leibniz(ga.Derivation(ring, 0, (0,) * ring.dim)),
             lambda: th.audin_general(ring, 2)]
    for call in calls:
        with pytest.raises(RingAxiomFailure, match="unit law at a"):
            call()
    # an input error of its own, not a contradiction the derivation search skips
    assert not issubclass(RingAxiomFailure, InconsistentExtension)


def test_first_associativity_failure_is_named():
    # F2[a]/(a^4) with a^2 a = a^3 dropped: still generated in degree 1
    # (a a^2 = a^3 stays), but (a a) a = 0 != a^3 = a (a a)
    ring = ga.build_truncated_poly(3)
    mult = mult_table(ring)
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
