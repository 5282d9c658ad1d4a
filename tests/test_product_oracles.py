"""Bitmask product checks against the pair-by-pair chain algorithms.

The two oracles below are the frozenset algorithms the bitmask code
replaced: the product-Leibniz check applies op_k and m_l to every generator
pair as chains, and the page-product builder round-trips representatives
through chains. They read op_k through ``oracles.operator_block(fc, k, m)``
and m_l from pair tables (built by the test, or read back from the
serialized triples), never from the bitmask views they check. Reports and
tables must agree exactly, witnesses included, on valid complexes and on
seeded single-entry corruptions of m_0, m_1 and op_1. The tables are those ``induced_page_product``
attaches to every page, so one kept from a page where it no longer holds
shows; on Hypothesis ring complexes they must also equal
``oracles.page_product_tables``, the builder that multiplies afresh on every
page and every degree pair. ``spectral._m0_products``, the m_0 routine the
engine ships, is checked against the chain product on its own.
"""

import random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply_product, chain_to_vec, pair_tables, vec_to_chain

from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import spectral as sp
from floeralg.errors import LeibnizFailure, LiftFailure


# -- frozenset chains --------------------------------------------------------


def apply_operator(fc, k, chain):
    """op_k on a chain, degree by degree."""
    out = frozenset()
    for m in {fc.morse.generators[g].index for g in chain}:
        t = m + 1 - k * fc.NL
        if 0 <= t <= fc.dimL:
            part = frozenset(g for g in chain if fc.morse.generators[g].index == m)
            block = oracles.operator_block(fc, k, m)
            out ^= vec_to_chain(fc, block.mul_vec(chain_to_vec(fc, part, m)), t)
    return out


# -- oracles -------------------------------------------------------------------


def leibniz_oracle(fc, tables):
    gens = range(len(fc.morse.generators))
    entries = []
    for l in range(fc.products_bound + fc.nu + 1):
        witness = None
        for x in gens:
            for y in gens:
                cx, cy = frozenset({x}), frozenset({y})
                lhs: frozenset = frozenset()
                rhs: frozenset = frozenset()
                for i in range(l + 1):
                    j = l - i
                    m_i = tables.get(i, {})
                    lhs ^= apply_operator(fc, j, apply_product(m_i, cx, cy))
                    rhs ^= apply_product(m_i, apply_operator(fc, j, cx), cy)
                    rhs ^= apply_product(m_i, cx, apply_operator(fc, j, cy))
                if lhs != rhs:
                    witness = (fc.morse.generators[x].name, fc.morse.generators[y].name)
                    break
            if witness:
                break
        entries.append(fcx.IdentityEntry(l, witness is None, witness))
    return fcx.IdentityReport(tuple(entries))


def page_tables_oracle(page, fc, m_tables):
    m_0 = m_tables.get(0, {})
    tables = {}
    for m1 in range(fc.dimL + 1):
        for m2 in range(fc.dimL + 1):
            if page.dim(m1) == 0 or page.dim(m2) == 0:
                continue
            mt = m1 + m2
            table = []
            for q1 in page.reps(m1):
                row = []
                for q2 in page.reps(m2):
                    chain = apply_product(m_0, vec_to_chain(fc, q1, m1),
                                          vec_to_chain(fc, q2, m2))
                    if mt > fc.dimL:
                        if chain:
                            raise LeibnizFailure("product escapes the grading")
                        row.append(0)
                        continue
                    vec = chain_to_vec(fc, chain, mt)
                    try:
                        row.append(page.class_coords(mt, vec))
                    except ValueError as exc:
                        raise LeibnizFailure("leaves the cycle space") from exc
                table.append(row)
            tables[(m1, m2)] = table
    return tables


def outcome(fn, *args):
    try:
        return fn(*args)
    except LeibnizFailure:
        return LeibnizFailure


# -- cases ---------------------------------------------------------------------


CRITERION_7_RINGS = (("exterior", 2), ("exterior", 3), ("exterior", 4),
                     ("truncated", 3), ("truncated", 5))


def build_ring(kind, n):
    return ga.build_exterior(n) if kind == "exterior" else ga.build_truncated_poly(n)


def criterion_7_complexes():
    """Ring complexes with their product tables."""
    for kind, n in CRITERION_7_RINGS:
        ring = build_ring(kind, n)
        for d in ga.enumerate_derivations(ring, -1):
            fc = fcx.complex_from_ring(ring, 2, derivation=d, with_products=True)
            yield fc, pair_tables(fc)


def corrupted(seed):
    """A ring complex of rank <= 4 with one entry of m_0, m_1 or op_1 flipped,
    and the product tables it was built from.

    Product corruptions keep the degree of m_l, so only the Leibniz identity
    can notice them; the complex is built without assemble's d^2 check.
    """
    rng = random.Random(seed)
    kind, n = rng.choice([("exterior", 2), ("exterior", 3), ("exterior", 4),
                          ("truncated", 3), ("truncated", 4)])
    ring = build_ring(kind, n)
    d = rng.choice(ga.enumerate_derivations(ring, -1))
    fc = fcx.complex_from_ring(ring, 2, derivation=d, with_products=True)
    morse, NL = fc.morse, fc.NL
    ops = dict(fc.ops)
    products = pair_tables(fc)
    rows = {l: {x: dict(row) for x, row in table.items()} for l, table in fc.products.items()}
    target = seed % 3
    if target < 2:
        table = products.setdefault(target, {})
        while True:
            x, y = rng.randrange(len(morse.generators)), rng.randrange(len(morse.generators))
            deg = morse.generators[x].index + morse.generators[y].index - target * NL
            if 0 <= deg <= morse.dimL and morse.dim_at(deg):
                break
        k = rng.choice(morse.degree_positions(deg))
        table[(x, y)] = table.get((x, y), frozenset()) ^ {k}
        row = rows.setdefault(target, {}).setdefault(x, {})
        row[y] = row.get(y, 0) ^ 1 << k
        if not row[y]:
            del row[y]
    else:
        slots = [m for m in range(morse.dimL + 1)
                 if 0 <= m + 1 - NL <= morse.dimL and morse.dim_at(m)
                 and morse.dim_at(m + 1 - NL)]
        m = rng.choice(slots)
        tgt = morse.degree_positions(m + 1 - NL)[rng.randrange(morse.dim_at(m + 1 - NL))]
        src = morse.degree_positions(m)[rng.randrange(morse.dim_at(m))]
        ops[1] = oracles.flipped(ops.get(1, {}), src, tgt)
    return fcx.FloerComplex(morse, NL, ops, rows), products


CORRUPTION_SEEDS = range(45)


# -- product Leibniz -------------------------------------------------------------


def test_leibniz_matches_oracle_on_criterion_7_rings():
    for fc, tables in criterion_7_complexes():
        assert fcx.check_product_leibniz(fc) == leibniz_oracle(fc, tables)


def test_leibniz_matches_oracle_on_t2_and_mixed_boundary(t2, mixed_boundary):
    for fc in (t2, mixed_boundary):
        report = fcx.check_product_leibniz(fc)
        assert report.ok
        assert report == leibniz_oracle(fc, pair_tables(fc))


def test_leibniz_matches_oracle_on_corruptions():
    failing = 0
    for seed in CORRUPTION_SEEDS:
        fc, tables = corrupted(seed)
        report = fcx.check_product_leibniz(fc)
        assert report == leibniz_oracle(fc, tables), seed
        failing += not report.ok
    assert failing >= len(CORRUPTION_SEEDS) // 3  # the corruptions are seen


# -- page products ---------------------------------------------------------------


def oracle_products(pages, fc, tables):
    """Each page's tables by ``page_tables_oracle``, or LeibnizFailure if
    the oracle fails on some page."""
    out = [outcome(page_tables_oracle, page, fc, tables) for page in pages]
    return LeibnizFailure if LeibnizFailure in out else out


def engine_products(pages, fc, paranoid):
    try:
        return [page.product for page in sp.induced_page_product(pages, fc, paranoid)]
    except LeibnizFailure:
        return LeibnizFailure


def assert_page_tables_match(fc, tables):
    """``induced_page_product`` on every page against the oracle, plain and
    paranoid: LeibnizFailure where the product tables break the Leibniz
    identity, and otherwise each page's tables, which no check may reject."""
    try:
        pages = sp.run_to_collapse(fc, paranoid=False).pages
    except LiftFailure:
        return 0
    expected = (oracle_products(pages, fc, tables)
                if leibniz_oracle(fc, tables).ok else LeibnizFailure)
    for paranoid in (False, True):
        assert engine_products(pages, fc, paranoid) == expected
    return len(pages)


def test_page_tables_match_oracle(t2, mixed_boundary):
    pages = sum(assert_page_tables_match(fc, tables)
                for fc, tables in criterion_7_complexes())
    for fc in (t2, mixed_boundary):
        pages += assert_page_tables_match(fc, pair_tables(fc))
    for seed in CORRUPTION_SEEDS:
        pages += assert_page_tables_match(*corrupted(seed))
    assert pages > 0


def test_page_tables_match_oracle_past_the_leibniz_checks(monkeypatch):
    # with the product-Leibniz gate and the page Leibniz check passed, the
    # corruptions that break the Leibniz identity reach the table builder
    # too, and its outcome must be the oracle's on every page
    gate = fcx.IdentityReport((fcx.IdentityEntry(0, True, None),))
    monkeypatch.setattr(sp, "check_product_leibniz", lambda fc: gate)
    monkeypatch.setattr(sp, "_page_leibniz", lambda *args: None)
    reached = 0
    for seed in CORRUPTION_SEEDS:
        fc, tables = corrupted(seed)
        try:
            pages = sp.run_to_collapse(fc, paranoid=False).pages
        except LiftFailure:
            continue
        assert engine_products(pages, fc, False) == oracle_products(pages, fc, tables), seed
        reached += not leibniz_oracle(fc, tables).ok
    assert reached >= len(CORRUPTION_SEEDS) // 3


@st.composite
def ring_complexes(draw):
    """A ring complex at NL 2 with products: F2[a]/(a^(n+1)), n <= 13, with
    op_1 a -> 1 or 0, or an exterior ring of rank <= 4 with some generators
    sent to 1 and, at rank >= 3, maybe the Morse boundary x_a -> x_b x_c
    (then x_b and x_c go to 0, as d^2 = 0 needs)."""
    if draw(st.booleans()):
        ring = ga.build_truncated_poly(draw(st.integers(1, 13)))
        down = ga.enumerate_derivations(ring, -1)
        return fcx.complex_from_ring(ring, 2, derivation=draw(st.sampled_from(down)),
                                     with_products=True)
    n = draw(st.integers(1, 4))
    ring = ga.build_exterior(n)
    gens = ring.degree_basis(1)
    up, free = None, range(n)
    if n >= 3 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(n)))[:3]
        up = ga.derivation_from_generator_values(
            ring, 1, {gens[a]: ring.mul(frozenset({gens[b]}), frozenset({gens[c]}))})
        free = [i for i in range(n) if i not in (b, c)]
    sent = draw(st.sets(st.sampled_from(free)))
    down = ga.derivation_from_generator_values(ring, -1, {gens[i]: ring.one() for i in sent})
    return fcx.complex_from_ring(ring, 2, derivation=down, boundary=up, with_products=True)


@settings(max_examples=40, deadline=None)
@given(ring_complexes(), st.booleans())
def test_page_tables_match_both_oracles_on_ring_complexes(fc, paranoid):
    pages = sp.run_to_collapse(fc, paranoid=False).pages
    got = engine_products(pages, fc, paranoid)
    assert got == oracle_products(pages, fc, pair_tables(fc))
    assert got == [oracles.page_product_tables(page, fc) for page in pages]


def test_product_vec_matches_chain_product(t2, mixed_boundary):
    # page representatives of ring complexes are mostly single generators,
    # so multiply random sums of generators as well
    rng = random.Random(5)
    complexes = [(fc, pair_tables(fc)) for fc in (t2, mixed_boundary)] + \
        [corrupted(seed) for seed in range(0, 45, 3)]
    for fc, tables in complexes:
        m_0 = tables.get(0, {})
        for m1 in range(fc.dimL + 1):
            for m2 in range(fc.dimL + 1):
                mt = m1 + m2
                for _ in range(8):
                    v1 = rng.getrandbits(fc.morse.dim_at(m1))
                    v2 = rng.getrandbits(fc.morse.dim_at(m2))
                    chain = apply_product(m_0, vec_to_chain(fc, v1, m1),
                                          vec_to_chain(fc, v2, m2))
                    expected = 0 if not chain else \
                        None if mt > fc.dimL else chain_to_vec(fc, chain, mt)
                    assert sp._m0_products(fc, fc.products.get(0, {}),
                                           m1, v1, m2, [v2]) == [expected]


def test_page_leibniz_detects_corrupted_table(t2):
    page = sp.induced_page_product(sp.run_to_collapse(t2).pages, t2)[1]
    tables = {key: [row[:] for row in table] for key, table in page.product.items()}
    tables[(1, 1)][0][1] ^= 1  # x1 * x2 on page 1, where delta_1 is nonzero
    with pytest.raises(LeibnizFailure):
        sp._page_leibniz(page, t2, tables)
