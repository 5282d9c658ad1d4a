"""Floer complex assembly, folded homology, products, synthetic corpus."""

import hashlib
import tracemalloc

import pytest
from oracles import flipped

from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import serialize
from floeralg import spectral as sp
from floeralg.errors import NotADifferential, ShapeMismatch


def ring_complex(n=2, NL=2, derivation=True, products=True):
    ring = ga.build_exterior(n)
    d = None
    if derivation:
        values = {g: (ring.one() if i == 0 else frozenset())
                  for i, g in enumerate(ring.degree_basis(1))}
        d = ga.derivation_from_generator_values(ring, 1 - NL, values)
    return fcx.complex_from_ring(ring, NL, derivation=d, with_products=products)


# -- assembly ---------------------------------------------------------------


def test_assemble_zero_higher_ops():
    ring = ga.build_exterior(2)
    fc = fcx.complex_from_ring(ring, 2)
    assert fc.nu == 1
    assert fcx.check_d_squared(fc).ok


def test_nu_formula():
    gens = [fcx.Generator(f"g{i}", i) for i in range(4)]
    morse = fcx.MorseComplex(gens, 3)
    fc = fcx.assemble(morse, 2, {})
    assert fc.nu == 2  # dimL=3, NL=2
    assert sorted(fc.ops) == [0]
    # op_1 and op_2 images are accepted at their stated degree shifts:
    # op_1(g2) = g1 and op_2(g3) = g0
    fc2 = fcx.assemble(morse, 2, {1: {2: 0b0010}, 2: {3: 0b0001}})
    assert sorted(fc2.ops) == [0, 1, 2]


def test_assemble_rejects_wrong_shape():
    gens = [fcx.Generator(f"g{i}", i) for i in range(4)]
    morse = fcx.MorseComplex(gens, 3)
    with pytest.raises(ShapeMismatch):
        fcx.assemble(morse, 2, {1: {4: 0b0001}})  # an image keyed at n
    with pytest.raises(ShapeMismatch):
        fcx.assemble(morse, 2, {1: {-1: 0b0001}})  # an image keyed at -1
    with pytest.raises(ShapeMismatch):
        fcx.assemble(morse, 2, {5: {}})  # operator index beyond nu


@pytest.mark.parametrize("k, images, message", [
    (0, {0: 0b0100}, r"^op_0\(g0\) has entries of wrong degree$"),  # g0 -> g2
    (0, {3: 0b0001}, r"^op_0\(g3\) has entries of wrong degree$"),  # past dimL
    (1, {1: 0b0010}, r"^op_1\(g1\) has entries of wrong degree$"),  # g1 -> g1
    (2, {2: 0b0001}, r"^op_2\(g2\) has entries of wrong degree$"),  # below degree 0
    (3, {}, r"^operator index 3 outside 0..nu=2$"),
    (1, {4: 0b0010}, r"^op_1 has an image at 4, outside 0..3$"),
    # two bad images given out of order: the first in generator order is named
    (1, {3: 0b0100, 1: 0b0010}, r"^op_1\(g1\) has entries of wrong degree$"),
])
def test_assemble_rejects_images_outside_their_degree(k, images, message):
    # dimL 3, NL 2: op_k maps degree m to m + 1 - 2k, and nu = 2
    morse = fcx.MorseComplex([fcx.Generator(f"g{i}", i) for i in range(4)], 3)
    with pytest.raises(ShapeMismatch, match=message):
        fcx.assemble(morse, 2, {k: images})


def test_assemble_rejects_broken_differential(t2):
    top, x1 = t2.morse.position_of("x1x2"), t2.morse.position_of("x1")
    bad = {1: flipped(t2.ops[1], top, x1)}  # op1(x1x2) += x1
    with pytest.raises(NotADifferential) as err:
        fcx.assemble(t2.morse, 2, bad)
    assert "witness" in str(err.value)


def test_perfect_morse_t2_reduces_to_op1_squared(t2):
    report = fcx.check_d_squared(t2)
    assert report.ok
    assert {e.l for e in report.entries} == {0, 1, 2}


def test_check_d_squared_detects_single_bit_corruption(t2):
    op_1 = flipped(t2.ops[1], t2.morse.position_of("x1x2"), t2.morse.position_of("x1"))
    broken = fcx.FloerComplex(t2.morse, 2, {0: t2.ops[0], 1: op_1})
    report = fcx.check_d_squared(broken)
    assert not report.ok
    l, witness = report.first_failure
    assert witness is not None


def test_check_d_squared_picks_out_nonzero_columns_once(monkeypatch):
    # a valid complex at the generator cap with nu = 500: D^2 has no nonzero
    # column, so none of the 1,001 identities reads a degree mask or walks
    # the generators again
    gens = [fcx.Generator(f"x{m:03d}_{i}", m) for m in range(1000) for i in range(10)]
    morse = fcx.MorseComplex(gens, 999)
    # op_0 sends each generator of even degree to its twin one degree up
    fc = fcx.assemble(morse, 2, {0: {g: 1 << (g + 10) for g in range(len(gens))
                                      if g // 10 % 2 == 0}})
    walks = mask_calls = 0

    class CountingTuple(tuple):
        def __iter__(self):
            nonlocal walks
            walks += 1
            return super().__iter__()

    degree_mask = fcx.MorseComplex.degree_mask

    def counting_mask(*args):
        nonlocal mask_calls
        mask_calls += 1
        return degree_mask(*args)

    monkeypatch.setattr(fcx.MorseComplex, "degree_mask", counting_mask)
    monkeypatch.setattr(morse, "generators", CountingTuple(morse.generators))
    report = fcx.check_d_squared(fc)
    assert fc.nu == 500 and report.ok and len(report.entries) == 1001
    assert (mask_calls, walks) == (0, 1)


def one_entry_keys_file(operators=True):
    """A complex file at the generator cap (10 generators per degree, dimL
    999, NL 2, so nu = 500) whose op_k, k = 1..500, hold one entry each:
    op_k(x{2k-1}_0) = x000_{k mod 10}. Every image lands in degree 0, where
    D is zero, so D^2 = 0."""
    gens = [{"name": f"x{m:03d}_{i}", "index": m} for m in range(1000) for i in range(10)]
    ops = {str(k): [[k % 10, (2 * k - 1) * 10]] for k in range(1, 501)} if operators else {}
    return {"dimL": 999, "NL": 2, "generators": gens, "operators": ops}


def test_operators_are_stored_as_their_nonzero_images():
    # 500 one-entry keys over 10,000 generators store 500 images, not
    # 501 x 10,000, and write back the entries they were read from
    data = one_entry_keys_file()
    fc = serialize.complex_from_dict(data)
    assert sum(map(len, fc.ops.values())) == 500
    assert fc.ops[0] == {}
    assert all(fc.ops[k] == {(2 * k - 1) * 10: 1 << k % 10} for k in range(1, 501))
    assert serialize.complex_to_dict(fc)["operators"] == {"0": [], **data["operators"]}
    assert fcx.folded_homology(fc) == {0: 4990, 1: 4990}  # D has rank 10


def test_operator_memory_follows_the_entries():
    # reading the 500 entries and folding costs about what the same file
    # with no operators does (peak traced allocations)
    def peak(data):
        tracemalloc.start()
        fcx.folded_homology(serialize.complex_from_dict(data))
        out = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return out

    with_ops, without = one_entry_keys_file(), one_entry_keys_file(operators=False)
    assert peak(with_ops) - peak(without) < 1 << 20


# -- folded homology -------------------------------------------------------------


def test_folded_homology_zero_ops_gives_cochain_dims():
    ring = ga.build_exterior(2)
    fc = fcx.complex_from_ring(ring, 2)
    assert fcx.folded_homology(fc) == {0: 2, 1: 2}


def test_folded_homology_t2_vanishes(t2):
    assert fcx.folded_homology(t2) == {0: 0, 1: 0}


def test_folded_homology_morse_only():
    # op_0 nonzero, higher zero: folded homology = folded Morse cohomology
    gens = [fcx.Generator("a", 0), fcx.Generator("b", 1), fcx.Generator("c", 1),
            fcx.Generator("d", 2)]
    # op_0(a) = b + c, op_0(b) = op_0(c) = d
    morse = fcx.MorseComplex(gens, 2)
    fc = fcx.assemble(morse, 2, {0: {0: 0b0110, 1: 0b1000, 2: 0b1000}})
    # H^0 = ker = 0... over the fold: residue 0 holds degrees {0, 2}
    hf = fcx.folded_homology(fc)
    # Morse cohomology: H^0 = 0 (a maps to b+c), H^1 = ker/im = 1/1... compute:
    # rank d0 = 1, rank d1 = 1: H^0 = 1-1 = 0, H^1 = (2-1)-1 = 0, H^2 = 1-1 = 0
    assert hf == {0: 0, 1: 0}


# -- product tables -----------------------------------------------------------------


def test_assemble_accepts_higher_product_table(t2):
    # m_1(x1, x2) = 1 has degree 1 + 1 - 2 = 0: assemble keeps it beside m_0,
    # and the complex file carries both tables
    i, j = t2.morse.position_of("x1"), t2.morse.position_of("x2")
    unit = t2.morse.position_of("1")
    fc = fcx.assemble(t2.morse, 2, {}, {0: t2.products[0], 1: {i: {j: 1 << unit}}})
    data = serialize.complex_to_dict(fc)
    assert data["products"]["0"] == serialize.complex_to_dict(t2)["products"]["0"]
    assert data["products"]["1"] == [[i, j, unit]]
    assert fc.products[1] == {i: {j: 1 << unit}}
    assert serialize.complex_to_dict(serialize.complex_from_dict(data)) == data


def test_missing_product_table_reads_as_zero(t2):
    # products given, but no m_0: every page product is zero
    fc = fcx.assemble(t2.morse, 2, {1: t2.ops[1]}, {1: {}})
    pages = sp.induced_page_product(sp.run_to_collapse(fc).pages, fc)
    assert all(not any(map(any, table))
               for page in pages for table in page.product.values())
    assert any(page.product for page in pages)


def test_product_entry_of_wrong_degree_rejected(t2):
    # m_0(x2, x1) lies in degree 2, not in the degree 1 of x2; of two such
    # pairs the first one in the order the rows were given is named
    x1, x2 = t2.morse.position_of("x1"), t2.morse.position_of("x2")
    m_0 = {x2: {x1: 1 << x2}, x1: {x2: 1 << x1}}
    with pytest.raises(ShapeMismatch, match=r"^m_0\(x2, x1\) has entries of wrong degree$"):
        fcx.assemble(t2.morse, 2, {}, {0: m_0})


def test_product_table_bound_enforced(t2):
    too_long = {0: t2.products[0], 3: {}}  # bound is 2*2//2 = 2
    with pytest.raises(ShapeMismatch):
        fcx.assemble(t2.morse, 2, {}, too_long)


# -- product Leibniz ---------------------------------------------------------------


def test_leibniz_classical_morse_case():
    fc = ring_complex(derivation=False)
    assert fcx.check_product_leibniz(fc).ok


def test_leibniz_derivation_case(t2):
    assert fcx.check_product_leibniz(t2).ok


def test_leibniz_corruption_reported(t2):
    # m_1(x1x2, x1) = x1: its op_1 image is the unit, which nothing balances
    top = t2.morse.position_of("x1x2")
    x1 = t2.morse.position_of("x1")
    products = {0: t2.products[0], 1: {top: {x1: 1 << x1}}}
    fc = fcx.FloerComplex(t2.morse, 2, t2.ops, products)
    report = fcx.check_product_leibniz(fc)
    assert not report.ok
    l, witness = report.first_failure
    assert l == 2 and witness == ("x1x2", "x1")


# -- synthetic corpus ---------------------------------------------------------------


def test_corpus_deterministic():
    a = fcx.random_complex_census(11, (1, 2, 2, 1), 2)[0]
    b = fcx.random_complex_census(11, (1, 2, 2, 1), 2)[0]
    assert serialize.canonical_json(serialize.complex_to_dict(a)) == \
        serialize.canonical_json(serialize.complex_to_dict(b))


def test_corpus_all_valid():
    for seed in range(25):
        fc = fcx.random_complex_census(seed, (1, 2, 2, 1), 2)[0]
        assert fcx.check_d_squared(fc).ok


def test_corpus_census_matches_folded_homology():
    for NL in (2, 3):
        for seed in range(25):
            fc, expected = fcx.random_complex_census(seed, (2, 2, 2, 2), NL)
            assert fcx.folded_homology(fc) == expected


def test_folded_dims_invariant_under_change_of_basis():
    # same pairing seed, conjugation differs with seed: dims agree via census
    fc1, e1 = fcx.random_complex_census(77, (1, 3, 3, 1), 2)
    fc2, e2 = fcx.random_complex_census(77, (1, 3, 3, 1), 2)
    assert e1 == e2
    assert fcx.folded_homology(fc1) == fcx.folded_homology(fc2)


def test_corpus_size_limit():
    with pytest.raises(ShapeMismatch):
        fcx.random_complex_census(1, (40, 40), 2)
    with pytest.raises(ShapeMismatch, match=f"exceeds {fcx.MAX_CENSUS_NL}"):
        fcx.random_complex_census(1, (1, 2, 1), fcx.MAX_CENSUS_NL + 1)


# The benchmark's census shapes: dense patterns and sparse ones with empty
# degrees, each at every NL in 2..7.
CENSUS_PATTERNS = ((2, 6, 10, 12, 10, 6, 2), (3, 5, 7, 7, 5, 3), (4, 8, 8, 4),
                   (1, 2, 4, 6, 6, 4, 2, 1), (2, 0, 0, 6, 0, 4, 0, 2),
                   (4, 0, 6, 0, 6, 0, 4), (3, 0, 5, 0, 0, 7, 0, 3),
                   (2, 0, 8, 0, 8, 0, 2, 0, 2))
# sha256 of the files ``corpus`` writes for them; homology dims alone would
# not notice a change to the generated operators
CENSUS_SHA256 = "39821737813bc3a35dc2f375384081a6d38e29f42dad48800fb9c3b1aaa13fec"


def test_census_output_is_bit_identical():
    h = hashlib.sha256()
    for dims in CENSUS_PATTERNS:
        for NL in range(2, 8):
            for seed in (0, 1):
                fc = fcx.random_complex_census(seed, dims, NL)[0]
                h.update(serialize.canonical_json(serialize.complex_to_dict(fc)).encode())
    assert h.hexdigest() == CENSUS_SHA256
