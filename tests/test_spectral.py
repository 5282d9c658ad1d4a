"""Spectral pages: worked example, oracles, collapse, products."""

import dataclasses
import hashlib

import pytest
from oracles import e1_blocks_oracle, operator_block, window_homology_oracle

from floeralg import f2linalg as f2
from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import serialize
from floeralg import spectral as sp
from floeralg.errors import LeibnizFailure, LiftFailure, ProductsAbsent


def corpus(seeds=range(8), dims_list=((1, 2, 2, 1), (2, 2, 2), (1, 3, 3, 1),
                                      (0, 2, 1, 2), (2, 0, 2)),
           nls=(2, 3)):
    for NL in nls:
        for seed in seeds:
            for dims in dims_list:
                yield fcx.random_complex_census(seed * 37 + NL, dims, NL)[0]


def all_operator_families(dims, NL):
    """Every operator family with valid degree shifts on the given degree
    pattern, as images over the generator order."""
    dimL = len(dims) - 1
    nu = (dimL + 1) // NL
    offset = [sum(dims[:m]) for m in range(dimL + 1)]
    slots = []  # one per admissible entry: (k, source, target generator)
    for k in range(nu + 1):
        for m in range(dimL + 1):
            t = m + 1 - k * NL
            if 0 <= t <= dimL:
                slots += [(k, offset[m] + j, offset[t] + i)
                          for i in range(dims[t]) for j in range(dims[m])]
    for assignment in range(1 << len(slots)):
        ops = {}
        for bit, (k, src, tgt) in enumerate(slots):
            images = ops.setdefault(k, [0] * sum(dims))
            images[src] |= (assignment >> bit & 1) << tgt
        yield ops


# -- page 0 -------------------------------------------------------------------


def test_page0_dims_and_delta(t2):
    p0 = sp.page0(t2)
    assert p0.dims() == [1, 2, 1]
    for m in range(3):
        assert p0.delta_matrix(m) == operator_block(t2, 0, m)  # bit-for-bit
    assert p0.delta_matrix(1).is_zero()  # perfect Morse function


# -- worked example ---------------------------------------------------------------


def test_t2_page1_dims(t2):
    p1 = sp.turn_page(sp.page0(t2))
    assert p1.dims() == [1, 2, 1]


def test_t2_page2_vanishes(t2):
    p1 = sp.turn_page(sp.page0(t2))
    p2 = sp.turn_page(p1)
    assert p2.dims() == [0, 0, 0]


def test_t2_delta1_kernel_structure(t2):
    p1 = sp.turn_page(sp.page0(t2))
    # delta_1 in degree 1 kills exactly span{x2} (= image from degree 2)
    d1 = p1.delta_matrix(1)
    ker = f2.kernel(d1)
    assert ker.dim == 1
    x2_vec = t2.chain_to_vec(frozenset({t2.morse.position_of("x2")}), 1)
    assert ker.contains(x2_vec)


def test_t2_collapse_and_convergence(t2):
    res = sp.run_to_collapse(t2)
    assert res.pages[-1].r == 2
    assert res.einf_residue_dims() == {0: 0, 1: 0}
    report = sp.check_convergence(res)
    assert report.ok
    for v in report.residues:
        assert v.einf == v.folded == v.window == 0


# -- structural properties ----------------------------------------------------------


def test_all_higher_ops_zero_freezes_pages():
    ring = ga.build_exterior(2)
    fc = fcx.complex_from_ring(ring, 2)
    res = sp.run_to_collapse(fc)
    for page in res.pages[1:]:
        assert page.dims() == [1, 2, 1]
        assert page.is_collapsed()


def test_nu_zero_when_nl_large():
    gens = [fcx.Generator(f"g{i}", i) for i in range(3)]
    morse = fcx.MorseComplex(gens, 2)
    fc = fcx.assemble(morse, 4, {})  # NL > dimL + 1 -> nu = 0
    assert fc.nu == 0
    res = sp.run_to_collapse(fc)
    assert res.pages[-1].r == 1
    dims1, _ = sp.e1_oracle(fc)
    assert {m: res.pages[1].dim(m) for m in range(3)} == dims1


def test_delta_out_of_range_is_zero(t2):
    res = sp.run_to_collapse(t2)
    last = res.pages[-1]
    for m in range(t2.dimL + 1):
        assert last.delta_matrix(m).is_zero()


def test_page_dims_non_increasing_on_corpus():
    for fc in corpus(seeds=range(5)):
        res = sp.run_to_collapse(fc)
        for a, b in zip(res.pages, res.pages[1:]):
            for m in range(fc.dimL + 1):
                assert b.dim(m) <= a.dim(m)


def test_delta_squared_zero_on_every_page():
    for fc in corpus(seeds=range(5)):
        for page in sp.run_to_collapse(fc).pages:
            for m in range(fc.dimL + 1):
                t = m + 1 - page.r * fc.NL
                if 0 <= t <= fc.dimL:
                    assert (page.delta_matrix(t) @ page.delta_matrix(m)).is_zero()


def test_quotient_dim_equals_rank_arithmetic():
    # the engine asserts this internally; exercise it across the corpus
    for fc in corpus(seeds=range(4)):
        res = sp.run_to_collapse(fc)
        for prev, page in zip(res.pages, res.pages[1:]):
            for m in range(fc.dimL + 1):
                sigma = m - 1 + prev.r * fc.NL
                ker = prev.dim(m) - f2.rank(prev.delta_matrix(m))
                im = f2.rank(prev.delta_matrix(sigma)) if 0 <= sigma <= fc.dimL else 0
                assert page.dim(m) == ker - im


# -- convergence and oracles -----------------------------------------------------


def test_convergence_on_corpus():
    for fc in corpus():
        report = sp.check_convergence(sp.run_to_collapse(fc))
        assert report.ok, [(v.residue, v.einf, v.folded, v.window)
                           for v in report.residues]


def test_e1_identification_on_corpus():
    for fc in corpus():
        page1 = sp.turn_page(sp.page0(fc))
        dims1, deltas1 = sp.e1_oracle(fc)
        for m in range(fc.dimL + 1):
            assert page1.dim(m) == dims1[m]
            assert page1.delta_matrix(m) == deltas1[m].transpose()


def test_window_oracle_matches_folded_on_corpus():
    for fc in corpus(seeds=range(5)):
        assert sp.window_homology_dims(fc) == fcx.folded_homology(fc)


def test_paranoid_mode_runs_clean():
    for fc in corpus(seeds=range(3)):
        sp.run_to_collapse(fc, paranoid=True)


def test_larger_complexes_deep_pages():
    # wider and deeper than the acceptance corpus: ranks near the cap,
    # page counts up to nu + 1 = 4
    cases = [((4, 8, 8, 4), 2, 5000), ((2, 6, 8, 6, 2), 2, 5001),
             ((5, 5, 5, 5), 3, 5002), ((3, 6, 6, 3), 4, 5003),
             ((2, 4, 6, 6, 4, 2), 5, 5004), ((8, 8, 8), 2, 5005)]
    for dims, NL, seed in cases:
        fc, expected = fcx.random_complex_census(seed, dims, NL)
        assert fcx.folded_homology(fc) == expected
        report = sp.check_convergence(sp.run_to_collapse(fc, paranoid=True))
        assert report.ok, (dims, NL)


def test_exhaustive_small_complexes():
    """All operator families on tiny degree patterns: every valid complex
    must satisfy the three-way dimension equality and the first-page
    identification. Exhaustive, not sampled."""
    from floeralg.errors import NotADifferential

    configs = [((1, 1, 1), 2), ((1, 2, 1), 2), ((2, 2), 2), ((1, 1, 1, 1), 3),
               ((1, 1), 2)]
    valid = 0
    for dims, NL in configs:
        gens = [fcx.Generator(f"c{m}_{i:02d}", m)
                for m in range(len(dims)) for i in range(dims[m])]
        morse = fcx.MorseComplex(gens, len(dims) - 1)
        for ops in all_operator_families(dims, NL):
            try:
                fc = fcx.assemble(morse, NL, ops)
            except NotADifferential:
                continue
            res = sp.run_to_collapse(fc, paranoid=True)
            einf = res.einf_residue_dims()
            assert einf == fcx.folded_homology(fc) == sp.window_homology_dims(fc)
            dims1, deltas1 = sp.e1_oracle(fc)
            page1 = res.pages[1]
            for m in range(fc.dimL + 1):
                assert page1.dim(m) == dims1[m]
                assert page1.delta_matrix(m) == deltas1[m].transpose()
            valid += 1
    assert valid > 100  # the sweep is not vacuous


# -- lift failure on broken input ---------------------------------------------------


def test_broken_differential_raises_lift_failure(t2):
    op_1 = list(t2.ops[1])
    op_1[t2.morse.position_of("x1x2")] ^= 1 << t2.morse.position_of("x1")
    # bypasses assemble validation
    broken = fcx.FloerComplex(t2.morse, 2, {0: t2.ops[0], 1: tuple(op_1)})
    with pytest.raises(LiftFailure):
        sp.run_to_collapse(broken)


@pytest.mark.parametrize("reorder", [lambda lifts: lifts[::-1],
                                     lambda lifts: lifts[:1] * len(lifts)],
                         ids=["reversed", "repeated"])
def test_lifts_out_of_echelon_order_raise_lift_failure(reorder):
    # two cycles in degree 0 and nothing to hit them: page 0 keeps both, and
    # its Z vectors must come back from the turn as the same echelon basis
    fc = fcx.assemble(fcx.MorseComplex([fcx.Generator("x", 0),
                                        fcx.Generator("y", 0)], 0), 2, {})
    page = sp.page0(fc)
    assert sp.turn_page(page).dims() == [2]
    deg = page.data[0]
    broken = dataclasses.replace(
        page, data={0: dataclasses.replace(deg, lifts=reorder(deg.lifts))})
    with pytest.raises(LiftFailure, match="dependent or non-echelon cycle basis"):
        sp.turn_page(broken)


# -- page products ------------------------------------------------------------------


def test_products_absent_raises():
    fc = fcx.complex_from_ring(ga.build_exterior(2), 2)
    with pytest.raises(ProductsAbsent):
        sp.induced_page_product(sp.run_to_collapse(fc).pages, fc)


def test_e0_product_is_m0(t2, t2_tables):
    pages = sp.induced_page_product(sp.run_to_collapse(t2).pages, t2)
    p0 = pages[0]
    for (m1, m2), table in p0.product.items():
        for i, gi in enumerate(t2.morse.degree_positions(m1)):
            for j, gj in enumerate(t2.morse.degree_positions(m2)):
                prod = t2_tables[0].get((gi, gj), frozenset())
                mt = m1 + m2
                expected = t2.chain_to_vec(prod, mt) if mt <= t2.dimL else 0
                assert table[i][j] == expected


def test_e1_product_equals_cup_table(t2, t2_tables):
    pages = sp.induced_page_product(sp.run_to_collapse(t2).pages, t2)
    p1 = pages[1]
    # perfect Morse: page-1 representatives are the standard basis
    for (m1, m2), table in p1.product.items():
        for i, gi in enumerate(t2.morse.degree_positions(m1)):
            for j, gj in enumerate(t2.morse.degree_positions(m2)):
                prod = t2_tables[0].get((gi, gj), frozenset())
                mt = m1 + m2
                expected = t2.chain_to_vec(prod, mt) if mt <= t2.dimL else 0
                assert table[i][j] == expected


def test_unit_class_is_identity_on_pages(t2):
    pages = sp.induced_page_product(sp.run_to_collapse(t2).pages, t2)
    for page in pages:
        if page.dim(0) == 0:
            continue
        unit_vec = t2.chain_to_vec(frozenset({t2.morse.position_of("1")}), 0)
        unit_coords = page.class_coords(0, unit_vec)
        for m in range(t2.dimL + 1):
            table = page.product.get((0, m))
            if table is None:
                continue
            for j in range(page.dim(m)):
                acc = 0
                c = unit_coords
                while c:
                    low = c & -c
                    acc ^= table[low.bit_length() - 1][j]
                    c ^= low
                assert acc == (1 << j)


def test_page_leibniz_enforced(t2):
    # checked internally during construction; a clean run is the assertion
    sp.induced_page_product(sp.run_to_collapse(t2).pages, t2, paranoid=True)


def test_mixed_boundary_complex_valid(mixed_boundary):
    fc = mixed_boundary
    assert fcx.check_d_squared(fc).ok
    assert fcx.check_product_leibniz(fc).ok
    res = sp.run_to_collapse(fc)
    assert [p.dims() for p in res.pages] == \
        [[1, 3, 3, 1], [1, 2, 2, 1], [1, 0, 0, 1], [0, 0, 0, 0]]
    # the surviving top class dies only under the two-step zig-zag lift
    assert f2.rank(res.pages[2].delta_matrix(3)) == 1


def test_rep_independence_nonvacuous(mixed_boundary):
    fc = mixed_boundary
    collapse = sp.run_to_collapse(fc)
    pages = sp.induced_page_product(collapse.pages, fc, paranoid=True)
    assert any(page.data[m].quotient.sub.basis and page.dim(m) > 0
               for page in pages for m in range(fc.dimL + 1))
    report = sp.check_convergence(collapse)
    assert report.ok


def test_inconsistent_product_tables_rejected(t2, t2_tables):
    products = {0: t2_tables[0], 1: {}}
    top = t2.morse.position_of("x1x2")
    x1 = t2.morse.position_of("x1")
    products[1][(top, x1)] = frozenset({x1})
    fc = fcx.FloerComplex(t2.morse, 2, t2.ops, products)
    with pytest.raises(LeibnizFailure):
        sp.induced_page_product(sp.run_to_collapse(fc).pages, fc)


# -- page dumps -------------------------------------------------------------------


def test_page_to_dict_shape(t2):
    res = sp.run_to_collapse(t2)
    d = sp.page_to_dict(res.pages[1])
    assert d["r"] == 1
    assert d["V"] == {"0": 1, "1": 2, "2": 1}
    assert d["collapsed"] is False
    assert set(d) == {"r", "V", "delta_rank", "collapsed"}
    dv = sp.page_to_dict(res.pages[1], verbose=True)
    assert "representatives" in dv and "delta" in dv


# the census patterns of the benchmark's census workload
CENSUS_PATTERNS = ("2,6,10,12,10,6,2", "3,5,7,7,5,3", "4,8,8,4", "1,2,4,6,6,4,2,1",
                   "2,0,0,6,0,4,0,2", "4,0,6,0,6,0,4", "3,0,5,0,0,7,0,3",
                   "2,0,8,0,8,0,2,0,2")
PAGE_DUMP_SHA256 = "775586bd7d29cb0264fdc48e61eb6427363b266eff0509424dd50b0e36791cf6"


def test_census_page_dumps_match_the_pinned_hash():
    # verbose dumps carry every representative and delta entry, so a change
    # of basis, lift or visited degrees that moved any output shows here
    digest = hashlib.sha256()
    for pattern in CENSUS_PATTERNS:
        dims = [int(d) for d in pattern.split(",")]
        for NL in range(2, 8):
            for seed in (0, 1):
                fc, _ = fcx.random_complex_census(seed, dims, NL)
                pages = sp.run_to_collapse(fc).pages
                digest.update(serialize.canonical_json(
                    [sp.page_to_dict(p, verbose=True) for p in pages]).encode())
    assert digest.hexdigest() == PAGE_DUMP_SHA256


def rings_workload_complexes():
    """The ring complexes of the benchmark's rings workload at NL 2, with
    products: F2[a]/(a^(n+1)) for n = 5..13 (op_1: a -> 1 for odd n), and
    exterior rings of rank 2..5 (op_1 sends the first half of the generators
    to 1), rank 3 and 5 also with x1 -> 1 and the Morse boundary x1 -> x2 x3."""
    for n in range(5, 14):
        ring = ga.build_truncated_poly(n)
        down = {ring.degree_basis(1)[0]: ring.one()} if n % 2 else {}
        yield fcx.complex_from_ring(ring, 2, with_products=True,
                                    derivation=ga.derivation_from_generator_values(ring, -1, down))
    for n in range(2, 6):
        ring = ga.build_exterior(n)
        gens = ring.degree_basis(1)
        down = ga.derivation_from_generator_values(
            ring, -1, {g: ring.one() for g in gens[:(n + 1) // 2]})
        yield fcx.complex_from_ring(ring, 2, derivation=down, with_products=True)
        if n in (3, 5):
            down = ga.derivation_from_generator_values(ring, -1, {gens[0]: ring.one()})
            up = ga.derivation_from_generator_values(
                ring, 1, {gens[0]: ring.mul(frozenset({gens[1]}), frozenset({gens[2]}))})
            yield fcx.complex_from_ring(ring, 2, derivation=down, boundary=up,
                                        with_products=True)


PRODUCT_DUMP_SHA256 = "7b6fb66529e5fa5a0c15a24cd32b46ee871ab20bd4f8a6802bc2d2a363712564"


def test_page_product_tables_match_the_pinned_hash(t2):
    # every page's product table over t2 and the rings workload's complexes,
    # so a table carried over from a page where it no longer holds shows here
    digest = hashlib.sha256()
    for fc in (t2, *rings_workload_complexes()):
        pages = sp.induced_page_product(sp.run_to_collapse(fc).pages, fc)
        digest.update(serialize.canonical_json(
            [{f"{m1},{m2}": table for (m1, m2), table in page.product.items()}
             for page in pages]).encode())
    assert digest.hexdigest() == PRODUCT_DUMP_SHA256


def test_each_obstruction_is_classified_once_per_page(monkeypatch):
    # each page classifies every Z-row obstruction of a degree whose target
    # is stored once, when it is built; the next page turn reads those
    # classes and makes no class read of its own
    counts = {"classify": 0, "elsewhere": 0}
    inside = False
    coords = f2.QuotientMap.coords
    classify = sp._classify

    def counting_coords(self, v):
        counts["classify" if inside else "elsewhere"] += 1
        return coords(self, v)

    def flagged_classify(*args):
        nonlocal inside
        inside = True
        try:
            return classify(*args)
        finally:
            inside = False

    monkeypatch.setattr(f2.QuotientMap, "coords", counting_coords)
    monkeypatch.setattr(sp, "_classify", flagged_classify)
    expected = 0
    for pattern in CENSUS_PATTERNS:
        dims = [int(d) for d in pattern.split(",")]
        for NL in range(2, 8):
            fc, _ = fcx.random_complex_census(0, dims, NL)
            for page in sp.run_to_collapse(fc, paranoid=False).pages:
                expected += sum(len(deg.obs) for m, deg in page.data.items()
                                if m + 1 - page.r * NL in page.data)
    assert counts == {"classify": expected, "elsewhere": 0}


@pytest.mark.parametrize("dimL", [200, 1000])
def test_one_generator_complex_costs_a_few_eliminations_per_page(monkeypatch, dimL):
    # empty degrees cost nothing, so the work follows the pages, not dimL;
    # the folded oracle reads D and eliminates once per occupied
    # residue, with no per-degree operator block
    fc = fcx.assemble(fcx.MorseComplex([fcx.Generator("x", 0)], dimL), 2, {})
    calls = 0
    rref = f2._rref_ints

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return rref(*args, **kwargs)

    monkeypatch.setattr(f2, "_rref_ints", counting)
    collapse = sp.run_to_collapse(fc)
    assert calls <= 2 * len(collapse.pages)
    for page in collapse.pages:
        assert page.dims() == [1] + [0] * dimL
    calls = 0
    assert fcx.folded_homology(fc) == {0: 1, 1: 0}
    assert calls <= fc.NL
    monkeypatch.undo()
    assert sp.check_convergence(collapse).ok


def test_chain_complex_costs_a_few_eliminations_per_degree_visit(monkeypatch):
    # one generator per degree: each stored degree of each page reads its
    # coset representatives and coefficient kernel without an elimination
    # of their own, and delta_r is kept and read as its columns, with no
    # transpose at all
    dimL = 200
    fc = fcx.assemble(fcx.MorseComplex(
        [fcx.Generator(f"x{i}", i) for i in range(dimL + 1)], dimL), 2, {})
    counts = {"rref": 0, "transpose": 0}
    rref = f2._rref_ints
    transpose = f2.F2Matrix.transpose

    def counting_rref(*args, **kwargs):
        counts["rref"] += 1
        return rref(*args, **kwargs)

    def counting_transpose(*args, **kwargs):
        counts["transpose"] += 1
        return transpose(*args, **kwargs)

    monkeypatch.setattr(f2, "_rref_ints", counting_rref)
    monkeypatch.setattr(f2.F2Matrix, "transpose", counting_transpose)
    collapse = sp.run_to_collapse(fc, paranoid=True)
    monkeypatch.undo()
    visits = sum(len(page.data) for page in collapse.pages)
    assert visits == (dimL + 1) * len(collapse.pages)
    assert counts["rref"] <= 3 * visits
    assert counts["transpose"] == 0


def test_chain_complex_eliminates_only_where_an_obstruction_is_nonzero(monkeypatch):
    # D = 0, so no degree has a nonzero obstruction in or out and every
    # page carries every degree over, with no elimination: not in the turn,
    # the second lift or the page dumps, which read the ranks of shared
    # zero deltas (a rank only counts rows in a pivot map, with no record)
    dimL = 200
    fc = fcx.assemble(fcx.MorseComplex(
        [fcx.Generator(f"x{i}", i) for i in range(dimL + 1)], dimL), 2, {})
    for page in sp.run_to_collapse(fc).pages:
        sp.page_to_dict(page, verbose=True)
    calls = 0
    rref = f2._rref_ints

    def counting_rref(*args, **kwargs):
        nonlocal calls
        calls += 1
        return rref(*args, **kwargs)

    monkeypatch.setattr(f2, "_rref_ints", counting_rref)
    pages = sp.run_to_collapse(fc, paranoid=True).pages
    for page in pages:
        sp.page_to_dict(page, verbose=True)
    monkeypatch.undo()

    def obstructed(page, m):
        source = page.data.get(m - 1 + page.r * fc.NL)
        return any(page.data[m].obs) or bool(source and any(source.obs))

    changing = sum(obstructed(page, m) for page in pages[:-1] for m in page.data)
    assert changing == 0
    assert calls <= changing
    # each page keeps the very PageDegree objects of the page before
    for page, nxt in zip(pages, pages[1:]):
        assert nxt.data.keys() == page.data.keys()
        assert all(nxt.data[m] is deg for m, deg in page.data.items())


def test_census_oracles_make_no_matrix_transpose_or_back_substitution(monkeypatch):
    # the window oracle ranks each window differential from its columns in
    # one pivot map, the E_1 oracle reads op_0 and op_1 columns with no
    # transpose, and a rank counts pivots with no back-substitution
    fc, expected = fcx.random_complex_census(5, [2, 3, 3, 2, 1], 2)
    window, e1 = window_homology_oracle(fc), e1_blocks_oracle(fc)
    fresh = f2.F2Matrix.from_row_ints([0b0110, 0, 0b1010, 0b1100, 0b0011], 4)
    counts = {"construct": 0, "transpose": 0, "back_substitute": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(f2.F2Matrix, "__post_init__",
                        counting("construct", f2.F2Matrix.__post_init__))
    assert sp.window_homology_dims(fc) == window == expected
    assert counts["construct"] == 0
    monkeypatch.setattr(f2.F2Matrix, "transpose", counting("transpose", f2.F2Matrix.transpose))
    assert sp.e1_oracle(fc) == e1
    assert counts["transpose"] == 0
    monkeypatch.setattr(f2, "_back_substitute",
                        counting("back_substitute", f2._back_substitute))
    assert f2.rank(fresh) == 3
    assert counts["back_substitute"] == 0 and "_elimination" not in fresh.__dict__
    assert any(fc.ops[0]) and any(fc.ops[1])  # both are read


def test_products_of_unchanged_pages_cost_nothing(monkeypatch):
    # F2[a]/(a^13) with op_1 = 0: D = 0, so every page equals page 0 and
    # keeps its tables; only page 0 multiplies
    ring = ga.build_truncated_poly(12)
    fc = fcx.complex_from_ring(ring, 2, derivation=ga.derivation_from_generator_values(
        ring, -1, {}), with_products=True)
    pages = sp.run_to_collapse(fc).pages
    calls = 0
    m0_products = sp._m0_products
    product_vec = fcx.FloerComplex.product_vec

    def counting(original):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(sp, "_m0_products", counting(m0_products))
    monkeypatch.setattr(fcx.FloerComplex, "product_vec", counting(product_vec))
    first = sp.induced_page_product(pages[:1], fc)
    page0_calls, calls = calls, 0
    every = sp.induced_page_product(pages, fc)
    assert calls == page0_calls > 0
    assert all(page.product == first[0].product for page in every)
