"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Oracles here are deliberately independent of the engine paths they
check: first-page data is recomputed from raw kernels and images, corpus
homology is predicted by pairing bookkeeping, and windings are re-summed
from determinant values.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import loops
import numpy as np
import pytest
from oracles import basis_mul, image_oracle, operator_block, replay_certificate

from floeralg import f2linalg as f2
from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import maslov as mv
from floeralg import serialize
from floeralg import spectral as sp
from floeralg import theorems as th
from floeralg.errors import HypothesisFailure

GOLDEN = Path(__file__).parent / "golden"


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _corpus_cells():
    """100 fixed (seed, dims, NL) cells; total dimension at most 12."""
    patterns = [(1, 2, 2, 1), (2, 2, 2, 2), (1, 3, 3, 1), (1, 2, 2, 2, 1),
                (2, 3, 3, 2), (1, 2, 3, 3, 2, 1)]
    cells = []
    for i in range(100):
        cells.append((1000 + i, patterns[i % len(patterns)], (2, 3, 4)[i % 3]))
    return cells


@pytest.fixture(scope="module")
def corpus_pages():
    """Collapse results for the 100-cell corpus, shared by criteria 4 and 5."""
    out = []
    start = time.monotonic()
    for seed, dims, NL in _corpus_cells():
        fc = fcx.random_complex_census(seed, dims, NL)[0]
        out.append((seed, fc, sp.run_to_collapse(fc, paranoid=True)))
    return out, time.monotonic() - start


def test_criterion_1_audin_grid():
    start = time.monotonic()
    cells = 0
    for n in range(2, 7):
        ring = ga.build_exterior(n)
        for NL in range(3, 2 * n + 1):
            v = th.audin_torus(n, NL, displaceable=True)
            assert v.verdict == "contradiction", (n, NL)
            assert len(v.certificates) == v.nu == (n + 1) // NL
            for r, cert in enumerate(v.certificates, start=1):
                assert cert.shift == 1 - r * NL
                assert replay_certificate(cert, ring), (n, NL, r)
            cells += 1
        v2 = th.audin_torus(n, 2, displaceable=True)
        assert v2.verdict == "consistent"
        values = {}
        for g in ring.degree_basis(1):
            names = v2.witness["generator_values"][ring.basis[g].name]
            values[g] = ring.element(*names) if names else frozenset()
        witness = ga.derivation_from_generator_values(ring, -1, values)
        assert not witness.is_zero() and ga.check_leibniz(witness)
        cells += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"
    _report(1, f"{cells} grid cells, certificates replayed, {elapsed:.2f}s")


def test_criterion_2_derivation_oracle_equivalence():
    checked = 0
    for n in (2, 3, 4):
        ring = ga.build_exterior(n)
        for shift in range(-2, -(n + 3), -1):
            derivs = ga.enumerate_derivations(ring, shift)
            assert len(derivs) == 1 and derivs[0].is_zero(), (n, shift)
            cert = ga.vanishing_lemma(ring, shift)
            assert replay_certificate(cert, ring), (n, shift)
            checked += 1
        minus_one = ga.enumerate_derivations(ring, -1)
        assert len(minus_one) == 2 ** n, n
        checked += 1
    _report(2, f"{checked} (ring, shift) cells agree with the certificates")


def test_criterion_3_top_class_nonvanishing():
    counts = {}
    for n in (2, 3):
        ring = ga.build_exterior(n)
        top = ring.degree_basis(n)[0]
        nonzero = [d for d in ga.enumerate_derivations(ring, -1) if not d.is_zero()]
        counts[n] = len(nonzero)
        for d in nonzero:
            exhaustive = d.apply(frozenset({top})) != frozenset()
            witness = ga.top_class_nonvanishing(d)
            constructive = witness.identity_holds and witness.d_top_nonzero
            assert exhaustive and constructive
            assert frozenset(ring.element(*witness.d_top)) == \
                d.apply(frozenset({top}))
    assert counts == {2: 3, 3: 7}
    _report(3, "3 derivations on rank 2, 7 on rank 3, both methods agree")


def test_criterion_4_spectral_engine_soundness(corpus_pages):
    results, elapsed = corpus_pages
    assert len(results) == 100
    for seed, fc, res in results:
        einf = res.einf_residue_dims()
        folded = fcx.folded_homology(fc)
        window = sp.window_homology_dims(fc)
        assert einf == folded == window, (seed, einf, folded, window)
        for a, b in zip(res.pages, res.pages[1:]):
            for m in range(fc.dimL + 1):
                assert b.dim(m) <= a.dim(m), seed
        for page in res.pages:
            for m in range(fc.dimL + 1):
                t = m + 1 - page.r * fc.NL
                if 0 <= t <= fc.dimL:
                    assert (page.delta_matrix(t) @ page.delta_matrix(m)).is_zero()
    assert elapsed < 30.0, f"corpus took {elapsed:.2f}s"
    _report(4, f"100 complexes, three-way dim equality, {elapsed:.2f}s")


def test_criterion_5_e1_identification(corpus_pages):
    """First page against a reference built only from kernels and images."""
    results, _ = corpus_pages
    for seed, fc, res in results:
        page1 = res.pages[1]
        for m in range(fc.dimL + 1):
            cycles = f2.kernel(operator_block(fc, 0, m))
            bounds = image_oracle(operator_block(fc, 0, m - 1))
            quot = f2.quotient_map(bounds, cycles)
            assert page1.dim(m) == quot.dim, (seed, m)
        for m in range(fc.dimL + 1):
            cycles = f2.kernel(operator_block(fc, 0, m))
            bounds = image_oracle(operator_block(fc, 0, m - 1))
            quot = f2.quotient_map(bounds, cycles)
            t = m + 1 - fc.NL
            if 0 <= t <= fc.dimL:
                t_cycles = f2.kernel(operator_block(fc, 0, t))
                t_bounds = image_oracle(operator_block(fc, 0, t - 1))
                t_quot = f2.quotient_map(t_bounds, t_cycles)
                cols = [t_quot.coords(operator_block(fc, 1, m).mul_vec(q))
                        for q in quot.reps.basis]
                reference = f2.F2Matrix.from_row_ints(cols, t_quot.dim).transpose()
                assert page1.delta_matrix(m) == reference, (seed, m)
            else:
                assert page1.delta_matrix(m).is_zero(), (seed, m)
    _report(5, "dim V1 = Morse cohomology and delta_1 = induced matrix, all cells")


def test_criterion_6_worked_torus_example():
    ring = ga.build_exterior(2)
    d = ga.derivation_from_generator_values(
        ring, -1, {ring.index_of("x1"): ring.one(), ring.index_of("x2"): frozenset()})
    fc = fcx.complex_from_ring(ring, 2, derivation=d)
    res = sp.run_to_collapse(fc)
    assert res.pages[1].dims() == [1, 2, 1]
    assert res.pages[2].dims() == [0, 0, 0]
    assert fcx.folded_homology(fc) == {0: 0, 1: 0}
    _report(6, "V1 dims (1,2,1), V2 = 0, folded homology = 0")


def _check_page1_cup_product(ring, d):
    fc = fcx.complex_from_ring(ring, 2, derivation=d, with_products=True)
    assert fcx.check_product_leibniz(fc).ok
    pages = sp.induced_page_product(
        sp.run_to_collapse(fc, paranoid=True).pages, fc, paranoid=True)
    p1 = pages[1]
    cpos = {i: fc.morse.position_of(ring.basis[i].name)
            for i in range(ring.dim)}
    for m1 in range(fc.dimL + 1):
        for m2 in range(fc.dimL + 1):
            table = p1.product.get((m1, m2))
            if table is None:
                continue
            for i, gi in enumerate(ring.degree_basis(m1)):
                for j, gj in enumerate(ring.degree_basis(m2)):
                    prod = basis_mul(ring, gi, gj)
                    mt = m1 + m2
                    expected = fc.chain_to_vec(
                        frozenset(cpos[k] for k in prod), mt) \
                        if mt <= fc.dimL else 0
                    assert table[i][j] == expected, (ring.label, m1, m2)


# Shift -1 derivations of the rank-6 exterior ring checked by criterion 7,
# as the set of generators sent to 1 (all others go to 0): the zero
# derivation, every generator to 1, the first and the last generator alone,
# and four mixed patterns.
RANK_6_GENERATORS_TO_ONE = ((), (1, 2, 3, 4, 5, 6), (1,), (6,), (1, 2),
                            (1, 3, 5), (2, 4, 6), (1, 2, 3))


def test_criterion_7_multiplicativity():
    rings = [ga.build_exterior(2), ga.build_exterior(3), ga.build_exterior(4),
             ga.build_truncated_poly(3), ga.build_truncated_poly(5)]
    complexes = 0
    for ring in rings:
        for d in ga.enumerate_derivations(ring, -1):
            _check_page1_cup_product(ring, d)
            complexes += 1
    ring = ga.build_exterior(6)
    for ones in RANK_6_GENERATORS_TO_ONE:
        d = ga.derivation_from_generator_values(
            ring, -1, {ring.index_of(f"x{g}"): ring.one() for g in ones})
        _check_page1_cup_product(ring, d)
        complexes += 1

    # nonzero Morse boundary: the representative-independence check has
    # genuine second representatives to compare
    ring = ga.build_exterior(3)
    up = ga.derivation_from_generator_values(
        ring, +1, {ring.index_of("x1"): ring.element("x2x3")})
    down = ga.derivation_from_generator_values(
        ring, -1, {ring.index_of("x1"): ring.one()})
    fc = fcx.complex_from_ring(ring, 2, derivation=down, boundary=up,
                               with_products=True)
    assert fcx.check_product_leibniz(fc).ok
    pages = sp.induced_page_product(
        sp.run_to_collapse(fc, paranoid=True).pages, fc, paranoid=True)
    assert any(page.data[m].quotient.sub.basis and page.dim(m) > 0
               for page in pages for m in range(fc.dimL + 1))
    complexes += 1
    _report(7, f"{complexes} ring complexes: Leibniz, cup product on page 1, "
               f"representative independence")


def test_criterion_8_rpn_driver():
    cells = 0
    for n in range(2, 9):
        for NL in range(3, n + 2):
            rep = th.rpn_driver(n, NL)
            assert rep.hf_total_rank == n + 1, (n, NL)
            assert rep.intersection_bound == n + 1, (n, NL)
            cells += 1
    with pytest.raises(HypothesisFailure):
        th.rpn_driver(4, 2)
    _report(8, f"{cells} (n, NL) cells with rank and bound n+1; NL=2 rejected")


def test_criterion_9_maslov_index():
    assert mv.maslov_index(loops.rotating_loop(1, 64)).value == 1
    assert mv.maslov_index(loops.rotating_loop(1, 256)).value == 1
    assert mv.maslov_index(loops.constant_loop(3)).value == 0

    # pre-rounded winding within 1e-6 of an integer multiple of 2*pi,
    # re-summed here from determinant values
    for loop in (loops.rotating_loop(1, 64), loops.rotating_loop(2, 96, turns=2)):
        dets = [loops.det_squared(f) for f in loop.samples]
        total = sum(math.atan2((dets[(t + 1) % len(dets)] / dets[t]).imag,
                               (dets[(t + 1) % len(dets)] / dets[t]).real)
                    for t in range(len(dets)))
        assert abs(total - 2 * math.pi * round(total / (2 * math.pi))) <= 1e-6

    rng = random.Random(99)
    n = 3
    for _ in range(50):
        ta, tb = rng.randint(-3, 3), rng.randint(-3, 3)
        a = loops.rotating_loop(n, 64, turns=ta, factor=rng.randrange(n))
        b = loops.rotating_loop(n, 64, turns=tb, factor=rng.randrange(n))
        assert mv.maslov_index(loops.concatenate(a, b)).value == ta + tb
        assert mv.maslov_index(loops.reverse(a)).value == -ta

    base = loops.rotating_loop(2, 64, turns=2)
    doubled = loops.rotating_loop(2, 128, turns=2)
    assert mv.maslov_index(base).value == mv.maslov_index(doubled).value == 2

    frames = []
    for f in base.samples:
        while True:
            g = np.array([[rng.gauss(0, 1) for _ in range(2)] for _ in range(2)])
            if abs(np.linalg.det(g)) > 0.2:
                break
        frames.append(f @ g)
    assert mv.maslov_index(mv.LagrangianLoop.from_frames(frames)).value == 2
    _report(9, "windings, 50 concatenation pairs, refinement and frame changes")


def test_criterion_10_cli_determinism(tmp_path):
    loop_path = tmp_path / "loop.json"
    loop_path.write_text(serialize.canonical_json(
        serialize.loop_to_dict(loops.rotating_loop(1, 128))))
    commands = [
        ("ring", "torus", "--n", "2"),
        ("ring", "rp", "--n", "3"),
        ("ss", "run", str(GOLDEN / "t2_complex.json")),
        ("audin", "torus", "--n", "3", "--maslov", "4", "--displaceable"),
        ("audin", "torus", "--n", "2", "--maslov", "2", "--displaceable"),
        ("rp", "--n", "5", "--maslov", "3"),
        ("derivations", "enumerate", "--kind", "torus", "--n", "2",
         "--shift", "-1"),
        ("maslov", "index", str(loop_path)),
        ("corpus", "--seed", "42", "--count", "3", "--dims", "1,2,2,1",
         "--maslov", "2", "--out", str(tmp_path / "c1")),
    ]
    goldens = {
        0: "ring_torus_2.json",
        1: "ring_rp_3.json",
        2: "ss_run_t2.json",
        3: "audin_torus_3_4.json",
        4: "audin_torus_2_2.json",
        5: "rp_5_3.json",
        6: "derivations_torus_2_m1.json",
    }
    for i, cmd in enumerate(commands):
        a = subprocess.run([sys.executable, "-m", "floeralg.cli", *cmd],
                           capture_output=True, text=True)
        b = subprocess.run([sys.executable, "-m", "floeralg.cli", *cmd],
                           capture_output=True, text=True)
        assert a.stdout == b.stdout, cmd
        assert a.returncode == b.returncode
        if i in goldens:
            assert a.stdout == (GOLDEN / goldens[i]).read_text(), cmd
    _report(10, f"{len(commands)} commands byte-identical, "
                f"{len(goldens)} golden files matched")
