"""Theorem drivers: vanishing induction, top-class argument, projective spaces."""

import random

import pytest
from oracles import derivations_oracle, replay_certificate

from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import spectral as sp
from floeralg import theorems as th
from floeralg.errors import HypothesisFailure, NotDegreeOneGenerated


def sphere_ring():
    return ga.GradedRing(
        [ga.BasisElement("1", 0), ga.BasisElement("u", 2)], 0,
        {(0, 0): (0,), (0, 1): (1,), (1, 0): (1,)}, label="sphere2")


# -- audin torus --------------------------------------------------------------


def test_contradiction_single_vanishing_step():
    v = th.audin_torus(3, 4, displaceable=True)
    assert v.verdict == "contradiction"
    assert v.nu == 1 and len(v.certificates) == 1
    assert v.certificates[0].shift == -3


def test_nl2_consistent_with_witness():
    v = th.audin_torus(2, 2, displaceable=True)
    assert v.verdict == "consistent"
    assert not v.pages_forced_equal
    assert v.witness["generator_values"] == {"x1": ("1",), "x2": ()}


def test_large_nl_contradiction():
    v = th.audin_torus(5, 6, displaceable=True)
    assert v.verdict == "contradiction"
    assert v.certificates[0].shift == -5


def test_odd_nl_warns_but_runs():
    v = th.audin_torus(3, 3, displaceable=True)
    assert v.verdict == "contradiction"
    assert v.warnings


def test_without_displaceability_no_contradiction():
    v = th.audin_torus(3, 4, displaceable=False)
    assert v.verdict == "consistent"
    assert v.pages_forced_equal  # pages still frozen, only the HF input differs


def test_certificates_replay():
    for n in (2, 4):
        for NL in (3, 4, 5):
            v = th.audin_torus(n, NL, displaceable=True)
            ring = ga.build_exterior(n)
            for cert in v.certificates:
                assert replay_certificate(cert, ring)


def test_contradiction_full_range_to_rank_12():
    # sweep the shared ring at each rank; spots check the torus entry point
    for n in range(1, 13):
        ring = ga.build_exterior(n)
        for NL in range(3, 2 * n + 3):
            v = th.audin_general(ring, NL, displaceable=True)
            assert v.verdict == "contradiction", (n, NL)
            assert len(v.certificates) == v.nu
        spot = th.audin_torus(n, 3, displaceable=True)
        assert spot.verdict == "contradiction"
        assert spot.einf_dims == v.einf_dims


def test_nl2_consistent_with_witness_up_to_rank_8():
    for n in range(2, 9):
        v = th.audin_torus(n, 2, displaceable=True)
        assert v.verdict == "consistent"
        vals = v.witness["generator_values"]
        assert any(target for target in vals.values())


def test_verdict_serializes():
    d = th.audin_torus(3, 4, displaceable=True).to_dict()
    assert d["verdict"] == "contradiction"
    assert d["hf_assumption"] == "displaceable => HF = 0"
    assert len(d["certificates"]) == 1


# -- audin general -----------------------------------------------------------


def test_general_agrees_with_torus():
    ring = ga.build_exterior(3)
    a = th.audin_general(ring, 4, displaceable=True)
    b = th.audin_torus(3, 4, displaceable=True)
    assert a.verdict == b.verdict == "contradiction"
    assert a.einf_dims == b.einf_dims


def test_general_truncated_poly():
    ring = ga.build_truncated_poly(3)
    v = th.audin_general(ring, 3, displaceable=True)
    assert v.verdict == "contradiction"


def test_general_rejects_sphere():
    with pytest.raises(NotDegreeOneGenerated):
        th.audin_general(sphere_ring(), 3, displaceable=True)


# -- maslov two ------------------------------------------------------------


def _nonzero_oracle(n):
    return [d for d in derivations_oracle(ga.build_exterior(n), -1) if not d.is_zero()]


def test_maslov_two_exhaustive_n2():
    # the rank certifies every nonzero derivation the brute-force search finds
    rep = th.maslov_two_disc_argument(2)
    assert rep.nonzero_derivations == len(_nonzero_oracle(2)) == 3
    assert len(rep.witnesses) == 1 and rep.all_top_nonvanishing


def test_maslov_two_exhaustive_n3():
    rep = th.maslov_two_disc_argument(3)
    assert rep.nonzero_derivations == len(_nonzero_oracle(3)) == 7
    assert rep.all_top_nonvanishing


def test_maslov_two_constructive_n6():
    # the witness is the first basis derivation, x1 -> 1
    rep = th.maslov_two_disc_argument(6)
    assert len(rep.witnesses) == 1
    assert rep.witnesses[0].generator_order[0] == "x1"
    assert rep.all_top_nonvanishing
    assert rep.nonzero_derivations == 2 ** 6 - 1


def test_maslov_two_branches_agree_small():
    # the rank verdict agrees with checking each nonzero derivation the
    # brute-force oracle finds on its own
    for n in (2, 3, 4):
        rep = th.maslov_two_disc_argument(n)
        assert rep.all_top_nonvanishing
        top = frozenset(ga.build_exterior(n).degree_basis(n))
        for d in _nonzero_oracle(n):
            w = ga.top_class_nonvanishing(d)
            assert w.identity_holds and w.d_top_nonzero and d.apply(top)


@pytest.mark.parametrize("n", range(2, 11))
def test_maslov_two_counts_nonzero_derivations(n):
    rep = th.maslov_two_disc_argument(n)
    assert rep.nonzero_derivations == 2 ** n - 1 and rep.all_top_nonvanishing


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (5, 2), (6, 3)])
def test_maslov_two_wrong_basis_fails_the_rank(monkeypatch, n, seed):
    # one basis derivation duplicated over another: the witness still holds,
    # but the values on the top class have rank n - 1
    def duplicated(ring, shift):
        basis = list(ga.derivation_basis(ring, shift))
        i, j = random.Random(seed).sample(range(len(basis)), 2)
        basis[j] = basis[i]
        return iter(basis)

    monkeypatch.setattr(th, "derivation_basis", duplicated)
    rep = th.maslov_two_disc_argument(n)
    assert rep.witnesses[0].identity_holds and rep.witnesses[0].d_top_nonzero
    assert not rep.all_top_nonvanishing


def test_maslov_two_forcing_certificates():
    rep = th.maslov_two_disc_argument(5)  # nu = 3: pages 2, 3 forced
    assert [c.shift for c in rep.forcing_certificates] == [-3, -5]


# -- rpn driver -------------------------------------------------------------


def test_rpn_reported_values():
    rep = th.rpn_driver(5, 3)
    assert rep.hf_total_rank == 6
    assert rep.intersection_bound == 6
    assert rep.nondisplaceable


def test_rpn_small():
    rep = th.rpn_driver(2, 3)
    assert rep.hf_total_rank == 3 and rep.intersection_bound == 3


def test_rpn_hypothesis_failure():
    with pytest.raises(HypothesisFailure):
        th.rpn_driver(4, 2)


def test_rpn_grid():
    for n in range(1, 13):
        for NL in range(3, n + 2):
            rep = th.rpn_driver(n, NL)
            assert rep.hf_total_rank == n + 1
            assert sum(k for _, k in rep.hf_residue_dims) == n + 1
            for cert in rep.certificates:
                assert replay_certificate(cert, ga.build_truncated_poly(n))


# -- engine cross-check ------------------------------------------------------------


def test_nl2_witness_realizes_vanishing_hf_in_engine():
    """The NL=2 witness derivation drives the spectral engine to E_inf = 0."""
    for n in (2, 3, 4):
        verdict = th.audin_torus(n, 2, displaceable=True)
        ring = ga.build_exterior(n)
        values = {}
        for g in ring.degree_basis(1):
            names = verdict.witness["generator_values"][ring.basis[g].name]
            values[g] = ring.element(*names) if names else frozenset()
        d = ga.derivation_from_generator_values(ring, -1, values)
        fc = fcx.complex_from_ring(ring, 2, derivation=d)
        res = sp.run_to_collapse(fc)
        assert res.einf_residue_dims() == {0: 0, 1: 0}
        assert fcx.folded_homology(fc) == {0: 0, 1: 0}


def test_every_nonzero_derivation_kills_hf_n_small():
    for n in (2, 3):
        ring = ga.build_exterior(n)
        for d in ga.enumerate_derivations(ring, -1):
            if d.is_zero():
                continue
            fc = fcx.complex_from_ring(ring, 2, derivation=d)
            assert fcx.folded_homology(fc) == {0: 0, 1: 0}
