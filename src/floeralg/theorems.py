"""Theorem-level drivers over the algebra engine.

Each driver mechanizes one argument as certified algebra: the page-by-page
vanishing induction for rings generated in degree one (which pins the
minimal Maslov number of a displaceable torus to two), the nonvanishing of
the differential on the top class once the number is two, and the
projective-space computation with its intersection bound.

Displaceability enters as a labeled input assumption ("displaceable forces
the limit homology to vanish"), never as a computation: the geometry that
justifies it is outside this artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import f2linalg
from .errors import HypothesisFailure, SizeLimit
from .floercomplex import MAX_CENSUS_NL
from .gradedalg import (
    GradedRing,
    TopClassWitness,
    VanishingCertificate,
    build_exterior,
    build_truncated_poly,
    derivation_basis,
    top_class_nonvanishing,
    vanishing_lemma,
)


@dataclass(frozen=True)
class AudinVerdict:
    """Outcome of the vanishing induction on a degree-1-generated ring."""

    ring_label: str
    n: Optional[int]
    NL: int
    nu: int
    pages_forced_equal: bool
    einf_dims: tuple[tuple[int, int], ...]
    hf_assumption: bool
    verdict: str  # "contradiction" | "consistent"
    certificates: tuple[VanishingCertificate, ...]
    witness: Optional[dict]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ring": self.ring_label,
            "n": self.n,
            "NL": self.NL,
            "nu": self.nu,
            "pages_forced_equal": self.pages_forced_equal,
            "einf_dims": [[d, k] for d, k in self.einf_dims],
            "hf_assumption": "displaceable => HF = 0" if self.hf_assumption else None,
            "verdict": self.verdict,
            "certificates": [c.to_dict() for c in self.certificates],
            "witness": self.witness,
            "warnings": list(self.warnings),
        }


def _vanishing_induction(ring: GradedRing, NL: int, displaceable: bool,
                         n: Optional[int], warnings: tuple[str, ...]
                         ) -> AudinVerdict:
    """Common induction: page differential r has degree shift 1 - r*NL.

    For NL >= 3 every shift is <= -2, so each page differential vanishes on
    a ring generated in degree one, the pages never change, and the limit
    equals the first page. If the first page is nonzero while the
    displaceability assumption forces the limit to vanish, that is a
    contradiction. For NL = 2 the first shift is -1 and the induction
    breaks: a nonzero shift -1 derivation is exhibited instead.
    """
    dim_l = ring.top_degree()
    nu = (dim_l + 1) // NL
    dims = tuple(sorted(ring.dims_by_degree().items()))

    certificates, witness = (), None
    if NL >= 3:
        certificates = tuple(vanishing_lemma(ring, 1 - r * NL)
                             for r in range(1, nu + 1))
    else:
        # the first nonzero derivation by assignment (``enumerate_derivations``)
        first_nonzero = next(derivation_basis(ring, -1), None)
        if first_nonzero is not None:
            witness = {"kind": "nonzero_shift_minus_one_derivation",
                       "generator_values": first_nonzero.generator_values()}
    contradiction = NL >= 3 and displaceable and any(k for _, k in dims)
    return AudinVerdict(
        ring_label=ring.label, n=n, NL=NL, nu=nu,
        pages_forced_equal=NL >= 3,
        einf_dims=dims,
        hf_assumption=displaceable,
        verdict="contradiction" if contradiction else "consistent",
        certificates=certificates,
        witness=witness,
        warnings=warnings,
    )


def audin_torus(n: int, NL: int, displaceable: bool = True) -> AudinVerdict:
    """Vanishing induction for the n-torus ring at minimal Maslov number NL.

    NL >= 3 with the displaceability assumption yields a contradiction, so
    only NL = 2 survives; NL = 2 returns consistent together with an
    explicit nonzero shift -1 derivation. An odd NL is accepted with a
    warning: orientability of the torus makes odd values impossible on
    separate grounds, outside this induction.
    """
    if n < 1:
        raise HypothesisFailure("torus dimension must be >= 1")
    if NL < 2:
        raise HypothesisFailure("minimal Maslov number must be >= 2")
    warnings = ()
    if NL % 2 == 1:
        warnings = ("odd minimal Maslov number: an orientable Lagrangian "
                    "cannot realize it, tested anyway",)
    ring = build_exterior(n)
    return _vanishing_induction(ring, NL, displaceable, n, warnings)


def audin_general(ring: GradedRing, NL: int, displaceable: bool = True
                  ) -> AudinVerdict:
    """Same induction on an arbitrary ring generated in degree one.

    The ring must meet ``GradedRing.require_leibniz_hypotheses`` (degree-one
    generation, the unit law, associativity on degree-1 triples), which
    raises an input error otherwise.
    """
    if NL < 2:
        raise HypothesisFailure("minimal Maslov number must be >= 2")
    ring.require_leibniz_hypotheses()
    return _vanishing_induction(ring, NL, displaceable, None, ())


@dataclass(frozen=True)
class MaslovTwoReport:
    """Algebraic core of the degree-two disc statement for the n-torus."""

    n: int
    NL: int
    delta1_nonzero_forced: bool
    forcing_certificates: tuple[VanishingCertificate, ...]
    nonzero_derivations: int
    witnesses: tuple[TopClassWitness, ...]
    all_top_nonvanishing: bool


def maslov_two_disc_argument(n: int) -> MaslovTwoReport:
    """With NL = 2 and vanishing limit homology, the first differential is
    nonzero and hits the top class.

    Were the first page differential zero, the later ones would vanish for
    shift reasons (their shifts are 1 - 2r <= -3) and the limit would equal
    the nonzero torus ring; so under the displaceability assumption some
    shift -1 derivation is nonzero. Every nonzero shift -1 derivation moves
    the top class p, for every n, by one rank: d -> d(p) is linear on the
    derivations, so with a basis d_1..d_k (``derivation_basis``) every
    nonzero d has d(p) != 0 iff the d_i(p) have rank k. There are 2^k - 1
    nonzero derivations, and the witness checks x1 d_1(p) = p.
    """
    if n < 2:
        raise HypothesisFailure("torus dimension must be >= 2")
    ring = build_exterior(n)
    nu = (n + 1) // 2
    forcing = tuple(vanishing_lemma(ring, 1 - 2 * r) for r in range(2, nu + 1))

    basis = list(derivation_basis(ring, -1))
    top = ring.degree_basis(n)[0]
    moved = f2linalg.F2Matrix.from_row_ints([d.images[top] for d in basis], ring.dim)
    w = top_class_nonvanishing(basis[0])
    return MaslovTwoReport(
        n=n, NL=2,
        delta1_nonzero_forced=True,
        forcing_certificates=forcing,
        nonzero_derivations=2 ** len(basis) - 1,
        witnesses=(w,),
        all_top_nonvanishing=(f2linalg.rank(moved) == len(basis)
                              and w.identity_holds and w.d_top_nonzero),
    )


@dataclass(frozen=True)
class RPnReport:
    """Projective-space driver: limit homology and the intersection bound."""

    n: int
    NL: int
    nu: int
    certificates: tuple[VanishingCertificate, ...]
    hf_residue_dims: tuple[tuple[int, int], ...]
    hf_total_rank: int
    nondisplaceable: bool
    intersection_bound: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "NL": self.NL,
            "nu": self.nu,
            "certificates": [c.to_dict() for c in self.certificates],
            "hf_residue_dims": [[r, k] for r, k in self.hf_residue_dims],
            "hf_total_rank": self.hf_total_rank,
            "nondisplaceable": self.nondisplaceable,
            "intersection_bound": self.intersection_bound,
        }


def rpn_driver(n: int, NL: int) -> RPnReport:
    """Vanishing induction for real projective space, minimal Maslov >= 3.

    The ring F2[a]/(a^(n+1)) is generated in degree one, every page shift
    is at most -2, so the limit equals the first page: total rank n + 1
    spread over the degree residues. Transverse intersections with any
    Hamiltonian image are then at least n + 1.
    """
    if n < 1:
        raise HypothesisFailure("projective dimension must be >= 1")
    if NL < 3:
        raise HypothesisFailure(f"driver requires minimal Maslov number >= 3, "
                                f"got {NL}")
    if NL > MAX_CENSUS_NL:
        raise SizeLimit(f"NL {NL} exceeds {MAX_CENSUS_NL}")
    ring = build_truncated_poly(n)
    nu = (n + 1) // NL
    certificates = tuple(vanishing_lemma(ring, 1 - r * NL)
                         for r in range(1, nu + 1))
    residue = {r: 0 for r in range(NL)}
    for m, k in ring.dims_by_degree().items():
        residue[m % NL] += k
    total = sum(residue.values())
    return RPnReport(
        n=n, NL=NL, nu=nu,
        certificates=certificates,
        hf_residue_dims=tuple(sorted(residue.items())),
        hf_total_rank=total,
        nondisplaceable=total > 0,
        intersection_bound=total,
    )
