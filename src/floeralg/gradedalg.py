"""Finite-dimensional graded F2 algebras, cup products and Leibniz derivations.

Ring elements are ``frozenset[int]`` of basis indices (an F2 sum of basis
elements); addition is symmetric difference. Multiplication is an explicit
structure table over the named basis, which keeps everything exact and
makes equality of maps payload equality.

The module also houses the degree-shift vanishing argument: on a ring
generated in degree one, every Leibniz derivation lowering degree by two or
more kills the generators (their image degree is negative) and therefore,
since the kernel of a derivation is a subring, kills everything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import f2linalg
from .errors import (
    InconsistentExtension,
    NotApplicable,
    NotDegreeOneGenerated,
    NotShiftMinusOne,
    SizeLimit,
    ZeroDerivation,
)

Element = frozenset  # frozenset[int]: F2 combination of basis indices

ZERO: Element = frozenset()

MAX_EXTERIOR_GENERATORS = 12
MAX_ENUMERATION_ASSIGNMENTS = 1 << 24


@dataclass(frozen=True)
class BasisElement:
    name: str
    degree: int


class GradedRing:
    """Graded F2 algebra with named basis and multiplication table.

    ``mult`` maps a pair of basis indices to the sorted tuple of basis
    indices of their product; absent pairs multiply to zero.
    """

    def __init__(self, basis: Sequence[BasisElement], unit: int,
                 mult: Mapping[tuple[int, int], tuple[int, ...]],
                 label: str = "ring"):
        self.basis = tuple(basis)
        self.unit = unit
        self.mult = dict(mult)
        self.label = label
        if not (0 <= unit < len(self.basis)) or self.basis[unit].degree != 0:
            raise ValueError("unit must be a degree-0 basis element")
        self._by_degree: dict[int, tuple[int, ...]] = {}
        for i, b in enumerate(self.basis):
            if b.degree < 0:
                raise ValueError("negative basis degree")
            self._by_degree.setdefault(b.degree, ())
            self._by_degree[b.degree] += (i,)
        self._name_index = {b.name: i for i, b in enumerate(self.basis)}
        if len(self._name_index) != len(self.basis):
            raise ValueError("duplicate basis names")
        for (i, j), prod in self.mult.items():
            d = self.basis[i].degree + self.basis[j].degree
            if any(self.basis[k].degree != d for k in prod):
                raise ValueError("product table is not degree-additive")

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_degree))

    def top_degree(self) -> int:
        return max(self._by_degree)

    def dims_by_degree(self) -> dict[int, int]:
        return {d: len(ix) for d, ix in sorted(self._by_degree.items())}

    def degree_basis(self, d: int) -> tuple[int, ...]:
        return self._by_degree.get(d, ())

    def index_of(self, name: str) -> int:
        return self._name_index[name]

    # -- elements -----------------------------------------------------------

    def one(self) -> Element:
        return frozenset({self.unit})

    def element(self, *names: str) -> Element:
        out = frozenset()
        for n in names:
            out ^= frozenset({self.index_of(n)})
        return out

    def names_of(self, elt: Element) -> tuple[str, ...]:
        return tuple(self.basis[i].name for i in sorted(elt))

    def degree_of(self, elt: Element) -> Optional[int]:
        """Degree of a homogeneous element, None for 0 or mixed degrees."""
        degs = {self.basis[i].degree for i in elt}
        return degs.pop() if len(degs) == 1 else None

    def basis_mul(self, i: int, j: int) -> Element:
        return frozenset(self.mult.get((i, j), ()))

    def mul(self, a: Element, b: Element) -> Element:
        """Bilinear extension of the structure table (the cup product)."""
        out = frozenset()
        for i in a:
            for j in b:
                out ^= self.basis_mul(i, j)
        return out

    def vector_of(self, elt: Element, degree: int) -> int:
        """Coordinates of a homogeneous element in its degree slot."""
        idx = self.degree_basis(degree)
        pos = {g: p for p, g in enumerate(idx)}
        v = 0
        for i in elt:
            if i not in pos:
                raise ValueError("element has support outside the degree")
            v |= 1 << pos[i]
        return v

    def element_of(self, vec: int, degree: int) -> Element:
        idx = self.degree_basis(degree)
        return frozenset(idx[p] for p in range(len(idx)) if (vec >> p) & 1)

    # -- verification ---------------------------------------------------------

    def is_degree_one_generated(self) -> bool:
        """Do the unit and the degree-1 part generate the whole ring?

        Verified constructively: close the degree-1 span under
        multiplication and compare dimensions in every degree.
        """
        cached = self.__dict__.get("_deg1_generated")
        if cached is None:
            cached = self._verify_degree_one_generated()
            self.__dict__["_deg1_generated"] = cached
        return cached

    def _verify_degree_one_generated(self) -> bool:
        dims = self.dims_by_degree()
        if dims.get(0, 0) != 1:
            return False
        prev: list[Element] = [frozenset({g}) for g in self.degree_basis(1)]
        for d in sorted(dims):
            if d < 2:
                continue
            target = len(self.degree_basis(d))
            # echelon insertion with early exit once the degree is spanned
            pivots: dict[int, int] = {}
            basis_elems: list[Element] = []
            for g in self.degree_basis(1):
                for elt in prev:
                    p = self.mul(frozenset({g}), elt)
                    if not p:
                        continue
                    v = self.vector_of(p, d)
                    while v:
                        low = v & -v
                        if low not in pivots:
                            break
                        v ^= pivots[low]
                    if v:
                        pivots[v & -v] = v
                        basis_elems.append(self.element_of(v, d))
                        if len(pivots) == target:
                            break
                if len(pivots) == target:
                    break
            if len(pivots) != target:
                return False
            prev = basis_elems
        return True

    def _product_preimages(self, d: int
                           ) -> tuple[tuple[tuple[int, int], ...], tuple[Optional[int], ...]]:
        """Each degree-d basis element as a sum of degree-1 products.

        Returns the pairs (g, f), g of degree 1 and f of degree d - 1, and for
        each basis element of degree d the coordinates over those pairs of
        one preimage under (g, f) -> g f, None when there is none. Depends
        on the ring only, so it is computed once per degree and cached.
        """
        cache = self.__dict__.setdefault("_preimage_cache", {})
        cached = cache.get(d)
        if cached is None:
            pair_cols = tuple((g, f) for g in self.degree_basis(1)
                              for f in self.degree_basis(d - 1))
            col_vecs = [self.vector_of(self.basis_mul(g, f), d)
                        if self.basis_mul(g, f) else 0 for g, f in pair_cols]
            tgt = len(self.degree_basis(d))
            mu = f2linalg.F2Matrix.from_entries(
                tgt, len(pair_cols),
                [(r, c) for c, v in enumerate(col_vecs) for r in range(tgt)
                 if (v >> r) & 1])
            cached = cache[d] = (pair_cols, tuple(f2linalg.solve(mu, 1 << p)
                                                  for p in range(tgt)))
        return cached

    def check_unit(self) -> bool:
        one = self.one()
        return all(self.mul(one, frozenset({i})) == frozenset({i})
                   and self.mul(frozenset({i}), one) == frozenset({i})
                   for i in range(self.dim))

    def check_commutative(self) -> bool:
        return all(self.basis_mul(i, j) == self.basis_mul(j, i)
                   for i in range(self.dim) for j in range(i, self.dim))

    def check_associative(self) -> bool:
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            left = self.mul(self.basis_mul(i, j), frozenset({k}))
            right = self.mul(frozenset({i}), self.basis_mul(j, k))
            if left != right:
                return False
        return True

    def __repr__(self):
        return f"GradedRing({self.label}, dim={self.dim})"


def _as_element(e) -> Element:
    return e if isinstance(e, frozenset) else frozenset(e)


def build_exterior(n: int) -> GradedRing:
    """Exterior algebra on n degree-1 generators over F2.

    Basis: square-free monomials, one per subset of generators; squares of
    generators vanish; no signs in characteristic two.
    """
    if not (1 <= n <= MAX_EXTERIOR_GENERATORS):
        raise SizeLimit(f"exterior algebra supported for 1 <= n <= "
                        f"{MAX_EXTERIOR_GENERATORS}, got {n}")
    masks = sorted(
        (sum(1 << g for g in c)
         for k in range(n + 1) for c in itertools.combinations(range(n), k)),
        key=lambda m: (m.bit_count(), [g for g in range(n) if (m >> g) & 1]),
    )
    index = {m: i for i, m in enumerate(masks)}

    def name(m: int) -> str:
        return "1" if not m else "".join(f"x{g + 1}" for g in range(n) if (m >> g) & 1)

    basis = [BasisElement(name(m), m.bit_count()) for m in masks]
    full = (1 << n) - 1
    mult: dict[tuple[int, int], tuple[int, ...]] = {}
    for s in masks:
        # walk the submasks of the complement: exactly the disjoint partners
        comp = full ^ s
        t = comp
        i = index[s]
        while True:
            mult[(i, index[t])] = (index[s | t],)
            if t == 0:
                break
            t = (t - 1) & comp
    return GradedRing(basis, unit=0, mult=mult, label=f"exterior_{n}")


def build_truncated_poly(n: int) -> GradedRing:
    """F2[a]/(a^(n+1)) with deg(a) = 1: the mod-2 cohomology ring of RP^n."""
    if n < 1:
        raise SizeLimit(f"truncated polynomial ring supported for n >= 1, got {n}")
    basis = [BasisElement("1" if i == 0 else ("a" if i == 1 else f"a^{i}"), i)
             for i in range(n + 1)]
    mult = {(i, j): (i + j,) for i in range(n + 1) for j in range(n + 1) if i + j <= n}
    return GradedRing(basis, unit=0, mult=mult, label=f"truncated_poly_{n}")


@dataclass(frozen=True, eq=False)
class Derivation:
    """Degree-shifting F2-linear map stored as one matrix per degree.

    Maps are full per-degree matrices even when the map is determined by
    generator values, so arbitrary non-Leibniz linear maps can be
    represented and rejected by ``check_leibniz``.
    """

    ring: GradedRing
    shift: int
    maps: dict[int, f2linalg.F2Matrix]

    def __post_init__(self):
        for d, m in self.maps.items():
            src = len(self.ring.degree_basis(d))
            tgt = len(self.ring.degree_basis(d + self.shift))
            if (m.rows, m.cols) != (tgt, src):
                raise ValueError(f"map at degree {d} has shape {(m.rows, m.cols)}, "
                                 f"expected {(tgt, src)}")

    def matrix(self, d: int) -> f2linalg.F2Matrix:
        src = len(self.ring.degree_basis(d))
        tgt = len(self.ring.degree_basis(d + self.shift))
        return self.maps.get(d, f2linalg.F2Matrix.zeros(tgt, src))

    def apply(self, elt: Element) -> Element:
        out: Element = frozenset()
        by_degree: dict[int, list[int]] = {}
        for i in elt:
            by_degree.setdefault(self.ring.basis[i].degree, []).append(i)
        for d, idxs in by_degree.items():
            vec = self.ring.vector_of(frozenset(idxs), d)
            img = self.matrix(d).mul_vec(vec)
            out ^= self.ring.element_of(img, d + self.shift)
        return out

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps.values())

    def generator_values(self) -> dict[str, tuple[str, ...]]:
        """Values on the degree-1 basis, keyed and listed by name."""
        return {self.ring.basis[g].name: self.ring.names_of(self.apply(frozenset({g})))
                for g in self.ring.degree_basis(1)}

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        if self.ring is not other.ring or self.shift != other.shift:
            return False
        return all(self.matrix(d) == other.matrix(d) for d in self.ring.degrees())

    def __hash__(self):
        return hash((id(self.ring), self.shift,
                     tuple(self.matrix(d) for d in self.ring.degrees())))


def check_leibniz(d: Derivation) -> bool:
    """True iff d(ab) = d(a)b + a d(b) on every basis pair."""
    ring = d.ring
    d_of = [d.apply(frozenset({i})) for i in range(ring.dim)]
    for i in range(ring.dim):
        ei = frozenset({i})
        di = d_of[i]
        for j in range(ring.dim):
            lhs: Element = frozenset()
            for k in ring.basis_mul(i, j):
                lhs ^= d_of[k]
            rhs = ring.mul(di, frozenset({j})) ^ ring.mul(ei, d_of[j])
            if lhs != rhs:
                return False
    return True


def derivation_from_generator_values(ring: GradedRing, shift: int,
                                     values: Mapping[int, Element]) -> Derivation:
    """Unique Leibniz extension of values assigned to the degree-1 generators.

    ``values`` maps each degree-1 basis index to an element of degree
    1 + shift (the empty element when that degree is unoccupied). Values on
    higher degrees are solved through the multiplication table and the
    extension is verified against all ring relations; an extension that
    contradicts a relation raises InconsistentExtension.
    """
    if not ring.is_degree_one_generated():
        raise NotDegreeOneGenerated(f"{ring.label} is not generated in degree 1")
    gens = ring.degree_basis(1)
    target_dim = len(ring.degree_basis(1 + shift))
    value_elts: dict[int, Element] = {}
    for g in gens:
        v = _as_element(values.get(g, ZERO))
        if v and (1 + shift < 0 or target_dim == 0):
            raise ValueError("generator value assigned in an unoccupied degree")
        if v and any(ring.basis[i].degree != 1 + shift for i in v):
            raise ValueError("generator value has wrong degree")
        value_elts[g] = v

    deriv_on: dict[int, Element] = {ring.unit: ZERO}
    deriv_on.update(value_elts)
    maps: dict[int, f2linalg.F2Matrix] = {}

    def matrix_for(degree: int, images: Sequence[Element]) -> f2linalg.F2Matrix:
        tgt = len(ring.degree_basis(degree + shift))
        rows_by_col = [ring.vector_of(img, degree + shift) if img else 0 for img in images]
        entries = [(r, c) for c, v in enumerate(rows_by_col)
                   for r in range(tgt) if (v >> r) & 1]
        return f2linalg.F2Matrix.from_entries(tgt, len(images), entries)

    maps[0] = matrix_for(0, [ZERO])
    if ring.degree_basis(1):
        maps[1] = matrix_for(1, [value_elts[g] for g in gens])

    for d in sorted(ring.degrees()):
        if d < 2:
            continue
        pair_cols, preimages = ring._product_preimages(d)
        images = []
        for e, coords in zip(ring.degree_basis(d), preimages):
            if coords is None:
                raise NotDegreeOneGenerated(
                    f"degree {d} element not reachable from degree-1 products")
            img: Element = frozenset()
            m = coords
            while m:
                low = m & -m
                g, f = pair_cols[low.bit_length() - 1]
                img ^= ring.mul(deriv_on[g], frozenset({f}))
                img ^= ring.mul(frozenset({g}), deriv_on[f])
                m ^= low
            images.append(img)
        for e, img in zip(ring.degree_basis(d), images):
            deriv_on[e] = img
        maps[d] = matrix_for(d, images)

    result = Derivation(ring, shift, maps)
    if not check_leibniz(result):
        raise InconsistentExtension(
            "Leibniz extension of the generator values contradicts a ring relation")
    return result


def iter_derivations(ring: GradedRing, shift: int):
    """Yield all Leibniz derivations of the given shift, in canonical order.

    Generator assignments run in lexicographic order of their concatenated
    coordinate vectors; assignments whose Leibniz extension contradicts a
    relation are skipped.
    """
    if not ring.is_degree_one_generated():
        raise NotDegreeOneGenerated(f"{ring.label} is not generated in degree 1")
    gens = ring.degree_basis(1)
    target = ring.degree_basis(1 + shift) if 1 + shift >= 0 else ()
    t = len(target)
    total_bits = len(gens) * t
    if 1 << total_bits > MAX_ENUMERATION_ASSIGNMENTS:
        raise SizeLimit(f"2^{total_bits} generator assignments exceed the "
                        f"enumeration bound")
    for assignment in range(1 << total_bits):
        values = {}
        for p, g in enumerate(gens):
            chunk = (assignment >> (p * t)) & ((1 << t) - 1)
            values[g] = frozenset(target[q] for q in range(t) if (chunk >> q) & 1)
        try:
            yield derivation_from_generator_values(ring, shift, values)
        except InconsistentExtension:
            continue


def enumerate_derivations(ring: GradedRing, shift: int) -> list[Derivation]:
    """All Leibniz derivations of the given shift, by exhausting generator values."""
    return list(iter_derivations(ring, shift))


@dataclass(frozen=True)
class GeneratorFate:
    name: str
    image_degree: int
    image_dim: int


@dataclass(frozen=True)
class VanishingCertificate:
    """Certified argument that all Leibniz derivations of this shift vanish.

    Every generator is listed with its would-be image degree (negative or
    unoccupied, hence a zero space); the kernel of a Leibniz derivation is a
    subring containing the unit, so once it contains the degree-1 part of a
    degree-1-generated ring it is everything.
    """

    ring_label: str
    ring_dims: tuple[tuple[int, int], ...]
    shift: int
    generators: tuple[GeneratorFate, ...]
    closure_argument: str

    def replay(self, ring: GradedRing) -> bool:
        """Re-verify the certificate against a ring."""
        if self.shift > -2 or not ring.is_degree_one_generated():
            return False
        if tuple(sorted(ring.dims_by_degree().items())) != self.ring_dims:
            return False
        for fate in self.generators:
            if fate.image_degree != 1 + self.shift or fate.image_dim != 0:
                return False
            if len(ring.degree_basis(fate.image_degree)) != 0:
                return False
        names = {ring.basis[g].name for g in ring.degree_basis(1)}
        return names == {f.name for f in self.generators}

    def to_dict(self) -> dict:
        return {
            "ring": self.ring_label,
            "ring_dims": [[d, k] for d, k in self.ring_dims],
            "shift": self.shift,
            "generators": [{"name": f.name, "image_degree": f.image_degree,
                            "image_dim": f.image_dim} for f in self.generators],
            "closure_argument": self.closure_argument,
        }


def vanishing_lemma(ring: GradedRing, shift: int) -> VanishingCertificate:
    """Certificate that every Leibniz derivation of this shift is zero.

    Requires the ring to be generated in degree one and the shift to be at
    most -2, so each generator lands in a negative (hence zero) degree.
    """
    if not ring.is_degree_one_generated():
        raise NotDegreeOneGenerated(f"{ring.label} is not generated in degree 1")
    if shift > -2:
        raise NotApplicable(f"shift {shift} > -2: derivations need not vanish")
    fates = tuple(
        GeneratorFate(ring.basis[g].name, 1 + shift,
                      len(ring.degree_basis(1 + shift)))
        for g in ring.degree_basis(1)
    )
    argument = (
        "each degree-1 generator maps into degree "
        f"{1 + shift} < 0, a zero space, so all generators lie in the kernel; "
        "the kernel of a Leibniz derivation is multiplicatively closed and "
        "contains the unit, and the ring is generated in degree 1, so the "
        "kernel is the whole ring and the derivation is zero"
    )
    return VanishingCertificate(
        ring_label=ring.label,
        ring_dims=tuple(sorted(ring.dims_by_degree().items())),
        shift=shift,
        generators=fates,
        closure_argument=argument,
    )


@dataclass(frozen=True)
class TopClassWitness:
    """Constructive witness that a shift -1 derivation hits the top class.

    ``generator_order`` is a basis x1..xn of the degree-1 part with
    d(x1) = 1; with y = x2...xn and p the top class, x1 * d(p) = x1 * y = p,
    so d(p) is nonzero.
    """

    generator_order: tuple[str, ...]
    y: tuple[str, ...]
    top_class: tuple[str, ...]
    d_top: tuple[str, ...]
    identity_holds: bool
    d_top_nonzero: bool

    def to_dict(self) -> dict:
        return {
            "generator_order": list(self.generator_order),
            "y": list(self.y),
            "top_class": list(self.top_class),
            "d_top": list(self.d_top),
            "identity_x1_d_top_equals_top": self.identity_holds,
            "d_top_nonzero": self.d_top_nonzero,
        }


def top_class_nonvanishing(d: Derivation) -> TopClassWitness:
    """Witness that a nonzero shift -1 Leibniz derivation has d(top) != 0.

    Implements the basis-completion argument on an exterior algebra: pick a
    generator x1 with d(x1) = 1, keep the remaining generators, and verify
    x1 * d(top) = top directly in the structure table. The direct value
    d(top) is recorded alongside, so exhaustive evaluation and the
    constructive identity can be compared by the caller.
    """
    ring = d.ring
    if d.is_zero():
        raise ZeroDerivation("the zero derivation has no top-class witness")
    if d.shift != -1:
        raise NotShiftMinusOne(f"derivation shift is {d.shift}, expected -1")
    gens = ring.degree_basis(1)
    lead = next((g for g in gens if d.apply(frozenset({g})) == ring.one()), None)
    if lead is None:
        raise ZeroDerivation("derivation vanishes on every degree-1 generator")
    order = (lead,) + tuple(g for g in gens if g != lead)
    y: Element = ring.one()
    for g in order[1:]:
        y = ring.mul(y, frozenset({g}))
    top = ring.mul(frozenset({lead}), y)
    if not top:
        raise ValueError("generator product vanishes; not an exterior top class")
    d_top = d.apply(top)
    identity = ring.mul(frozenset({lead}), d_top) == top
    return TopClassWitness(
        generator_order=tuple(ring.basis[g].name for g in order),
        y=ring.names_of(y),
        top_class=ring.names_of(top),
        d_top=ring.names_of(d_top),
        identity_holds=identity,
        d_top_nonzero=bool(d_top),
    )
