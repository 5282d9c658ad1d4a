"""Finite-dimensional graded F2 algebras, cup products and Leibniz derivations.

Ring elements are ``frozenset[int]`` of basis indices (an F2 sum of basis
elements); addition is symmetric difference. Multiplication is an explicit
structure table over the named basis, which keeps everything exact and
makes equality of maps payload equality. Internally the table is also read
as bitmask rows, bit k of ``rows[i][j]`` meaning e_k occurs in e_i e_j.

The module also houses the degree-shift vanishing argument: on a ring
generated in degree one, every Leibniz derivation lowering degree by two or
more kills the generators (their image degree is negative) and therefore,
since the kernel of a derivation is a subring, kills everything.

Derivations are only defined here on rings that meet three hypotheses:
generation by the unit and the degree-1 part, the two-sided unit law, and
associativity on triples (g, b, c) with g of degree 1. Every derivation
entry point (``derivation_from_generator_values``, ``iter_derivations``,
``check_leibniz``, ``vanishing_lemma``) checks them once per ring through
:meth:`GradedRing.require_leibniz_hypotheses` and raises
``NotDegreeOneGenerated`` or ``RingAxiomFailure``, both input errors that
the CLI reports with exit 2.
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
    RingAxiomFailure,
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
        # position of each basis index inside its degree, per degree
        self._positions = {d: {g: p for p, g in enumerate(idx)}
                           for d, idx in self._by_degree.items()}
        self._units = [1 << k for k in range(len(self.basis))]
        self._name_index = {b.name: i for i, b in enumerate(self.basis)}
        if len(self._name_index) != len(self.basis):
            raise ValueError("duplicate basis names")
        degree = [b.degree for b in self.basis]
        for (i, j), prod in self.mult.items():
            d = degree[i] + degree[j]
            for k in prod:
                if degree[k] != d:
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
        pos = self._positions.get(degree, {})
        v = 0
        for i in elt:
            if i not in pos:
                raise ValueError("element has support outside the degree")
            v |= 1 << pos[i]
        return v

    def element_of(self, vec: int, degree: int) -> Element:
        idx = self.degree_basis(degree)
        return frozenset(idx[p] for p in range(len(idx)) if (vec >> p) & 1)

    def _local(self, mask: int, degree: int) -> int:
        """Coordinates in the degree slot of a bitmask over basis indices."""
        pos = self._positions.get(degree, {})
        v = 0
        while mask:
            low = mask & -mask
            v |= 1 << pos[low.bit_length() - 1]
            mask ^= low
        return v

    def _entry(self, i: int, j: int) -> int:
        """e_i e_j as a bitmask over basis indices, read from ``mult``.

        A one-element product is the shared int ``self._units[k]``, so the
        table holds one object per basis element and two equal entries are
        usually the same object; a repeated index counts once, as in
        ``basis_mul``.
        """
        prod = self.mult.get((i, j), ())
        if len(prod) == 1:
            return self._units[prod[0]]
        mask = 0
        for k in prod:
            mask |= 1 << k
        return mask

    def _rows(self) -> list[dict[int, int]]:
        """The table as bitmask rows: ``rows[i][j]`` is e_i e_j, zeros omitted.

        Built on first use and cached.
        """
        rows = self.__dict__.get("_table_rows")
        if rows is None:
            rows = [{} for _ in self.basis]
            for (i, j), prod in self.mult.items():
                if len(prod) == 1:
                    rows[i][j] = self._units[prod[0]]
                elif prod:
                    rows[i][j] = self._entry(i, j)
            self.__dict__["_table_rows"] = rows
        return rows

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
        gens = self.degree_basis(1)
        prev = [1 << g for g in gens]  # spans degree d - 1, as basis bitmasks
        for d in sorted(dims):
            if d < 2:
                continue
            # echelon insertion with early exit once the degree is spanned;
            # the kept products span what their reductions span, and stay sparse
            pivots: dict[int, int] = {}
            spanning: list[int] = []
            for g in gens:
                for f in prev:
                    p = 0
                    while f:
                        low = f & -f
                        p ^= self._entry(g, low.bit_length() - 1)
                        f ^= low
                    if f2linalg._echelon_insert(pivots, p):
                        spanning.append(p)
                        if len(pivots) == dims[d]:
                            break
                if len(pivots) == dims[d]:
                    break
            if len(pivots) != dims[d]:
                return False
            prev = spanning
        return True

    def require_leibniz_hypotheses(self) -> None:
        """Raise unless the ring meets the hypotheses of the derivation code.

        The hypotheses are generation by the unit and the degree-1 part
        (else ``NotDegreeOneGenerated``), the unit law 1 b = b = b 1 on
        every basis element and associativity (g b) c = g (b c) on every
        triple with g of degree 1 (else ``RingAxiomFailure``, naming the
        first failure). The first failure is the unit law at the lowest
        basis index, else the triple lowest in the order (g, b, c).

        Together they give full associativity, by induction on the degree
        of a in (a b) c = a (b c): degree 0 is a multiple of the unit, and
        for a = g a' the checked triples and the induction give
        ((g a') b) c = (g (a' b)) c = g ((a' b) c) = g (a' (b c)) = (g a') (b c);
        a sum of such a is handled by linearity. ``check_leibniz`` relies on
        that.

        Checked once per ring and cached, over the nonzero table entries
        as bitmask rows: for each degree-1 g, the row of g b is compared
        with g applied to each entry of the row of b, O(n_1 nnz) for n_1
        generators and nnz nonzero entries.
        """
        if not self.is_degree_one_generated():
            raise NotDegreeOneGenerated(f"{self.label} is not generated in degree 1")
        if "_axiom_failure" not in self.__dict__:
            self.__dict__["_axiom_failure"] = self._first_axiom_failure()
        if self.__dict__["_axiom_failure"] is not None:
            raise RingAxiomFailure(self.__dict__["_axiom_failure"])

    def _first_axiom_failure(self) -> Optional[str]:
        rows, units = self._rows(), self._units
        names = [b.name for b in self.basis]
        one = rows[self.unit]
        for i, name in enumerate(names):
            if one.get(i, 0) != units[i] or rows[i].get(self.unit, 0) != units[i]:
                return (f"{self.label} breaks the unit law at {name}: "
                        f"{names[self.unit]} is not a two-sided unit")

        for g in self.degree_basis(1):
            row_g = rows[g]
            g_unit = [row_g.get(k, 0) for k in range(len(names))]  # g e_k
            for b, row_b in enumerate(rows):
                gb = row_g.get(b, 0)
                if not gb:
                    left = {}
                elif gb is units[gb.bit_length() - 1]:
                    left = rows[gb.bit_length() - 1]
                else:
                    acc: dict[int, int] = {}
                    for k in range(gb.bit_length()):
                        if (gb >> k) & 1:
                            for c, v in rows[k].items():
                                acc[c] = acc.get(c, 0) ^ v
                    left = {c: v for c, v in acc.items() if v}
                right = {}
                for c, v in row_b.items():
                    # one-element masks are shared objects: an O(1) identity test
                    k = v.bit_length() - 1
                    w = g_unit[k] if v is units[k] else _mask_mul(rows, units[g], v)
                    if w:
                        right[c] = w
                if left != right:
                    c = min(c for c in left.keys() | right.keys()
                            if left.get(c, 0) != right.get(c, 0))
                    return (f"{self.label} is not associative: "
                            f"({names[g]} {names[b]}) {names[c]} != "
                            f"{names[g]} ({names[b]} {names[c]})")
        return None

    def _product_preimages(self, d: int
                           ) -> tuple[tuple[tuple[int, int], ...], tuple[Optional[int], ...]]:
        """Each degree-d basis element as a sum of degree-1 products.

        Returns the pairs (g, f), g of degree 1 and f of degree d - 1, and for
        each basis element of degree d the coordinates over those pairs of
        one preimage under (g, f) -> g f, None when there is none. Depends
        on the ring only, so it is computed once per degree and cached; all
        the right-hand sides share one elimination.
        """
        cache = self.__dict__.setdefault("_preimage_cache", {})
        cached = cache.get(d)
        if cached is None:
            rows = self._rows()
            pair_cols = tuple((g, f) for g in self.degree_basis(1)
                              for f in self.degree_basis(d - 1))
            col_vecs = [self._local(rows[g].get(f, 0), d) for g, f in pair_cols]
            tgt = len(self.degree_basis(d))
            mu = f2linalg.F2Matrix.from_row_ints(col_vecs, tgt).transpose()
            cached = cache[d] = (pair_cols, tuple(
                f2linalg.solve_many(mu, [1 << p for p in range(tgt)])))
        return cached

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

    def _images(self) -> list[int]:
        """d(e_i) as a bitmask over basis indices, for every basis index i."""
        out = [0] * self.ring.dim
        for deg in self.ring.degrees():
            tgt = self.ring.degree_basis(deg + self.shift)
            cols = self.matrix(deg).transpose().bits
            for i, col in zip(self.ring.degree_basis(deg), cols):
                mask = 0
                while col:
                    low = col & -col
                    mask |= 1 << tgt[low.bit_length() - 1]
                    col ^= low
                out[i] = mask
        return out

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


def _mask_mul(rows: Sequence[Mapping[int, int]], a: int, b: int) -> int:
    """Product of two bitmask elements through the table rows."""
    out = 0
    while a:
        low = a & -a
        row = rows[low.bit_length() - 1]
        rest = b
        while rest:
            low_b = rest & -rest
            out ^= row.get(low_b.bit_length() - 1, 0)
            rest ^= low_b
        a ^= low
    return out


def _mask_apply(images: Sequence[int], a: int) -> int:
    """A linear map given by its basis images, applied to a bitmask element."""
    out = 0
    while a:
        low = a & -a
        out ^= images[low.bit_length() - 1]
        a ^= low
    return out


def check_leibniz(d: Derivation) -> bool:
    """True iff d(ab) = d(a) b + a d(b) for all ring elements a and b.

    Checks d(1) = 0 and the pairs (g, b), g a degree-1 basis element and b
    any basis element, after ``require_leibniz_hypotheses``. On such a ring
    this is equivalent to the identity on all basis pairs. Both sides are
    linear in a and in b, so induct on the degree of a basis element a:

    - degree 0: a is the unit, and d(1 b) = d(b) = d(1) b + 1 d(b) by the
      unit law and d(1) = 0;
    - degree k > 0: a is a sum of products g a', a' of degree k - 1, by
      degree-one generation, and with full associativity

          d((g a') b) = d(g (a' b)) = d(g) (a' b) + g d(a' b)     [pair (g, a' b)]
                      = d(g) (a' b) + g (d(a') b + a' d(b))         [induction]
                      = (d(g) a' + g d(a')) b + (g a') d(b)
                      = d(g a') b + (g a') d(b).                    [pair (g, a')]
    """
    ring = d.ring
    ring.require_leibniz_hypotheses()
    rows, units = ring._rows(), ring._units
    images = d._images()
    if images[ring.unit]:
        return False
    for g in ring.degree_basis(1):
        row_g, dg = rows[g], images[g]
        for b in range(ring.dim):
            lhs = _mask_apply(images, row_g.get(b, 0))
            rhs = _mask_mul(rows, dg, units[b]) ^ _mask_mul(rows, units[g], images[b])
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
    ring.require_leibniz_hypotheses()
    gens = ring.degree_basis(1)
    target_dim = len(ring.degree_basis(1 + shift))
    images = [0] * ring.dim  # d(e_i) as bitmasks; d(1) = 0
    for g in gens:
        v = _as_element(values.get(g, ZERO))
        if v and (1 + shift < 0 or target_dim == 0):
            raise ValueError("generator value assigned in an unoccupied degree")
        if v and any(ring.basis[i].degree != 1 + shift for i in v):
            raise ValueError("generator value has wrong degree")
        for i in v:
            images[g] |= 1 << i

    def matrix_for(degree: int) -> f2linalg.F2Matrix:
        cols = [ring._local(images[i], degree + shift) for i in ring.degree_basis(degree)]
        return f2linalg.F2Matrix.from_row_ints(
            cols, len(ring.degree_basis(degree + shift))).transpose()

    maps = {0: matrix_for(0)}
    if gens:
        maps[1] = matrix_for(1)

    rows, units = ring._rows(), ring._units
    for d in sorted(ring.degrees()):
        if d < 2:
            continue
        pair_cols, preimages = ring._product_preimages(d)
        for e, coords in zip(ring.degree_basis(d), preimages):
            if coords is None:
                raise NotDegreeOneGenerated(
                    f"degree {d} element not reachable from degree-1 products")
            img = 0
            while coords:
                low = coords & -coords
                g, f = pair_cols[low.bit_length() - 1]
                img ^= _mask_mul(rows, images[g], units[f])
                img ^= _mask_mul(rows, units[g], images[f])
                coords ^= low
            images[e] = img
        maps[d] = matrix_for(d)

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
    ring.require_leibniz_hypotheses()
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
    ring.require_leibniz_hypotheses()
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
