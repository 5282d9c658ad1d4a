"""Finite-dimensional graded F2 algebras, cup products and Leibniz derivations.

Multiplication is an explicit structure table over the named basis, which
keeps everything exact. The table is stored once, as bitmask rows: bit k of
``rows[i][j]`` means e_k occurs in e_i e_j. A derivation is stored once too,
as the bitmask image of each basis element, and the ring checks and the
derivation code work on such bitmasks over basis indices. Ring elements are
``frozenset[int]`` of basis indices (an F2 sum of basis elements) only at
the public API: ``one``, ``element``, ``mul`` and ``Derivation.apply`` take
and return them, converting to and from bitmasks, and addition is symmetric
difference.

The Leibniz derivations of one shift form an F2 subspace, and
``derivation_basis`` finds a basis of it from one kernel. The built-in rings
are built and checked once per process and shared by every caller.

The module also houses the degree-shift vanishing argument: on a ring
generated in degree one, every Leibniz derivation lowering degree by two or
more kills the generators (their image degree is negative) and therefore,
since the kernel of a derivation is a subring, kills everything.

Derivations are only defined here on rings that meet three hypotheses:
generation by the unit and the degree-1 part, the two-sided unit law, and
associativity on triples (g, b, c) with g of degree 1. Every derivation
entry point (``derivation_from_generator_values``, ``derivation_basis``,
``check_leibniz``, ``vanishing_lemma``) checks them once per ring through
:meth:`GradedRing.require_leibniz_hypotheses` and raises
``NotDegreeOneGenerated`` or ``RingAxiomFailure``, both input errors that
the CLI reports with exit 2.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import xor
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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

MAX_EXTERIOR_GENERATORS = 12
# F2[a]/(a^(n+1)) has (n+1)^2/2 table entries; `ring rp --n 1000` prints 31 MB
MAX_TRUNCATED_DEGREE = 1000
MAX_ENUMERATION_ASSIGNMENTS = 1 << 24
# a listing costs about 25 us, 280 bytes of output and 3 KB of peak memory per
# derivation: 2^16 print in about 2 s at a 200 MB peak, 2^18 took 6 s and 700 MB
MAX_LISTED_DERIVATIONS = 1 << 16


@dataclass(frozen=True)
class BasisElement:
    name: str
    degree: int


class GradedRing:
    """Graded F2 algebra with named basis and multiplication table.

    ``mult`` is constructor input only: it maps a pair of basis indices to
    the basis indices of their product (any iterable; a repeated index counts
    once), and absent pairs multiply to zero. The table is kept as ``rows``:
    ``rows[i][j]`` is e_i e_j as a bitmask over basis indices, zero products
    omitted, and a one-element product is the shared int ``_units[k]``, so
    two equal entries are usually the same object.
    """

    def __init__(self, basis: Sequence[BasisElement], unit: int,
                 mult: Mapping[tuple[int, int], Iterable[int]],
                 label: str = "ring"):
        self.basis = tuple(basis)
        self.unit = unit
        self.label = label
        if not (0 <= unit < len(self.basis)) or self.basis[unit].degree != 0:
            raise ValueError("unit must be a degree-0 basis element")
        by_degree: dict[int, list[int]] = {}
        for i, b in enumerate(self.basis):
            if b.degree < 0:
                raise ValueError("negative basis degree")
            by_degree.setdefault(b.degree, []).append(i)
        self._by_degree = {d: tuple(idx) for d, idx in by_degree.items()}
        # degree -> its basis as a bitmask
        self._degree_masks = {d: sum(1 << i for i in idx) for d, idx in by_degree.items()}
        # position of each basis index inside its degree, per degree
        self._positions = {d: {g: p for p, g in enumerate(idx)}
                           for d, idx in self._by_degree.items()}
        self._units = units = [1 << k for k in range(len(self.basis))]
        self._name_index = {b.name: i for i, b in enumerate(self.basis)}
        if len(self._name_index) != len(self.basis):
            raise ValueError("duplicate basis names")
        degree = [b.degree for b in self.basis]
        self.rows = rows = [{} for _ in self.basis]
        for (i, j), prod in mult.items():
            d = degree[i] + degree[j]
            mask = 0
            for k in prod:
                if degree[k] != d:
                    raise ValueError("product table is not degree-additive")
                mask = mask | units[k] if mask else units[k]  # OR, sharing units
            if mask:
                rows[i][j] = mask

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

    def mul(self, a: Element, b: Element) -> Element:
        """Bilinear extension of the structure table (the cup product)."""
        return _element_of_mask(_mask_mul(self.rows, _mask_of(a), _mask_of(b)))

    def _names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.basis[k].name for k in f2linalg._bits_of(mask))

    def _local(self, mask: int, degree: int) -> int:
        """Coordinates in the degree slot of a bitmask over basis indices."""
        pos = self._positions.get(degree, {})
        return sum(1 << pos[k] for k in f2linalg._bits_of(mask))

    # -- verification ---------------------------------------------------------

    def is_degree_one_generated(self) -> bool:
        """Do the unit and the degree-1 part generate the whole ring?

        Verified constructively: close the degree-1 span under
        multiplication and compare dimensions in every degree.
        """
        if "_deg1_generated" not in self.__dict__:
            self.__dict__["_deg1_generated"] = self._verify_degree_one_generated()
        return self.__dict__["_deg1_generated"]

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
                    p = _mask_mul(self.rows, self._units[g], f)
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
        with g applied to each entry of the row of b. Under the unit law
        b = 1 cannot fail, nor can b with g b = 0 and b c = 0 for c != 1
        (both sides are then 0), so those b are skipped.
        """
        if not self.is_degree_one_generated():
            raise NotDegreeOneGenerated(f"{self.label} is not generated in degree 1")
        if "_axiom_failure" not in self.__dict__:
            self.__dict__["_axiom_failure"] = self._first_axiom_failure()
        if self.__dict__["_axiom_failure"] is not None:
            raise RingAxiomFailure(self.__dict__["_axiom_failure"])

    def _first_axiom_failure(self) -> Optional[str]:
        rows, units = self.rows, self._units
        names = [b.name for b in self.basis]
        one = rows[self.unit]
        for i, name in enumerate(names):
            if one.get(i, 0) != units[i] or rows[i].get(self.unit, 0) != units[i]:
                return (f"{self.label} breaks the unit law at {name}: "
                        f"{names[self.unit]} is not a two-sided unit")

        wide = {b for b, row in enumerate(rows) if len(row) > 1}
        for g in self.degree_basis(1):
            row_g = rows[g]
            for b in sorted(wide.union(row_g) - {self.unit}):
                gb = row_g.get(b, 0)
                if not gb:
                    left = {}
                elif gb is units[gb.bit_length() - 1]:
                    left = rows[gb.bit_length() - 1]
                else:
                    acc: dict[int, int] = {}
                    for k in f2linalg._bits_of(gb):
                        for c, v in rows[k].items():
                            acc[c] = acc.get(c, 0) ^ v
                    left = {c: v for c, v in acc.items() if v}
                right = {}
                for c, v in rows[b].items():
                    # one-element masks are shared objects: an O(1) identity test
                    k = v.bit_length() - 1
                    w = row_g.get(k, 0) if v is units[k] else _mask_mul(rows, units[g], v)
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
        on the ring only, so it is computed once per degree and cached.

        An element e that is a single product, g f = e, gets the first such
        pair in ``pair_cols`` order, read off the table rows. Only the
        elements no single product hits share one elimination (``solve_many``)
        over the products of all pairs.

        Which preimages are used changes no derivation. Let E be ``_extend``
        with them and R the residue (``_leibniz_residue``). For degree-1
        values v that some Leibniz derivation D takes, E(v) = D, by induction
        on degree: for e = sum of g_p f_p over the chosen pairs, D(e) is the
        sum of D(g_p) f_p + g_p D(f_p), with D(f_p) = E(v)(f_p) below e's
        degree, and that sum is how E(v)(e) is formed. R E(v) = 0 iff E(v)
        is a Leibniz derivation (``check_leibniz``), which then takes v. So
        the kernel of R E is the set of v that some derivation takes,
        whichever preimages are used. ``derivation_basis`` keeps assignment a iff e_a
        is not in span(e_c : c < a) + kernel, and yields, for each other a,
        the one kernel vector e_a + (kept c < a): both depend on the kernel
        alone. So the basis, its images and every ``InconsistentExtension``
        are those of any other choice of preimages.
        """
        cache = self.__dict__.setdefault("_preimage_cache", {})
        cached = cache.get(d)
        if cached is None:
            rows = self.rows
            pair_cols = tuple((g, f) for g in self.degree_basis(1)
                              for f in self.degree_basis(d - 1))
            first: dict[int, int] = {}  # 1 << k -> coordinates of e_k's first single product
            for q, (g, f) in enumerate(pair_cols):
                v = rows[g].get(f, 0)
                if v and not v & (v - 1):
                    first.setdefault(v, 1 << q)
            elements = self.degree_basis(d)
            coords = [first.get(self._units[e]) for e in elements]
            rest = [p for p, c in enumerate(coords) if c is None]
            if rest:
                col_vecs = [self._local(rows[g].get(f, 0), d) for g, f in pair_cols]
                mu = f2linalg.F2Matrix.from_row_ints(col_vecs, len(elements)).transpose()
                for p, x in zip(rest, f2linalg.solve_many(mu, [1 << p for p in rest])):
                    coords[p] = x
            cached = cache[d] = (pair_cols, tuple(coords))
        return cached

    def __repr__(self):
        return f"GradedRing({self.label}, dim={self.dim})"


@functools.lru_cache
def build_exterior(n: int) -> GradedRing:
    """Exterior algebra on n degree-1 generators over F2.

    Basis: square-free monomials, one per subset of generators; squares of
    generators vanish; no signs in characteristic two. Built once per
    process and shared, so its table must not change.
    """
    if not (1 <= n <= MAX_EXTERIOR_GENERATORS):
        raise SizeLimit(f"exterior algebra supported for 1 <= n <= "
                        f"{MAX_EXTERIOR_GENERATORS}, got {n}")
    masks = sorted(
        (sum(1 << g for g in c)
         for k in range(n + 1) for c in itertools.combinations(range(n), k)),
        key=lambda m: (m.bit_count(), list(f2linalg._bits_of(m))),
    )
    index = {m: i for i, m in enumerate(masks)}

    def name(m: int) -> str:
        return "1" if not m else "".join(f"x{g + 1}" for g in f2linalg._bits_of(m))

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


@functools.lru_cache
def build_truncated_poly(n: int) -> GradedRing:
    """F2[a]/(a^(n+1)) with deg(a) = 1: the mod-2 cohomology ring of RP^n.
    Built once per process and shared, like ``build_exterior``."""
    if n < 1:
        raise SizeLimit(f"truncated polynomial ring supported for n >= 1, got {n}")
    if n > MAX_TRUNCATED_DEGREE:
        raise SizeLimit(f"truncated polynomial ring supported for n <= "
                        f"{MAX_TRUNCATED_DEGREE}, got {n}")
    basis = [BasisElement("1" if i == 0 else ("a" if i == 1 else f"a^{i}"), i)
             for i in range(n + 1)]
    mult = {(i, j): (i + j,) for i in range(n + 1) for j in range(n + 1) if i + j <= n}
    return GradedRing(basis, unit=0, mult=mult, label=f"truncated_poly_{n}")


@dataclass(frozen=True)
class Derivation:
    """Degree-shifting F2-linear map, stored as the image of each basis element.

    ``images[i]`` is d(e_i) as a bitmask over basis indices. Any tuple of
    images, one per basis element and each homogeneous of degree
    deg(e_i) + shift, is a linear map, so maps that break the Leibniz rule
    can be represented too, and ``check_leibniz`` rejects them. Equality and
    hashing are those of (ring, shift, images), and rings compare by identity.
    """

    ring: GradedRing
    shift: int
    images: tuple[int, ...]

    def __post_init__(self):
        ring = self.ring
        if len(self.images) != ring.dim:
            raise ValueError(f"{len(self.images)} images for a ring of "
                             f"dimension {ring.dim}")
        for b, img in zip(ring.basis, self.images):
            if img & ~ring._degree_masks.get(b.degree + self.shift, 0):
                raise ValueError(f"image of {b.name} is not of degree "
                                 f"{b.degree + self.shift}")

    def apply(self, elt: Element) -> Element:
        return _element_of_mask(f2linalg._combine(self.images, _mask_of(elt)))

    def is_zero(self) -> bool:
        return not any(self.images)

    def generator_values(self) -> dict[str, tuple[str, ...]]:
        """Values on the degree-1 basis, keyed and listed by name."""
        return {self.ring.basis[g].name: self.ring._names(self.images[g])
                for g in self.ring.degree_basis(1)}


def _mask_of(elt: Element) -> int:
    mask = 0
    for i in elt:
        mask |= 1 << i
    return mask


def _element_of_mask(mask: int) -> Element:
    return frozenset(f2linalg._bits_of(mask))


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


def check_leibniz(d: Derivation) -> bool:
    """True iff d(ab) = d(a) b + a d(b) for all ring elements a and b.

    Checks d(1) = 0 and the pairs (g, b), g a degree-1 basis element and b
    any basis element (``_leibniz_residue`` is zero), after
    ``require_leibniz_hypotheses``. On such a ring this is equivalent to the
    identity on all basis pairs. Both sides are linear in a and in b, so
    induct on the degree of a basis element a:

    - degree 0: a is the unit, and d(1 b) = d(b) = d(1) b + 1 d(b) by the
      unit law and d(1) = 0;
    - degree k > 0: a is a sum of products g a', a' of degree k - 1, by
      degree-one generation, and with full associativity

          d((g a') b) = d(g (a' b)) = d(g) (a' b) + g d(a' b)     [pair (g, a' b)]
                      = d(g) (a' b) + g (d(a') b + a' d(b))         [induction]
                      = (d(g) a' + g d(a')) b + (g a') d(b)
                      = d(g a') b + (g a') d(b).                    [pair (g, a')]
    """
    d.ring.require_leibniz_hypotheses()
    return not _leibniz_residue(d.ring, d.images)


def _leibniz_residue(ring: GradedRing, images: Sequence[int]) -> int:
    """What ``check_leibniz`` tests, as one int, zero iff every test passes
    and linear in the images: d(1) in bits 0..dim - 1, then for the p-th
    degree-1 generator g and basis element b, d(g) b + d(g b) + g d(b) from
    bit dim (1 + p dim + b) on.

    Each generator row is gathered into one dict keyed by b: the row of
    d(g) (the XOR of rows when d(g) has several bits), then d(g b) along
    the row of g, then g d(b) for the nonzero images only. The int is the
    one the pair-by-pair loop (``leibniz_residue_oracle`` in the tests)
    builds, bit for bit."""
    rows, dim = ring.rows, ring.dim
    nonzero = [(b, db) for b, db in enumerate(images) if db]
    residue = images[ring.unit]
    for p, g in enumerate(ring.degree_basis(1)):
        row_g, dg = rows[g], images[g]
        if not dg & (dg - 1):
            acc = dict(rows[dg.bit_length() - 1]) if dg else {}
        else:
            acc = {}
            for k in f2linalg._bits_of(dg):
                for b, v in rows[k].items():
                    acc[b] = acc.get(b, 0) ^ v
        for b, gb in row_g.items():
            dgb = images[gb.bit_length() - 1] if not gb & (gb - 1) \
                else f2linalg._combine(images, gb)
            if dgb:
                acc[b] = acc.get(b, 0) ^ dgb
        for b, db in nonzero:
            w = row_g.get(db.bit_length() - 1, 0) if not db & (db - 1) \
                else _mask_mul(rows, ring._units[g], db)
            if w:
                acc[b] = acc.get(b, 0) ^ w
        offset = dim * (1 + p * dim)
        for b, r in acc.items():
            if r:
                residue |= r << (offset + b * dim)
    return residue


def _extend(ring: GradedRing, images: list[int]) -> tuple[int, ...]:
    """``images`` filled in above degree 1, linearly in its degree-1 values:
    d(e) is the sum of d(g) f + g d(f) over the pairs (g, f) of a preimage of
    e under the product, which a ring generated in degree one has. This is
    the one Leibniz derivation with those values, if there is one."""
    rows, units = ring.rows, ring._units
    for d in sorted(ring.degrees()):
        if d < 2:
            continue
        pair_cols, preimages = ring._product_preimages(d)
        for e, coords in zip(ring.degree_basis(d), preimages):
            img = 0
            for p in f2linalg._bits_of(coords):
                g, f = pair_cols[p]
                img ^= _mask_mul(rows, images[g], units[f])
                img ^= _mask_mul(rows, units[g], images[f])
            images[e] = img
    return tuple(images)


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
    target = ring._degree_masks.get(1 + shift, 0)
    images = [0] * ring.dim  # d(e_i) as bitmasks; d(1) = 0
    for g in ring.degree_basis(1):
        for i in values.get(g, ()):
            images[g] |= 1 << i  # OR: a repeated index counts once
        if images[g] & ~target:
            raise ValueError("generator value has wrong degree")
    result = Derivation(ring, shift, _extend(ring, images))
    if _leibniz_residue(ring, result.images):
        raise InconsistentExtension(
            "Leibniz extension of the generator values contradicts a ring relation")
    return result


def derivation_basis(ring: GradedRing, shift: int) -> Iterator[Derivation]:
    """Yield a basis of the Leibniz derivations of the given shift, lazily.

    Bit p t + q of a generator assignment puts the q-th of the t elements of
    degree 1 + shift into the value of the p-th degree-1 generator. The
    extension and its residue are linear in the assignment, so the
    derivations are the extensions of one kernel. Each unit assignment e_a
    is extended, and its residue filed by lowest set bit in one echelon map
    with the extension beside it. A kept residue is that of e_b plus earlier
    kept e_c, so one of e_a that reduces to zero leaves a kernel vector with
    highest bit a and no bit at an earlier one's highest bit: the basis
    comes out fully reduced and ascending by highest bit, each element as
    soon as it is found.
    """
    ring.require_leibniz_hypotheses()
    gens = ring.degree_basis(1)
    target = ring.degree_basis(1 + shift) if 1 + shift >= 0 else ()
    t = len(target)
    total_bits = len(gens) * t
    if 1 << total_bits > MAX_ENUMERATION_ASSIGNMENTS:
        raise SizeLimit(f"2^{total_bits} generator assignments exceed the "
                        f"enumeration bound")
    pivots: dict[int, tuple[int, tuple[int, ...]]] = {}
    for a in range(total_bits):
        images = [0] * ring.dim
        images[gens[a // t]] = 1 << target[a % t]
        images = _extend(ring, images)
        r = _leibniz_residue(ring, images)
        while r and r & -r in pivots:
            kept, kept_images = pivots[r & -r]
            r, images = r ^ kept, tuple(map(xor, images, kept_images))
        if r:
            pivots[r & -r] = (r, images)
        else:
            yield Derivation(ring, shift, images)


def _listed_basis(ring: GradedRing, shift: int) -> list[Derivation]:
    """``derivation_basis`` in full, once its 2^dim combinations are known
    to fit ``MAX_LISTED_DERIVATIONS``, before any of them is built."""
    basis = list(derivation_basis(ring, shift))
    if 1 << len(basis) > MAX_LISTED_DERIVATIONS:
        raise SizeLimit(f"2^{len(basis)} derivations exceed MAX_LISTED_DERIVATIONS "
                        f"= {MAX_LISTED_DERIVATIONS}")
    return basis


def enumerate_derivations(ring: GradedRing, shift: int) -> list[Derivation]:
    """All Leibniz derivations of the given shift, ordered by assignment.

    With b(c) the sum of the basis b_i of ``derivation_basis`` over the set
    bits i of c, c < c' gives b(c) < b(c'): above the highest bit i where
    c and c' differ they agree, and only b_i has b_i's highest bit. So the
    list is b(0), b(1), ..., and its first nonzero element is b_0.
    """
    elements = [(0,) * ring.dim]
    for d in _listed_basis(ring, shift):
        elements += [tuple(map(xor, x, d.images)) for x in elements]
    return [Derivation(ring, shift, x) for x in elements]


def derivation_generator_values(ring: GradedRing, shift: int) -> list[dict[str, list[str]]]:
    """``generator_values`` (as lists) of each of ``enumerate_derivations``,
    in order: the basis cut to degree 1 (a linear cut), combined that way.
    A derivation is the one Leibniz extension of its degree-1 values and the
    basis is independent, so only the first of the 2^dim is zero."""
    gens = ring.degree_basis(1)
    values = [(0,) * len(gens)]
    for d in _listed_basis(ring, shift):
        values += [tuple(x ^ d.images[g] for x, g in zip(v, gens)) for v in values]
    return [{ring.basis[g].name: list(ring._names(x)) for g, x in zip(gens, v)} for v in values]


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


def top_class_nonvanishing(d: Derivation) -> TopClassWitness:
    """Witness that a nonzero shift -1 Leibniz derivation has d(top) != 0.

    Implements the basis-completion argument on an exterior algebra: pick a
    generator x1 with d(x1) = 1, keep the remaining generators, and verify
    x1 * d(top) = top directly in the structure table. The direct value
    d(top) is recorded alongside, for the caller to compare.
    """
    ring = d.ring
    if d.is_zero():
        raise ZeroDerivation("the zero derivation has no top-class witness")
    if d.shift != -1:
        raise NotShiftMinusOne(f"derivation shift is {d.shift}, expected -1")
    gens = ring.degree_basis(1)
    rows, units, images = ring.rows, ring._units, d.images
    lead = next((g for g in gens if images[g] == units[ring.unit]), None)
    if lead is None:
        raise ZeroDerivation("derivation vanishes on every degree-1 generator")
    order = (lead,) + tuple(g for g in gens if g != lead)
    y = units[ring.unit]
    for g in order[1:]:
        y = _mask_mul(rows, y, units[g])
    top = _mask_mul(rows, units[lead], y)
    if not top:
        raise ValueError("generator product vanishes; not an exterior top class")
    d_top = f2linalg._combine(images, top)
    identity = _mask_mul(rows, units[lead], d_top) == top
    return TopClassWitness(
        generator_order=tuple(ring.basis[g].name for g in order),
        y=ring._names(y),
        top_class=ring._names(top),
        d_top=ring._names(d_top),
        identity_holds=identity,
        d_top_nonzero=bool(d_top),
    )
