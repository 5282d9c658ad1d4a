"""T-periodic Floer-type complexes over F2.

A complex is a Morse-graded F2 space together with operators
``op_k : C^m -> C^(m+1-k*NL)`` for ``k = 0..nu``, ``nu = (dimL+1) // NL``.
The full Laurent-coefficient complex never needs to be materialized: the
coefficient ring acts invertibly, so the complex is determined by the graded
space and the operator family, and its homology is computed on the fold by
degree residue mod NL. Optional product tables ``m_l`` of degree ``-l*NL``
feed the product-Leibniz check and the induced page products of
:mod:`floeralg.spectral`.

Chains are int bitmasks: bit g is generator g of the global order, which
sorts by (index, name), so each Morse degree is a contiguous run, located
by one prefix table of degree starts in ``MorseComplex``; every cut of a
chain to one degree is ``MorseComplex.part``. Each op_k is stored once, as
its nonzero images ``{g: op_k(g)}``, and each m_l as its nonzero rows
``{x: {y: m_l(x, y)}}`` (the form ``GradedRing.rows`` keeps), so a table
costs what it holds, not n or n^2. D = sum_k op_k is one image per
generator, their XOR (``differential_images``), read by ``d2_report``, the
folded homology and the page engine of :mod:`floeralg.spectral`. The
product-Leibniz check and the window and E_1 oracles read each ``ops[k]``
on its own, not D, and ``MorseComplex.glue`` places per-degree blocks over
the generator order, for the census change of basis.

Operator and product tables are always inputs, synthetic or user-supplied;
nothing here counts holomorphic objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Optional, Sequence, Union

from . import f2linalg
from .errors import (
    NotADifferential,
    ProductsAbsent,
    ShapeMismatch,
)
from .f2linalg import F2Matrix
from .gradedalg import Derivation, GradedRing

MAX_TOTAL_DIM = 64
MAX_CENSUS_NL = 10_000
MAX_DIML = 1000
MAX_GENERATORS = 10_000

# m_l as its nonzero rows: x -> y -> m_l(g_x, g_y), a chain bitmask
ProductRows = dict[int, dict[int, int]]


@dataclass(frozen=True)
class Generator:
    name: str
    index: int


class MorseComplex:
    """Generator layout of a Morse-graded complex: named critical points.

    Generators are kept in canonical order, sorted by (index, name), so
    each degree's generators are contiguous: coordinate i of degree m is
    generator ``degree_offset(m) + i``. This class alone knows that layout,
    as one prefix table ``_starts``: ``_starts[m]`` is the position where
    degree m starts, for m = 0..dimL + 1, built in one counting pass. Every
    lookup is one range test and an index into it, so any degree, negative
    or past dimL, may be asked for and is empty there. ``part`` cuts a
    chain down to one degree. A map shifting Morse degree by ``shift`` is a
    family of blocks C^m -> C^(m+shift); ``glue`` places them in one n x n
    matrix over the generator order.
    """

    def __init__(self, generators: Sequence[Generator], dimL: int):
        if dimL > MAX_DIML:
            raise ShapeMismatch(f"dimL {dimL} exceeds {MAX_DIML}")
        if len(generators) > MAX_GENERATORS:
            raise ShapeMismatch(f"{len(generators)} generators exceed {MAX_GENERATORS}")
        self.generators = tuple(sorted(generators, key=lambda g: (g.index, g.name)))
        self.dimL = dimL
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ShapeMismatch("duplicate generator names")
        if any(not (0 <= g.index <= dimL) for g in self.generators):
            raise ShapeMismatch("generator index outside [0, dimL]")
        counts = [0] * (dimL + 2)
        for g in self.generators:
            counts[g.index + 1] += 1
        self._starts = list(accumulate(counts))

    def degree_offset(self, m: int) -> int:
        """Number of generators of degree below m: the position where degree
        m starts, occupied or not (0 below degree 0, n above dimL)."""
        if 0 <= m <= self.dimL:
            return self._starts[m]
        return 0 if m < 0 else self._starts[-1]

    def dim_at(self, m: int) -> int:
        return self._starts[m + 1] - self._starts[m] if 0 <= m <= self.dimL else 0

    def degree_positions(self, m: int) -> range:
        return range(self._starts[m], self._starts[m + 1]) if 0 <= m <= self.dimL else range(0)

    def degree_mask(self, m: int) -> int:
        """Chain bitmask of every generator of Morse degree m."""
        if not 0 <= m <= self.dimL:
            return 0
        return (1 << self._starts[m + 1]) - (1 << self._starts[m])

    def part(self, chain: int, m: int) -> int:
        """Degree-local vector of the part of a chain in degree m (0 if C^m is zero)."""
        if not 0 <= m <= self.dimL:
            return 0
        lo, hi = self._starts[m], self._starts[m + 1]
        return chain >> lo & ((1 << (hi - lo)) - 1)

    def position_of(self, name: str) -> int:
        for pos, g in enumerate(self.generators):
            if g.name == name:
                return pos
        raise KeyError(name)

    def glue(self, blocks: Mapping[int, F2Matrix], shift: int) -> F2Matrix:
        """Blocks C^m -> C^(m+shift) as one n x n matrix: block m starts at
        row ``degree_offset(m + shift)`` and column ``degree_offset(m)``."""
        rows = [0] * len(self.generators)
        for m, mat in blocks.items():
            tgt, src = self.degree_offset(m + shift), self.degree_offset(m)
            rows[tgt:tgt + mat.rows] = [row << src for row in mat.bits]
        return F2Matrix(len(rows), len(rows), tuple(rows))


class FloerComplex:
    """Validated complex: Morse data, minimal Maslov number, operator family.

    Use :func:`assemble` to construct one; the constructor assumes shapes
    were already checked. ``ops[k]`` is op_k as its nonzero images
    ``{g: op_k(g)}``, keyed by generator position, and ``products[l]`` the
    nonzero rows of m_l, ``{x: {y: m_l(g_x, g_y)}}``; images and products
    are chain bitmasks, and an absent key, image or table is zero. Both are
    kept as given and must not change once ``differential_images`` is read.
    """

    def __init__(self, morse: MorseComplex, NL: int,
                 ops: dict[int, dict[int, int]],
                 products: Optional[dict[int, ProductRows]] = None):
        self.morse = morse
        self.NL = NL
        self.nu = (morse.dimL + 1) // NL
        self.ops = ops
        self.products = products

    @property
    def dimL(self) -> int:
        return self.morse.dimL

    @property
    def products_bound(self) -> int:
        return (2 * self.dimL) // self.NL

    # -- chains ------------------------------------------------------------

    def chain_to_vec(self, chain: frozenset, m: int) -> int:
        """Degree-local vector of a chain of degree-m generator positions."""
        return sum(1 << g for g in chain) >> self.morse.degree_offset(m)

    def vec_to_chain(self, vec: int, m: int) -> frozenset:
        off = self.morse.degree_offset(m)
        return frozenset(p + off for p in f2linalg._bits_of(vec))

    @cached_property
    def differential_images(self) -> tuple[int, ...]:
        """D(g) for every generator g, as chain bitmasks: the XOR of the op_k(g)."""
        d = [0] * len(self.morse.generators)
        for images in self.ops.values():
            for g, image in images.items():
                d[g] ^= image
        return tuple(d)

    @cached_property
    def d2_report(self) -> IdentityReport:
        """``check_d_squared`` of this complex, run once on first read."""
        return check_d_squared(self)


def assemble(morse: MorseComplex, NL: int,
             ops: Mapping[int, Mapping[int, int]],
             products: Optional[dict[int, ProductRows]] = None,
             ) -> FloerComplex:
    """Validate an operator family (and optional product tables) into a FloerComplex.

    ``ops[k]`` is op_k, k = 0..nu, as its images ``{g: op_k(g)}`` over the
    generator positions of ``morse``; zero images are dropped. op_0 is the
    Morse boundary; a missing k means zero, and op_0 is always stored. An
    index outside 0..nu, a position outside 0..n-1 or an image with a bit
    outside its target degree g.index + 1 - k*NL raises ShapeMismatch,
    checked in position order, so that message names the first such
    generator. A family whose total differential does not square to zero
    raises NotADifferential naming the first failing convolution index and
    a witness generator. ``NL`` is capped at ``MAX_CENSUS_NL``, as the
    residue reports and the window oracle grow with it.

    ``products[l]`` is m_l as its nonzero rows ``{x: {y: chain}}``, kept as
    given (see ``FloerComplex``). An index l outside 0..2*dimL//NL raises
    ShapeMismatch, and so does a product with a bit outside degree
    g_x.index + g_y.index - l*NL; that message names the first such pair
    (x, y) in the order the rows were given, x's row before y within it.
    """
    if NL < 2:
        raise ShapeMismatch(f"NL must be >= 2, got {NL}")
    if NL > MAX_CENSUS_NL:
        raise ShapeMismatch(f"NL {NL} exceeds {MAX_CENSUS_NL}")
    nu = (morse.dimL + 1) // NL
    gens = morse.generators
    stored: dict[int, dict[int, int]] = {0: {}}
    for k, images in ops.items():
        if not 0 <= k <= nu:
            raise ShapeMismatch(f"operator index {k} outside 0..nu={nu}")
        items = sorted(images.items())
        for g, image in items:
            if not 0 <= g < len(gens):
                raise ShapeMismatch(f"op_{k} has an image at {g}, outside 0..{len(gens) - 1}")
            if image & ~morse.degree_mask(gens[g].index + 1 - k * NL):
                raise ShapeMismatch(f"op_{k}({gens[g].name}) has entries of wrong degree")
        stored[k] = {g: image for g, image in items if image}

    fc = FloerComplex(morse, NL, stored, products)
    for l, rows in (products or {}).items():
        if l < 0 or l > fc.products_bound:
            raise ShapeMismatch(f"product index {l} outside 0..{fc.products_bound}")
        for x, row in rows.items():
            for y, chain in row.items():
                if chain & ~morse.degree_mask(gens[x].index + gens[y].index - l * NL):
                    raise ShapeMismatch(f"m_{l}({gens[x].name}, {gens[y].name}) "
                                        f"has entries of wrong degree")

    if not fc.d2_report.ok:
        l, name = fc.d2_report.first_failure
        raise NotADifferential(f"convolution identity fails at l={l}, witness "
                               f"generator {name}")
    return fc


@dataclass(frozen=True)
class IdentityEntry:
    """The verdict on one identity of index l, with the first failure's
    witness: a generator name for d^2 = 0, a generator pair for product
    Leibniz."""

    l: int
    ok: bool
    witness: Union[str, tuple[str, str], None]


@dataclass(frozen=True)
class IdentityReport:
    entries: tuple[IdentityEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def first_failure(self) -> tuple[int, Union[str, tuple[str, str]]]:
        e = next(e for e in self.entries if not e.ok)
        return e.l, e.witness


def check_d_squared(fc: FloerComplex) -> IdentityReport:
    """Per-l verdicts for the convolution identities sum(op_i op_j) = 0.

    D^2(g) is formed once per generator from the cached images D(g). For g
    of degree m, its part in degree m + 2 - l*NL fixes l and, for each split
    i + j = l, the middle degree m + 1 - j*NL; so it is the sum over i + j = l
    of op_i op_j (g). The witness is the first such g in the generator order:
    the first nonzero column of the lowest failing degree. The nonzero
    columns are picked out once, so a valid complex costs no scan per l.
    """
    images = fc.differential_images
    square = (f2linalg._combine(images, image) for image in images)
    nonzero = [(g, col) for g, col in zip(fc.morse.generators, square) if col]
    entries = []
    for l in range(2 * fc.nu + 1):
        witness = next((g.name for g, col in nonzero
                        if col & fc.morse.degree_mask(g.index + 2 - l * fc.NL)), None)
        entries.append(IdentityEntry(l, witness is None, witness))
    return IdentityReport(tuple(entries))


def folded_homology(fc: FloerComplex) -> dict[int, int]:
    """F2 dimensions of the homology of the fold, one per residue mod NL.

    The fold groups Morse degrees by residue; the total operator sum is a
    differential on it, and its homology at residue ``l`` equals the
    homology of the full Laurent complex in any degree congruent to ``l``.
    That needs d^2 = 0, read from the complex's ``d2_report``. Each op_k
    moves degree by 1 - k*NL = 1 (mod NL), so D maps residue r into r + 1
    and the fold's map at r is D on the span of the residue-r generators,
    of the rank of their images D(g); an unoccupied residue has homology 0.
    """
    if not fc.d2_report.ok:
        l, name = fc.d2_report.first_failure
        raise NotADifferential(f"convolution identity fails at l={l}, witness "
                               f"generator {name}")
    N = fc.NL
    images: dict[int, list[int]] = {}
    for g, image in zip(fc.morse.generators, fc.differential_images):
        images.setdefault(g.index % N, []).append(image)
    n = len(fc.morse.generators)
    ranks = {r: f2linalg.rank(F2Matrix.from_row_ints(rows, n)) for r, rows in images.items()}
    return {r: len(images.get(r, ())) - ranks.get(r, 0) - ranks.get((r - 1) % N, 0)
            for r in range(N)}


def check_product_leibniz(fc: FloerComplex) -> IdentityReport:
    """Convolution Leibniz identity, per index l and per generator pair.

    For every l and every generator pair (x, y), summed over i + j = l,

        op_j(m_i(x, y)) = m_i(op_j x, y) + m_i(x, op_j y).

    For fixed x write M_i^x for the map y -> m_i(x, y); the identity says
    that op_j . M_i^x equals sum_{x' in op_j x} M_i^x' + M_i^x . op_j, summed
    over the splits. Chains are bitmasks over the global generator order,
    op_j is held as its nonzero images and m_i as its nonzero rows, so the
    columns of one x are a dict of the y some term reaches: those of row x
    and of the rows x' in op_j x, and for m_i(x, op_j y) each y whose image
    meets row x, read off the nonzero preimages of op_j. A split whose m_i
    or op_j is zero, and an x with no row and no image, add nothing.

    Every pair is checked exactly: its column is the symmetric difference
    of the two sides as chains. Pairs are visited in the order (l, x, y)
    of the generator order and the first nonzero column is the witness, so
    each entry and witness is the one the pair-by-pair check on chains
    reports.
    """
    if fc.products is None:
        raise ProductsAbsent("complex has no product tables")
    gens = fc.morse.generators
    nonzero = {i: rows for i, rows in fc.products.items() if rows}
    ops = {j: (images, sum(1 << g for g in images), _transpose(images))
           for j, images in fc.ops.items() if nonzero and images}
    xs = sorted(set().union(*nonzero.values(), *(images for images, _, _ in ops.values())))
    entries = []
    for l in range(fc.products_bound + fc.nu + 1):
        splits = [(nonzero[i], *ops[l - i]) for i in range(l + 1)
                  if i in nonzero and l - i in ops]
        pair = _first_leibniz_failure(splits, xs) if splits else None
        witness = None if pair is None else (gens[pair[0]].name, gens[pair[1]].name)
        entries.append(IdentityEntry(l, witness is None, witness))
    return IdentityReport(tuple(entries))


def _transpose(images: dict[int, int]) -> dict[int, int]:
    """The nonzero preimages of an operator given by its nonzero images:
    bit g of entry h is set when h is in the image of g."""
    out: dict[int, int] = {}
    for g, image in images.items():
        for h in f2linalg._bits_of(image):
            out[h] = out.get(h, 0) | 1 << g
    return out


def _first_leibniz_failure(splits, xs: list[int]) -> Optional[tuple[int, int]]:
    """First pair (x, y) whose Leibniz column is nonzero, in (x, y) order."""
    for x in xs:
        diff: dict[int, int] = {}
        for rows, images, support, preimages in splits:
            if x in images:  # sum over x' in op_j x of M_i^x'
                for xp in f2linalg._bits_of(images[x]):
                    for y, chain in rows.get(xp, {}).items():
                        diff[y] = diff.get(y, 0) ^ chain
            for yp, chain in rows.get(x, {}).items():
                # op_j(m_i(x, y')) at y', and m_i(x, y') at each y with y' in op_j y
                diff[yp] = diff.get(yp, 0) ^ f2linalg._combine(images, chain & support)
                if yp in preimages:
                    for y in f2linalg._bits_of(preimages[yp]):
                        diff[y] = diff.get(y, 0) ^ chain
        failing = [y for y, col in diff.items() if col]
        if failing:
            return x, min(failing)
    return None


# -- synthetic complexes ------------------------------------------------------


def _random_invertible(rng: random.Random, n: int) -> F2Matrix:
    if n == 0:
        return F2Matrix.zeros(0, 0)
    while True:
        m = F2Matrix.from_row_ints([rng.getrandbits(n) for _ in range(n)], n)
        if f2linalg.rank(m) == n:
            return m


def _random_matrix(rng: random.Random, rows: int, cols: int) -> F2Matrix:
    return F2Matrix.from_row_ints([rng.getrandbits(cols) for _ in range(rows)], cols)


def random_complex_census(seed: int, dims: Sequence[int], NL: int
                          ) -> tuple[FloerComplex, dict[int, int]]:
    """Deterministic pseudo-random valid complex plus its expected homology.

    Builds a direct sum of elementary two-term complexes in mixed T-degrees
    (each pair is one op_k arrow between otherwise untouched generators),
    then conjugates by a random filtration-preserving change of basis. The
    second return value gives the folded homology dims predicted by the
    pairing bookkeeping: one class per unpaired generator.

    The base pairs give one n x n matrix d over the generator order, with
    op_k as its blocks from m to m + 1 - k*NL; the change of basis glues
    (``MorseComplex.glue``) into phi with its k-th term as the blocks from
    m to m - k*NL; and column g of d' = phi^-1 d phi, split by the degree
    masks of g.index + 1 - l*NL, gives op'_l(g). Proof that this is the
    filtered conjugation: matrices whose blocks all run from m to m - k*NL,
    k >= 0, form an algebra, and it is closed under inverse (an inverse is
    a polynomial in its matrix, by Cayley-Hamilton); so phi^-1 is the
    filtered inverse psi, and each block of psi d phi is the sum over
    i + j + k = l of psi_i d_j phi_k. ``NL`` is capped at ``MAX_CENSUS_NL``,
    as the expected dims and every residue check grow with it.
    """
    if len(dims) - 1 > MAX_DIML:
        raise ShapeMismatch(f"dimL {len(dims) - 1} exceeds {MAX_DIML}")
    if any(d < 0 for d in dims):
        raise ShapeMismatch(f"negative dimension in {tuple(dims)}")
    if sum(dims) > MAX_TOTAL_DIM:
        raise ShapeMismatch(f"total dimension {sum(dims)} exceeds {MAX_TOTAL_DIM}")
    if NL < 2:
        raise ShapeMismatch("NL must be >= 2")
    if NL > MAX_CENSUS_NL:
        raise ShapeMismatch(f"NL {NL} exceeds {MAX_CENSUS_NL}")
    rng = random.Random(seed)
    dimL = len(dims) - 1
    nu = (dimL + 1) // NL

    generators = [Generator(f"c{m}_{i:02d}", m)
                  for m in range(dimL + 1) for i in range(dims[m])]
    unused = {m: list(range(dims[m])) for m in range(dimL + 1)}
    base: dict[int, dict[int, list[tuple[int, int]]]] = {k: {} for k in range(nu + 1)}
    options = [(k, m) for k in range(nu + 1) for m in range(dimL + 1)
               if 0 <= m + 1 - k * NL <= dimL]
    rng.shuffle(options)
    for k, m in options:
        t = m + 1 - k * NL
        while unused[m] and unused[t] and rng.random() < 0.6:
            src = unused[m].pop(rng.randrange(len(unused[m])))
            tgt = unused[t].pop(rng.randrange(len(unused[t])))
            base[k].setdefault(m, []).append((tgt, src))

    expected = {r: 0 for r in range(NL)}
    for m in range(dimL + 1):
        expected[m % NL] += len(unused[m])

    morse = MorseComplex(generators, dimL)
    off = morse.degree_offset
    d = F2Matrix.from_entries(len(generators), len(generators), [
        (off(m + 1 - k * NL) + tgt, off(m) + src)
        for k, per in base.items() for m, pairs in per.items() for tgt, src in pairs])
    # filtration-preserving change of basis: invertible blocks in T-degree 0,
    # arbitrary blocks pushing Morse degree down by k*NL
    phi = morse.glue({m: _random_invertible(rng, dims[m]) for m in range(dimL + 1)}, 0)
    for k in range(1, nu + 1):
        phi = phi + morse.glue({m: _random_matrix(rng, dims[m - k * NL], dims[m])
                                for m in range(k * NL, dimL + 1)}, -k * NL)
    columns = (phi.inverse() @ d @ phi).transpose().bits
    ops = {l: {p: col & morse.degree_mask(g.index + 1 - l * NL)
               for p, (g, col) in enumerate(zip(morse.generators, columns))}
           for l in range(nu + 1)}
    return assemble(morse, NL, ops), expected


def complex_from_ring(ring: GradedRing, NL: int,
                      derivation: Optional[Derivation] = None,
                      boundary: Optional[Derivation] = None,
                      with_products: bool = False) -> FloerComplex:
    """Complex on a graded ring's underlying space.

    With no ``boundary`` the Morse boundary is zero (one critical point per
    cohomology class). A shift +1 derivation can be supplied as a nonzero
    Morse boundary, op_1 is the given shift 1 - NL derivation, and, when
    requested, m_0 is the ring multiplication table with all higher product
    tables zero. Derivations keep the product tables Leibniz-consistent.
    """
    dimL = ring.top_degree()
    generators = [Generator(b.name, b.degree) for b in ring.basis]
    morse = MorseComplex(generators, dimL)

    position = {g.name: p for p, g in enumerate(morse.generators)}
    cpos = [position[b.name] for b in ring.basis]

    def chain(element: int) -> int:
        return sum(1 << cpos[h] for h in f2linalg._bits_of(element))

    def images(d: Derivation) -> dict[int, int]:
        return {cpos[g]: chain(img) for g, img in enumerate(d.images) if img}

    ops: dict[int, dict[int, int]] = {}
    if boundary is not None:
        if boundary.shift != 1:
            raise ShapeMismatch(f"boundary derivation shift {boundary.shift} "
                                f"is not +1")
        ops[0] = images(boundary)
    if derivation is not None:
        if derivation.shift != 1 - NL:
            raise ShapeMismatch(f"derivation shift {derivation.shift} does not "
                                f"match 1 - NL = {1 - NL}")
        ops[1] = images(derivation)

    products = None
    if with_products:
        products = {0: {cpos[i]: {cpos[j]: chain(ks) for j, ks in row.items()}
                        for i, row in enumerate(ring.rows) if row}}

    return assemble(morse, NL, ops, products)
