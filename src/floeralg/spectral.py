"""Page-by-page spectral sequence of the T-power filtration.

Everything is computed in the reduced T-periodic model indexed by Morse
degree m: the page-r space at m is a quotient V_r(m) = Z_r(m) / B_r(m) of
nested subspaces of C^m, and the bigraded page is V_r(m) tensored with the
T-power line. Membership of x in Z_r(m) is witnessed by a zig-zag lift
x + y_1 + ... + y_(r-1) (y_s in C^(m - s*NL), y_0 = x) solving

    sum_{k=0..s} op_k y_(s-k) = 0   for s = 0..r-1,

and the page differential is the class of the next obstruction
o_r = sum_{k=1..r} op_k y_(r-k). Vectors b of B_r(m) carry antecedent
chains w_0 + ... + w_(r-1), w_i in C^(m - 1 + (r-1-i)*NL), with
b = sum_{i+k=r-1} op_k w_i: what repairs a lift one page deeper.

A lift or a chain is one bitmask over the generator order, its summands in
distinct degrees. op_k y_j lands in degree m + 1 - (j+k)*NL, so the part
of D*lift (D = sum_k op_k, ``FloerComplex.differential_images``) in degree
m + 1 - s*NL is equation s for s < r and o_r for s = r; the engine reads
no operator block, and cuts every chain to one degree with
``MorseComplex.part``. A page stores only the degrees with C^m nonzero, each
as its two nested reduced echelon bases, of Z and of B, with the lift,
D*lift and obstruction of every Z row and the antecedent chain of every B
row, and the page stores the class of every obstruction, computed once; the
page differential is those of the representative rows, kept as its columns.
All are linear, so the next page turn takes its coefficient kernel from
the classes, combines the stored vectors and reads coordinates off pivot
bits; the paranoid second lift recomputes classes from perturbed lifts.

A page turn does only what the page changes. A degree with no nonzero
obstruction in or out keeps its lifts, chains and quotient (the proof is in
``turn_page``), and its next obstruction is one cut of the stored D*lift;
an all-zero class tuple and delta matrix are shared per shape. The page
products likewise keep a degree pair's table while the quotients it reads
stay unchanged (``induced_page_product``).

Pages collapse at nu + 1 for degree reasons: op-degree bookkeeping pushes
every later differential into negative Morse degrees. Convergence is
checked per residue against the folded homology and against a truncated
Laurent-window oracle that builds the honest bigraded complex. That oracle
and the E_1 oracle cut their columns from each stored ``fc.ops[k]`` on its
own, not from D, so they stay independent of the engine; the window oracle
visits only the stored operator keys, as an absent op_k is zero.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from operator import xor
from typing import Optional

from . import f2linalg
from .errors import LeibnizFailure, LiftFailure, ProductsAbsent
from .f2linalg import F2Matrix, QuotientMap, Subspace
from .floercomplex import FloerComplex, check_product_leibniz, folded_homology


@dataclass(frozen=True)
class PageDegree:
    """One degree of page r, stored only if C^m is nonzero: the echelon
    bases of Z_r(m) and B_r(m) are ``quotient.sup`` and ``quotient.sub``.
    ``lifts[i]`` is the lift of ``quotient.sup.basis[i]``, ``images[i]`` is
    D*``lifts[i]``, and ``obs[i]`` is its page-r obstruction, whose class the
    page stores in ``SpectralPage.classes``; ``b_chains[i]`` is the
    antecedent chain of ``quotient.sub.basis[i]``. So ``quotient.sup.coords``
    and ``quotient.sub.coords`` read the coefficients that combine them."""
    lifts: tuple[int, ...]
    b_chains: tuple[int, ...]
    quotient: QuotientMap
    obs: tuple[int, ...]
    images: tuple[int, ...]


@dataclass(frozen=True)
class SpectralPage:
    """Page r: ``data`` holds the stored degrees. For a stored degree m with
    target t = m + 1 - r*NL, ``classes[m][i]`` is the page-r class of
    ``data[m].obs[i]``, coordinates over ``reps(t)`` (0 if t is not stored),
    and ``delta[m]`` is delta_r at m kept as its columns: an F2Matrix whose
    row j is the class of the obstruction of ``reps(m)[j]``. ``delta_matrix``
    transposes it to the dim(t) x dim(m) matrix of delta_r."""
    fc: FloerComplex
    r: int
    data: dict[int, PageDegree]
    classes: dict[int, tuple[int, ...]]
    delta: dict[int, F2Matrix]
    product: Optional[dict[tuple[int, int], list[list[int]]]] = None

    def dim(self, m: int) -> int:
        return self.data[m].quotient.dim if m in self.data else 0

    def dims(self) -> list[int]:
        return [self.dim(m) for m in range(self.fc.dimL + 1)]

    def reps(self, m: int) -> tuple[int, ...]:
        return self.data[m].quotient.reps.basis if m in self.data else ()

    def delta_matrix(self, m: int) -> F2Matrix:
        if m in self.delta:
            return self.delta[m].transpose()
        t = m + 1 - self.r * self.fc.NL
        return F2Matrix.zeros(self.dim(t), self.dim(m))

    def class_coords(self, m: int, vec: int) -> int:
        """Page-class coordinates of a cycle vector in degree m (a zero space if not stored)."""
        deg = self.data.get(m)
        return (deg.quotient if deg else Subspace.zero(0)).coords(vec)

    def is_collapsed(self) -> bool:
        return all(mat.is_zero() for mat in self.delta.values())


def _obstructions(fc: FloerComplex, r: int, m: int, images: tuple[int, ...]
                  ) -> tuple[int, ...]:
    """Page-r obstructions of lifts of cycles of degree m, from their images
    D*lift: the parts in degree m + 1 - r*NL (see the module docstring)."""
    t = m + 1 - r * fc.NL
    return tuple(fc.morse.part(image, t) for image in images)


@functools.lru_cache(maxsize=256)
def _zero_classes(rows: int) -> tuple[int, ...]:
    """The all-zero class tuple of ``rows`` Z rows, one per length."""
    return (0,) * rows


@functools.lru_cache(maxsize=256)
def _zero_delta(rows: int, cols: int) -> F2Matrix:
    """The zero delta of one shape, shared by every page (not ranked ahead:
    a rank is one pass over its rows)."""
    return F2Matrix.zeros(rows, cols)


def _tail_freedom(fc: FloerComplex, m: int, depth: int) -> int:
    """One nonzero lift t_1 + ... + t_depth with zero leading term, or 0.

    Solves the zig-zag system with y_0 = 0, for the paranoid second lift.
    t_j lies in degree m - j*NL and op_k t_j in degree m + 1 - (j+k)*NL,
    so equation s is the part of D t in degree m + 1 - s*NL, and equations
    1..depth are all of D t from degree m + 1 - depth*NL up. A solution is
    a dependency among the images D(g) of the slot generators g, cut below
    that degree. Each cut image, tagged with bit n + g, goes into one
    echelon map; the first whose image bits all reduce away is a sum of
    earlier ones, and its tag bits shifted down by n are that sum's
    generators: the chain t.
    """
    morse = fc.morse
    n = len(morse.generators)
    low = morse.degree_offset(m + 1 - depth * fc.NL)
    pivots: dict[int, int] = {}
    for s in range(1, depth + 1):
        for g in morse.degree_positions(m - s * fc.NL):
            v = f2linalg._echelon_insert(
                pivots, fc.differential_images[g] >> low << low | 1 << (n + g))
            if v >> n << n == v:
                return v >> n
    return 0


def _z_coords(deg: PageDegree, vec: int) -> int:
    """Coordinates of a vector of the Z-span in its echelon basis ``quotient.sup``."""
    try:
        return deg.quotient.sup.coords(vec)
    except ValueError as exc:
        raise LiftFailure("vector claimed in Z-span has no expression there") from exc


def page0(fc: FloerComplex) -> SpectralPage:
    """Page 0: V_0(m) = C^m with the Morse boundary as differential."""
    data = {}
    for m in range(fc.dimL + 1):
        n = fc.morse.dim_at(m)
        if n:
            positions = fc.morse.degree_positions(m)
            lifts = tuple(1 << p for p in positions)
            images = tuple(fc.differential_images[p] for p in positions)
            quot = f2linalg.quotient_map(Subspace.zero(n), Subspace.full(n))
            data[m] = PageDegree(lifts, (), quot, _obstructions(fc, 0, m, images), images)
    return SpectralPage(fc, 0, data, *_classify(fc, 0, data))


def _classify(fc: FloerComplex, r: int, data: dict[int, PageDegree]
              ) -> tuple[dict[int, tuple[int, ...]], dict[int, F2Matrix]]:
    """The page-r class of every stored obstruction, and delta_r from them.

    The obstruction o_r(x; y_1..y_(r-1)) = sum_{k=1..r} op_k y_(r-k) (op_0 x
    for r = 0) of Z row i is ``deg.obs[i]``; its class is its coordinates in
    the target quotient. A target degree not stored is the zero space,
    where every obstruction vanishes and every class is 0. The
    representatives are the rows of ``deg.quotient.sup`` whose pivot is not
    a pivot of B, in order (``f2linalg.quotient_map``), so the classes of
    those rows are the columns of delta_r, kept as the rows of ``delta[m]``.
    A degree whose classes are all 0 gets the shared zero tuple and matrix.
    """
    classes: dict[int, tuple[int, ...]] = {}
    delta: dict[int, F2Matrix] = {}
    for m, deg in data.items():
        tgt = data.get(m + 1 - r * fc.NL)
        if tgt is None and any(deg.obs):
            raise LiftFailure(f"page {r} differential escapes the grading "
                              f"range at degree {m}")
        try:
            found = tuple(map(tgt.quotient.coords, deg.obs)) if tgt else ()
        except ValueError as exc:
            raise LiftFailure(f"page {r} obstruction at degree {m} leaves "
                              f"the cycle space") from exc
        tdim = tgt.quotient.dim if tgt else 0
        if not any(found):
            classes[m] = _zero_classes(len(deg.obs))
            delta[m] = _zero_delta(deg.quotient.dim, tdim)
            continue
        classes[m] = found
        b_pivots = deg.quotient.sub._pivot_mask
        cols = [c for z, c in zip(deg.quotient.sup.basis, found)
                if not z & -z & b_pivots]
        delta[m] = F2Matrix.from_row_ints(cols, tdim)
    _assert_delta_squares(fc, r, delta)
    return classes, delta


def _assert_delta_squares(fc: FloerComplex, r: int, delta: dict[int, F2Matrix]) -> None:
    """delta_t delta_m = 0: as columns, the rows of ``delta[m] @ delta[t]``."""
    for m, mat in delta.items():
        t = m + 1 - r * fc.NL
        if t in delta and not mat.is_zero() and not (mat @ delta[t]).is_zero():
            raise LiftFailure(f"page {r} differential does not square to zero "
                              f"at degree {m}")


def _second_lift_check(fc: FloerComplex, r: int, data: dict[int, PageDegree],
                       delta: dict[int, F2Matrix]) -> None:
    """Recompute the differential with independent lifts and compare classes.

    Representatives are perturbed by a boundary generator and lifts by a
    homogeneous zig-zag solution, which covers both choices the canonical
    computation makes. Each obstruction is read from D*lift of its
    perturbed lift, multiplied afresh, not combined from the stored ``obs``
    or ``images``, so a wrong stored one shows. The same product checks the
    lift: it lies in the degrees m + 1 - s*NL, s >= 0, and its parts above
    s = r, the zig-zag equations, must vanish.
    """
    for m, deg in data.items():
        t = m + 1 - r * fc.NL
        tgt = data.get(t)
        if tgt is None or deg.quotient.dim == 0:
            continue
        freedom = _tail_freedom(fc, m, max(r - 1, 0))
        above = fc.morse.degree_offset(t + 1)
        expected_cols = delta[m].bits
        b0 = next(iter(deg.quotient.sub.basis), 0)
        for idx, q in enumerate(deg.quotient.reps.basis):
            lift = f2linalg._combine(deg.lifts, _z_coords(deg, q ^ b0)) ^ freedom
            image = f2linalg._combine(fc.differential_images, lift)
            if image >> above:
                raise LiftFailure(f"page {r} lift at degree {m} breaks the "
                                  f"zig-zag equations")
            try:
                coords = tgt.quotient.coords(fc.morse.part(image, t))
            except ValueError as exc:
                raise LiftFailure("second lift left the cycle space") from exc
            if coords != expected_cols[idx]:
                raise LiftFailure(f"page {r} differential depends on the lift "
                                  f"at degree {m}")


def turn_page(page: SpectralPage, paranoid: bool = True) -> SpectralPage:
    """Compute page r+1 from page r with fresh representative lifts.

    Only stored degrees are visited: a zero space has only the zero vector,
    so nothing lifts from it and an obstruction landing in it vanishes. The
    coefficient map sends Z row i to its stored class ``page.classes[m][i]``;
    its kernel is the left kernel of the matrix with those classes as rows,
    read off that matrix's own elimination with no transpose. The new Z
    vectors sum_i c_i z_i, over the rows c of that reduced echelon kernel
    basis, are reduced echelon: so are the z_i, pivots p_i, and sum c_i z_i
    has lowest bit p_i for the least i in c and bit c_j at p_j;
    ``from_vectors`` must give them back unchanged. The zig-zag equations
    and the obstruction are linear in the lift, so each combined lift is a
    valid lift; representatives and delta_(r+1) depend only on Z_(r+1) and
    B_(r+1), not on the bases or lifts that span them.

    Each boundary candidate goes into one pivot map with its chain packed
    above bit ``m_dim``; one whose boundary part reduces to zero is already
    spanned and is dropped. Back-substitution XORs whole packed rows, so
    each echelon row of B carries the chain of the same combination of
    kept candidates. Chains extend linearly over B (the kept candidates are
    a basis), so a repair that combines ``b_chains`` by the coordinates of
    an obstruction in the echelon basis gets the same chain as over any
    other basis of B.

    Every summand keeps its degree, so lifts and chains are carried whole.
    The repair of a lift adds antecedent chains of the target degree
    t = m + 1 - r*NL, whose w_i lies in degree t - 1 + (r-1-i)*NL =
    m - (i+1)*NL, that of y_(i+1); w_(r-1) fills the new slot y_r. On page
    r+1, w'_i lies in degree m - 1 + (r-i)*NL: a kept boundary's chain
    0 + w_0 + ... + w_(r-1) is unchanged, and the boundary o_r(g) of a Z
    generator g of degree m - 1 + r*NL has the lift of g as its chain.

    A degree m whose stored obstructions are all 0, and whose source
    sigma = m - 1 + r*NL is not stored or has only zero obstructions, is
    carried over unchanged. Its classes are all 0, so the coefficient kernel
    is the whole space with the unit rows as its reduced echelon basis: each
    new lift is an old one, and with a zero obstruction none needs a
    repair. Every incoming candidate o_r(g) is 0 and is dropped, and the
    kept ones are the rows of B, reduced echelon already, so
    back-substitution XORs nothing and B, its chains and the quotient stay.
    The delta_r columns out of m and into m (the classes of the obstructions
    of sigma) are 0, so the rank bookkeeping reads dim V_(r+1)(m) =
    dim V_r(m), which the unchanged quotient has. Such a degree runs no
    elimination: its Z vectors are compared with ``quotient.sup.basis`` row
    by row, so a corrupted stored lift still fails, and its next
    obstructions are cuts of the stored D*lift.
    """
    fc = page.fc
    r = page.r
    N = fc.NL
    new_data: dict[int, PageDegree] = {}
    for m, deg in page.data.items():
        sigma = m - 1 + r * N
        sdeg = page.data.get(sigma)
        if not any(deg.obs) and not (sdeg and any(sdeg.obs)):
            new_data[m] = _carried(fc, r + 1, m, deg)
            continue
        m_dim = fc.morse.dim_at(m)
        tgt = page.data.get(m + 1 - r * N)

        if tgt is None:
            coeff_kernel = Subspace.full(len(deg.lifts))
        else:
            coeff_kernel = f2linalg.left_kernel(
                F2Matrix.from_row_ints(page.classes[m], tgt.quotient.dim))

        lifts = []
        for combo in coeff_kernel.basis:
            lift = f2linalg._combine(deg.lifts, combo)
            obs = f2linalg._combine(deg.obs, combo)
            if tgt is not None and obs:
                try:
                    coeff = tgt.quotient.sub.coords(obs)
                except ValueError as exc:
                    raise LiftFailure(f"obstruction at degree {m} is not a "
                                      f"boundary despite vanishing class") from exc
                lift ^= f2linalg._combine(tgt.b_chains, coeff)
            lifts.append(lift)

        candidates = list(zip(deg.quotient.sub.basis, deg.b_chains))
        if sdeg is not None:
            candidates += zip(sdeg.obs, sdeg.lifts)

        # keep each candidate outside the span of those kept before it
        b_mask = (1 << m_dim) - 1
        pivots: dict[int, int] = {}
        for b, chain in candidates:
            v = f2linalg._echelon_insert(pivots, b | chain << m_dim)
            if v and not v & b_mask:
                del pivots[v & -v]
        rows = f2linalg._back_substitute(pivots)
        span = Subspace(m_dim, tuple(v & b_mask for v in rows))

        z_vecs = tuple(fc.morse.part(lift, m) for lift in lifts)
        z_space = Subspace.from_vectors(m_dim, z_vecs)
        if z_space.basis != z_vecs:
            raise LiftFailure(f"dependent or non-echelon cycle basis at degree {m}")
        try:
            quot = f2linalg.quotient_map(span, z_space)
        except f2linalg.NotASubspace as exc:
            raise LiftFailure(f"boundaries escape the cycle space at degree "
                              f"{m}") from exc

        # independent dimension bookkeeping: quotient vs rank arithmetic
        ker_dim = page.dim(m) - f2linalg.rank(page.delta[m])
        im_dim = f2linalg.rank(page.delta[sigma]) if sigma in page.delta else 0
        if quot.dim != ker_dim - im_dim:
            raise LiftFailure(f"page {r + 1} dimension mismatch at degree {m}: "
                              f"quotient {quot.dim} vs ranks {ker_dim - im_dim}")
        if quot.dim > page.dim(m):
            raise LiftFailure(f"page dimensions increased at degree {m}")

        images = tuple(f2linalg._combine(fc.differential_images, lift) for lift in lifts)
        new_data[m] = PageDegree(tuple(lifts), tuple(v >> m_dim for v in rows), quot,
                                 _obstructions(fc, r + 1, m, images), images)

    classes, delta = _classify(fc, r + 1, new_data)
    if paranoid:
        _second_lift_check(fc, r + 1, new_data, delta)
    return SpectralPage(fc, r + 1, new_data, classes, delta)


def _carried(fc: FloerComplex, r: int, m: int, deg: PageDegree) -> PageDegree:
    """Degree m of page r, carried over from page r - 1 (see ``turn_page``):
    the same lifts, chains and quotient, and the next obstructions cut from
    the stored D*lift. The same object when those are unchanged too."""
    if tuple(fc.morse.part(lift, m) for lift in deg.lifts) != deg.quotient.sup.basis:
        raise LiftFailure(f"dependent or non-echelon cycle basis at degree {m}")
    obs = _obstructions(fc, r, m, deg.images)
    return deg if obs == deg.obs else dataclasses.replace(deg, obs=obs)


@dataclass(frozen=True)
class CollapseResult:
    pages: tuple[SpectralPage, ...]
    einf_dims: dict[int, int]

    def einf_residue_dims(self) -> dict[int, int]:
        fc = self.pages[-1].fc
        out = {r: 0 for r in range(fc.NL)}
        for m, d in self.einf_dims.items():
            out[m % fc.NL] += d
        return out


def run_to_collapse(fc: FloerComplex, paranoid: bool = True) -> CollapseResult:
    """Pages E_0 .. E_(nu+1); the last differential must vanish identically.

    For r >= nu + 1 the differential drops Morse degree by r*NL - 1 > dimL,
    so it is zero for grading reasons; this is asserted, not assumed.
    """
    pages = [page0(fc)]
    for _ in range(fc.nu + 1):
        pages.append(turn_page(pages[-1], paranoid=paranoid))
    last = pages[-1]
    if not last.is_collapsed():
        raise LiftFailure("differential of the collapse page is nonzero")
    for m in last.data:
        if last.dim(m) and 0 <= m + 1 - last.r * fc.NL <= fc.dimL:
            raise LiftFailure("collapse page has an in-range differential target")
    einf = {m: last.dim(m) for m in range(fc.dimL + 1)}
    return CollapseResult(tuple(pages), einf)


def window_homology_dims(fc: FloerComplex) -> dict[int, int]:
    """Truncated-window oracle: honest bigraded homology in middle degrees.

    Builds the Laurent complex over T-powers in [-W, W], W = 2 nu + 2, and
    computes the homology of total degrees 0..NL-1, which are far enough
    from the window boundary that no chain, boundary or image is truncated.
    Degree l holds the blocks T^p C^m, m = l - p*NL, and op_k maps block p
    to block p + k of degree l + 1. Each differential, l = -1..NL-1, is
    ranked once, as the pivots left by its columns in one pivot map: column
    g of block p is ``part(ops[k][g], m + 1 - k*NL)`` at the offset of block
    p + k, OR-ed over the keys k whose block is in the window. It reads each
    op_k, never D, so a wrong D still shows.
    """
    W, N, morse = 2 * fc.nu + 2, fc.NL, fc.morse

    def offsets(l: int) -> tuple[dict[int, int], int]:
        off, size = {}, 0
        for p in range(-W, W + 1):
            dim = morse.dim_at(l - p * N)
            if dim:
                off[p] = size
                size += dim
        return off, size

    layout = {l: offsets(l) for l in range(-1, N + 1)}
    ranks = {}
    for l in range(-1, N):
        tgt = layout[l + 1][0]
        pivots: dict[int, int] = {}
        for p in layout[l][0]:
            m = l - p * N
            keys = [(images, m + 1 - k * N, tgt[p + k])
                    for k, images in fc.ops.items() if p + k in tgt]
            for g in morse.degree_positions(m):
                col = 0
                for images, t, o in keys:
                    if images[g]:
                        col |= morse.part(images[g], t) << o
                f2linalg._echelon_insert(pivots, col)
        ranks[l] = len(pivots)
    return {l: layout[l][1] - ranks[l] - ranks[l - 1] for l in range(N)}


@dataclass(frozen=True)
class ResidueVerdict:
    residue: int
    einf: int
    folded: int
    window: int

    @property
    def ok(self) -> bool:
        return self.einf == self.folded == self.window


@dataclass(frozen=True)
class ConvergenceReport:
    residues: tuple[ResidueVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.residues)


def check_convergence(collapse: CollapseResult) -> ConvergenceReport:
    """Compare E_infinity, folded homology and the window oracle per residue.

    E_infinity comes from the finished ``collapse``; both oracles recompute
    from the complex alone.
    """
    fc = collapse.pages[-1].fc
    einf = collapse.einf_residue_dims()
    folded = folded_homology(fc)
    window = window_homology_dims(fc)
    return ConvergenceReport(tuple(
        ResidueVerdict(r, einf[r], folded[r], window[r]) for r in range(fc.NL)
    ))


def e1_oracle(fc: FloerComplex) -> tuple[dict[int, int], dict[int, F2Matrix]]:
    """Independent E_1 data from raw kernels and images of op_0 and op_1.

    Returns the cohomology dimension of (C, op_0) per degree and the map
    induced by op_1 in the canonical echelon coset bases, kept as its
    columns like ``SpectralPage.delta``. The op_0 and op_1 columns of C^m
    are cut from ``fc.ops``, not D: the cycles are the left kernel of the
    op_0 columns as rows (the block's kernel), the boundaries span the op_0
    columns of C^(m-1), and op_1 q is the XOR of op_1 columns at q's bits.
    Built from f2linalg primitives only, bypassing the page engine.
    """
    morse = fc.morse

    def columns(k: int, m: int) -> list[int]:
        images, t = fc.ops.get(k), m + 1 - k * fc.NL
        return [morse.part(images[g], t) if images else 0 for g in morse.degree_positions(m)]

    quots: dict[int, QuotientMap] = {}
    deltas: dict[int, F2Matrix] = {}
    for m in range(fc.dimL + 1):  # op_1 lands below m, in a degree already done
        cycles = f2linalg.left_kernel(F2Matrix.from_row_ints(columns(0, m), morse.dim_at(m + 1)))
        bounds = Subspace.from_vectors(morse.dim_at(m), columns(0, m - 1))
        quots[m] = f2linalg.quotient_map(bounds, cycles)
        tgt = quots.get(m + 1 - fc.NL)
        tdim, op1 = (tgt.dim if tgt else 0), columns(1, m)
        cols = [tgt.coords(f2linalg._combine(op1, q)) if tdim else 0 for q in quots[m].reps.basis]
        deltas[m] = F2Matrix.from_row_ints(cols, tdim)
    return {m: q.dim for m, q in quots.items()}, deltas


def induced_page_product(pages, fc: FloerComplex, paranoid: bool = True):
    """Attach the induced product to every page.

    The product of two page classes multiplies canonical representatives
    through the degree-preserving table m_0 and projects to the page
    quotient; higher product tables only raise the filtration level, so
    they never reach the leading coefficient. Checks: representative
    independence (under paranoid mode) and the page Leibniz rule for the
    differential, on every basis pair.

    A degree pair (m1, m2) keeps the previous page's table when the
    quotients at m1, m2 and m1 + m2 are unchanged (m1 + m2 past dimL, or
    stored on neither page, counts as unchanged). Each entry is the class,
    in the target quotient, of the product of a representative of m1 and
    one of m2; the quotients fix the representatives and the class map, so
    they fix every entry. The second lift runs only on the pairs built on
    this page: on a kept pair it would compute the same function of the
    same representatives, quotients and table as where the pair was built.
    The Leibniz check is skipped on a page whose delta is identically zero,
    where all three of its terms are 0. The tables are shared between
    pages and must not be changed.
    """
    if fc.products is None:
        raise ProductsAbsent("complex has no product tables")
    rep = check_product_leibniz(fc)
    if not rep.ok:
        l, wit = rep.first_failure
        raise LeibnizFailure(f"product tables break the Leibniz identity at "
                             f"l={l}, witnesses {wit}")
    rows = fc.product_rows(0)
    out = []
    prev = None
    for page in pages:
        tables, fresh = _page_product_tables(page, fc, rows, prev)
        if paranoid:
            _product_second_lift(page, fc, rows, fresh)
        if not page.is_collapsed():
            _page_leibniz(page, fc, tables)
        prev = dataclasses.replace(page, product=tables)
        out.append(prev)
    return out


def _m0_products(fc: FloerComplex, rows, m1: int, v1: int, m2: int,
                 vecs) -> list[Optional[int]]:
    """m_0(v1, v) for each v in ``vecs``, read through the rows of m_0, for
    degree-local vectors of degrees m1 and m2: each the degree-local vector
    of the product in degree m1 + m2, or None when the product has support
    outside that degree (always the case for a nonzero product beyond
    dimL). The chains m_0(v1, g) over the generators g of degree m2 are
    summed once, and each v combines them."""
    morse = fc.morse
    positions = morse.degree_positions(m2)
    left = [0] * len(positions)
    for x in f2linalg._bits_of(v1 << morse.degree_offset(m1)):
        left = list(map(xor, left, rows[x][positions.start:positions.stop]))
    mt = m1 + m2
    shift = morse.degree_offset(mt)
    out: list[Optional[int]] = []
    for v in vecs:
        chain = f2linalg._combine(left, v)
        vec = morse.part(chain, mt)
        out.append(vec if vec << shift == chain else None)
    return out


def _page_product_tables(page: SpectralPage, fc: FloerComplex, rows,
                         prev: Optional[SpectralPage]):
    """Page classes of m_0 on every pair of representatives, per pair of
    stored degrees with a nonzero page, and the pairs among them built here
    rather than kept from ``prev``, the previous page with its tables (see
    ``induced_page_product``)."""
    changed = page.data.keys()  # no previous page: build every pair
    if prev is not None:
        changed = {m for m in page.data.keys() | prev.data.keys()
                   if _quotient(page, m) != _quotient(prev, m)}
        if not changed:
            return prev.product, {}
    degrees = [m for m, deg in page.data.items() if deg.quotient.dim]
    tables: dict[tuple[int, int], list[list[int]]] = {}
    fresh: dict[tuple[int, int], list[list[int]]] = {}
    for m1 in degrees:
        for m2 in degrees:
            mt = m1 + m2
            if not (m1 in changed or m2 in changed or mt in changed):
                tables[(m1, m2)] = prev.product[(m1, m2)]
                continue
            table = []
            for q1 in page.reps(m1):
                row = []
                for vec in _m0_products(fc, rows, m1, q1, m2, page.reps(m2)):
                    if vec is None:
                        raise LeibnizFailure("product escapes the grading")
                    if mt > fc.dimL:
                        row.append(0)
                        continue
                    try:
                        row.append(page.class_coords(mt, vec))
                    except ValueError as exc:
                        raise LeibnizFailure(
                            f"page {page.r} product of degrees ({m1},{m2}) "
                            f"leaves the cycle space") from exc
                table.append(row)
            tables[(m1, m2)] = fresh[(m1, m2)] = table
    return tables, fresh


def _quotient(page: SpectralPage, m: int) -> Optional[QuotientMap]:
    deg = page.data.get(m)
    return deg.quotient if deg else None


def _product_second_lift(page: SpectralPage, fc: FloerComplex, rows, tables) -> None:
    """Representative independence on the pairs of ``tables``: each product
    of representatives moved by a boundary has the class in the table."""
    for (m1, m2), table in tables.items():
        mt = m1 + m2
        b1 = next(iter(page.data[m1].quotient.sub.basis), 0)
        b2 = next(iter(page.data[m2].quotient.sub.basis), 0)
        if not (b1 or b2):
            continue
        perturbed = [q2 ^ b2 for q2 in page.reps(m2)]
        for i, q1 in enumerate(page.reps(m1)):
            for j, vec in enumerate(_m0_products(fc, rows, m1, q1 ^ b1, m2, perturbed)):
                if vec is None:
                    raise LeibnizFailure("perturbed product escapes the grading")
                if mt > fc.dimL:
                    continue
                try:
                    coords = page.class_coords(mt, vec)
                except ValueError as exc:
                    raise LeibnizFailure("perturbed product leaves the cycle "
                                         "space") from exc
                if coords != table[i][j]:
                    raise LeibnizFailure(
                        f"page {page.r} product depends on representatives at "
                        f"degrees ({m1},{m2})")


def _page_leibniz(page: SpectralPage, fc: FloerComplex, tables) -> None:
    """delta_r(ab) = delta_r(a) b + a delta_r(b) on all basis pairs."""
    r = page.r
    N = fc.NL
    # delta_r of each basis class: the columns, as stored
    d_of = {m: mat.bits for m, mat in page.delta.items()}

    def classes_product(m1: int, c1: int, m2: int, c2: int) -> int:
        table = tables.get((m1, m2))
        if table is None:
            return 0
        acc = 0
        for i in f2linalg._bits_of(c1):
            acc ^= f2linalg._combine(table[i], c2)
        return acc

    for (m1, m2), table in tables.items():
        mt = m1 + m2
        if mt > fc.dimL:
            continue
        for i, da in enumerate(d_of[m1]):
            for j, db in enumerate(d_of[m2]):
                lhs = f2linalg._combine(d_of.get(mt, ()), table[i][j])
                t1 = classes_product(m1 + 1 - r * N, da, m2, 1 << j)
                t2 = classes_product(m1, 1 << i, m2 + 1 - r * N, db)
                if lhs != t1 ^ t2:
                    raise LeibnizFailure(
                        f"page {r} differential breaks Leibniz on degrees "
                        f"({m1},{m2}) basis pair ({i},{j})")


def page_to_dict(page: SpectralPage, verbose: bool = False) -> dict:
    out = {
        "r": page.r,
        "V": {str(m): page.dim(m) for m in range(page.fc.dimL + 1)},
        "delta_rank": {str(m): f2linalg.rank(page.delta[m]) if m in page.delta else 0
                       for m in range(page.fc.dimL + 1)},
        "collapsed": page.is_collapsed(),
    }
    if verbose:
        out["representatives"] = {
            str(m): [[int(b) for b in format(v, f"0{max(page.fc.morse.dim_at(m),1)}b")[::-1]]
                     for v in page.reps(m)]
            for m in range(page.fc.dimL + 1)
        }
        out["delta"] = {str(m): page.delta_matrix(m).entries()
                        for m in range(page.fc.dimL + 1)}
    return out
