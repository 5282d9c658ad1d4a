"""Reference implementations the fast paths are tested against.

Each is the straightforward version the engine used before it was
optimised: one fresh elimination per call by the column scan
``rref_oracle``, which probes column after column for a pivot row where
the engine files each row under its lowest set bit, so the solve, rank
and kernel oracles share no elimination code with the engine; quotient
representatives as the echelon basis of every larger-basis row reduced
modulo the smaller space, where the engine picks rows by pivot bit; ring and
Leibniz identities checked on every basis pair or triple over frozenset
elements, and a vanishing certificate replayed against its ring; every
derivation of a shift found by trying each generator assignment, where the
engine solves one kernel; the Leibniz residue built pair by pair (generator,
basis element), where the engine gathers one dict per generator row; product
preimages all solved by one elimination, where the engine reads the single
products off the table rows; the census
conjugation and d^2 check computed block by block in degree-local
coordinates, the census glued into the stored images {g: op_k(g)} only at the
end; and the page engine with each zig-zag lift and
antecedent chain kept as a tuple of degree-local slots. The slot-by-slot
obstruction reads ``operator_block`` blocks, cut from the stored op_k, not
the D the engine reads, so a wrong D or a wrong chain layout shows. The
window and E_1 oracles are block versions too: each window differential
assembled from entries and ranked twice, and E_1 from the kernels and
images of op_0 blocks. The page products are built afresh on every page,
over all (dimL + 1)^2 degree pairs, each pair of representatives
multiplied as frozenset chains through the pair table of m_0 read back from
the serialized triples, where the engine reads the nonzero rows of m_0 and
keeps a table while its quotients are unchanged. The Maslov frame check runs the SVD behind
``matrix_rank`` on every frame, where the engine skips it for the frames a
Gram certificate clears.
"""

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from floeralg import f2linalg as f2
from floeralg import floercomplex as fcx
from floeralg import gradedalg as ga
from floeralg import maslov as mv
from floeralg import serialize
from floeralg import spectral as sp
from floeralg.errors import DegenerateFrame, LeibnizFailure, LiftFailure, NotLagrangian
from floeralg.f2linalg import F2Matrix, QuotientMap, Subspace


def column_matrix(cols, ambient):
    """The matrix whose columns are the ints ``cols``, each over ``ambient`` rows."""
    return F2Matrix.from_row_ints(cols, ambient).transpose()


def operator_block(fc, k, m):
    """Block of op_k on C^m, cut from ``fc.ops[k]``; a zero block of shape
    (dim C^(m+1-k*NL), dim C^m) when op_k is absent or out of range."""
    t = m + 1 - k * fc.NL
    images = fc.ops.get(k, {})
    cols = [fc.morse.part(images.get(g, 0), t) for g in fc.morse.degree_positions(m)]
    return column_matrix(cols, fc.morse.dim_at(t))


def flipped(images, g, bit):
    """The nonzero images ``{g: op(g)}`` of an operator with bit ``bit`` of
    op(g) flipped, as a new dict; an image that becomes 0 is dropped."""
    out = dict(images)
    out[g] = out.get(g, 0) ^ 1 << bit
    if not out[g]:
        del out[g]
    return out


def image_oracle(m):
    """Column span of m as a canonical Subspace of F2^rows."""
    return Subspace.from_vectors(m.rows, m.transpose().bits)


def rref_oracle(row_ints, cols, pivot_limit=None):
    """Reduced row echelon form on int-packed rows.

    Returns (reduced rows, pivot column list). Pivot search is restricted to
    the first ``pivot_limit`` columns when given (rows keep full width).
    """
    work = list(row_ints)
    limit = cols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    pr = 0
    for col in range(limit):
        if pr == len(work):
            break
        bit = 1 << col
        pivot = next((r for r in range(pr, len(work)) if work[r] & bit), None)
        if pivot is None:
            continue
        work[pr], work[pivot] = work[pivot], work[pr]
        for r in range(len(work)):
            if r != pr and (work[r] & bit):
                work[r] ^= work[pr]
        pivots.append(col)
        pr += 1
    return work, pivots


def solve_oracle(m, b):
    """Some x with m @ x = b (free variables zero), or None; eliminates [m | b]."""
    if b & ~((1 << m.rows) - 1):
        raise ValueError("rhs has bits beyond rows")
    aug = [r | (((b >> i) & 1) << m.cols) for i, r in enumerate(m.bits)]
    red, pivots = rref_oracle(aug, m.cols + 1, pivot_limit=m.cols)
    x = 0
    for i, p in enumerate(pivots):
        if red[i] >> m.cols:
            x |= 1 << p
    # rows beyond the pivots must have zero rhs, else inconsistent
    if any(red[i] for i in range(len(pivots), m.rows)):
        return None
    return x


def rank_oracle(m):
    return len(rref_oracle(m.bits, m.cols)[1])


def kernel_oracle(m):
    red, pivots = rref_oracle(m.bits, m.cols)
    gens = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = 1 << free
        for i, p in enumerate(pivots):
            if red[i] & (1 << free):
                v |= 1 << p
        gens.append(v)
    red, pivots = rref_oracle(gens, m.cols)
    return Subspace(m.cols, tuple(red[:len(pivots)]))


def quotient_reps_oracle(sub, sup):
    """Echelon basis of the canonical coset representatives of sup/sub: each
    row of ``sup.basis`` reduced modulo sub, then eliminated."""
    return Subspace.from_vectors(sup.ambient_dim, [sub.reduce(b) for b in sup.basis])


def basis_mul(ring, i, j):
    """e_i e_j as a frozenset of basis indices, decoded bit by bit from the row."""
    mask = ring.rows[i].get(j, 0)
    return frozenset(k for k in range(ring.dim) if (mask >> k) & 1)


def mult_table(ring):
    """The nonzero table entries as {(i, j): sorted tuple of product indices}."""
    return {(i, j): tuple(sorted(basis_mul(ring, i, j)))
            for i, row in enumerate(ring.rows) for j in row}


def mul(ring, a, b):
    """Bilinear product of frozenset elements, one basis pair at a time."""
    out = frozenset()
    for i in a:
        for j in b:
            out ^= basis_mul(ring, i, j)
    return out


def check_unit(ring):
    """1 e_i == e_i == e_i 1 for every basis element."""
    one = frozenset({ring.unit})
    return all(mul(ring, one, frozenset({i})) == frozenset({i})
               and mul(ring, frozenset({i}), one) == frozenset({i})
               for i in range(ring.dim))


def check_commutative(ring):
    """e_i e_j == e_j e_i on every basis pair."""
    return all(basis_mul(ring, i, j) == basis_mul(ring, j, i)
               for i in range(ring.dim) for j in range(i, ring.dim))


def check_associative(ring):
    """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple."""
    for i, j, k in itertools.product(range(ring.dim), repeat=3):
        left = mul(ring, basis_mul(ring, i, j), frozenset({k}))
        right = mul(ring, frozenset({i}), basis_mul(ring, j, k))
        if left != right:
            return False
    return True


def replay_certificate(cert, ring):
    """Re-verify a vanishing certificate against a ring: every degree-1
    generator is listed, with an image degree 1 + shift that is empty."""
    if cert.shift > -2 or not ring.is_degree_one_generated():
        return False
    if tuple(sorted(ring.dims_by_degree().items())) != cert.ring_dims:
        return False
    for fate in cert.generators:
        if fate.image_degree != 1 + cert.shift or fate.image_dim != 0:
            return False
        if len(ring.degree_basis(fate.image_degree)) != 0:
            return False
    names = {ring.basis[g].name for g in ring.degree_basis(1)}
    return names == {f.name for f in cert.generators}


def check_leibniz_all_pairs(d):
    """d(e_i e_j) == d(e_i) e_j + e_i d(e_j) on every basis pair."""
    ring = d.ring
    d_of = [d.apply(frozenset({i})) for i in range(ring.dim)]
    for i in range(ring.dim):
        ei = frozenset({i})
        for j in range(ring.dim):
            lhs = frozenset()
            for k in basis_mul(ring, i, j):
                lhs ^= d_of[k]
            rhs = mul(ring, d_of[i], frozenset({j})) ^ mul(ring, ei, d_of[j])
            if lhs != rhs:
                return False
    return True


def derivations_oracle(ring, shift):
    """Every Leibniz derivation of the shift, by brute force: each of the
    2^(n_1 t) generator assignments in turn, as an integer (bit p t + q puts
    the q-th basis element of degree 1 + shift into the value of the p-th
    degree-1 generator), is extended and kept when every basis pair passes.
    A Leibniz derivation is fixed by its generator values, so the extension
    ``gradedalg._extend`` is the only candidate for each assignment."""
    gens = ring.degree_basis(1)
    target = ring.degree_basis(1 + shift) if 1 + shift >= 0 else ()
    t = len(target)
    found = []
    for assignment in range(1 << (len(gens) * t)):
        images = [0] * ring.dim
        for a in f2._bits_of(assignment):
            images[gens[a // t]] |= 1 << target[a % t]
        d = ga.Derivation(ring, shift, ga._extend(ring, images))
        if check_leibniz_all_pairs(d):
            found.append(d)
    return found


def leibniz_residue_oracle(ring, images):
    """``gradedalg._leibniz_residue`` one (generator, basis element) pair at a
    time: d(1) in bits 0..dim - 1, then d(g) b + d(g b) + g d(b) for the
    p-th degree-1 generator g and basis element b from bit dim (1 + p dim + b)."""
    rows, units, dim = ring.rows, ring._units, ring.dim
    residue, offset = images[ring.unit], dim
    for g in ring.degree_basis(1):
        row_g, dg = rows[g], images[g]
        for b, db in enumerate(images):
            r = ga._mask_mul(rows, dg, units[b]) if dg else 0
            if b in row_g:
                r ^= f2._combine(images, row_g[b])
            if db:
                r ^= ga._mask_mul(rows, units[g], db)
            if r:
                residue |= r << offset
            offset += dim
    return residue


def product_preimages_oracle(ring, d):
    """``GradedRing._product_preimages(d)`` with every degree-d basis element
    solved against the products of all pairs in one elimination."""
    rows = ring.rows
    pair_cols = tuple((g, f) for g in ring.degree_basis(1)
                      for f in ring.degree_basis(d - 1))
    col_vecs = [ring._local(rows[g].get(f, 0), d) for g, f in pair_cols]
    tgt = len(ring.degree_basis(d))
    mu = F2Matrix.from_row_ints(col_vecs, tgt).transpose()
    return pair_cols, tuple(f2.solve_many(mu, [1 << p for p in range(tgt)]))


def z_coords_oracle(deg, vec):
    """Coordinates of a vector of the Z-span in ``deg.quotient.sup``, solved
    against the Z vectors as the columns of a matrix."""
    z_matrix = column_matrix(list(deg.quotient.sup.basis),
                             deg.quotient.sup.ambient_dim)
    coeff = f2.solve_many(z_matrix, [vec])[0]
    assert coeff is not None
    return coeff


def class_oracle(deg, vec):
    """Page-class coordinates of a vector of the Z-span of ``deg``: solved
    against the representatives and the B basis as the columns of one
    matrix, the coefficients of the representatives."""
    quot = deg.quotient
    basis = quot.reps.basis + quot.sub.basis
    coeff = solve_oracle(column_matrix(list(basis), quot.sup.ambient_dim), vec)
    assert coeff is not None
    return coeff & ((1 << quot.dim) - 1)


def lift_slots(fc, r, m, lift):
    """A page-r lift chain of degree m cut into the cycle vector x and the
    tail (y_1..y_(r-1)), y_s the degree-local part in degree m - s*NL."""
    def part(t):
        return (lift >> fc.morse.degree_offset(t)) & ((1 << fc.morse.dim_at(t)) - 1)
    return part(m), tuple(part(m - s * fc.NL) for s in range(1, r))


def slots_chain(fc, top, slots):
    """The chain whose part in degree top - s*NL is ``slots[s]``."""
    out = 0
    for s, y in enumerate(slots):
        out |= y << fc.morse.degree_offset(top - s * fc.NL)
    return out


def delta_oracle(fc, r, data):
    """delta_r on every degree 0..dimL, one representative at a time: solve
    for the lift of each representative in the Z-span, cut it into slots,
    then recompute its obstruction slot by slot. A degree missing from
    ``data`` has dimension 0."""
    delta = {}
    for m in range(fc.dimL + 1):
        deg, tgt = data.get(m), data.get(m + 1 - r * fc.NL)
        cols = []
        for q in deg.quotient.reps.basis if deg else ():
            lift = f2._combine(deg.lifts, z_coords_oracle(deg, q))
            vec, tail = lift_slots(fc, r, m, lift)
            assert vec == q
            obs = obstruction_oracle(fc, r, m, vec, tail)
            assert tgt or not obs
            cols.append(tgt.quotient.coords(obs) if tgt else 0)
        delta[m] = column_matrix(cols, tgt.quotient.dim if tgt else 0)
    return delta


def d_squared_oracle(fc):
    """check_d_squared block by block: for each l and each source degree m,
    the sum over i + j = l of op_i op_j at m, witness the first column of
    the first nonzero block."""
    entries = []
    for l in range(2 * fc.nu + 1):
        witness = None
        for m in range(fc.dimL + 1):
            t = m + 2 - l * fc.NL
            if not (0 <= t <= fc.dimL) or fc.morse.dim_at(m) == 0:
                continue
            acc = F2Matrix.zeros(fc.morse.dim_at(t), fc.morse.dim_at(m))
            for i in range(l + 1):
                j = l - i
                mid = m + 1 - j * fc.NL
                if not (0 <= mid <= fc.dimL):
                    continue
                acc = acc + operator_block(fc, i, mid) @ operator_block(fc, j, m)
            if not acc.is_zero():
                col = min(next(f2._bits_of(row)) for row in acc.bits if row)
                witness = fc.morse.generators[fc.morse.degree_positions(m)[col]].name
                break
        entries.append(fcx.IdentityEntry(l, witness is None, witness))
    return fcx.IdentityReport(tuple(entries))


def census_oracle(seed, dims, NL):
    """random_complex_census with the filtered conjugation done block by
    block: the inverse psi of the change of basis phi by the power-series
    recursion psi_s = psi_0 sum_(k>=1) phi_k psi_(s-k), then op'_l as the sum
    over i + j + k = l of psi_i op_j phi_k. Draws from the seed in the same
    order, so it returns the same complex and expected dims."""
    rng = random.Random(seed)
    dimL = len(dims) - 1
    nu = (dimL + 1) // NL

    generators = [fcx.Generator(f"c{m}_{i:02d}", m)
                  for m in range(dimL + 1) for i in range(dims[m])]
    unused = {m: list(range(dims[m])) for m in range(dimL + 1)}
    base = {k: {} for k in range(nu + 1)}
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

    base_ops = {
        k: {m: F2Matrix.from_entries(dims[m + 1 - k * NL], dims[m], pairs)
            for m, pairs in per.items()}
        for k, per in base.items()
    }

    phi = {0: {}}
    for m in range(dimL + 1):
        phi[0][m] = fcx._random_invertible(rng, dims[m])
    for k in range(1, nu + 1):
        phi[k] = {}
        for m in range(dimL + 1):
            t = m - k * NL
            if 0 <= t <= dimL:
                phi[k][m] = fcx._random_matrix(rng, dims[t], dims[m])

    def phi_at(k, m):
        return phi.get(k, {}).get(m)

    psi = {0: {m: phi[0][m].inverse() for m in range(dimL + 1)}}
    for s in range(1, nu + 1):
        psi[s] = {}
        for m in range(dimL + 1):
            t = m - s * NL
            if not (0 <= t <= dimL):
                continue
            acc = F2Matrix.zeros(dims[t], dims[m])
            for k in range(1, s + 1):
                mid = m - (s - k) * NL
                pk = phi_at(k, mid)
                ps = psi.get(s - k, {}).get(m)
                if pk is not None and ps is not None:
                    acc = acc + pk @ ps
            psi[s][m] = psi[0][t] @ acc

    def base_op(j, m):
        t = m + 1 - j * NL
        if not (0 <= m <= dimL and 0 <= t <= dimL):
            return None
        mat = base_ops.get(j, {}).get(m)
        return mat if mat is not None else F2Matrix.zeros(dims[t], dims[m])

    new_ops = {}
    for l in range(nu + 1):
        per = {}
        for m in range(dimL + 1):
            t = m + 1 - l * NL
            if not (0 <= t <= dimL):
                continue
            acc = F2Matrix.zeros(dims[t], dims[m])
            for kk in range(l + 1):
                pk = phi_at(kk, m)
                if pk is None:
                    continue
                m1 = m - kk * NL
                for j in range(l - kk + 1):
                    dj = base_op(j, m1)
                    if dj is None:
                        continue
                    i = l - kk - j
                    m2 = m1 + 1 - j * NL
                    pi = psi.get(i, {}).get(m2)
                    if pi is None:
                        continue
                    acc = acc + pi @ (dj @ pk)
            if not acc.is_zero():
                per[m] = acc
        new_ops[l] = per

    # glued only here, into the images op'_l(g) over the generator order
    morse = fcx.MorseComplex(generators, dimL)
    ops = {l: dict(enumerate(morse.glue(per, 1 - l * NL).transpose().bits))
           for l, per in new_ops.items()}
    return fcx.assemble(morse, NL, ops), expected


def folded_homology_oracle(fc):
    """folded_homology as the fold's matrices, assembled per residue from
    every op_k block of every degree in an offset layout of its own."""
    N = fc.NL
    degrees = {r: [m for m in range(fc.dimL + 1) if m % N == r] for r in range(N)}
    offsets = {}
    sizes = {}
    for r, ms in degrees.items():
        off, acc = {}, 0
        for m in ms:
            off[m] = acc
            acc += fc.morse.dim_at(m)
        offsets[r] = off
        sizes[r] = acc

    def folded_matrix(r):
        r_out = (r + 1) % N
        entries = []
        for m in degrees[r]:
            for k in range(fc.nu + 1):
                t = m + 1 - k * N
                if not (0 <= t <= fc.dimL):
                    continue
                for (i, j) in operator_block(fc, k, m).entries():
                    entries.append((offsets[r_out][t] + i, offsets[r][m] + j))
        return F2Matrix.from_entries(sizes[r_out], sizes[r], entries)

    ranks = {r: rank_oracle(folded_matrix(r)) for r in range(N)}
    return {r: sizes[r] - ranks[r] - ranks[(r - 1) % N] for r in range(N)}


def _window_offsets(fc, l):
    """Offsets of the window blocks (p, m) of total degree l, and their total size."""
    W = 2 * fc.nu + 2
    off, acc = {}, 0
    for p in range(-W, W + 1):
        m = l - p * fc.NL
        if 0 <= m <= fc.dimL and fc.morse.dim_at(m) > 0:
            off[(p, m)] = acc
            acc += fc.morse.dim_at(m)
    return off, acc


def window_matrix_oracle(fc, l):
    """The window differential from total degree l to l + 1, assembled from
    the entries of its op_k blocks."""
    src, ssize = _window_offsets(fc, l)
    tgt, tsize = _window_offsets(fc, l + 1)
    entries = []
    for (p, m), o in src.items():
        for k in fc.ops:
            key = (p + k, m + 1 - k * fc.NL)
            if key not in tgt:
                continue
            for (i, j) in operator_block(fc, k, m).entries():
                entries.append((tgt[key] + i, o + j))
    return F2Matrix.from_entries(tsize, ssize, entries)


def window_homology_oracle(fc):
    """window_homology_dims with each window differential assembled from the
    entries of its op_k blocks, in an offset layout keyed by (p, m), and
    ranked once for each of the two degrees it touches."""
    return {l: _window_offsets(fc, l)[1] - rank_oracle(window_matrix_oracle(fc, l))
            - rank_oracle(window_matrix_oracle(fc, l - 1)) for l in range(fc.NL)}


def e1_blocks_oracle(fc):
    """e1_oracle from op_0 and op_1 blocks: cycles the kernel of the op_0
    block of degree m, boundaries the image of the block of degree m - 1,
    and op_1 applied to each representative as a matrix."""
    quots = {}
    for m in range(fc.dimL + 1):
        cycles = f2.kernel(operator_block(fc, 0, m))
        below = operator_block(fc, 0, m - 1)
        bounds = image_oracle(below) if m > 0 else Subspace.zero(fc.morse.dim_at(m))
        quots[m] = f2.quotient_map(bounds, cycles)
    dims = {m: quots[m].dim for m in quots}
    deltas = {}
    for m in range(fc.dimL + 1):
        t = m + 1 - fc.NL
        tdim = dims.get(t, 0)
        op1 = operator_block(fc, 1, m)
        cols = [quots[t].coords(op1.mul_vec(q)) if tdim else 0 for q in quots[m].reps.basis]
        deltas[m] = F2Matrix.from_row_ints(cols, tdim)
    return dims, deltas


def tail_freedom_oracle(fc, m, depth):
    """_tail_freedom as the block system of the zig-zag equations: row block
    s, column block j holds op_(s-j) from C^(m - j*NL), each block placed
    at offsets of its own."""
    N = fc.NL
    slot_dims = [fc.morse.dim_at(m - s * N) if 0 <= m - s * N <= fc.dimL else 0
                 for s in range(1, depth + 1)]
    total = sum(slot_dims)
    if total == 0:
        return ()
    offsets = []
    acc = 0
    for d in slot_dims:
        offsets.append(acc)
        acc += d
    entries = []
    row_off = 0
    for s in range(1, depth + 1):
        t = m + 1 - s * N
        rows = fc.morse.dim_at(t) if 0 <= t <= fc.dimL else 0
        for j in range(1, s + 1):
            for (i, c) in operator_block(fc, s - j, m - j * N).entries():
                entries.append((row_off + i, offsets[j - 1] + c))
        row_off += rows
    ker = kernel_oracle(F2Matrix.from_entries(row_off, total, entries))
    if ker.dim == 0:
        return ()
    v = ker.basis[0]
    return tuple((v >> offsets[s]) & ((1 << slot_dims[s]) - 1) if slot_dims[s] else 0
                 for s in range(depth))


# -- the slot-tuple page engine ---------------------------------------------


@dataclass(frozen=True)
class ZGen:
    """Cycle representative with its zig-zag tail (y_1..y_(r-1))."""
    vec: int
    tail: tuple[int, ...]


@dataclass(frozen=True)
class BGen:
    """Boundary spanning vector with its antecedent chain (w_0..w_(r-1))."""
    vec: int
    chain: tuple[int, ...]


@dataclass(frozen=True)
class SlotDegree:
    """One stored degree of a slot-engine page; ``obs[i]`` is the page-r
    obstruction of ``z_basis[i]``, whose vectors are ``quotient.sup.basis``."""
    z_basis: tuple[ZGen, ...]
    b_span: tuple[BGen, ...]
    quotient: QuotientMap
    obs: tuple[int, ...]

    @cached_property
    def b_matrix(self):
        return column_matrix([b.vec for b in self.b_span],
                             self.quotient.sup.ambient_dim)


def obstruction_oracle(fc, r, m, vec, tail):
    """Next zig-zag obstruction of a depth-r cycle (lands in degree m+1-r*NL),
    slot by slot through the op_k blocks."""
    if r == 0:
        return operator_block(fc, 0, m).mul_vec(vec)
    out = 0
    for k in range(1, r + 1):
        s = r - k
        y = vec if s == 0 else tail[s - 1]
        out ^= operator_block(fc, k, m - s * fc.NL).mul_vec(y)
    return out


def slot_page0(fc):
    """Page 0 of the slot-tuple engine."""
    data = {}
    for m in range(fc.dimL + 1):
        n = fc.morse.dim_at(m)
        if n:
            z = tuple(ZGen(1 << i, ()) for i in range(n))
            quot = f2.quotient_map(Subspace.zero(n), Subspace.full(n))
            obs = tuple(obstruction_oracle(fc, 0, m, g.vec, g.tail) for g in z)
            data[m] = SlotDegree(z, (), quot, obs)
    return sp.SpectralPage(fc, 0, data, *sp._classify(fc, 0, data))


def slot_turn_page(page):
    """The page turn with tuple tails and chains, one slot per degree; the
    classes and delta of each page are ``spectral._classify`` of its
    obstructions, and there is no second lift."""
    fc = page.fc
    r = page.r
    N = fc.NL
    new_data = {}
    for m, deg in page.data.items():
        m_dim = fc.morse.dim_at(m)
        tgt = page.data.get(m + 1 - r * N)

        if tgt is None:
            if any(deg.obs):
                raise LiftFailure(f"obstruction escapes the grading range at "
                                  f"degree {m}")
            coeff_kernel = Subspace.full(len(deg.z_basis))
        else:
            cols = [tgt.quotient.coords(o) for o in deg.obs]
            coeff_kernel = f2.kernel(column_matrix(cols, tgt.quotient.dim))

        z_vecs = [g.vec for g in deg.z_basis]
        z_tails = list(zip(*(g.tail for g in deg.z_basis)))
        new_z = []
        for combo in coeff_kernel.basis:
            vec = f2._combine(z_vecs, combo)
            tail = [f2._combine(slot, combo) for slot in z_tails]
            obs = f2._combine(deg.obs, combo)
            if r >= 1:
                tail.append(0)  # slot for y_r
            if tgt is not None and obs:
                coeff = f2.solve_many(tgt.b_matrix, [obs])[0]
                if coeff is None:
                    raise LiftFailure(f"obstruction at degree {m} is not a "
                                      f"boundary despite vanishing class")
                for s in range(r):
                    tail[s] ^= f2._combine([b.chain[s] for b in tgt.b_span], coeff)
            new_z.append(ZGen(vec, tuple(tail)))

        shifted = [BGen(b.vec, (0,) + b.chain) for b in deg.b_span]
        sigma = m - 1 + r * N
        incoming = []
        sdeg = page.data.get(sigma)
        if sdeg is not None:
            for g, o in zip(sdeg.z_basis, sdeg.obs):
                chain = (g.vec,) + g.tail + (0,) if r >= 1 else (g.vec,)
                incoming.append(BGen(o, chain))

        # keep each candidate outside the span of those kept before it
        pivots = {}
        kept = [cand for cand in shifted + incoming
                if f2._echelon_insert(pivots, cand.vec)]
        span = Subspace.from_vectors(m_dim, [b.vec for b in kept])
        z_vecs = tuple(g.vec for g in new_z)
        z_space = Subspace.from_vectors(m_dim, z_vecs)
        if z_space.basis != z_vecs:
            raise LiftFailure(f"dependent or non-echelon cycle basis at degree {m}")
        assert all(z_space.contains(b) for b in span.basis)
        quot = QuotientMap(span, z_space, quotient_reps_oracle(span, z_space))

        obs = tuple(obstruction_oracle(fc, r + 1, m, g.vec, g.tail) for g in new_z)
        new_data[m] = SlotDegree(tuple(new_z), tuple(kept), quot, obs)

    return sp.SpectralPage(fc, r + 1, new_data, *sp._classify(fc, r + 1, new_data))


def slot_pages(fc):
    """Pages E_0 .. E_(nu+1) of the slot-tuple engine."""
    pages = [slot_page0(fc)]
    for _ in range(fc.nu + 1):
        pages.append(slot_turn_page(pages[-1]))
    return pages


def pair_tables(fc):
    """m_l of fc as {l: {(i, j): frozenset of k}}, from the serialized triples."""
    tables = {}
    for key, triples in serialize.complex_to_dict(fc)["products"].items():
        table = tables.setdefault(int(key), {})
        for i, j, k in triples:
            table[i, j] = table.get((i, j), frozenset()) | {k}
    return tables


def apply_product(table, a, b):
    """A pair table on two chains, frozensets of generator positions."""
    out = frozenset()
    for i in a:
        for j in b:
            out ^= table.get((i, j), frozenset())
    return out


def chain_to_vec(fc, chain, m):
    positions = fc.morse.degree_positions(m)
    return sum(1 << positions.index(g) for g in chain)


def vec_to_chain(fc, vec, m):
    return frozenset(g for p, g in enumerate(fc.morse.degree_positions(m))
                     if (vec >> p) & 1)


def page_product_tables(page, fc):
    """Page classes of m_0 on every pair of representatives, per degree pair."""
    m_0 = pair_tables(fc).get(0, {})
    gens = fc.morse.generators
    tables = {}
    for m1 in range(fc.dimL + 1):
        for m2 in range(fc.dimL + 1):
            if page.dim(m1) == 0 or page.dim(m2) == 0:
                continue
            mt = m1 + m2
            table = []
            for q1 in page.reps(m1):
                row = []
                for q2 in page.reps(m2):
                    chain = apply_product(m_0, vec_to_chain(fc, q1, m1),
                                          vec_to_chain(fc, q2, m2))
                    if any(gens[g].index != mt for g in chain):
                        raise LeibnizFailure("product escapes the grading")
                    if mt > fc.dimL:
                        row.append(0)
                        continue
                    try:
                        row.append(page.class_coords(mt, chain_to_vec(fc, chain, mt)))
                    except ValueError as exc:
                        raise LeibnizFailure(
                            f"page {page.r} product of degrees ({m1},{m2}) "
                            f"leaves the cycle space") from exc
                table.append(row)
            tables[(m1, m2)] = table
    return tables


def scaled_frames_oracle(frames):
    """The frames as one complex array, each divided by its largest real or
    imaginary part, and their computed Gram matrices A^H A."""
    import numpy as np

    stack = np.array(frames, dtype=np.complex128)
    parts = stack.view(np.float64)
    scale = np.abs(parts).max(axis=(1, 2))
    parts /= np.where(scale > 0, scale, 1.0)[:, None, None]
    return stack, stack.conj().swapaxes(1, 2) @ stack


def degenerate_oracle(stack):
    """Per scaled frame, whether ``matrix_rank`` of [Re A; Im A] is below n."""
    import numpy as np

    real = np.concatenate([stack.real, stack.imag], axis=-2)
    return np.linalg.matrix_rank(real) < stack.shape[-1]


def checked_stack_oracle(frames, where="sample {}"):
    """``maslov._checked_stack`` with the SVD run on every frame."""
    import numpy as np

    stack, gram = scaled_frames_oracle(frames)
    degenerate = degenerate_oracle(stack)
    with np.errstate(invalid="ignore"):
        skew = np.abs(gram.imag).max(axis=(1, 2)) / np.abs(gram).max(axis=(1, 2))
    bad = degenerate | ~(skew <= mv.LAGRANGIAN_TOL)
    if bad.any():
        k = int(bad.argmax())
        if degenerate[k]:
            raise DegenerateFrame(f"{where.format(k)}: columns do not span an "
                                  f"n-dimensional real subspace")
        raise NotLagrangian(f"{where.format(k)}: symplectic pairing of columns is "
                            f"{skew[k]:.3e} of the Gram matrix > {mv.LAGRANGIAN_TOL:.0e}")
    return stack
