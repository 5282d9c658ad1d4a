"""Reference implementations the fast paths are tested against.

Each is the straightforward version the engine used before it was
optimised: one fresh elimination per call, ring and Leibniz identities
checked on every basis pair or triple over frozenset elements, and the
census conjugation and d^2 check computed block by block in degree-local
coordinates.
"""

import itertools
import random

from floeralg import f2linalg as f2
from floeralg import floercomplex as fcx
from floeralg import spectral as sp
from floeralg.f2linalg import F2Matrix


def solve_oracle(m, b):
    """Some x with m @ x = b (free variables zero), or None; eliminates [m | b]."""
    if b & ~((1 << m.rows) - 1):
        raise ValueError("rhs has bits beyond rows")
    aug = [r | (((b >> i) & 1) << m.cols) for i, r in enumerate(m.bits)]
    red, pivots = f2._rref_ints(aug, m.cols + 1, pivot_limit=m.cols)
    x = 0
    for i, p in enumerate(pivots):
        if red[i] >> m.cols:
            x |= 1 << p
    # rows beyond the pivots must have zero rhs, else inconsistent
    if any(red[i] for i in range(len(pivots), m.rows)):
        return None
    return x


def rank_oracle(m):
    return len(f2._rref_ints(m.bits, m.cols)[1])


def kernel_oracle(m):
    red, pivots = f2._rref_ints(m.bits, m.cols)
    gens = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = 1 << free
        for i, p in enumerate(pivots):
            if red[i] & (1 << free):
                v |= 1 << p
        gens.append(v)
    return f2.Subspace.from_vectors(m.cols, gens)


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


def z_coords_oracle(deg, vec):
    """Coordinates of a vector of the Z-span in ``deg.z_basis``, solved
    against the Z vectors as the columns of a matrix."""
    z_matrix = sp._column_matrix([g.vec for g in deg.z_basis],
                                 deg.quotient.sup.ambient_dim)
    coeff = f2.solve(z_matrix, vec)
    assert coeff is not None
    return coeff


def delta_oracle(fc, r, data):
    """delta_r on every degree 0..dimL, one representative at a time: solve
    for the tail of each representative in the Z-span, then recompute its
    obstruction. A degree missing from ``data`` has dimension 0."""
    delta = {}
    for m in range(fc.dimL + 1):
        deg, tgt = data.get(m), data.get(m + 1 - r * fc.NL)
        cols = []
        for q in deg.quotient.reps.basis if deg else ():
            coeff = z_coords_oracle(deg, q)
            tail = tuple(f2._combine(slot, coeff)
                         for slot in zip(*(g.tail for g in deg.z_basis)))
            obs = sp._obstruction(fc, r, m, q, tail)
            assert tgt or not obs
            cols.append(tgt.quotient.coords(obs) if tgt else 0)
        delta[m] = sp._column_matrix(cols, tgt.quotient.dim if tgt else 0)
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
                acc = acc + fc.operator(i, mid) @ fc.operator(j, m)
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
        if l == 0:
            boundary = per
        else:
            new_ops[l] = per

    morse = fcx.MorseComplex(generators, dimL, boundary)
    return fcx.assemble(morse, NL, new_ops), expected


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
                for (i, j) in fc.operator(k, m).entries():
                    entries.append((offsets[r_out][t] + i, offsets[r][m] + j))
        return F2Matrix.from_entries(sizes[r_out], sizes[r], entries)

    ranks = {r: rank_oracle(folded_matrix(r)) for r in range(N)}
    return {r: sizes[r] - ranks[r] - ranks[(r - 1) % N] for r in range(N)}


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
            for (i, c) in fc.operator(s - j, m - j * N).entries():
                entries.append((row_off + i, offsets[j - 1] + c))
        row_off += rows
    ker = kernel_oracle(F2Matrix.from_entries(row_off, total, entries))
    if ker.dim == 0:
        return ()
    v = ker.basis[0]
    return tuple((v >> offsets[s]) & ((1 << slot_dims[s]) - 1) if slot_dims[s] else 0
                 for s in range(depth))
