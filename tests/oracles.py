"""Reference implementations the fast paths are tested against.

Each is the straightforward version the engine used before it was
optimised: one fresh elimination per call, and ring and Leibniz identities
checked on every basis pair or triple over frozenset elements.
"""

import itertools

from floeralg import f2linalg as f2
from floeralg import spectral as sp


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


def delta_oracle(fc, r, data):
    """delta_r per degree, one representative at a time: resolve the tail of
    each representative in the Z-span, then recompute its obstruction."""
    delta = {}
    for m in range(fc.dimL + 1):
        t = m + 1 - r * fc.NL
        in_range = 0 <= t <= fc.dimL
        cols = []
        for q in data[m].quotient.reps.basis:
            obs = sp._obstruction(fc, r, m, q, sp._resolve_in_z(data[m], q))
            assert in_range or not obs
            cols.append(data[t].quotient.coords(obs) if in_range else 0)
        delta[m] = sp._column_matrix(cols, data[t].quotient.dim if in_range else 0)
    return delta
