"""Reference implementations the fast paths are tested against.

Each is the straightforward version the engine used before it was
optimised: one fresh elimination per call, and ring and Leibniz identities
checked on every basis pair or triple over frozenset elements.
"""

import itertools

from floeralg import f2linalg as f2


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


def check_unit(ring):
    """1 e_i == e_i == e_i 1 for every basis element."""
    one = ring.one()
    return all(ring.mul(one, frozenset({i})) == frozenset({i})
               and ring.mul(frozenset({i}), one) == frozenset({i})
               for i in range(ring.dim))


def check_commutative(ring):
    """e_i e_j == e_j e_i on every basis pair."""
    return all(ring.basis_mul(i, j) == ring.basis_mul(j, i)
               for i in range(ring.dim) for j in range(i, ring.dim))


def check_associative(ring):
    """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple."""
    for i, j, k in itertools.product(range(ring.dim), repeat=3):
        left = ring.mul(ring.basis_mul(i, j), frozenset({k}))
        right = ring.mul(frozenset({i}), ring.basis_mul(j, k))
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
            for k in ring.basis_mul(i, j):
                lhs ^= d_of[k]
            rhs = ring.mul(d_of[i], frozenset({j})) ^ ring.mul(ei, d_of[j])
            if lhs != rhs:
                return False
    return True
