"""Exact dense linear algebra over the two-element field.

Matrices are bit-packed row-major into 64-bit words and all row operations
work word-wise (XOR of whole payload rows). Vectors cross the API as plain
Python ints, bit ``i`` holding coordinate ``i``; ints are themselves
word-packed, hashable and immutable, which the higher layers rely on.

Matrices act on column vectors: ``m.mul_vec(x)`` computes ``m @ x``.
Subspaces are canonicalized to reduced row echelon form so that equality
of subspaces is payload equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotASubspace

WORD_BITS = 64


def _nwords(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


def _int_to_words(x: int, nwords: int) -> np.ndarray:
    if nwords == 0:
        return np.zeros(0, dtype=np.uint64)
    return np.frombuffer(x.to_bytes(nwords * 8, "little"), dtype="<u8").astype(np.uint64)


def _words_to_int(w: np.ndarray) -> int:
    return int.from_bytes(w.astype("<u8").tobytes(), "little")


def _pad_mask(cols: int) -> int:
    return (1 << cols) - 1


@dataclass(frozen=True, eq=False)
class F2Matrix:
    """Dense bit-packed matrix over F2.

    ``bits`` has shape ``(rows, ceil(cols/64))`` with dtype uint64; padding
    bits beyond ``cols`` are zero. Instances are immutable.
    """

    rows: int
    cols: int
    bits: np.ndarray

    def __post_init__(self):
        expected = (self.rows, _nwords(self.cols))
        if self.bits.shape != expected or self.bits.dtype != np.uint64:
            raise ValueError(f"payload shape {self.bits.shape} != {expected}")
        self.bits.flags.writeable = False

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, np.zeros((rows, _nwords(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls.from_row_ints([1 << i for i in range(n)], n)

    @classmethod
    def from_row_ints(cls, row_ints: Sequence[int], cols: int) -> "F2Matrix":
        mask = _pad_mask(cols)
        nw = _nwords(cols)
        payload = np.zeros((len(row_ints), nw), dtype=np.uint64)
        for i, r in enumerate(row_ints):
            if r & ~mask:
                raise ValueError("row has bits beyond cols")
            payload[i] = _int_to_words(r, nw)
        return cls(len(row_ints), cols, payload)

    @classmethod
    def from_dense(cls, dense) -> "F2Matrix":
        arr = np.asarray(dense, dtype=np.uint8) % 2
        if arr.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = arr.shape
        ints = [int.from_bytes(np.packbits(arr[i], bitorder="little").tobytes(), "little")
                for i in range(rows)]
        return cls.from_row_ints(ints, cols)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> "F2Matrix":
        row_ints = [0] * rows
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of range")
            row_ints[i] ^= 1 << j
        return cls.from_row_ints(row_ints, cols)

    # -- accessors --------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int(self.bits[i, j // WORD_BITS] >> np.uint64(j % WORD_BITS)) & 1

    def _cached_rows(self) -> tuple[int, ...]:
        cached = self.__dict__.get("_rows_cache")
        if cached is None:
            cached = tuple(_words_to_int(self.bits[i]) for i in range(self.rows))
            object.__setattr__(self, "_rows_cache", cached)
        return cached

    def row_int(self, i: int) -> int:
        return self._cached_rows()[i]

    def row_ints(self) -> list[int]:
        return list(self._cached_rows())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        if self.cols:
            raw = np.unpackbits(self.bits.view(np.uint8), axis=1, bitorder="little")
            out[:] = raw[:, : self.cols]
        return out

    def entries(self) -> list[tuple[int, int]]:
        """Coordinates of 1-entries, sorted lexicographically."""
        out = []
        for i in range(self.rows):
            r = self.row_int(i)
            while r:
                low = r & -r
                out.append((i, low.bit_length() - 1))
                r ^= low
        return out

    def is_zero(self) -> bool:
        return not self.bits.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and np.array_equal(
            self.bits, other.bits
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.bits.tobytes()))

    def __repr__(self):
        return f"F2Matrix({self.rows}x{self.cols}, rank={rank(self)})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in F2 matrix sum")
        return F2Matrix(self.rows, self.cols, self.bits ^ other.bits)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in F2 matrix product")
        out = np.zeros((self.rows, _nwords(other.cols)), dtype=np.uint64)
        for i in range(self.rows):
            r = self.row_int(i)
            acc = np.zeros(_nwords(other.cols), dtype=np.uint64)
            while r:
                low = r & -r
                acc ^= other.bits[low.bit_length() - 1]
                r ^= low
            out[i] = acc
        return F2Matrix(self.rows, other.cols, out)

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product ``self @ x`` with ``x`` over the columns."""
        if x & ~_pad_mask(self.cols):
            raise ValueError("vector has bits beyond cols")
        out = 0
        for i, row in enumerate(self._cached_rows()):
            if (row & x).bit_count() & 1:
                out |= 1 << i
        return out

    def transpose(self) -> "F2Matrix":
        if self.rows == 0 or self.cols == 0:
            return F2Matrix.zeros(self.cols, self.rows)
        dense = self.to_dense()
        return F2Matrix.from_dense(dense.T)

    def inverse(self) -> "F2Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [self.row_int(i) | (1 << (n + i)) for i in range(n)]
        red, pivots = _rref_ints(aug, 2 * n, pivot_limit=n)
        if len(pivots) != n:
            raise ValueError("matrix is singular over F2")
        inv_rows = [red[i] >> n for i in range(n)]
        return F2Matrix.from_row_ints(inv_rows, n)


def _rref_ints(row_ints: Sequence[int], cols: int, pivot_limit: Optional[int] = None
               ) -> tuple[list[int], list[int]]:
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


def rank(m: F2Matrix) -> int:
    """Row rank over F2 by Gaussian elimination."""
    _, pivots = _rref_ints(m.row_ints(), m.cols)
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F2^ambient_dim, basis rows in reduced echelon form.

    Rows are nonzero, pairwise independent and ordered by ascending pivot,
    so two Subspace values are equal iff they are the same subspace.
    """

    ambient_dim: int
    basis: tuple[int, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        vecs = [v for v in vectors]
        mask = _pad_mask(ambient_dim)
        for v in vecs:
            if v & ~mask:
                raise ValueError("vector has bits beyond ambient dimension")
        red, pivots = _rref_ints(vecs, ambient_dim)
        return cls(ambient_dim, tuple(red[: len(pivots)]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple((b & -b).bit_length() - 1 for b in self.basis)

    def reduce(self, v: int) -> int:
        """Canonical coset representative of ``v`` modulo this subspace."""
        for b in self.basis:
            if v & (b & -b):
                v ^= b
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def coords(self, v: int) -> int:
        """Coordinates of ``v`` in the echelon basis; raises if v is outside."""
        out = 0
        for i, b in enumerate(self.basis):
            if v & (b & -b):
                v ^= b
                out |= 1 << i
        if v:
            raise ValueError("vector not in subspace")
        return out

    def vectors(self) -> Iterable[int]:
        """All 2^dim elements (small subspaces only; test use)."""
        for mask in range(1 << self.dim):
            v = 0
            m = mask
            while m:
                low = m & -m
                v ^= self.basis[low.bit_length() - 1]
                m ^= low
            yield v

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)


def kernel(m: F2Matrix) -> Subspace:
    """Null space {v : m @ v = 0} as a canonical Subspace of F2^cols."""
    red, pivots = _rref_ints(m.row_ints(), m.cols)
    pivot_set = set(pivots)
    gens = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for i, p in enumerate(pivots):
            if red[i] & (1 << free):
                v |= 1 << p
        gens.append(v)
    return Subspace.from_vectors(m.cols, gens)


def image(m: F2Matrix) -> Subspace:
    """Column span of m as a canonical Subspace of F2^rows."""
    return Subspace.from_vectors(m.rows, m.transpose().row_ints())


def solve(m: F2Matrix, b: int) -> Optional[int]:
    """Some x with m @ x = b, or None when the system is inconsistent.

    The particular solution is canonical: free variables are zero.
    """
    if b & ~_pad_mask(m.rows):
        raise ValueError("rhs has bits beyond rows")
    aug = [m.row_int(i) | (((b >> i) & 1) << m.cols) for i in range(m.rows)]
    red, pivots = _rref_ints(aug, m.cols + 1, pivot_limit=m.cols)
    x = 0
    for i, p in enumerate(pivots):
        if red[i] >> m.cols:
            x |= 1 << p
    # rows beyond the pivots must have zero rhs, else inconsistent
    for i in range(len(pivots), m.rows):
        if red[i]:
            return None
    return x


@dataclass(frozen=True)
class QuotientMap:
    """Quotient sup/sub with canonical echelon coset representatives.

    ``project`` sends any vector to its canonical representative modulo
    ``sub`` (so it kills exactly ``sub``); ``reps`` is an echelon basis of
    representatives for sup/sub inside the ambient space.
    """

    sub: Subspace
    sup: Subspace
    reps: Subspace

    @property
    def dim(self) -> int:
        return self.reps.dim

    def project(self, v: int) -> int:
        return self.sub.reduce(v)

    def coords(self, v: int) -> int:
        """Coordinates of [v] in the representative basis (v must lie in sup)."""
        return self.reps.coords(self.sub.reduce(v))

    def rep(self, coords: int) -> int:
        v = 0
        m = coords
        while m:
            low = m & -m
            v ^= self.reps.basis[low.bit_length() - 1]
            m ^= low
        return v


def quotient_map(sub: Subspace, sup: Subspace) -> QuotientMap:
    """Quotient of nested subspaces; raises NotASubspace if sub ⊄ sup."""
    if sub.ambient_dim != sup.ambient_dim:
        raise NotASubspace("ambient dimensions differ")
    if not sup.contains_subspace(sub):
        raise NotASubspace("claimed subspace is not contained in the larger one")
    reduced = [sub.reduce(b) for b in sup.basis]
    reps = Subspace.from_vectors(sup.ambient_dim, [v for v in reduced if v])
    qm = QuotientMap(sub=sub, sup=sup, reps=reps)
    assert qm.dim == sup.dim - sub.dim
    return qm
