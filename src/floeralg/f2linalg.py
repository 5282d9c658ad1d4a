"""Exact dense linear algebra over the two-element field.

A matrix is a tuple of rows and each row is a Python int, bit ``j`` holding
column ``j``; row operations are int XORs. Vectors cross the API as the same
plain ints, bit ``i`` holding coordinate ``i``; ints are hashable and
immutable, which the higher layers rely on.

Matrices act on column vectors: ``m.mul_vec(x)`` computes ``m @ x``.
Subspaces are canonicalized to reduced row echelon form so that equality
of subspaces is payload equality; they read coordinates off the pivot bits.

One routine eliminates: a row's pivot is its lowest set bit, each row goes
into a pivot map (``_echelon_insert``), and the map is back-substituted, so
a zero row costs nothing and no column is probed. ``rank`` only counts the
rows kept in that map. ``solve_many``, ``left_kernel`` and ``inverse``
read one :class:`Elimination` record, the reduced row echelon form of
``[m | I]``, computed on first use and kept on the matrix. A right-hand
side then costs one pass over the transform rows, not a fresh elimination
(the "factor once, solve many" idea of PLE decomposition, Albrecht, Bard
and Pernet, arXiv 1111.6549). ``left_kernel`` is the transform rows past
the rank, and ``kernel`` is the left kernel of the transpose. A quotient
of nested subspaces takes its coset representatives from the larger
basis by pivot bit, with no elimination at all.

Every layer combines stored vectors by a coefficient bitmask through
``_combine(vectors, coeffs)``, the XOR of ``vectors[i]`` over the set bits i
of ``coeffs``, and decodes bitmasks through ``_bits_of``. Both are
per-vector helpers and stay private, so the layer tracer leaves them alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from .errors import NotASubspace


def _pad_mask(cols: int) -> int:
    return (1 << cols) - 1


def _bits_of(x: int) -> Iterable[int]:
    """Indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _combine(vectors: Sequence[int], coeffs: int) -> int:
    """XOR of ``vectors[i]`` over the set bits i of ``coeffs``."""
    acc = 0
    while coeffs:
        low = coeffs & -coeffs
        acc ^= vectors[low.bit_length() - 1]
        coeffs ^= low
    return acc


@dataclass(frozen=True)
class F2Matrix:
    """Dense matrix over F2 stored as one int per row.

    ``bits[i]`` is row ``i``; no row has bits at or past ``cols``.
    Instances are immutable, and equal iff shape and rows are equal.
    """

    rows: int
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != self.rows:
            raise ValueError(f"payload has {len(self.bits)} rows, expected {self.rows}")
        if reduce(or_, self.bits, 0) >> self.cols:  # also rejects negative rows
            raise ValueError("row has bits beyond cols")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_row_ints(cls, row_ints: Sequence[int], cols: int) -> "F2Matrix":
        return cls(len(row_ints), cols, tuple(row_ints))

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "F2Matrix":
        """Matrix from nested rows of 0/1 entries (taken mod 2)."""
        rows = [list(row) for row in dense]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("dense input must be 2-D")
        return cls.from_row_ints(
            [sum(1 << j for j, e in enumerate(row) if int(e) % 2) for row in rows], cols)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int]]) -> "F2Matrix":
        row_ints = [0] * rows
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) out of range")
            row_ints[i] ^= 1 << j
        return cls(rows, cols, tuple(row_ints))

    # -- accessors --------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return (self.bits[i] >> j) & 1

    def entries(self) -> list[tuple[int, int]]:
        """Coordinates of 1-entries, sorted lexicographically."""
        return [(i, j) for i, r in enumerate(self.bits) for j in _bits_of(r)]

    def is_zero(self) -> bool:
        return not any(self.bits)

    def __repr__(self):
        return f"F2Matrix({self.rows}x{self.cols}, rank={rank(self)})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in F2 matrix sum")
        return F2Matrix(self.rows, self.cols,
                        tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in F2 matrix product")
        return F2Matrix(self.rows, other.cols,
                        tuple(_combine(other.bits, r) for r in self.bits))

    def mul_vec(self, x: int) -> int:
        """Matrix-vector product ``self @ x`` with ``x`` over the columns."""
        if x & ~_pad_mask(self.cols):
            raise ValueError("vector has bits beyond cols")
        out = 0
        for i, row in enumerate(self.bits):
            if (row & x).bit_count() & 1:
                out |= 1 << i
        return out

    def transpose(self) -> "F2Matrix":
        cols = [0] * self.cols
        for i, r in enumerate(self.bits):
            for j in _bits_of(r):
                cols[j] |= 1 << i
        return F2Matrix(self.cols, self.rows, tuple(cols))

    def inverse(self) -> "F2Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        rec = _elimination(self)
        if len(rec.pivots) != self.rows:
            raise ValueError("matrix is singular over F2")
        # rref of an invertible matrix is I, so T m = I
        return F2Matrix(self.rows, self.rows, rec.transform)


@dataclass(frozen=True)
class Elimination:
    """Reduced row echelon form of ``[m | I]``, split at m's columns.

    ``pivots`` are the pivot columns of m, ascending; ``transform`` holds
    the rows of an invertible T with T m = rref(m), each an int over the
    rows of m. Rows of T past ``len(pivots)`` are the reduced echelon
    basis of the left kernel of m.
    """

    pivots: tuple[int, ...]
    transform: tuple[int, ...]


def _elimination(m: F2Matrix) -> Elimination:
    """The elimination record of m, computed on first use and kept on m.

    Row i gets the tag bit n + i, above m's n columns, so the reduced rows
    with pivot below n are those with nonzero m part: rref(m). A row sum of
    ``[m | I]`` is zero iff its tag part is, so all m.rows reduced rows stay
    and their tag parts form an invertible T. The rref of ``[m | I]`` is
    unique, hence so are the rank, pivots, inverse, canonical solves and
    all of T. T's rows past the rank are the reduced rows with zero m part,
    which span {(0, t) : t m = 0}: a combination using a row with pivot
    below n keeps that pivot bit. So they are the unique rref of the left
    kernel of m (see ``left_kernel``).

    The record lives in the instance dict, outside the dataclass fields, so
    it takes no part in ``==``, ``hash`` or ``repr``.
    """
    rec = m.__dict__.get("_elimination")
    if rec is None:
        n = m.cols
        rows, pivots = _rref_ints([r | 1 << (n + i) for i, r in enumerate(m.bits)])
        rec = Elimination(tuple(p for p in pivots if p < n), tuple(v >> n for v in rows))
        m.__dict__["_elimination"] = rec
    return rec


def _echelon_insert(pivots: dict[int, int], v: int) -> int:
    """Reduce v against an echelon pivot map and store what is left.

    ``pivots`` maps the lowest set bit of each stored vector to that vector.
    Returns the reduced v, which is zero iff v already lay in their span;
    a nonzero result has just been stored.
    """
    while v:
        low = v & -v
        p = pivots.get(low)
        if p is None:
            pivots[low] = v
            return v
        v ^= p
    return 0


def _back_substitute(pivots: dict[int, int]) -> list[int]:
    """Reduce an echelon pivot map in place and return its rows, ascending.

    Rows go by descending pivot. A row has no bit below its pivot, and each
    row already visited has exactly one pivot bit, so one XOR clears that
    bit and changes no other pivot bit.
    """
    order = sorted(pivots)
    done = 0
    for low in reversed(order):
        v = pivots[low]
        hits = v & done
        while hits:
            h = hits & -hits
            v ^= pivots[h]
            hits ^= h
        pivots[low] = v
        done |= low
    return [pivots[low] for low in order]


def _rref_ints(row_ints: Iterable[int]) -> tuple[list[int], list[int]]:
    """(nonzero reduced rows, pivot columns), ascending: one pivot map,
    back-substituted. Reduced row echelon form is unique, so these are the
    rows and pivots of any elimination."""
    pivots: dict[int, int] = {}
    for v in row_ints:
        _echelon_insert(pivots, v)
    rows = _back_substitute(pivots)
    return rows, [(v & -v).bit_length() - 1 for v in rows]


def rank(m: F2Matrix) -> int:
    """Row rank over F2: the rows kept when m's rows are filed into one
    pivot map. Kept rows have distinct lowest bits, so they are independent,
    and a row that reduces to 0 lies in their span. Nothing else is kept."""
    pivots: dict[int, int] = {}
    for v in m.bits:
        _echelon_insert(pivots, v)
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """Subspace of F2^ambient_dim, basis rows in reduced echelon form.

    Rows are nonzero, pairwise independent and ordered by ascending pivot,
    so two Subspace values are equal iff they are the same subspace.

    ``_pivot_mask`` holds the pivot bits p_i, so p_i has i of them below it.
    b_i is the only basis row with bit p_i, so v minus the b_i for the p_i
    set in v has no pivot bit: it is the canonical representative, and v
    lies in the span iff it is 0, with those i as coordinates.
    """

    ambient_dim: int
    basis: tuple[int, ...]
    _pivot_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_pivot_mask", sum(b & -b for b in self.basis))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        vecs = list(vectors)
        if reduce(or_, vecs, 0) >> ambient_dim:  # also rejects negative vectors
            raise ValueError("vector has bits beyond ambient dimension")
        return cls(ambient_dim, tuple(_rref_ints(vecs)[0]))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Canonical coset representative of ``v`` modulo this subspace."""
        mask = self._pivot_mask
        hits = v & mask
        while hits:
            low = hits & -hits
            v ^= self.basis[(mask & (low - 1)).bit_count()]
            hits ^= low
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def coords(self, v: int) -> int:
        """Coordinates of ``v`` in the echelon basis; raises if v is outside."""
        mask = self._pivot_mask
        hits = v & mask
        out = 0
        while hits:
            low = hits & -hits
            i = (mask & (low - 1)).bit_count()
            v ^= self.basis[i]
            out |= 1 << i
            hits ^= low
        if v:
            raise ValueError("vector not in subspace")
        return out

    def vectors(self) -> Iterable[int]:
        """All 2^dim elements (small subspaces only; test use)."""
        return (_combine(self.basis, mask) for mask in range(1 << self.dim))

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)


def left_kernel(m: F2Matrix) -> Subspace:
    """Left null space {t : t m = 0} as a canonical Subspace of F2^rows:
    the transform rows past the rank of m's elimination record.

    They are reduced echelon as they stand. After back-substitution each
    reduced row of ``[m | I]`` has exactly one pivot bit and the rows come
    by ascending pivot; these rows have zero m part, so their pivots are
    tag bits and their tag parts are reduced echelon, with no
    ``from_vectors`` needed.
    """
    rec = _elimination(m)
    return Subspace(m.rows, rec.transform[len(rec.pivots):])


def kernel(m: F2Matrix) -> Subspace:
    """Null space {v : m @ v = 0} as a canonical Subspace of F2^cols: the
    left kernel of m^T."""
    return left_kernel(m.transpose())


def solve_many(m: F2Matrix, bs: Iterable[int]) -> list[Optional[int]]:
    """Some x with m @ x = b for each b (free variables zero), or None
    where the system is inconsistent, all read off one elimination of m.

    With T m = rref(m), m x = b iff rref(m) x = T b: the system is
    consistent iff T b vanishes past the rank, and then x has bit p_i set
    iff bit i of T b is, for the pivot columns p_i.
    """
    rec = _elimination(m)
    r = len(rec.pivots)
    lead, rest = rec.transform[:r], rec.transform[r:]
    mask = _pad_mask(m.rows)
    out: list[Optional[int]] = []
    for b in bs:
        if b & ~mask:
            raise ValueError("rhs has bits beyond rows")
        if any((t & b).bit_count() & 1 for t in rest):
            out.append(None)
            continue
        x = 0
        for t, p in zip(lead, rec.pivots):
            if (t & b).bit_count() & 1:
                x |= 1 << p
        out.append(x)
    return out


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


def quotient_map(sub: Subspace, sup: Subspace) -> QuotientMap:
    """Quotient of nested subspaces; raises NotASubspace if sub ⊄ sup.

    The representatives are the rows of ``sup.basis`` whose pivot is not a
    pivot of ``sub``, with no elimination. Every nonzero vector of sub lies
    in sup, so its lowest bit is a pivot of sup: sub's pivots are among
    sup's. A reduced row of sup has no bit at any other pivot of sup, so a
    row whose own pivot is not one of sub's has no bit at any pivot of sub
    and is its own canonical representative. There are dim sup - dim sub
    such rows, independent and already reduced echelon, inside the space
    of canonical representatives of sup/sub, which has that dimension. So
    they are its unique reduced echelon basis, the one
    ``from_vectors([sub.reduce(b) for b in sup.basis])`` would compute.
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise NotASubspace("ambient dimensions differ")
    if not all(sup.contains(b) for b in sub.basis):
        raise NotASubspace("claimed subspace is not contained in the larger one")
    reps = Subspace(sup.ambient_dim, tuple(z for z in sup.basis if not z & -z & sub._pivot_mask))
    qm = QuotientMap(sub=sub, sup=sup, reps=reps)
    assert qm.dim == sup.dim - sub.dim
    return qm
