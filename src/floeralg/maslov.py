"""Maslov index of sampled loops of Lagrangian subspaces of C^n.

A Lagrangian frame is an n-by-n complex matrix whose columns span the
subspace over the reals; the subspace is Lagrangian exactly when the
Hermitian Gram matrix of the frame is real. The index of a loop is the
winding number of det(U)^2, where U is a unitary frame of the same subspace,
accumulated from per-step argument changes.

A loop keeps its frames as one read-only (S, n, n) complex array, so the
checks and det^2 below run over all samples at once.

No unitary frame is ever computed. A frame A factors as A = U.P with U
unitary and P = (A^H A)^(1/2); for a Lagrangian frame A^H A is real
symmetric positive definite, so P is real with det P > 0, and
det A / |det A| = det U. U is unique up to a real orthogonal factor on the
right, which det^2 does not see, so det^2 is the squared phase of det A, read
from `np.linalg.slogdet` (which cannot overflow) for all samples at once.
A positive real factor changes neither the subspace nor that phase, so each
frame is first divided by its largest entry, which keeps the rank and Gram
checks finite at any scale.

A frame is degenerate when `np.linalg.matrix_rank` of R = [Re A; Im A]
(2n x n) is below n. That SVD runs only on the frames that a Gershgorin
certificate on the Gram matrix, which the Lagrangian check computes anyway,
cannot clear. Proof that a cleared frame has computed rank n:

- After the scaling every entry of R has |r| <= 1. Re(A^H A) = R^T R =: M,
  and the real part of each computed Gram entry is an inner product of
  length 2n of such entries, so it is within e = 2n * gamma_2n of M_ij
  (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1;
  gamma_m = m*u / (1 - m*u), u = eps/2), in any order of summation and
  with or without fused multiply-adds. Underflow adds at most 2^-1074 per
  product.
- M is symmetric, so by Gershgorin every eigenvalue of M lies in some
  [M_ii - r_i, M_ii + r_i], r_i = sum over j != i of |M_ij|. With G the
  computed real part, lo = min_i (2 G_ii - sum_j |G_ij|) <= min_i
  (G_ii - sum_{j != i} |G_ij|), and hi = max_i sum_j |G_ij|. For
  n <= 10^12, 2n*u <= 0.01, so gamma_2n <= 1.011 n*eps. The entry errors
  then move each bound by at most n*e <= 2.03 n^3 eps; a floating-point
  row sum of n terms of size at most 2.03 n adds at most
  gamma_n * 2.03 n^2 <= 1.03 n^3 eps; doubling G_ii is exact, and the
  subtraction adds at most u * 4.06 n^2 <= 2.03 n^3 eps. All of this, with
  the underflow terms, is below the slack s = 8 n^3 eps, so
  sigma_min^2 = lambda_min(M) >= lo - s and sigma_max^2 <= hi + s.
- The certificate is lo - s >= CLEAR_RATIO^2 * (hi + s), that is
  sigma_min >= 10^-6 * sigma_max up to the rounding of those two last
  operations.
- `matrix_rank` counts the computed singular values above
  2n * eps * max(computed sigma). LAPACK's bound |computed sigma_i -
  sigma_i| <= p(m, n) * eps * sigma_max (*LAPACK Users' Guide*, §4.9)
  puts every computed value at >= (10^-6 - p*eps) * sigma_max and the
  largest at <= (1 + p*eps) * sigma_max, so for any p(2n, n) below 10^9
  all n values clear the tolerance: the computed rank is n.

So a cleared frame is one `matrix_rank` would call nondegenerate, and the
frames it would call degenerate, the first bad frame and every message are
those of the SVD on every frame. A unitary frame, or one of the form
c * U * Q * diag(sigma) with U unitary and Q real orthogonal, has a Gram
matrix that is diagonal up to rounding, so it is cleared while
sigma_min^2 stays well above both 10^-12 * sigma_max^2 and the slack.

numpy is imported inside each function that uses it, so importing this
module loads no numpy; the first Maslov computation (such as `maslov index`)
does. `floeralg.cli` still imports this module with every other layer,
because the benchmark's tracer (`perfbench/tracing.py`) finds each layer in
`sys.modules` after `import floeralg.cli`.

Orientation convention: counterclockwise winding of the determinant square
counts +1. The rotating-line loop diag(e^(i*pi*t), 1, ..., 1), t in [0, 1),
has index +1 in every ambient dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import (
    DegenerateFrame,
    InsufficientSampling,
    NotLagrangian,
)

LAGRANGIAN_TOL = 1e-9
STEP_GUARD = math.pi / 2
WINDING_TOL = 1e-6
# sigma_min / sigma_max a frame's Gram certificate must show for its rank
# check to skip the SVD (module docstring)
CLEAR_RATIO = 1e-6

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LagrangianLoop:
    """Cyclically ordered Lagrangian frames in C^n.

    ``samples`` is one read-only (S, n, n) complex array; consecutive
    samples must be close enough that the determinant-square argument moves
    less than the step guard.
    """

    n: int
    samples: np.ndarray

    @classmethod
    def from_frames(cls, frames: Iterable[np.ndarray]) -> "LagrangianLoop":
        import numpy as np

        mats = []
        for f in frames:
            arr = np.asarray(f, dtype=np.complex128)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise DegenerateFrame("frames must be square matrices")
            if mats and arr.shape != mats[0].shape:
                raise DegenerateFrame("frames have inconsistent dimensions")
            mats.append(arr)
        if not mats:
            raise DegenerateFrame("loop needs at least one sample")
        stack = np.stack(mats)
        stack.flags.writeable = False
        return cls(stack.shape[1], stack)

    def validate(self) -> None:
        _checked_stack(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def _real_stack(stack: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.concatenate([stack.real, stack.imag], axis=-2)


def _degenerate(stack: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Per scaled frame, whether ``matrix_rank`` of its real form is below n.

    The SVD runs only on the frames the Gershgorin certificate on ``gram``
    (A^H A as computed) cannot clear; the module docstring proves that a
    cleared frame has computed rank n.
    """
    import numpy as np

    n = stack.shape[-1]
    g = gram.real
    rows = np.abs(g).sum(axis=2)
    slack = 8.0 * n ** 3 * np.finfo(np.float64).eps
    lo = (2.0 * np.diagonal(g, axis1=1, axis2=2) - rows).min(axis=1) - slack
    hi = rows.max(axis=1) + slack
    unsure = ~(lo >= CLEAR_RATIO ** 2 * hi)  # NaN is unsure
    degenerate = np.zeros(len(stack), dtype=bool)
    if unsure.any():
        degenerate[unsure] = np.linalg.matrix_rank(_real_stack(stack[unsure])) < n
    return degenerate


def _checked_stack(frames, where: str = "sample {}") -> np.ndarray:
    """The frames as one new array, each divided by its largest entry, checked.

    Raises for the first bad frame in order, DegenerateFrame before
    NotLagrangian; ``where`` names frame k as ``where.format(k)``.
    """
    import numpy as np

    stack = np.array(frames, dtype=np.complex128)
    # a positive real factor per frame, applied to the real and imaginary
    # parts: unlike |z| and complex division, this neither overflows nor
    # underflows for finite entries
    parts = stack.view(np.float64)
    scale = np.abs(parts).max(axis=(1, 2))
    parts /= np.where(scale > 0, scale, 1.0)[:, None, None]
    gram = stack.conj().swapaxes(1, 2) @ stack
    degenerate = _degenerate(stack, gram)
    # relative to the Gram matrix; NaN only for a zero frame, caught above
    with np.errstate(invalid="ignore"):
        skew = np.abs(gram.imag).max(axis=(1, 2)) / np.abs(gram).max(axis=(1, 2))
    bad = degenerate | ~(skew <= LAGRANGIAN_TOL)
    if bad.any():
        k = int(bad.argmax())
        if degenerate[k]:
            raise DegenerateFrame(f"{where.format(k)}: columns do not span an "
                                  f"n-dimensional real subspace")
        raise NotLagrangian(f"{where.format(k)}: symplectic pairing of columns is "
                            f"{skew[k]:.3e} of the Gram matrix > {LAGRANGIAN_TOL:.0e}")
    return stack


def _det_squared(stack: np.ndarray) -> np.ndarray:
    """det(U)^2 per checked frame: the squared phase of det A (module docstring)."""
    import numpy as np

    sign, _ = np.linalg.slogdet(stack)
    return sign ** 2


@dataclass(frozen=True)
class MaslovIndex:
    value: int
    min_gap: float  # worst per-step argument change seen, radians


def maslov_index(loop: LagrangianLoop) -> MaslovIndex:
    """Winding number of det^2 along the loop.

    Per-step argument changes are normalized to (-pi, pi]; any step at or
    beyond pi/2 is rejected as undersampled rather than silently rounded.
    The accumulated total must be an integer multiple of 2*pi within 1e-6.
    """
    import numpy as np

    d = _det_squared(_checked_stack(loop.samples))
    steps = np.angle(np.roll(d, -1) / d)
    over = np.abs(steps) >= STEP_GUARD
    if over.any():
        t = int(over.argmax())
        raise InsufficientSampling(
            f"argument change {abs(steps[t]):.3f} rad at step {t} reaches the "
            f"guard {STEP_GUARD:.3f}; resample the loop more finely")
    # cumsum adds left to right, as a running float total would
    total = float(np.cumsum(steps)[-1])
    worst = float(np.abs(steps).max())
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(total - 2.0 * math.pi * nearest) > WINDING_TOL:
        raise InsufficientSampling(
            f"accumulated winding {total:.9f} rad is not an integer number of "
            f"turns within {WINDING_TOL:.0e}")
    return MaslovIndex(value=int(nearest), min_gap=worst)
