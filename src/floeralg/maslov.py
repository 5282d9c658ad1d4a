"""Maslov index of sampled loops of Lagrangian subspaces of C^n.

A Lagrangian frame is an n-by-n complex matrix whose columns span the
subspace over the reals; the subspace is Lagrangian exactly when the
Hermitian Gram matrix of the frame is real. The index of a loop is the
winding number of det(U)^2, where U is a unitary frame of the same subspace,
accumulated from per-step argument changes.

No unitary frame is ever computed. A frame A factors as A = U.P with U
unitary and P = (A^H A)^(1/2); for a Lagrangian frame A^H A is real
symmetric positive definite, so P is real with det P > 0, and
det A / |det A| = det U. U is unique up to a real orthogonal factor on the
right, which det^2 does not see, so det^2 is the squared phase of det A, read
from `np.linalg.slogdet` (which cannot overflow) for all samples at once.
A positive real factor changes neither the subspace nor that phase, so each
frame is first divided by its largest entry, which keeps the rank and Gram
checks finite at any scale.

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

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import (
    BasepointMismatch,
    DegenerateFrame,
    InsufficientSampling,
    NotLagrangian,
)

LAGRANGIAN_TOL = 1e-9
STEP_GUARD = math.pi / 2
WINDING_TOL = 1e-6

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LagrangianLoop:
    """Cyclically ordered Lagrangian frames in C^n.

    Frames are stored read-only; consecutive samples must be close enough
    that the determinant-square argument moves less than the step guard.
    """

    n: int
    samples: tuple[np.ndarray, ...]

    @classmethod
    def from_frames(cls, frames: Iterable[np.ndarray]) -> "LagrangianLoop":
        import numpy as np

        mats = []
        n = None
        for f in frames:
            arr = np.array(f, dtype=np.complex128)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise DegenerateFrame("frames must be square matrices")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DegenerateFrame("frames have inconsistent dimensions")
            arr.flags.writeable = False
            mats.append(arr)
        if not mats:
            raise DegenerateFrame("loop needs at least one sample")
        return cls(n, tuple(mats))

    def validate(self) -> None:
        _checked_stack(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def _real_stack(stack: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.concatenate([stack.real, stack.imag], axis=-2)


def _checked_stack(frames, where: str = "sample {}") -> np.ndarray:
    """The frames as one array, each divided by its largest entry, checked.

    Raises for the first bad frame in order, DegenerateFrame before
    NotLagrangian; ``where`` names frame k as ``where.format(k)``.
    """
    import numpy as np

    stack = np.stack(frames).astype(np.complex128, copy=False)
    # a positive real factor per frame, applied to the real and imaginary
    # parts: unlike |z| and complex division, this neither overflows nor
    # underflows for finite entries
    parts = stack.view(np.float64)
    scale = np.abs(parts).max(axis=(1, 2))
    parts /= np.where(scale > 0, scale, 1.0)[:, None, None]
    n = stack.shape[-1]
    degenerate = np.linalg.matrix_rank(_real_stack(stack)) < n
    # relative to the Gram matrix; NaN only for a zero frame, caught above
    gram = stack.conj().swapaxes(1, 2) @ stack
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


def det_squared(frame: np.ndarray) -> complex:
    """Square of the determinant of a unitary frame of the same subspace."""
    return complex(_det_squared(_checked_stack([frame], where="frame"))[0])


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


def _same_subspace(a: np.ndarray, b: np.ndarray, tol: float = LAGRANGIAN_TOL) -> bool:
    import numpy as np

    q, _ = np.linalg.qr(_real_stack(_checked_stack([a, b], where="frame")))
    pa, pb = q @ q.swapaxes(1, 2)
    return bool(np.abs(pa - pb).max() <= math.sqrt(tol))


def concatenate(a: LagrangianLoop, b: LagrangianLoop) -> LagrangianLoop:
    """Loop traversing a then b; both must be based at the same subspace."""
    if a.n != b.n:
        raise BasepointMismatch("ambient dimensions differ")
    if not _same_subspace(a.samples[0], b.samples[0]):
        raise BasepointMismatch("loops are not based at the same subspace")
    return LagrangianLoop(a.n, a.samples + b.samples)


def reverse(loop: LagrangianLoop) -> LagrangianLoop:
    """The loop traversed backwards, keeping the basepoint first."""
    return LagrangianLoop(loop.n, loop.samples[:1] + loop.samples[:0:-1])


def rotating_loop(n: int, samples: int, turns: int = 1, factor: int = 0
                  ) -> LagrangianLoop:
    """Generator loop: one coordinate line rotates by turns * pi.

    e^(i*pi) maps a real line to itself, so the loop closes after half a
    turn of the frame while det^2 makes `turns` full turns.
    """
    import numpy as np

    if not (0 <= factor < n):
        raise ValueError("factor index out of range")
    frames = []
    for t in range(samples):
        d = np.eye(n, dtype=np.complex128)
        d[factor, factor] = cmath.exp(1j * math.pi * turns * t / samples)
        frames.append(d)
    return LagrangianLoop.from_frames(frames)


def constant_loop(n: int, samples: int = 4) -> LagrangianLoop:
    import numpy as np

    return LagrangianLoop.from_frames([np.eye(n, dtype=np.complex128)] * samples)
