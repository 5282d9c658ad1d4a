"""Maslov index of sampled loops of Lagrangian subspaces of C^n.

A Lagrangian frame is an n-by-n complex matrix whose columns span the
subspace over the reals; the subspace is Lagrangian exactly when the
Hermitian Gram matrix of the frame is real. Orthonormalizing a frame by
polar decomposition gives a unitary representative, well defined up to a
real orthogonal factor on the right, so the square of its determinant is a
function of the subspace alone. The index of a loop is the winding number
of that determinant square, accumulated from per-step argument changes.

Orientation convention: counterclockwise winding of the determinant square
counts +1. The rotating-line loop diag(e^(i*pi*t), 1, ..., 1), t in [0, 1),
has index +1 in every ambient dimension.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BasepointMismatch,
    DegenerateFrame,
    InsufficientSampling,
    NotLagrangian,
)

LAGRANGIAN_TOL = 1e-9
POLAR_TOL = 1e-12
POLAR_MAX_ITER = 80
STEP_GUARD = math.pi / 2
WINDING_TOL = 1e-6


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
        for k, frame in enumerate(self.samples):
            _check_lagrangian(frame, where=f"sample {k}")

    def __len__(self) -> int:
        return len(self.samples)


def _real_stack(frame: np.ndarray) -> np.ndarray:
    return np.vstack([frame.real, frame.imag])


def _check_lagrangian(frame: np.ndarray, where: str = "frame") -> None:
    if np.linalg.matrix_rank(_real_stack(frame)) < frame.shape[0]:
        raise DegenerateFrame(f"{where}: columns do not span an n-dimensional "
                              f"real subspace")
    # relative to the Gram matrix, so the check does not depend on the scale
    gram = frame.conj().T @ frame
    skew = np.abs(gram.imag).max() / np.abs(gram).max()
    if skew > LAGRANGIAN_TOL:
        raise NotLagrangian(f"{where}: symplectic pairing of columns is "
                            f"{skew:.3e} of the Gram matrix > {LAGRANGIAN_TOL:.0e}")


def unitary_representative(frame: np.ndarray) -> np.ndarray:
    """Unitary matrix whose columns span the same real subspace.

    Newton iteration for the unitary polar factor: X <- (X + X^-H) / 2.
    The polar scaling matrix is real for a Lagrangian frame, so the column
    span over the reals is unchanged; the result is unique up to right
    multiplication by a real orthogonal matrix, under which det^2 is
    invariant.
    """
    frame = np.asarray(frame, dtype=np.complex128)
    _check_lagrangian(frame)
    x = frame.copy()
    for _ in range(POLAR_MAX_ITER):
        try:
            inv_herm = np.linalg.inv(x.conj().T)
        except np.linalg.LinAlgError as exc:
            raise DegenerateFrame("polar iteration hit a singular iterate") from exc
        x = (x + inv_herm) / 2.0
        defect = np.abs(x.conj().T @ x - np.eye(frame.shape[0])).max()
        if defect <= POLAR_TOL:
            return x
    raise DegenerateFrame(f"polar iteration did not converge within "
                          f"{POLAR_MAX_ITER} steps")


def det_squared(frame: np.ndarray) -> complex:
    """Square of the determinant of a unitary representative, on the circle."""
    d = np.linalg.det(unitary_representative(frame))
    d2 = complex(d * d)
    return d2 / abs(d2)


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
    loop.validate()
    dets = [det_squared(f) for f in loop.samples]
    total = 0.0
    worst = 0.0
    k = len(dets)
    for t in range(k):
        step = cmath.phase(dets[(t + 1) % k] / dets[t])
        if abs(step) >= STEP_GUARD:
            raise InsufficientSampling(
                f"argument change {abs(step):.3f} rad at step {t} reaches the "
                f"guard {STEP_GUARD:.3f}; resample the loop more finely")
        worst = max(worst, abs(step))
        total += step
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(total - 2.0 * math.pi * nearest) > WINDING_TOL:
        raise InsufficientSampling(
            f"accumulated winding {total:.9f} rad is not an integer number of "
            f"turns within {WINDING_TOL:.0e}")
    return MaslovIndex(value=int(nearest), min_gap=worst)


def _same_subspace(a: np.ndarray, b: np.ndarray, tol: float = LAGRANGIAN_TOL) -> bool:
    ua, ub = unitary_representative(a), unitary_representative(b)
    pa = _real_stack(ua) @ _real_stack(ua).T
    pb = _real_stack(ub) @ _real_stack(ub).T
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
    if not (0 <= factor < n):
        raise ValueError("factor index out of range")
    frames = []
    for t in range(samples):
        d = np.eye(n, dtype=np.complex128)
        d[factor, factor] = cmath.exp(1j * math.pi * turns * t / samples)
        frames.append(d)
    return LagrangianLoop.from_frames(frames)


def constant_loop(n: int, samples: int = 4) -> LagrangianLoop:
    return LagrangianLoop.from_frames([np.eye(n, dtype=np.complex128)] * samples)
