"""Loop builders and frame helpers used only by the tests.

They construct loops and frames through the public ``LagrangianLoop`` API
and read the frame checks and det^2 through the private helpers of
:mod:`floeralg.maslov`, so they compute exactly what ``maslov_index``
computes.
"""

import cmath
import math

import numpy as np

from floeralg import maslov as mv
from floeralg.errors import InputError


class BasepointMismatch(InputError):
    """Loops to concatenate are not based at the same subspace."""


def det_squared(frame):
    """Square of the determinant of a unitary frame of the same subspace."""
    return complex(mv._det_squared(mv._checked_stack([frame], where="frame"))[0])


def _same_subspace(a, b, tol=mv.LAGRANGIAN_TOL):
    q, _ = np.linalg.qr(mv._real_stack(mv._checked_stack([a, b], where="frame")))
    pa, pb = q @ q.swapaxes(1, 2)
    return bool(np.abs(pa - pb).max() <= math.sqrt(tol))


def concatenate(a, b):
    """Loop traversing a then b; both must be based at the same subspace."""
    if a.n != b.n:
        raise BasepointMismatch("ambient dimensions differ")
    if not _same_subspace(a.samples[0], b.samples[0]):
        raise BasepointMismatch("loops are not based at the same subspace")
    return mv.LagrangianLoop.from_frames(np.concatenate([a.samples, b.samples]))


def reverse(loop):
    """The loop traversed backwards, keeping the basepoint first."""
    return mv.LagrangianLoop.from_frames(np.concatenate([loop.samples[:1], loop.samples[:0:-1]]))


def rotating_loop(n, samples, turns=1, factor=0):
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
    return mv.LagrangianLoop.from_frames(frames)


def constant_loop(n, samples=4):
    return mv.LagrangianLoop.from_frames([np.eye(n, dtype=np.complex128)] * samples)
