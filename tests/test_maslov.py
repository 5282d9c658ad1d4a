"""Numerical Maslov index: winding, guards, loop algebra."""

import cmath
import math
import random

import loops
import numpy as np
import pytest

from floeralg import maslov as mv
from floeralg.errors import DegenerateFrame, InsufficientSampling, NotLagrangian


def random_real_invertible(rng, n):
    while True:
        g = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        if abs(np.linalg.det(g)) > 0.2:
            return g


# -- det^2 against the polar-iteration oracle ----------------------------------


def polar_unitary(frame, tol=1e-12, max_iter=80):
    """Unitary polar factor by Newton iteration X <- (X + X^-H) / 2.

    The algorithm det_squared replaced; its det^2 is the reference value.
    """
    x = np.array(frame, dtype=complex)
    for _ in range(max_iter):
        x = (x + np.linalg.inv(x.conj().T)) / 2.0
        if np.abs(x.conj().T @ x - np.eye(len(x))).max() <= tol:
            return x
    raise AssertionError("polar iteration did not converge")


def polar_det_squared(frame):
    d = np.linalg.det(polar_unitary(frame)) ** 2
    return d / abs(d)


def random_unitary(rng, n):
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return u


def random_real_frame(rng, n, scale):
    """scale * Q diag(sigma), Q orthogonal, sigma in [1/4, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return scale * q * rng.uniform(0.25, 1.0, size=n)


def random_lagrangian_frame(rng, n, scale):
    """U @ R with U unitary and R real invertible of norm at most ``scale``."""
    return random_unitary(rng, n) @ random_real_frame(rng, n, scale)


def test_det_squared_matches_polar_oracle():
    rng = np.random.default_rng(20)
    for n in range(1, 9):
        for scale in 10.0 ** rng.uniform(-3, 3, size=12):
            frame = random_lagrangian_frame(rng, n, scale)
            assert abs(loops.det_squared(frame) - polar_det_squared(frame)) < 1e-9


def sequential_index(loop):
    """The replaced index loop: polar det^2 per frame, steps summed one by one."""
    dets = [polar_det_squared(f) for f in loop.samples]
    steps = [cmath.phase(dets[(t + 1) % len(dets)] / dets[t]) for t in range(len(dets))]
    total = 0.0
    for step in steps:
        total += step
    return round(total / (2 * math.pi)), max(abs(s) for s in steps)


def test_index_matches_sequential_oracle():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        ks, u = rng.integers(-2, 3, size=n), random_unitary(rng, n)
        loop = mv.LagrangianLoop.from_frames(
            (u * np.exp(1j * np.pi * ks * t / 128))
            @ random_real_frame(rng, n, 10.0 ** rng.uniform(-3, 3))
            for t in range(128))
        value, gap = sequential_index(loop)
        idx = mv.maslov_index(loop)
        assert idx.value == value == ks.sum()
        assert abs(idx.min_gap - gap) < 1e-9


def test_unitary_frame_fixed_up_to_orthogonal():
    u = polar_unitary(np.eye(2, dtype=complex))
    assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-9
    d0 = loops.det_squared(np.eye(2, dtype=complex))
    assert abs(d0 - 1) < 1e-9


def test_real_frame_has_unit_det_squared():
    rng = random.Random(0)
    for _ in range(10):
        g = random_real_invertible(rng, 3).astype(complex)
        assert abs(loops.det_squared(g) - 1) < 1e-9


def test_positive_column_scaling_invariance():
    loop = loops.rotating_loop(2, 16)
    f = loop.samples[3]
    scaled = f @ np.diag([2.5, 0.3])
    assert abs(loops.det_squared(f) - loops.det_squared(scaled)) < 1e-9


def test_non_lagrangian_rejected():
    bad = np.array([[1, 1j], [0, 1]], dtype=complex)
    with pytest.raises(NotLagrangian, match="^frame: "):
        loops.det_squared(bad)
    with pytest.raises(NotLagrangian, match="^sample 1: "):
        mv.LagrangianLoop.from_frames([np.eye(2), bad]).validate()


def test_lagrangian_check_is_scale_free():
    # U @ R with U unitary and R real spans a Lagrangian subspace at any scale
    rng = np.random.default_rng(6)
    frames = []
    for _ in range(50):
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        frames.append(u @ (1e3 * rng.normal(size=(6, 6))))
    mv.LagrangianLoop.from_frames(frames).validate()
    for scale in (1e-3, 1e3):
        bad = scale * np.array([[1, 1j], [0, 1]], dtype=complex)
        with pytest.raises(NotLagrangian):
            mv.LagrangianLoop.from_frames([bad]).validate()


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_lagrangian_check_survives_overflow_and_underflow(scale):
    # A^H A is inf or 0 at these scales, which made the skew NaN
    bad = scale * np.array([[1, 1j], [0, 1]], dtype=complex)
    with pytest.raises(NotLagrangian):
        loops.det_squared(bad)
    with pytest.raises(NotLagrangian):
        mv.LagrangianLoop.from_frames([bad]).validate()


@pytest.mark.parametrize("scale", [1e300, 1e-300, 5e307 * (1 + 1j), 1e-310])
def test_index_at_extreme_scales(scale):
    loop = loops.rotating_loop(2, 64)
    scaled = mv.LagrangianLoop.from_frames([scale * f for f in loop.samples])
    idx = mv.maslov_index(scaled)
    assert idx.value == 1
    assert abs(idx.min_gap - mv.maslov_index(loop).min_gap) < 1e-12


def test_degenerate_frame_rejected():
    sing = np.array([[1, 1], [1, 1]], dtype=complex)
    with pytest.raises(DegenerateFrame):
        loops.det_squared(sing)
    with pytest.raises(DegenerateFrame, match="^sample 0: "):
        mv.LagrangianLoop.from_frames([sing, 1j * sing]).validate()


def test_first_bad_frame_in_sample_order_is_reported():
    sing = np.array([[1, 1], [1, 1]], dtype=complex)
    bad = np.array([[1, 1j], [0, 1]], dtype=complex)
    with pytest.raises(NotLagrangian, match="^sample 1: "):
        mv.LagrangianLoop.from_frames([np.eye(2), bad, sing]).validate()
    with pytest.raises(DegenerateFrame, match="^sample 1: "):
        mv.LagrangianLoop.from_frames([np.eye(2), sing, bad]).validate()
    with pytest.raises(DegenerateFrame):
        mv.LagrangianLoop.from_frames([np.zeros((2, 2))]).validate()


# -- index ------------------------------------------------------------------


def test_constant_loop_zero():
    assert mv.maslov_index(loops.constant_loop(3)).value == 0


def test_rotating_line_unit_index():
    idx = mv.maslov_index(loops.rotating_loop(1, 64))
    assert idx.value == 1
    assert idx.min_gap < math.pi / 2


def test_direct_sum_with_constant_factor():
    assert mv.maslov_index(loops.rotating_loop(2, 64)).value == 1


def test_generator_loop_every_ambient_dimension():
    for n in range(1, 7):
        assert mv.maslov_index(loops.rotating_loop(n, 64)).value == 1


def test_coarse_loop_trips_guard():
    with pytest.raises(InsufficientSampling):
        mv.maslov_index(loops.rotating_loop(1, 4))


def test_negative_turns():
    assert mv.maslov_index(loops.rotating_loop(1, 64, turns=-2)).value == -2


def test_refinement_invariance():
    for turns in (1, 2, 3):
        a = mv.maslov_index(loops.rotating_loop(2, 64, turns=turns)).value
        b = mv.maslov_index(loops.rotating_loop(2, 128, turns=turns)).value
        assert a == b == turns


def test_frame_change_invariance():
    rng = random.Random(11)
    loop = loops.rotating_loop(2, 96, turns=2)
    frames = [f @ random_real_invertible(rng, 2) for f in loop.samples]
    assert mv.maslov_index(mv.LagrangianLoop.from_frames(frames)).value == 2


# -- loop algebra -----------------------------------------------------------


def test_reverse_negates():
    a = loops.rotating_loop(2, 64, turns=2)
    assert mv.maslov_index(loops.reverse(a)).value == -2


def test_cancellation():
    a = loops.rotating_loop(2, 64)
    assert mv.maslov_index(loops.concatenate(a, loops.reverse(a))).value == 0


def test_concatenation_commutes_in_index():
    a = loops.rotating_loop(2, 64, turns=1)
    b = loops.rotating_loop(2, 64, turns=2, factor=1)
    ab = mv.maslov_index(loops.concatenate(a, b)).value
    ba = mv.maslov_index(loops.concatenate(b, a)).value
    assert ab == ba == 3


def test_doubling_a_loop_doubles_index():
    a = loops.rotating_loop(1, 96)
    assert mv.maslov_index(loops.concatenate(a, a)).value == 2


def test_additivity_on_random_pairs():
    rng = random.Random(5)
    n = 3
    for _ in range(50):
        ta, tb = rng.randint(-3, 3), rng.randint(-3, 3)
        fa, fb = rng.randrange(n), rng.randrange(n)
        a = loops.rotating_loop(n, 64, turns=ta, factor=fa)
        b = loops.rotating_loop(n, 64, turns=tb, factor=fb)
        assert mv.maslov_index(a).value == ta
        assert mv.maslov_index(b).value == tb
        assert mv.maslov_index(loops.concatenate(a, b)).value == ta + tb
        assert mv.maslov_index(loops.reverse(a)).value == -ta


def test_basepoint_mismatch_detected():
    a = loops.rotating_loop(2, 64)
    c = loops.rotating_loop(2, 64, factor=1)
    shifted = mv.LagrangianLoop.from_frames(np.roll(c.samples, -16, axis=0))
    with pytest.raises(loops.BasepointMismatch):
        loops.concatenate(a, shifted)


def test_min_gap_reported():
    idx = mv.maslov_index(loops.rotating_loop(1, 64))
    assert 0 < idx.min_gap < math.pi / 2
    assert abs(idx.min_gap - 2 * math.pi / 64) < 1e-9
