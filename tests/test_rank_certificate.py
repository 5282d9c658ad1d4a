"""The Gram certificate that lets the Maslov frame check skip the SVD.

`maslov._degenerate` must give the mask `matrix_rank` gives on every frame,
and `_checked_stack` the exception and message of the SVD-everywhere check
in `oracles.checked_stack_oracle`.
"""

import loops
import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floeralg import maslov as mv
from floeralg.errors import InputError

# sigma_min / sigma_max of the test frames: well inside, at and far past the
# certificate's 1e-6, down to matrix_rank's own tolerance and to zero
RATIOS = (1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17, 0.0)
SCALES = (1.0, 1e-300, 1e300, 3.7e-5, 2.1e4)


def unitary(rng, n):
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return u


def orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def lagrangian_frame(rng, n, ratio, scale=1.0, diagonal_gram=True):
    """scale * U Q diag(sigma) [Q'], with sigma_min = ratio * sigma_max.

    U is unitary and Q, Q' real orthogonal, so the frame is Lagrangian; its
    Gram matrix is diagonal without Q' and dense with it.
    """
    sigma = rng.uniform(0.25, 1.0, size=n)
    sigma[rng.integers(n)] = ratio * sigma.max() if n > 1 else ratio
    real = orthogonal(rng, n) * sigma
    if not diagonal_gram:
        real = real @ orthogonal(rng, n)
    return scale * unitary(rng, n) @ real


def crowded_frame(rng, n, delta):
    """U R with R's columns all within delta of one column: a Gram matrix
    far from diagonally dominant, whatever delta is."""
    col = rng.normal(size=(n, 1))
    return unitary(rng, n) @ (col + delta * rng.normal(size=(n, n)))


def outcome(check, frames):
    try:
        return "ok", check(frames)
    except InputError as exc:
        return type(exc), str(exc)


def assert_same_verdicts(frames):
    stack, gram = oracles.scaled_frames_oracle(frames)
    assert np.array_equal(mv._degenerate(stack, gram), oracles.degenerate_oracle(stack))
    got, want = outcome(mv._checked_stack, frames), outcome(oracles.checked_stack_oracle, frames)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


def seeded_frames(seed):
    rng = np.random.default_rng(seed)
    frames = []
    for n in range(1, 7):
        for ratio in RATIOS:
            for scale in SCALES:
                frames.append((n, lagrangian_frame(rng, n, ratio, scale)))
                frames.append((n, lagrangian_frame(rng, n, ratio, scale, diagonal_gram=False)))
        for delta in (1.0, 1e-3, 1e-9, 0.0):
            frames.append((n, crowded_frame(rng, n, delta)))
        frames.append((n, np.zeros((n, n))))
        frames.append((n, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    return frames


def test_degenerate_mask_matches_svd_on_seeded_frames():
    frames = seeded_frames(26)
    for n in range(1, 7):
        stack, gram = oracles.scaled_frames_oracle([f for m, f in frames if m == n])
        assert np.array_equal(mv._degenerate(stack, gram), oracles.degenerate_oracle(stack))


def test_checked_stack_matches_svd_everywhere_oracle():
    # one frame at a time, and seeded mixes in which the first bad frame can
    # be degenerate, non-Lagrangian or both
    frames = seeded_frames(27)
    for _, f in frames:
        assert_same_verdicts([f])
    rng = np.random.default_rng(28)
    for n in range(1, 7):
        pool = [f for m, f in frames if m == n]
        for _ in range(20):
            picks = rng.choice(len(pool), size=int(rng.integers(1, 6)))
            assert_same_verdicts([pool[i] for i in picks])


@pytest.mark.parametrize("scale", [1e300, 1e-300, 1.0])
def test_non_lagrangian_zero_and_extreme_frames(scale):
    bad = np.array([[1, 1j], [0, 1]], dtype=complex)
    sing = np.array([[1, 1], [1, 1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    for frames in ([scale * bad], [np.eye(2), scale * bad, sing], [scale * sing, bad],
                   [zero], [scale * np.eye(2), zero, bad], [bad, zero]):
        assert_same_verdicts(frames)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.sampled_from(RATIOS), st.floats(-300, 300),
                                             st.sampled_from(["diagonal", "dense", "crowded",
                                                              "complex"])),
                                   min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_certificate_matches_svd_on_drawn_frames(n, specs, seed):
    rng = np.random.default_rng(seed)
    frames = []
    for ratio, expo, kind in specs:
        if kind == "crowded":
            f = crowded_frame(rng, n, ratio)
        elif kind == "complex":
            f = rng.normal(size=(n, n)) + 1j * ratio * rng.normal(size=(n, n))
        else:
            f = lagrangian_frame(rng, n, ratio, diagonal_gram=kind == "diagonal")
        frames.append(10.0 ** expo * f)
    assert_same_verdicts(frames)


@pytest.fixture
def rank_calls(monkeypatch):
    """Frames passed to np.linalg.matrix_rank while the test runs."""
    calls = []
    rank = np.linalg.matrix_rank

    def spy(a, *args, **kwargs):
        calls.append(len(a))
        return rank(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "matrix_rank", spy)
    return calls


def test_unitary_and_scaled_orthogonal_loops_skip_the_svd(rank_calls):
    for n in range(1, 7):
        for samples in (16, 64):
            mv.maslov_index(loops.rotating_loop(n, samples))
    # c * U diag(exp(i pi k t)) Q diag(sigma), c log-uniform in 1e-3..1e3 and
    # sigma in [1/4, 1]: the frames of the benchmark's loop files
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        u, ks = unitary(rng, n), rng.integers(-2, 3, size=n)
        t = np.arange(256) / 256
        phases = np.exp(1j * np.pi * np.outer(t, ks))
        real = orthogonal(rng, n) * rng.uniform(0.25, 1.0, size=n)
        scales = 10.0 ** rng.uniform(-3, 3, size=len(t))
        loop = mv.LagrangianLoop.from_frames(
            scales[:, None, None] * ((u[None] * phases[:, None, :]) @ real))
        assert mv.maslov_index(loop).value == ks.sum()
    assert rank_calls == []


def test_uncleared_frames_alone_reach_the_svd(rank_calls):
    rng = np.random.default_rng(30)
    # sigma_min / sigma_max is about 1e-9: rank 3 to the SVD, which the
    # dense Gram matrix cannot show
    crowded = crowded_frame(rng, 3, 1e-9)
    mv.LagrangianLoop.from_frames([np.eye(3), crowded, np.eye(3)]).validate()
    assert rank_calls == [1]
