"""Hypothesis property tests for the Maslov index: loop algebra and invariance."""

import loops
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floeralg import maslov as mv

SETTINGS = settings(max_examples=40, deadline=None)
SAMPLES = 64  # |sum k| <= 8 keeps every det^2 step at most 2*pi*8/64 < pi/2

seeds = st.integers(0, 2**32 - 1)


@st.composite
def loop_specs(draw, n=None):
    """(n, ks) with |k_j| <= 2 and n <= 4."""
    n = draw(st.integers(1, 4)) if n is None else n
    return n, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))


def real_invertible(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q * rng.uniform(0.25, 1.0, size=n)


def based_loop(u, ks, rng):
    """U diag(exp(i pi k t)) R_t with random real invertible R_t.

    Every such loop is based at the subspace U R^n, and its index is sum(ks).
    """
    n = len(ks)
    frames = [(u * np.exp(1j * np.pi * np.array(ks) * t / SAMPLES)) @ real_invertible(rng, n)
              for t in range(SAMPLES)]
    return mv.LagrangianLoop.from_frames(frames)


def unitary(rng, n):
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return u


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(loop_specs(n), loop_specs(n))),
       seeds)
def test_index_additive_under_concatenate(specs, seed):
    (n, ka), (_, kb) = specs
    rng = np.random.default_rng(seed)
    u = unitary(rng, n)
    a, b = based_loop(u, ka, rng), based_loop(u, kb, rng)
    ia, ib = mv.maslov_index(a).value, mv.maslov_index(b).value
    assert (ia, ib) == (sum(ka), sum(kb))
    assert mv.maslov_index(loops.concatenate(a, b)).value == ia + ib


@SETTINGS
@given(loop_specs(), seeds)
def test_reverse_negates_index(spec, seed):
    n, ks = spec
    rng = np.random.default_rng(seed)
    loop = based_loop(unitary(rng, n), ks, rng)
    assert mv.maslov_index(loops.reverse(loop)).value == -mv.maslov_index(loop).value


@SETTINGS
@given(st.integers(1, 5), st.integers(-5, 5), st.data())
def test_rotating_loop_has_index_turns(n, turns, data):
    # each det^2 step is 2*pi*|turns|/samples, below the pi/2 guard
    samples = data.draw(st.integers(4 * abs(turns) + 1, 160))
    factor = data.draw(st.integers(0, n - 1))
    loop = loops.rotating_loop(n, samples, turns=turns, factor=factor)
    assert mv.maslov_index(loop).value == turns


@SETTINGS
@given(loop_specs(), seeds, st.floats(-300, 300))
def test_index_invariant_under_positive_scale_and_real_right_factor(spec, seed, expo):
    n, ks = spec
    rng = np.random.default_rng(seed)
    loop = based_loop(unitary(rng, n), ks, rng)
    scales = 10.0 ** np.clip(expo + rng.uniform(-5, 5, size=len(loop)), -300, 300)
    moved = mv.LagrangianLoop.from_frames(
        c * f @ real_invertible(rng, n) for c, f in zip(scales, loop.samples))
    assert mv.maslov_index(moved).value == mv.maslov_index(loop).value == sum(ks)
