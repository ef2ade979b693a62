"""The package's one norm, ``quadrature.vector_norms``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphheat.quadrature import vector_norms


@pytest.mark.parametrize("axis", [0, 1, -1])
@pytest.mark.parametrize("weighted", [False, True])
def test_vector_norms_in_range_keep_the_plain_sums_bits(axis, weighted):
    """Where every sum is in the normal range the norm is
    sqrt(add.reduce(x * x * w, axis)), bit for bit."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 33)) * 10.0 ** rng.integers(-100, 100, size=(7, 1))
    w = rng.uniform(0.5, 2.0, size=x.shape[axis]) if weighted else None
    wb = None if w is None else np.expand_dims(w, 1 - axis % 2)
    got = vector_norms(x, axis=axis, w=wb)
    plain = x * x if w is None else x * x * wb
    np.testing.assert_array_equal(got, np.sqrt(np.add.reduce(plain, axis=axis)))


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(-1000, 1000), st.booleans())
@example(0, -1000, False)
@example(0, 1000, True)
@example(0, -517, True)  # normal weighted sums of squares that underflowed
def test_vector_norms_scale_with_their_input(seed, k, weighted):
    """2^k x has 2^k times the norm of x, for every k that keeps the norm in
    the normal range, within 1e-14 of the plain formula on x itself; with
    no warning where the squares overflow or underflow."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, int(rng.integers(1, 40))))
    w = rng.uniform(1e-3, 1e3, size=x.shape[1]) if weighted else None
    plain = np.sqrt(np.add.reduce(x * x if w is None else x * x * w, axis=-1))
    got = vector_norms(np.ldexp(x, k), w=w)
    want = np.ldexp(plain, k)
    normal = (want > np.finfo(float).tiny) & (want < np.finfo(float).max)
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-14, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_vector_norms_of_edge_slices():
    """A zero slice has norm 0, an infinite entry gives inf and a nan entry
    nan, each slice on its own; a norm past the float range reads inf, and a
    1-D input gives one value."""
    x = np.array([[0.0, 0.0], [math.inf, 1.0], [math.nan, 1e200], [1.5e308, 1.5e308], [1e-320, 0.0]])
    got = vector_norms(x)
    assert got[0] == 0.0 and got[1] == math.inf and math.isnan(got[2]) and got[3] == math.inf
    assert got[4] == 1e-320
    assert float(vector_norms(np.array([3e200, 4e200]))) == pytest.approx(5e200, rel=1e-15)
    assert float(vector_norms(np.array([3e-200, 4e-200]), w=np.array([2.0, 2.0]))) == pytest.approx(
        5e-200 * math.sqrt(2.0), rel=1e-15
    )
    assert vector_norms(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
