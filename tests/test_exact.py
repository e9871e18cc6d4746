"""Oracle tests for the exact matrix type, with ``fractions.Fraction`` as
the reference: every result must round to the same float64, bit for bit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.exact import ExactMatrix, exact_mean, to_exact, to_float
from fedsim.models import ClientRound, reuse_cached_round, subtract_own_noise

EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7e308, -1.7e308, 1.0, -0.5, 1e6, -3e-7,
]

# Mixed exponents in one array: edge values next to arbitrary finite floats.
elements = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-10.0, max_value=10.0),
)
shapes = st.tuples(st.integers(1, 3), st.integers(1, 4))


@st.composite
def matrix_lists(draw, min_size=1, max_size=5):
    shape = draw(shapes)
    return draw(
        st.lists(
            arrays(np.float64, shape, elements=elements),
            min_size=min_size,
            max_size=max_size,
        )
    )


def fractions_of(x: np.ndarray) -> np.ndarray:
    return np.array([Fraction(float(v)) for v in x.ravel()], dtype=object).reshape(x.shape)


def rounded(fracs: np.ndarray) -> np.ndarray | type[OverflowError]:
    """The reference float64 rounding, or OverflowError if it overflows."""
    try:
        return np.array([float(f) for f in fracs.ravel()]).reshape(fracs.shape)
    except OverflowError:
        return OverflowError


def assert_rounds_like(exact: ExactMatrix, fracs: np.ndarray) -> None:
    expected = rounded(fracs)
    if expected is OverflowError:
        with pytest.raises(OverflowError):
            to_float(exact)
        return
    got = to_float(exact)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, shapes, elements=elements))
def test_lift_then_round_back_is_identity(x):
    back = to_float(to_exact(x))
    assert np.array_equal(back, x)
    # bit for bit as Fraction, which also maps -0.0 to +0.0
    assert_rounds_like(to_exact(x), fractions_of(x))


@settings(max_examples=100, deadline=None)
@given(matrix_lists())
def test_sum_matches_fraction(mats):
    total = sum(to_exact(m) for m in mats)
    assert_rounds_like(total, sum(fractions_of(m) for m in mats))


@settings(max_examples=100, deadline=None)
@given(matrix_lists())
def test_mean_matches_fraction(mats):
    expected = sum(fractions_of(m) for m in mats) / len(mats)
    assert_rounds_like(exact_mean(mats), expected)
    # lifted and float inputs average alike
    assert_rounds_like(exact_mean([to_exact(m) for m in mats]), expected)


@settings(max_examples=100, deadline=None)
@given(matrix_lists(), st.data())
def test_weighted_mean_matches_fraction(mats, data):
    weights = data.draw(
        st.lists(st.integers(1, 1000), min_size=len(mats), max_size=len(mats))
    )
    expected = sum(fractions_of(m) * w for m, w in zip(mats, weights)) / sum(weights)
    assert_rounds_like(exact_mean(mats, weights=weights), expected)


@settings(max_examples=100, deadline=None)
@given(matrix_lists(min_size=2, max_size=2), st.integers(1, 50))
def test_noise_subtraction_matches_fraction(pair, n):
    x, noise = pair
    expected = fractions_of(x) - fractions_of(noise) / n
    assert_rounds_like(to_exact(x) - to_exact(noise) / n, expected)
    assert_rounds_like(subtract_own_noise(x, noise, n), expected)


# Subnormals beyond the edge values, for the two-float sums below.
SUBNORMALS = [1e-310, -2.5e-320, 4.9e-322, -2.2250738585072e-308]
pair_elements = st.one_of(elements, st.sampled_from(SUBNORMALS))


def cached_round(clean: np.ndarray, record: np.ndarray) -> ClientRound:
    """A retrain cache entry whose noisy weights are the exact clean + record."""
    return ClientRound(to_exact(clean) + to_exact(record), record, True, clean, None)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=pair_elements),
            arrays(np.float64, shape, elements=pair_elements),
        )
    )
)
def test_ieee_sum_is_the_rounded_exact_sum(pair):
    # IEEE-754 addition of two finite doubles rounds the exact sum to
    # nearest, ties to even, as to_float does; the retrain cache relies on it
    a, b = pair
    exact = to_exact(a) + to_exact(b)
    cached = cached_round(a, b)
    if rounded(fractions_of(a) + fractions_of(b)) is OverflowError:
        with pytest.raises(OverflowError):
            to_float(exact)
        with pytest.raises(OverflowError):
            reuse_cached_round(np.zeros_like(a), cached, 1.0, None)
        return
    ieee = a + b
    # equal as values; only the sign of an exact zero may differ
    assert np.array_equal(to_float(exact), ieee)
    nonzero = ieee != 0
    assert np.array_equal(to_float(exact)[nonzero].view(np.uint64),
                          ieee[nonzero].view(np.uint64))
    assert reuse_cached_round(ieee, cached, 1e-300, None) is not None


def test_ieee_sum_overflows_at_the_tie_to_even():
    # max + 2**970 lies halfway between the largest double and 2**1024
    top = np.array([1.7976931348623157e308])
    with pytest.raises(OverflowError):
        to_float(to_exact(top) + to_exact(np.array([2.0**970])))
    with pytest.raises(OverflowError):
        reuse_cached_round(top, cached_round(top, np.array([2.0**970])), 1.0, None)
    below = np.array([2.0**970 - 2.0**918])
    assert reuse_cached_round(top, cached_round(top, below), 1e-300, None) is not None


@settings(max_examples=100, deadline=None)
@given(
    matrix_lists(min_size=2, max_size=2),
    st.sampled_from([0.0, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 2.0]),
    st.sampled_from([1e-3, 0.5, 1e-9]),
)
def test_retrain_cache_decides_like_the_exact_round_back(pair, step, tolerance):
    clean, record = pair
    cached = cached_round(clean, record)
    try:
        noisy = to_float(cached.weights)
    except OverflowError:
        return
    server_w = noisy.copy()
    with np.errstate(over="ignore"):
        server_w.flat[0] = noisy.flat[0] + step * tolerance
        old_hit = bool(np.max(np.abs(server_w - noisy)) <= tolerance)
    new_hit = reuse_cached_round(server_w, cached, tolerance, None) is not None
    assert new_hit == old_hit


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, shapes, elements=elements),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.data(),
)
def test_non_finite_input_raises(x, bad, data):
    flat = x.ravel().copy()
    flat[data.draw(st.integers(0, flat.size - 1))] = bad
    with pytest.raises(ValueError):
        to_exact(flat.reshape(x.shape))


def test_arithmetic_contract():
    a = to_exact(np.array([[1.0, 0.25]]))
    b = np.array([[2.0, 0.5]])
    assert np.all(a + b == to_exact(np.array([[3.0, 0.75]])))
    assert np.all(a - b == to_exact(np.array([[-1.0, -0.25]])))
    assert np.all(0 + a == a)
    assert np.all(a * 3 / 3 == a)
    assert np.array_equal(a == b / 2, [[True, True]])
    assert (a + b)[0, 0] == 3 and float((a + b)[0, 0]) == 3.0
    # no silent float conversion through numpy
    assert np.asarray(a).dtype == object
    with pytest.raises(ValueError):
        a / 0
    with pytest.raises(TypeError):
        a * 0.5


def test_mismatched_shapes_raise_instead_of_broadcasting():
    w = to_exact(np.array([[1.0, 0.25], [2.0, -3.0]]))
    stack = to_exact(np.ones((3, 2, 2)))
    for other in (stack, np.ones((3, 2, 2)), np.ones(2), to_exact(np.ones((1, 2)))):
        with pytest.raises(ValueError, match="shape mismatch"):
            w + other
        with pytest.raises(ValueError, match="shape mismatch"):
            w - other
        with pytest.raises(ValueError, match="shape mismatch"):
            w == other
    with pytest.raises(ValueError, match="shape mismatch"):
        stack + w
    # a 0-d operand still broadcasts: sum()'s start value, a number, a 0-d matrix
    assert np.all(sum([w, w]) == w * 2)
    assert np.all(w + 1.0 == w + np.ones((2, 2)))
    assert np.all(w - to_exact(np.float64(0.25)) == w - np.full((2, 2), 0.25))
