"""Oracle tests for the grid arithmetic, with Python ints and
``fractions.Fraction`` as the reference: every lift must give the grid
integer the reference rounds to, and every result must round to the same
float64, bit for bit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsim.exact import (
    GRID_BITS,
    GridMatrix,
    check_bound,
    exact_mean,
    grid_bound,
    to_exact,
    to_float,
)
from fedsim.models import ClientRound, reuse_cached_round, subtract_own_noise

UNIT = Fraction(1, 2**GRID_BITS)
shapes = st.tuples(st.integers(1, 3), st.integers(1, 4))

# Floats inside the int64 grid (|v| < 2^31), with subnormals, signed zeros
# and exact ties between two grid points next to arbitrary values.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -0.5,
    2.0**-33, -(2.0**-33), 3 * 2.0**-33, 5 * 2.0**-33, 2.0**31 - 2.0**-22, -3e-7,
]
floats = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(min_value=-(2.0**31), max_value=2.0**31, exclude_min=True, exclude_max=True),
    st.floats(min_value=-10.0, max_value=10.0),
)

# Grid integers of up to six bodies: below grid_bound(6) = 2^59, so sums of
# them reach far beyond 2^53, where the float64 of a total is inexact.
BOUND_6 = grid_bound(6)
grid_ints = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(-BOUND_6 + 1, BOUND_6 - 1),
    st.sampled_from([0, 1, -1, 2**53 - 1, 2**53 + 1, -(2**57) - 1, BOUND_6 - 1]),
)


@st.composite
def bodies(draw, min_size=1, max_size=6):
    """Grid matrices of count 1 with one shape, from drawn int64 grid integers."""
    shape = draw(shapes)
    count = draw(st.integers(min_size, max_size))
    return [
        GridMatrix(draw(arrays(np.int64, shape, elements=grid_ints))) for _ in range(count)
    ]


def values_of(m: GridMatrix) -> np.ndarray:
    """The exact values of a grid matrix, element by element."""
    return np.array(
        [Fraction(int(t), m.count) * UNIT for t in m.total.ravel()], dtype=object
    ).reshape(m.shape)


def rounded(fracs: np.ndarray) -> np.ndarray:
    """The reference float64 rounding: ``float(Fraction)`` is correctly rounded."""
    return np.array([float(f) for f in fracs.ravel()]).reshape(fracs.shape)


def assert_rounds_like(m: GridMatrix, fracs: np.ndarray) -> None:
    expected = rounded(fracs)
    got = to_float(m)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def grid_floats(qs: np.ndarray) -> np.ndarray:
    """Float64 values of grid integers that are exact as floats."""
    return np.array([float(Fraction(int(q)) * UNIT) for q in qs.ravel()]).reshape(qs.shape)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, shapes, elements=floats))
def test_lift_then_round_back_is_identity(x):
    lifted = to_exact(x)
    assert lifted.count == 1 and lifted.total.dtype == np.int64
    # each grid integer is the nearest one, ties to even (Python's round)
    want = [round(Fraction(float(v)) / UNIT) for v in x.ravel()]
    assert [int(q) for q in lifted.total.ravel()] == want
    # a value on the grid comes back bit for bit (-0.0 as +0.0, as Fraction)
    on_grid = to_float(lifted)
    assert_rounds_like(to_exact(on_grid), values_of(lifted))
    assert to_exact(lifted) is lifted


@settings(max_examples=100, deadline=None)
@given(bodies())
def test_sum_matches_fraction(mats):
    total = sum(mats)
    assert total.count == 1 and total.total.dtype == np.int64
    assert_rounds_like(total, sum(values_of(m) for m in mats))


@settings(max_examples=150, deadline=None)
@given(bodies(), st.booleans(), st.data())
@example(
    mats=[GridMatrix(np.array([[2**58 + 1]])), GridMatrix(np.array([[2**58]]))],
    weighted=False, data=None,
)
def test_mean_matches_fraction(mats, weighted, data):
    # the grid mean, weighted or not, is the correctly rounded Fraction mean
    weights = None
    if weighted:
        weights = data.draw(
            st.lists(st.integers(1, 10**6), min_size=len(mats), max_size=len(mats))
        )
    mean = exact_mean(mats, weights=weights)
    counts = weights or [1] * len(mats)
    expected = sum(values_of(m) * c for m, c in zip(mats, counts)) / sum(counts)
    assert mean.count == sum(counts)
    if not weighted:
        # no object array on the unweighted path
        assert mean.total.dtype == np.int64
    assert_rounds_like(mean, expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(arrays(np.float64, (2, 3), elements=floats), min_size=1, max_size=5), st.data())
def test_weighted_mean_matches_fraction(xs, data):
    # float matrices are lifted first; weights up to a million push the
    # weighted sums past 2^53 and through Python ints
    weights = data.draw(st.lists(st.integers(1, 10**6), min_size=len(xs), max_size=len(xs)))
    lifted = [to_exact(x) for x in xs]
    expected = sum(values_of(m) * w for m, w in zip(lifted, weights)) / sum(weights)
    assert_rounds_like(exact_mean(xs, weights=weights), expected)


def test_totals_beyond_2_53_take_the_python_int_path():
    # 2^55 + 1 has no float64, and float64(total) / 3 rounds twice, to a
    # neighbour of the correctly rounded third
    big = GridMatrix(np.array([2**55 + 1, -(2**55) - 1, 2**53 + 1]), 3)
    assert_rounds_like(big, values_of(big))
    naive = float(2**55 + 1) / 3 / 2**GRID_BITS
    assert to_float(big)[0] == float(Fraction(2**55 + 1, 3) * UNIT) != naive
    # a weighted mean whose sum passes 2^53 rounds like Fraction too
    mats = [GridMatrix(np.array([2**40 + 1])), GridMatrix(np.array([-(2**40) + 3]))]
    mean = exact_mean(mats, weights=[3**20, 7])
    assert mean.total.dtype == object and abs(int(mean.total[0])) >= 2**53
    assert_rounds_like(mean, (values_of(mats[0]) * 3**20 + values_of(mats[1]) * 7) / (3**20 + 7))


@settings(max_examples=100, deadline=None)
@given(bodies(min_size=1, max_size=5), st.integers(-(2**40), 2**40), st.data())
def test_noise_subtraction_matches_fraction(mats, z0, data):
    n = len(mats)
    z = data.draw(arrays(np.int64, mats[0].shape, elements=st.integers(-(2**52), 2**52)))
    z.flat[0] = z0
    noise = grid_floats(z)
    fed = exact_mean(mats)
    # (sum - Z) / n in integers
    expected = sum(values_of(m) for m in mats) / n - values_of(GridMatrix(z)) / n
    got = subtract_own_noise(fed, noise, n)
    assert got.count == n and got.total.dtype == np.int64
    assert_rounds_like(got, expected)
    assert_rounds_like(fed - to_exact(noise) / n, expected)
    # a float model (count 1) loses a 1/n share alike
    x = grid_floats(mats[0].total >> 8)
    assert_rounds_like(
        subtract_own_noise(x, noise, n), values_of(to_exact(x)) - values_of(GridMatrix(z)) / n
    )


def test_sums_wrap_modulo_2_64():
    # words that overflow int64 cancel back to the true sum
    top = np.array([2**63 - 1, -(2**63)], dtype=np.int64)
    a, b = GridMatrix(top), GridMatrix(np.array([5, -7]))
    back = (a + b) + GridMatrix(-top - 1) + GridMatrix(np.array([1, 1]))
    assert [int(v) for v in back.total] == [5, -7]
    mean = exact_mean([a, b, GridMatrix(-top - 1), GridMatrix(np.array([1, 1]))])
    assert [int(v) for v in mean.total] == [5, -7] and mean.count == 4


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, shapes, elements=floats),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.data(),
)
def test_non_finite_input_raises(x, bad, data):
    flat = x.ravel().copy()
    flat[data.draw(st.integers(0, flat.size - 1))] = bad
    with pytest.raises(ValueError, match="non-finite"):
        to_exact(flat.reshape(x.shape))


@pytest.mark.parametrize("value", [2.0**31, -(2.0**31), 1e300])
def test_value_outside_the_int64_grid_raises(value):
    with pytest.raises(ValueError, match="outside the int64 grid"):
        to_exact(np.array([0.5, value]))
    assert int(to_exact(np.array([2.0**31 - 2.0**-22])).total[0]) == 2**63 - 2**10


@pytest.mark.parametrize(
    "n,bits", [(1, 62), (2, 61), (3, 60), (4, 60), (5, 59), (10, 58), (50, 56), (64, 56)]
)
def test_grid_bound_leaves_room_for_n_bodies_and_the_server(n, bits):
    assert grid_bound(n) == 2**bits
    # n bodies at the bound and n * Z at the bound still fit in int64
    assert n * (grid_bound(n) - 1) + (grid_bound(n) - 1) < 2**63
    check_bound(np.array([grid_bound(n) - 1, -grid_bound(n) + 1]), n)
    for q in (grid_bound(n), -grid_bound(n)):
        with pytest.raises(ValueError, match=f"not below 2\\^{bits}, the bound for {n} clients"):
            check_bound(np.array([0, q]), n)
    # a scaled grid integer counts at its scaled size
    with pytest.raises(ValueError, match="bound"):
        check_bound(np.array([grid_bound(n) // n + 1]), n, factor=n)


def test_arithmetic_contract():
    a = to_exact(np.array([[1.0, 0.25]]))
    b = to_exact(np.array([[2.0, 0.5]]))
    assert np.all(a + b == to_exact(np.array([[3.0, 0.75]])))
    assert np.all(a - b == to_exact(np.array([[-1.0, -0.25]])))
    assert 0 + a is a
    assert np.array_equal(to_float(sum([a, b, b])), [[5.0, 1.25]])
    # division keeps the integers and grows the count
    third = a / 3
    assert third.count == 3 and np.array_equal(third.total, a.total)
    assert np.all(third + third + third == a)
    assert np.array_equal(a == b / 2, [[True, True]])
    assert np.array_equal(a == to_exact(np.array([[1.0, 0.5]])), [[True, False]])
    # a count-1 operand aligns with any count; other counts do not mix
    assert np.all((a / 4) + b == to_exact(np.array([[2.25, 0.5625]])))
    assert np.all(b - (a / 4) == to_exact(np.array([[1.75, 0.4375]])))
    with pytest.raises(ValueError, match="do not align"):
        (a / 2) + (b / 3)
    # no silent float conversion through numpy, and no float operands
    assert np.asarray(a).dtype == object
    with pytest.raises(TypeError):
        a + np.ones((1, 2))
    with pytest.raises(TypeError):
        a / 0.5
    with pytest.raises(ValueError):
        a / 0
    with pytest.raises(ValueError):
        GridMatrix(a.total, 0)


def test_mismatched_shapes_raise_instead_of_broadcasting():
    w = to_exact(np.array([[1.0, 0.25], [2.0, -3.0]]))
    for other in (to_exact(np.ones((3, 2, 2))), to_exact(np.ones(2)), to_exact(np.ones((1, 2)))):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x == y):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(w, other)
            with pytest.raises(ValueError, match="shape mismatch"):
                op(other, w)
    with pytest.raises(ValueError, match="shape or count mismatch"):
        exact_mean([w, to_exact(np.ones((1, 2)))])
    with pytest.raises(ValueError, match="shape or count mismatch"):
        exact_mean([w, w / 2])


# Grid floats of |q| < 2^61, exact as float64: q = m * 2^s with m < 2^53.
grid_pair_floats = st.builds(
    lambda m, s: float(Fraction(m * 2**s) * UNIT),
    st.integers(-(2**53) + 1, 2**53 - 1),
    st.integers(0, 8),
) | st.builds(lambda q: float(Fraction(q) * UNIT), st.integers(-(2**40), 2**40))


def cached_round(clean: np.ndarray, record: np.ndarray) -> ClientRound:
    """A retrain cache entry whose body is the exact clean + record."""
    return ClientRound(to_exact(clean) + to_exact(record), record, True, clean, None)


@settings(max_examples=200, deadline=None)
@given(
    shapes.flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=grid_pair_floats),
            arrays(np.float64, shape, elements=grid_pair_floats),
        )
    )
)
def test_ieee_sum_is_the_rounded_exact_sum(pair):
    # IEEE-754 addition of two grid floats rounds the exact sum to nearest,
    # ties to even, as to_float does; the retrain cache relies on it
    clean, record = pair
    body = to_exact(clean) + to_exact(record)
    ieee = clean + record
    assert np.array_equal(to_float(body).view(np.uint64), ieee.view(np.uint64))
    assert_rounds_like(body, values_of(to_exact(clean)) + values_of(to_exact(record)))
    assert reuse_cached_round(ieee, cached_round(clean, record), 1e-300, None) is not None


def test_ieee_sum_rounds_a_tie_to_even():
    # 2^29 has an ulp of 2^-23: adding half of it is a tie, which rounds to
    # the even neighbour, down from 2^29 and up from 2^29 + 2^-23
    for clean, want in ((2.0**29, 2.0**29), (2.0**29 + 2.0**-23, 2.0**29 + 2.0**-22)):
        body = to_exact(np.array([clean])) + to_exact(np.array([2.0**-24]))
        assert abs(int(body.total[0])) >= 2**53
        assert to_float(body)[0] == want == clean + 2.0**-24
        cached = cached_round(np.array([clean]), np.array([2.0**-24]))
        assert reuse_cached_round(np.array([want]), cached, 1e-300, None) is not None


@settings(max_examples=100, deadline=None)
@given(
    shapes.flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=grid_pair_floats),
            arrays(np.float64, shape, elements=grid_pair_floats),
        )
    ),
    st.sampled_from([0.0, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 2.0]),
    st.sampled_from([1e-3, 0.5, 1e-9]),
)
def test_retrain_cache_decides_like_the_exact_round_back(pair, step, tolerance):
    clean, record = pair
    cached = cached_round(clean, record)
    noisy = to_float(cached.weights)
    server_w = noisy.copy()
    server_w.flat[0] = noisy.flat[0] + step * tolerance
    old_hit = bool(np.max(np.abs(server_w - noisy)) <= tolerance)
    new_hit = reuse_cached_round(server_w, cached, tolerance, None) is not None
    assert new_hit == old_hit
