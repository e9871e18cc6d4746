"""Tests for the noise calibration, the samplers and perturbation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from conftest import make_config
from fedsim.config import ConfigError
from fedsim.dp import (
    Calibration,
    calibrate,
    gamma_difference_share,
    gaussian_sample,
    laplace_sample,
    perturb_weights,
)
from fedsim.exact import GRID_BITS, GridMatrix, grid_bound, to_exact, to_float

KS_ALPHA = 0.01
UNIT = Fraction(1, 2**GRID_BITS)
NAMES = ["client_agent0", "client_agent1", "client_agent2"]


def laplace_at(n: int, k: int, alpha: float, epsilon: float = 1.0) -> Calibration:
    return Calibration("laplace", epsilon, 0.0, n, k, alpha)


class TestCalibration:
    def test_valid_specs(self):
        Calibration("laplace", epsilon=1.0, delta=0.0, n=3, k=10, alpha=0.01)
        Calibration("gaussian", epsilon=1.0, delta=0.05, n=3, k=10, alpha=0.01)
        Calibration("distributed_laplace", epsilon=0.1, delta=0.0, n=3, k=10, alpha=0.01)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    def test_epsilon_must_be_positive(self, epsilon):
        with pytest.raises(ValueError):
            laplace_at(3, 10, 0.01, epsilon=epsilon)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
    def test_delta_range(self, delta):
        with pytest.raises(ValueError):
            Calibration("laplace", 1.0, delta, 3, 10, 0.01)

    def test_gaussian_requires_positive_delta(self):
        with pytest.raises(ValueError):
            Calibration("gaussian", 1.0, 0.0, 3, 10, 0.01)

    def test_distributed_laplace_requires_distributed_placement(self):
        # the pairing is a property of the run, so the configuration enforces it
        with pytest.raises(ConfigError, match="dp_placement"):
            make_config(
                use_dp_privacy=True,
                mechanism="distributed_laplace",
                dp_placement="local",
                epsilons=[1.0, 1.0, 1.0],
            )

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            Calibration("staircase", 1.0, 0.0, 3, 10, 0.01)


class TestSensitivity:
    def test_two_clients_unit_params(self):
        assert laplace_at(n=2, k=1, alpha=1.0).sensitivity == 1.0

    def test_one_client_two_rows(self):
        assert laplace_at(n=1, k=2, alpha=1.0).sensitivity == 1.0

    def test_derived_value(self):
        # independent evaluation of 2 / (3 * 150 * 0.01)
        expected = 2.0 / (3 * 150 * 0.01)
        assert laplace_at(3, 150, 0.01).sensitivity == pytest.approx(expected)
        assert expected == pytest.approx(0.4444444444444444)

    @pytest.mark.parametrize(
        "n,k,alpha", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (-2, 1, 1.0), (1, 1, -0.5)]
    )
    def test_rejects_nonpositive_fields(self, n, k, alpha):
        with pytest.raises(ValueError):
            laplace_at(n, k, alpha)

    @given(
        n=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=1, max_value=1000),
        alpha=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_strictly_decreasing_in_each_parameter(self, n, k, alpha):
        base = laplace_at(n, k, alpha).sensitivity
        assert laplace_at(n + 1, k, alpha).sensitivity < base
        assert laplace_at(n, k + 1, alpha).sensitivity < base
        assert laplace_at(n, k, alpha * 2).sensitivity < base


class TestCalibrate:
    SIZES = {
        "client_agent0": [10, 40],
        "client_agent1": [20, 15],
        "client_agent2": [50, 50],
    }

    def test_clients_add_no_noise_under_global_server(self):
        config = make_config(
            use_dp_privacy=True, dp_placement="global_server", epsilons=[1.0, 1.0, 1.0]
        )
        for name in NAMES:
            assert calibrate(config, self.SIZES, NAMES, 1, name) is None
        assert calibrate(config, self.SIZES, NAMES, 1) is not None

    @pytest.mark.parametrize(
        "mechanism,placement",
        [("laplace", "local"), ("gaussian", "local"), ("distributed_laplace", "distributed")],
    )
    def test_server_adds_no_noise_off_global_server(self, mechanism, placement):
        config = make_config(
            use_dp_privacy=True,
            mechanism=mechanism,
            dp_placement=placement,
            epsilons=[1.0, 1.0, 1.0],
            deltas=[1e-5] * 3,
        )
        assert calibrate(config, self.SIZES, NAMES, 1) is None
        cal = calibrate(config, self.SIZES, NAMES, 1, "client_agent1")
        assert cal == Calibration(mechanism, 1.0, 1e-5, 3, 10, config.train.l2_alpha)

    def test_no_noise_without_dp(self):
        config = make_config(epsilons=[1.0, 1.0, 1.0])
        assert calibrate(config, self.SIZES, NAMES, 1, "client_agent0") is None
        config = make_config(dp_placement="global_server", epsilons=[1.0, 1.0, 1.0])
        assert calibrate(config, self.SIZES, NAMES, 1) is None

    def test_client_uses_its_own_epsilon_and_delta(self):
        config = make_config(
            use_dp_privacy=True,
            mechanism="gaussian",
            epsilons=[1.0, 0.25, None],
            deltas=[1e-3, 1e-5, 0.0],
        )
        cal = calibrate(config, self.SIZES, NAMES, 1, "client_agent0")
        assert (cal.epsilon, cal.delta) == (1.0, 1e-3)
        assert calibrate(config, self.SIZES, NAMES, 1, "client_agent2") is None

    def test_server_takes_smallest_active_declared_epsilon_and_delta(self):
        # the smallest epsilon and delta may come from different clients;
        # client_agent1 declares no epsilon, so its zero delta does not count
        config = make_config(
            use_dp_privacy=True,
            mechanism="gaussian",
            dp_placement="global_server",
            epsilons=[1.0, None, 0.5],
            deltas=[1e-3, 0.0, 1e-2],
        )
        cal = calibrate(config, self.SIZES, NAMES, 1)
        assert (cal.mechanism, cal.epsilon, cal.delta) == ("gaussian", 0.5, 1e-3)
        cal = calibrate(config, self.SIZES, ["client_agent0", "client_agent1"], 1)
        assert (cal.epsilon, cal.delta) == (1.0, 1e-3)

    def test_server_adds_no_noise_when_no_active_client_declares(self):
        config = make_config(
            use_dp_privacy=True, dp_placement="global_server", epsilons=[1.0, None, None]
        )
        assert calibrate(config, self.SIZES, ["client_agent1", "client_agent2"], 2) is None
        assert calibrate(config, self.SIZES, NAMES, 2) is not None

    @pytest.mark.parametrize("owner", ["client_agent2", None])
    def test_n_and_k_follow_the_active_set_and_iteration(self, owner):
        placement = "local" if owner else "global_server"
        config = make_config(
            use_dp_privacy=True, dp_placement=placement, epsilons=[1.0, 1.0, 1.0]
        )
        alpha = config.train.l2_alpha
        cal = calibrate(config, self.SIZES, NAMES, 1, owner)
        assert (cal.n, cal.k, cal.alpha) == (3, 10, alpha)
        cal = calibrate(config, self.SIZES, NAMES, 2, owner)
        assert (cal.n, cal.k) == (3, 15)
        cal = calibrate(config, self.SIZES, ["client_agent0", "client_agent2"], 2, owner)
        assert (cal.n, cal.k) == (2, 40)
        assert cal.sensitivity == 2.0 / (2 * 40 * alpha)


class TestLaplaceSampler:
    def test_moments_match_distribution(self):
        rng = np.random.default_rng(101)
        draws = laplace_sample(1.0, rng, size=1_000_000)
        assert abs(np.mean(draws)) < 0.01
        assert abs(np.var(draws) - 2.0) < 0.05

    def test_zero_scale_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            laplace_sample(0.0, rng)
        with pytest.raises(ValueError):
            laplace_sample(-1.0, rng)

    def test_identical_seeds_identical_sequences(self):
        a = np.random.default_rng(7)
        b = np.random.default_rng(7)
        seq_a = [laplace_sample(2.0, a) for _ in range(100)]
        seq_b = [laplace_sample(2.0, b) for _ in range(100)]
        assert seq_a == seq_b

    def test_distribution_shape(self):
        rng = np.random.default_rng(5)
        draws = laplace_sample(0.7, rng, size=100_000)
        assert stats.kstest(draws, stats.laplace(scale=0.7).cdf).pvalue > KS_ALPHA


class TestGaussianSampler:
    def test_sigma_calibration(self):
        # sigma = sqrt(2 ln(1.25/0.05)) = sqrt(2 ln 25) for unit sensitivity/epsilon
        sigma = math.sqrt(2.0 * math.log(25.0))
        assert sigma == pytest.approx(2.5373, abs=1e-4)
        rng = np.random.default_rng(11)
        draws = gaussian_sample(1.0, 1.0, 0.05, rng, size=1_000_000)
        assert abs(np.std(draws) - sigma) / sigma < 0.01

    def test_identical_seeds_identical_draws(self):
        a = gaussian_sample(1.0, 1.0, 0.1, np.random.default_rng(3))
        b = gaussian_sample(1.0, 1.0, 0.1, np.random.default_rng(3))
        assert a == b

    def test_delta_zero_rejected(self):
        with pytest.raises(ValueError):
            gaussian_sample(1.0, 1.0, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [(-1.0, 1.0, 0.1), (1.0, 0.0, 0.1), (1.0, 1.0, 1.0)])
    def test_invalid_parameters_rejected(self, bad):
        sensitivity, epsilon, delta = bad
        with pytest.raises(ValueError):
            gaussian_sample(sensitivity, epsilon, delta, np.random.default_rng(0))


class TestGammaShares:
    def test_single_client_share_is_laplace(self):
        # shape 1/n = 1 turns each Gamma into an Exponential, whose
        # difference is exactly Laplace(0, 1)
        rng = np.random.default_rng(23)
        draws = gamma_difference_share(1, 1.0, rng, size=100_000)
        assert stats.kstest(draws, stats.laplace(scale=1.0).cdf).pvalue > KS_ALPHA

    def test_five_share_sum_is_laplace(self):
        rng = np.random.default_rng(29)
        total = sum(gamma_difference_share(5, 2.0, rng, size=100_000) for _ in range(5))
        assert stats.kstest(total, stats.laplace(scale=2.0).cdf).pvalue > KS_ALPHA

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_reconstruction_grid(self, n, scale):
        rng = np.random.default_rng(1000 + 17 * n + int(scale * 10))
        total = sum(
            gamma_difference_share(n, scale, rng, size=100_000) for _ in range(n)
        )
        assert stats.kstest(total, stats.laplace(scale=scale).cdf).pvalue > KS_ALPHA

    def test_share_is_symmetric_around_zero(self):
        rng = np.random.default_rng(31)
        draws = gamma_difference_share(4, 1.5, rng, size=1_000_000)
        assert abs(np.mean(draws)) <= 3.0 * np.std(draws) / 1000.0

    @pytest.mark.parametrize("n,scale", [(0, 1.0), (3, 0.0), (3, -1.0)])
    def test_invalid_parameters_rejected(self, n, scale):
        with pytest.raises(ValueError):
            gamma_difference_share(n, scale, np.random.default_rng(0))


class TestPerturbWeights:
    def setup_method(self):
        self.w = np.random.default_rng(0).standard_normal((3, 5))
        self.cal = laplace_at(3, 30, 0.01, epsilon=0.5)

    def test_record_matches_added_noise_exactly(self):
        perturbed, record = perturb_weights(self.w, self.cal, np.random.default_rng(1))
        # the record is the continuous draw snapped to the grid, and the
        # body is the sum of the two parts' grid integers
        scale = self.cal.sensitivity / self.cal.epsilon
        draw = laplace_sample(scale, np.random.default_rng(1), self.w.shape)
        z = [round(Fraction(float(v)) / UNIT) for v in draw.ravel()]
        assert [Fraction(float(v)) / UNIT for v in record.ravel()] == z
        q = [round(Fraction(float(v)) / UNIT) for v in self.w.ravel()]
        assert [int(t) for t in perturbed.total.ravel()] == [a + b for a, b in zip(q, z)]
        recovered = to_float(perturbed - to_exact(record))
        assert np.array_equal(recovered, to_float(to_exact(self.w)))

    def test_input_unmodified(self):
        original = self.w.copy()
        perturb_weights(self.w, self.cal, np.random.default_rng(1))
        assert np.array_equal(self.w, original)

    def test_huge_epsilon_leaves_weights_essentially_unchanged(self):
        cal = laplace_at(3, 30, 0.01, epsilon=1e9)
        perturbed, _ = perturb_weights(self.w, cal, np.random.default_rng(2))
        assert np.max(np.abs(to_float(perturbed) - self.w)) < 1e-6

    def test_distributed_shares_sum_to_laplace(self):
        # three clients perturb the zero matrix; the elementwise sum of the
        # perturbed matrices is Laplace(0, lambda)-distributed
        cal = Calibration("distributed_laplace", 1.0, 0.0, 3, 10, 0.02)
        lam = cal.sensitivity / 1.0
        rng = np.random.default_rng(37)
        zero = np.zeros((40, 50))
        total = np.zeros_like(zero)
        for _ in range(3):
            perturbed, _ = perturb_weights(zero, cal, rng)
            total += to_float(perturbed)
        assert (
            stats.kstest(total.ravel(), stats.laplace(scale=lam).cdf).pvalue > KS_ALPHA
        )

    def test_gaussian_mechanism_dispatch(self):
        cal = Calibration("gaussian", 1.0, 0.05, 3, 30, 0.01)
        perturbed, record = perturb_weights(self.w, cal, np.random.default_rng(3))
        assert record.shape == self.w.shape
        assert not np.array_equal(to_float(perturbed), self.w)

    def test_determinism_across_runs(self):
        cal = laplace_at(3, 30, 0.01, epsilon=0.3)
        p1, r1 = perturb_weights(self.w, cal, np.random.default_rng(9))
        p2, r2 = perturb_weights(self.w, cal, np.random.default_rng(9))
        assert np.array_equal(r1, r2)
        assert np.array_equal(to_float(p1), to_float(p2))

    # mixed exponents, signed zeros and subnormals in one matrix, on and
    # off the grid, inside the grid range of a round of three clients
    weights = arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 4)),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
                             2.0**27, -(2.0**27) + 2.0**-25, 1e6, -3e-7, 2.0**-33]),
            st.floats(-(2.0**27), 2.0**27),
        ),
    )
    calibrations = st.sampled_from([
        laplace_at(3, 30, 0.01, epsilon=0.5),
        Calibration("distributed_laplace", 1.0, 0.0, 3, 10, 0.02),
        Calibration("gaussian", 0.5, 1e-5, 2, 40, 0.01),
    ])

    @staticmethod
    def _draw(cal, rng, shape):
        """The continuous draw ``perturb_weights`` snaps, by mechanism."""
        scale = cal.sensitivity / cal.epsilon
        if cal.mechanism == "laplace":
            return laplace_sample(scale, rng, shape)
        if cal.mechanism == "distributed_laplace":
            return gamma_difference_share(cal.n, scale, rng, shape)
        return gaussian_sample(cal.sensitivity, cal.epsilon, cal.delta, rng, shape)

    @settings(max_examples=100, deadline=None)
    @given(weights, calibrations, st.integers(0, 2**32 - 1))
    def test_perturbed_is_the_exact_sum(self, w, cal, seed):
        perturbed, noise = perturb_weights(w, cal, np.random.default_rng(seed))
        assert isinstance(perturbed, GridMatrix) and perturbed.shape == w.shape
        assert perturbed.count == 1 and perturbed.total.dtype == np.int64
        draw = self._draw(cal, np.random.default_rng(seed), w.shape)
        z = [round(Fraction(float(v)) / UNIT) for v in draw.ravel()]
        q = [round(Fraction(float(v)) / UNIT) for v in w.ravel()]
        assert [Fraction(float(v)) / UNIT for v in noise.ravel()] == z
        assert [int(t) for t in perturbed.total.ravel()] == [a + b for a, b in zip(q, z)]
        # a mean over c bodies (server-placed noise) gains c * Z
        mean = GridMatrix(to_exact(w).total, 3)
        again, same = perturb_weights(mean, cal, np.random.default_rng(seed))
        assert np.array_equal(same, noise) and again.count == 3
        assert [int(t) for t in again.total.ravel()] == [a + 3 * b for a, b in zip(q, z)]

    def test_noise_past_the_grid_bound_is_refused(self):
        # this draw's largest |Z| is 0.85 * 2^60: a body of a 3-client round
        # may carry it, while the server's 3 * Z would reach 2.5 * 2^60
        cal = Calibration("laplace", 1e-8, 0.0, 3, 1, 1.0)
        assert grid_bound(3) == 2**60
        body, noise = perturb_weights(np.zeros((2, 3)), cal, np.random.default_rng(0))
        assert 2**59 < max(abs(int(t)) for t in body.total.ravel()) < 2**60
        mean = GridMatrix(np.zeros((2, 3), dtype=np.int64), 3)
        with pytest.raises(ValueError, match="not below 2\\^60, the bound for 3 clients"):
            perturb_weights(mean, cal, np.random.default_rng(0))

    @settings(max_examples=30, deadline=None)
    @given(weights, st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_weights_raise(self, w, bad, data):
        w = w.copy()
        w.flat[data.draw(st.integers(0, w.size - 1))] = bad
        with pytest.raises(ValueError):
            perturb_weights(w, self.cal, np.random.default_rng(0))
