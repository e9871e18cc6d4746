"""Tests for the noise samplers and sensitivity calculators."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from fedsim.dp import (
    DpSpec,
    SensitivityParams,
    gamma_difference_share,
    gaussian_sample,
    laplace_sample,
    logreg_sensitivity,
    perturb_weights,
)
from fedsim.exact import to_exact, to_float

KS_ALPHA = 0.01


class TestDpSpec:
    def test_valid_specs(self):
        DpSpec("laplace", epsilon=1.0)
        DpSpec("gaussian", epsilon=1.0, delta=0.05)
        DpSpec("distributed_laplace", epsilon=0.1, placement="distributed")

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    def test_epsilon_must_be_positive(self, epsilon):
        with pytest.raises(ValueError):
            DpSpec("laplace", epsilon=epsilon)

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
    def test_delta_range(self, delta):
        with pytest.raises(ValueError):
            DpSpec("laplace", epsilon=1.0, delta=delta)

    def test_gaussian_requires_positive_delta(self):
        with pytest.raises(ValueError):
            DpSpec("gaussian", epsilon=1.0, delta=0.0)

    def test_distributed_laplace_requires_distributed_placement(self):
        with pytest.raises(ValueError):
            DpSpec("distributed_laplace", epsilon=1.0, placement="local")

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            DpSpec("staircase", epsilon=1.0)


class TestSensitivity:
    def test_two_clients_unit_params(self):
        assert logreg_sensitivity(SensitivityParams(n=2, k=1, alpha=1.0)) == 1.0

    def test_one_client_two_rows(self):
        assert logreg_sensitivity(SensitivityParams(n=1, k=2, alpha=1.0)) == 1.0

    def test_derived_value(self):
        # independent evaluation of 2 / (3 * 150 * 0.01)
        expected = 2.0 / (3 * 150 * 0.01)
        assert logreg_sensitivity(SensitivityParams(3, 150, 0.01)) == pytest.approx(
            expected
        )
        assert expected == pytest.approx(0.4444444444444444)

    @pytest.mark.parametrize(
        "n,k,alpha", [(0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0), (-2, 1, 1.0), (1, 1, -0.5)]
    )
    def test_rejects_nonpositive_fields(self, n, k, alpha):
        with pytest.raises(ValueError):
            SensitivityParams(n, k, alpha)

    @given(
        n=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=1, max_value=1000),
        alpha=st.floats(min_value=1e-3, max_value=10.0),
    )
    def test_strictly_decreasing_in_each_parameter(self, n, k, alpha):
        base = logreg_sensitivity(SensitivityParams(n, k, alpha))
        assert logreg_sensitivity(SensitivityParams(n + 1, k, alpha)) < base
        assert logreg_sensitivity(SensitivityParams(n, k + 1, alpha)) < base
        assert logreg_sensitivity(SensitivityParams(n, k, alpha * 2)) < base


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
        self.sens = SensitivityParams(3, 30, 0.01)

    def test_record_matches_added_noise_exactly(self):
        spec = DpSpec("laplace", epsilon=0.5)
        perturbed, record = perturb_weights(
            self.w, spec, self.sens, np.random.default_rng(1)
        )
        recovered = to_float(perturbed - to_exact(record))
        assert np.array_equal(recovered, self.w)

    def test_input_unmodified(self):
        original = self.w.copy()
        spec = DpSpec("laplace", epsilon=0.5)
        perturb_weights(self.w, spec, self.sens, np.random.default_rng(1))
        assert np.array_equal(self.w, original)

    def test_huge_epsilon_leaves_weights_essentially_unchanged(self):
        spec = DpSpec("laplace", epsilon=1e9)
        perturbed, _ = perturb_weights(
            self.w, spec, self.sens, np.random.default_rng(2)
        )
        assert np.max(np.abs(to_float(perturbed) - self.w)) < 1e-6

    def test_distributed_shares_sum_to_laplace(self):
        # three clients perturb the zero matrix; the elementwise sum of the
        # perturbed matrices is Laplace(0, lambda)-distributed
        sens = SensitivityParams(3, 10, 0.02)
        lam = logreg_sensitivity(sens) / 1.0
        spec = DpSpec("distributed_laplace", epsilon=1.0, placement="distributed")
        rng = np.random.default_rng(37)
        zero = np.zeros((40, 50))
        total = np.zeros_like(zero)
        for _ in range(3):
            perturbed, _ = perturb_weights(zero, spec, sens, rng)
            total += to_float(perturbed)
        assert (
            stats.kstest(total.ravel(), stats.laplace(scale=lam).cdf).pvalue > KS_ALPHA
        )

    def test_gaussian_mechanism_dispatch(self):
        spec = DpSpec("gaussian", epsilon=1.0, delta=0.05)
        perturbed, record = perturb_weights(
            self.w, spec, self.sens, np.random.default_rng(3)
        )
        assert record.shape == self.w.shape
        assert not np.array_equal(to_float(perturbed), self.w)

    def test_determinism_across_runs(self):
        spec = DpSpec("laplace", epsilon=0.3)
        p1, r1 = perturb_weights(self.w, spec, self.sens, np.random.default_rng(9))
        p2, r2 = perturb_weights(self.w, spec, self.sens, np.random.default_rng(9))
        assert np.array_equal(r1, r2)
        assert np.array_equal(to_float(p1), to_float(p2))
