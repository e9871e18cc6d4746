"""Tests for the logistic-regression model and client-round procedures."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedsim.models as models_module
from fedsim.dp import Calibration
from fedsim.exact import GRID_BITS, exact_mean, to_exact, to_float
from fedsim.models import (
    Dataset,
    EvalReport,
    TrainConfig,
    TrainJob,
    client_round_retrain,
    converged,
    evaluate,
    finish_round,
    gradient,
    loss,
    sgd_train,
    sgd_train_cohort,
    subtract_own_noise,
    zero_weights,
)


def grid_ints(x: np.ndarray) -> list[int]:
    """The nearest grid integer of each element, ties to even, as Python ints."""
    return [round(Fraction(float(v)) * 2**GRID_BITS) for v in x.ravel()]


def snapped(x: np.ndarray) -> np.ndarray:
    """``x`` rounded to the grid, through Fraction."""
    return np.array([float(Fraction(q, 2**GRID_BITS)) for q in grid_ints(x)]).reshape(x.shape)


def fd_gradient(w, data, alpha, h=1e-6):
    """Central finite differences of the training objective."""
    g = np.zeros_like(w)
    for idx in np.ndindex(w.shape):
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        g[idx] = (loss(wp, data, alpha) - loss(wm, data, alpha)) / (2 * h)
    return g


def separable_dataset(rng, per_class=20):
    """Two well-separated 2-feature classes."""
    x0 = rng.standard_normal((per_class, 2)) + np.array([3.0, 3.0])
    x1 = rng.standard_normal((per_class, 2)) + np.array([-3.0, -3.0])
    features = np.vstack([x0, x1])
    labels = np.array([0] * per_class + [1] * per_class)
    return Dataset(features, labels)


class TestDatasetAndConfigs:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))

    def test_non_integer_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0.0, 1.0]))

    def test_negative_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, -1]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(local_steps=0, learning_rate=0.1, l2_alpha=0.1, batch_size=1),
            dict(local_steps=1, learning_rate=0.0, l2_alpha=0.1, batch_size=1),
            dict(local_steps=1, learning_rate=0.1, l2_alpha=0.0, batch_size=1),
            dict(local_steps=1, learning_rate=0.1, l2_alpha=0.1, batch_size=0),
        ],
    )
    def test_train_config_positivity(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("acc", [-0.1, 1.1])
    def test_eval_report_range(self, acc):
        with pytest.raises(ValueError):
            EvalReport(1, acc, 0.5)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        data = Dataset(rng.standard_normal((30, 4)), rng.integers(0, 3, 30))
        for _ in range(10):
            w = rng.standard_normal((3, 5))
            analytic = gradient(w, data, 0.05)
            numeric = fd_gradient(w, data, 0.05)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert rel < 1e-4

    def test_shape_mismatch_rejected(self):
        data = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            gradient(np.zeros((2, 4)), data, 0.1)

    def test_label_out_of_class_range_rejected(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 5]))
        with pytest.raises(ValueError):
            gradient(np.zeros((2, 3)), data, 0.1)


def reference_gradient(w, data, alpha):
    """The gradient as an explicit one-hot formula over a validated batch."""
    x = np.hstack([data.features, np.ones((len(data), 1))])
    scores = x @ w.T
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(data)), data.labels] = 1.0
    return (probs - onehot).T @ x / len(data) + alpha * w


def reference_sgd(data, init, cfg, rng):
    """Minibatch SGD building one Dataset per step, as the oracle."""
    w = np.array(init, dtype=np.float64)
    n = len(data)
    order = rng.permutation(n)
    cursor = 0
    for _ in range(cfg.local_steps):
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size
        batch = Dataset(data.features[idx], data.labels[idx])
        w -= cfg.learning_rate * reference_gradient(w, batch, cfg.l2_alpha)
    return w


class TestSgdTrain:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        features=st.integers(min_value=1, max_value=6),
        classes=st.integers(min_value=2, max_value=5),
        batch_size=st.integers(min_value=1, max_value=50),
        local_steps=st.integers(min_value=1, max_value=30),
        learning_rate=st.floats(min_value=1e-3, max_value=2.0),
        l2_alpha=st.floats(min_value=1e-4, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_per_batch_reference_bit_for_bit(
        self, rows, features, classes, batch_size, local_steps, learning_rate,
        l2_alpha, seed,
    ):
        rng = np.random.default_rng(seed)
        data = Dataset(
            rng.standard_normal((rows, features)) * 3.0,
            rng.integers(0, classes, rows),
        )
        init = rng.standard_normal((classes, features + 1))
        cfg = TrainConfig(local_steps, learning_rate, l2_alpha, batch_size)
        assert np.array_equal(gradient(init, data, l2_alpha),
                              reference_gradient(init, data, l2_alpha))
        out = sgd_train(data, init, cfg, np.random.default_rng(seed + 1))
        expected = reference_sgd(data, init, cfg, np.random.default_rng(seed + 1))
        assert np.array_equal(out, expected)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        jobs=st.integers(min_value=1, max_value=5),
        rows=st.integers(min_value=1, max_value=30),
        features=st.integers(min_value=1, max_value=6),
        # below 8 classes numpy sums a row in sequence, from 8 on pairwise
        classes=st.integers(min_value=2, max_value=12),
        batch_size=st.integers(min_value=1, max_value=40),
        local_steps=st.integers(min_value=1, max_value=25),
        learning_rate=st.floats(min_value=1e-3, max_value=2.0),
        l2_alpha=st.floats(min_value=1e-4, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_cohort_matches_per_batch_reference_bit_for_bit(
        self, jobs, rows, features, classes, batch_size, local_steps,
        learning_rate, l2_alpha, seed,
    ):
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(local_steps, learning_rate, l2_alpha, batch_size)
        cohort = [
            TrainJob(
                Dataset(rng.standard_normal((rows, features)) * 3.0,
                        rng.integers(0, classes, rows)),
                rng.standard_normal((classes, features + 1)),
                np.random.default_rng(seed + 1 + j),
            )
            for j in range(jobs)
        ]
        out = sgd_train_cohort(cohort, cfg)
        assert len(out) == jobs
        for j, job in enumerate(cohort):
            expected = reference_sgd(
                job.data, job.init, cfg, np.random.default_rng(seed + 1 + j)
            )
            assert np.array_equal(out[j], expected)

    @pytest.mark.parametrize(
        "rows,batch_size,local_steps",
        [
            (10, 4, 7),  # a short last batch; the last pass stops after its first batch
            (10, 5, 5),  # the last pass stops half way
            (9, 3, 6),   # whole passes only
            (6, 6, 4),   # batch_size equals rows: a draw every step
            (5, 8, 3),   # batch_size above rows
            (1, 1, 2),
        ],
    )
    def test_cohort_leaves_each_stream_where_the_reference_does(
        self, rows, batch_size, local_steps
    ):
        # a client's batch stream carries across rounds, so the kernel must
        # draw exactly the permutations the reference draws, and no more
        rng = np.random.default_rng(rows * 100 + batch_size)
        cfg = TrainConfig(local_steps, 0.3, 0.05, batch_size)
        cohort = [
            TrainJob(Dataset(rng.standard_normal((rows, 2)), rng.integers(0, 3, rows)),
                     rng.standard_normal((3, 3)), np.random.default_rng(50 + j))
            for j in range(3)
        ]
        out = sgd_train_cohort(cohort, cfg)
        for j, job in enumerate(cohort):
            twin = np.random.default_rng(50 + j)
            assert np.array_equal(out[j], reference_sgd(job.data, job.init, cfg, twin))
            assert np.array_equal(job.rng.permutation(rows), twin.permutation(rows))
            assert job.rng.random() == twin.random()
        held = out + [job.init for job in cohort]
        for a in range(len(held)):
            for b in range(a + 1, len(held)):
                assert not np.shares_memory(held[a], held[b])

    def test_cohort_rejects_unequal_row_counts(self):
        rng = np.random.default_rng(9)
        cfg = TrainConfig(local_steps=3, learning_rate=0.1, l2_alpha=0.1, batch_size=4)
        cohort = [
            TrainJob(Dataset(rng.standard_normal((rows, 2)), rng.integers(0, 2, rows)),
                     zero_weights(2, 2), np.random.default_rng(rows))
            for rows in (10, 11)
        ]
        with pytest.raises(ValueError, match="row counts"):
            sgd_train_cohort(cohort, cfg)

    def test_cohort_leaves_inits_alone(self):
        data = separable_dataset(np.random.default_rng(8))
        cfg = TrainConfig(local_steps=5, learning_rate=0.5, l2_alpha=0.01, batch_size=8)
        inits = [zero_weights(2, 2), np.ones((2, 3))]
        out = sgd_train_cohort(
            [TrainJob(data, w0, np.random.default_rng(i)) for i, w0 in enumerate(inits)],
            cfg,
        )
        assert np.array_equal(inits[0], zero_weights(2, 2))
        assert np.array_equal(inits[1], np.ones((2, 3)))
        assert not np.shares_memory(out[0], out[1])

    def test_zero_gradient_fixed_point(self):
        # two points at the origin, one per class: softmax is uniform and
        # the label terms cancel, so a full-batch step moves nothing
        data = Dataset(np.zeros((2, 2)), np.array([0, 1]))
        w0 = zero_weights(2, 2)
        cfg = TrainConfig(local_steps=1, learning_rate=0.5, l2_alpha=0.1, batch_size=2)
        out = sgd_train(data, w0, cfg, np.random.default_rng(0))
        assert np.array_equal(out, w0)

    def test_learns_separable_data(self):
        data = separable_dataset(np.random.default_rng(7))
        cfg = TrainConfig(local_steps=200, learning_rate=0.5, l2_alpha=0.01, batch_size=8)
        w = sgd_train(data, zero_weights(2, 2), cfg, np.random.default_rng(1))
        assert evaluate(w, data) >= 0.95

    def test_empty_dataset_rejected(self):
        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        cfg = TrainConfig(local_steps=1, learning_rate=0.1, l2_alpha=0.1, batch_size=1)
        with pytest.raises(ValueError):
            sgd_train(data, zero_weights(2, 2), cfg, np.random.default_rng(0))

    def test_init_not_modified(self):
        data = separable_dataset(np.random.default_rng(3))
        cfg = TrainConfig(local_steps=5, learning_rate=0.5, l2_alpha=0.01, batch_size=8)
        w0 = zero_weights(2, 2)
        sgd_train(data, w0, cfg, np.random.default_rng(2))
        assert np.array_equal(w0, zero_weights(2, 2))

    def test_deterministic_given_seed(self):
        data = separable_dataset(np.random.default_rng(4))
        cfg = TrainConfig(local_steps=50, learning_rate=0.3, l2_alpha=0.02, batch_size=4)
        a = sgd_train(data, zero_weights(2, 2), cfg, np.random.default_rng(5))
        b = sgd_train(data, zero_weights(2, 2), cfg, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestFederatedAverage:
    def test_pairwise_mean(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(to_float(exact_mean([a, b])), [[2.0, 3.0], [4.0, 5.0]])

    def test_single_model_identity(self):
        a = np.array([[1.5, -2.5]])
        assert np.array_equal(to_float(exact_mean([a])), a)

    def test_idempotent_on_copies(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        mean = exact_mean([a, a.copy(), a.copy()])
        assert mean.count == 3
        assert [int(t) for t in mean.total.ravel()] == [3 * q for q in grid_ints(a)]
        # a matrix on the grid comes back bit for bit; any other is snapped
        assert np.array_equal(to_float(mean).view(np.uint64), snapped(a).view(np.uint64))
        on_grid = snapped(a)
        assert np.array_equal(to_float(exact_mean([on_grid] * 3)), on_grid)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            to_float(exact_mean([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            to_float(exact_mean([np.zeros((2, 2)), np.zeros((3, 2))]))

    def test_noise_linearity(self):
        # averaging noisy models then removing the averaged noise recovers
        # the clean average exactly
        rng = np.random.default_rng(11)
        ws = [rng.standard_normal((3, 4)) for _ in range(4)]
        gs = [rng.standard_normal((3, 4)) for _ in range(4)]
        noisy = [to_exact(w) + to_exact(g) for w, g in zip(ws, gs)]
        cleaned = exact_mean(noisy) - exact_mean(gs)
        assert np.array_equal(to_float(cleaned), to_float(exact_mean(ws)))


class TestConverged:
    def test_identical_matrices(self):
        w = np.ones((2, 3))
        assert converged(w, w.copy(), 1e-12)

    def test_boundary_is_inclusive(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, 0] = 0.5
        assert converged(a, b, 0.5)

    def test_exceeding_tolerance(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[0, 0] = 1.0
        assert not converged(a, b, 0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            converged(np.zeros((2, 2)), np.zeros((2, 3)), 0.1)

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(ValueError):
            converged(np.zeros((2, 2)), np.zeros((2, 2)), float("inf"))


class TestSubtractOwnNoise:
    def test_single_client_recovers_clean_weights(self):
        rng = np.random.default_rng(13)
        w = snapped(rng.standard_normal((3, 4)))
        g = snapped(rng.standard_normal((3, 4)) * 100)
        noisy = to_exact(w) + to_exact(g)
        recovered = subtract_own_noise(noisy, g, 1)
        assert recovered.count == 1 and [int(t) for t in recovered.total.ravel()] == grid_ints(w)
        assert np.array_equal(to_float(recovered).view(np.uint64), w.view(np.uint64))

    def test_two_clients_one_noiseless(self):
        rng = np.random.default_rng(17)
        w_a, w_b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        g_a = rng.standard_normal((3, 4)) * 50
        noisy_a = to_exact(w_a) + to_exact(g_a)
        fed = exact_mean([noisy_a, to_exact(w_b)])
        corrected = to_float(subtract_own_noise(fed, g_a, 2))
        assert np.array_equal(corrected, to_float(exact_mean([w_a, w_b])))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subtract_own_noise(np.zeros((2, 2)), np.zeros((3, 2)), 1)

    def test_correction_helps_in_majority_of_trials(self):
        # two noisy clients on a well-separated task; removing one's own
        # noise share should usually not hurt federated accuracy
        rng = np.random.default_rng(19)
        data = separable_dataset(rng, per_class=40)
        test = separable_dataset(np.random.default_rng(20), per_class=40)
        cfg = TrainConfig(local_steps=100, learning_rate=0.5, l2_alpha=0.01, batch_size=8)
        w_a = sgd_train(data, zero_weights(2, 2), cfg, np.random.default_rng(21))
        w_b = sgd_train(data, zero_weights(2, 2), cfg, np.random.default_rng(22))
        wins = 0
        for trial in range(20):
            trial_rng = np.random.default_rng(1000 + trial)
            g_a = trial_rng.laplace(scale=1.5, size=w_a.shape)
            g_b = trial_rng.laplace(scale=1.5, size=w_b.shape)
            fed = exact_mean([to_exact(w_a) + to_exact(g_a), to_exact(w_b) + to_exact(g_b)])
            corrected = to_float(subtract_own_noise(fed, g_a, 2))
            if evaluate(corrected, test) >= evaluate(to_float(fed), test):
                wins += 1
        assert wins >= 11


class TestEvaluate:
    def test_perfect_separation(self):
        data = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]))
        w = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert evaluate(w, data) == 1.0

    def test_zero_weights_predict_lowest_class(self):
        rng = np.random.default_rng(23)
        labels = np.repeat(np.arange(4), 25)
        data = Dataset(rng.standard_normal((100, 3)), labels)
        assert evaluate(zero_weights(4, 3), data) == 0.25

    def test_shift_invariance(self):
        rng = np.random.default_rng(29)
        data = Dataset(rng.standard_normal((50, 3)), rng.integers(0, 4, 50))
        w = rng.standard_normal((4, 4))
        shift = rng.standard_normal(4)
        shifted = w + np.ones((4, 1)) @ shift[None, :]
        assert evaluate(w, data) == evaluate(shifted, data)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(zero_weights(2, 2), Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestClientRoundIncremental:
    def setup_method(self):
        self.data = separable_dataset(np.random.default_rng(31))
        self.cfg = TrainConfig(local_steps=20, learning_rate=0.5, l2_alpha=0.01, batch_size=8)
        self.cal = Calibration("distributed_laplace", 1.0, 0.0, 3, 40, 0.01)

    def test_no_noise_path_equals_sgd_output(self):
        w0 = zero_weights(2, 2)
        trained = sgd_train(self.data, w0, self.cfg, np.random.default_rng(33))
        result = finish_round(
            sgd_train(self.data, w0, self.cfg, np.random.default_rng(33)),
            None, np.random.default_rng(0),
        )
        # the body is the SGD output snapped to the grid, and clean its value
        assert result.weights.count == 1
        assert [int(t) for t in result.weights.total.ravel()] == grid_ints(trained)
        assert np.array_equal(result.clean.view(np.uint64), snapped(trained).view(np.uint64))
        assert np.all(result.record == 0) and result.calibration is None

    def test_record_matches_perturbation_exactly(self):
        result = finish_round(
            sgd_train(self.data, zero_weights(2, 2), self.cfg, np.random.default_rng(34)),
            self.cal, np.random.default_rng(35),
        )
        trained = sgd_train(self.data, zero_weights(2, 2), self.cfg, np.random.default_rng(34))
        assert np.array_equal(result.clean.view(np.uint64), snapped(trained).view(np.uint64))
        # the record lies on the grid, and the body is the two parts' sum
        z = [Fraction(float(v)) * 2**GRID_BITS for v in result.record.ravel()]
        assert all(f.denominator == 1 for f in z) and any(z)
        assert [int(t) for t in result.weights.total.ravel()] == [
            q + int(f) for q, f in zip(grid_ints(trained), z)
        ]
        assert np.array_equal(
            to_float(result.weights - to_exact(result.record)), result.clean
        )
        assert result.calibration == self.cal

    def test_noise_is_the_record_on_the_grid(self):
        trained = sgd_train(self.data, zero_weights(2, 2), self.cfg, np.random.default_rng(36))
        for cal in (None, self.cal):
            result = finish_round(trained, cal, np.random.default_rng(37))
            assert result.noise.count == 1 and result.noise.total.dtype == np.int64
            assert np.array_equal(result.noise.total, to_exact(result.record).total)
            assert np.array_equal(
                (result.weights - result.noise).total, to_exact(result.clean).total
            )

    def test_subtraction_takes_grid_noise_without_a_lift(self, monkeypatch):
        result = finish_round(
            sgd_train(self.data, zero_weights(2, 2), self.cfg, np.random.default_rng(38)),
            self.cal, np.random.default_rng(39),
        )
        fed = exact_mean([result.weights, to_exact(np.ones((2, 3)))])
        expected = subtract_own_noise(fed, result.record, 2)
        lifted = []

        def spy(values):
            lifted.append(values)
            return to_exact(values)

        monkeypatch.setattr(models_module, "to_exact", spy)
        got = subtract_own_noise(fed, result.noise, 2)
        # only the federated mean passes through to_exact, unchanged
        assert len(lifted) == 1 and lifted[0] is fed
        assert got.count == expected.count and (got == expected).all()


class TestClientRoundRetrain:
    def setup_method(self):
        rng = np.random.default_rng(41)
        self.full = separable_dataset(rng, per_class=60)
        self.cfg = TrainConfig(local_steps=120, learning_rate=0.5, l2_alpha=0.01, batch_size=8)

    def _subset(self, rows):
        return Dataset(self.full.features[:rows], self.full.labels[:rows])

    def test_first_round_always_retrains(self):
        result = client_round_retrain(
            zero_weights(2, 2), self._subset(40), None, 1e-6, self.cfg,
            None, np.random.default_rng(1), np.random.default_rng(0),
        )
        assert result.trained

    def test_matching_cache_is_returned_unchanged(self):
        cached = client_round_retrain(
            zero_weights(2, 2), self._subset(40), None, 1e-6, self.cfg,
            None, np.random.default_rng(2), np.random.default_rng(0),
        )
        out = client_round_retrain(
            to_float(cached.weights), self._subset(40), cached, 1e-6, self.cfg,
            None, np.random.default_rng(3), np.random.default_rng(0),
        )
        assert not out.trained
        assert out.weights is cached.weights
        assert out.record is cached.record
        assert out.clean is cached.clean

    def test_distant_server_weights_force_retrain(self):
        cached = client_round_retrain(
            zero_weights(2, 2), self._subset(40), None, 1e-6, self.cfg,
            None, np.random.default_rng(4), np.random.default_rng(0),
        )
        far = to_float(cached.weights) + 1.0
        out = client_round_retrain(
            far, self._subset(40), cached, 1e-6, self.cfg,
            None, np.random.default_rng(5), np.random.default_rng(0),
        )
        assert out.trained

    def test_noise_drawn_for_another_active_set_forces_retrain(self):
        # distributed Laplace shares drawn for n=3 under-noise a round with
        # n=2, so a cache hit after a dropout must not reuse them
        at_three = Calibration("distributed_laplace", 1.0, 0.0, 3, 40, 0.01)
        at_two = Calibration("distributed_laplace", 1.0, 0.0, 2, 40, 0.01)
        cached = client_round_retrain(
            zero_weights(2, 2), self._subset(40), None, 1e-6, self.cfg,
            at_three, np.random.default_rng(7), np.random.default_rng(17),
        )
        server_w = to_float(cached.weights)
        same = client_round_retrain(
            server_w, self._subset(40), cached, 1e-6, self.cfg,
            at_three, np.random.default_rng(8), np.random.default_rng(18),
        )
        assert not same.trained
        after_dropout = client_round_retrain(
            server_w, self._subset(40), cached, 1e-6, self.cfg,
            at_two, np.random.default_rng(8), np.random.default_rng(18),
        )
        assert after_dropout.trained
        assert after_dropout.calibration == at_two
        assert after_dropout.record is not cached.record

    def test_retrain_ignores_server_weights_as_initializer(self):
        # retraining starts from zeros regardless of the received weights
        from_far = client_round_retrain(
            np.full((2, 3), 50.0), self._subset(40), None, 1e-6, self.cfg,
            None, np.random.default_rng(6), np.random.default_rng(0),
        )
        from_zero = client_round_retrain(
            zero_weights(2, 2), self._subset(40), None, 1e-6, self.cfg,
            None, np.random.default_rng(6), np.random.default_rng(0),
        )
        assert np.all(from_far.weights == from_zero.weights)
        assert np.array_equal(from_far.clean, from_zero.clean)

    def test_growing_data_does_not_increase_final_loss(self):
        # retrains on nested subsets; objective on the full set should not
        # get worse as the training set grows toward it
        rng = np.random.default_rng(6)
        losses = []
        cached = None
        for rows in (40, 80, 120):
            cached = client_round_retrain(
                np.full((2, 3), 100.0), self._subset(rows), cached, 1e-9,
                self.cfg, None, rng, np.random.default_rng(0),
            )
            assert cached.trained
            losses.append(loss(to_float(cached.weights), self.full, self.cfg.l2_alpha))
        assert losses[0] >= losses[1] >= losses[2]
