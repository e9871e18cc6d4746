"""Multinomial logistic regression trained by minibatch SGD, plus the
federated client-round procedures, convergence test and model evaluation.

Weight matrices are C x (F+1) float64 arrays whose last column is the
bias.  The training objective is L2-regularized multinomial cross-entropy;
all operations are pure given their random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dp import Calibration, perturb_weights
from .exact import ExactMatrix, to_exact, to_float


@dataclass
class Dataset:
    """Feature matrix (N x F) and integer labels (N,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"row count mismatch: {len(self.features)} features rows "
                f"vs {len(self.labels)} labels"
            )
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD settings: step count, learning rate, L2 strength, batch size."""

    local_steps: int
    learning_rate: float
    l2_alpha: float
    batch_size: int

    def __post_init__(self) -> None:
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.l2_alpha > 0:
            raise ValueError(f"l2_alpha must be positive, got {self.l2_alpha}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class EvalReport:
    """Per-iteration accuracy of a client's local model vs the federated one."""

    iteration: int
    local_accuracy: float
    federated_accuracy: float

    def __post_init__(self) -> None:
        for name in ("local_accuracy", "federated_accuracy"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def zero_weights(n_classes: int, n_features: int) -> np.ndarray:
    """The all-zeros C x (F+1) initial weight matrix."""
    return np.zeros((n_classes, n_features + 1), dtype=np.float64)


def _augment(features: np.ndarray) -> np.ndarray:
    ones = np.ones((features.shape[0], 1), dtype=np.float64)
    return np.hstack([features, ones])


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _check_shapes(data: Dataset, w: np.ndarray) -> None:
    if w.ndim != 2:
        raise ValueError("weight matrix must be 2-D")
    if data.features.shape[1] != w.shape[1] - 1:
        raise ValueError(
            f"feature count {data.features.shape[1]} incompatible with "
            f"weight shape {w.shape} (expected {w.shape[1] - 1} features)"
        )
    if len(data) and data.labels.max() >= w.shape[0]:
        raise ValueError(
            f"label {int(data.labels.max())} out of range for {w.shape[0]} classes"
        )


def loss(w: np.ndarray, data: Dataset, l2_alpha: float) -> float:
    """Mean cross-entropy plus (alpha/2) * ||w||^2, the training objective."""
    _check_shapes(data, w)
    x = _augment(data.features)
    probs = _softmax(x @ w.T)
    picked = probs[np.arange(len(data)), data.labels]
    ce = -float(np.mean(np.log(np.maximum(picked, 1e-300))))
    return ce + 0.5 * l2_alpha * float(np.sum(w * w))


def _gradient(
    w: np.ndarray, x: np.ndarray, labels: np.ndarray, l2_alpha: float
) -> np.ndarray:
    # x is already augmented; subtracting 1 at each row's label is p - onehot.
    probs = _softmax(x @ w.T)
    probs[np.arange(len(labels)), labels] -= 1.0
    return probs.T @ x / len(labels) + l2_alpha * w


def gradient(w: np.ndarray, data: Dataset, l2_alpha: float) -> np.ndarray:
    """Analytic gradient of ``loss`` with respect to the weight matrix."""
    _check_shapes(data, w)
    return _gradient(w, _augment(data.features), data.labels, l2_alpha)


def sgd_train(
    data: Dataset,
    init: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run exactly ``cfg.local_steps`` minibatch gradient steps from ``init``.

    Minibatches cycle through a seeded permutation of the data, reshuffling
    after each full pass.  ``init`` is not modified.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    init = np.asarray(init, dtype=np.float64)
    _check_shapes(data, init)
    w = init.copy()
    x = _augment(data.features)
    n = len(data)
    order = rng.permutation(n)
    cursor = 0
    for _ in range(cfg.local_steps):
        if cursor >= n:
            order = rng.permutation(n)
            cursor = 0
        batch_idx = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size
        w -= cfg.learning_rate * _gradient(
            w, x[batch_idx], data.labels[batch_idx], cfg.l2_alpha
        )
    return w


def converged(local: np.ndarray, federated: np.ndarray, tolerance: float) -> bool:
    """True iff every federated weight is within ``tolerance`` of the local one."""
    local = np.asarray(local, dtype=np.float64)
    federated = np.asarray(federated, dtype=np.float64)
    if local.shape != federated.shape:
        raise ValueError(f"shape mismatch: {local.shape} vs {federated.shape}")
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return bool(np.max(np.abs(local - federated)) <= tolerance)


def subtract_own_noise(
    federated: np.ndarray | ExactMatrix, noise: np.ndarray, active_count: int
) -> ExactMatrix:
    """Remove an agent's own noise share from an averaged model.

    Returns ``federated - noise / active_count`` as an exact matrix, so a
    single client recovers its clean weights bit for bit.
    """
    if active_count < 1:
        raise ValueError(f"active_count must be >= 1, got {active_count}")
    federated = to_exact(federated)
    if federated.shape != noise.shape:
        raise ValueError(
            f"shape mismatch: federated {federated.shape} vs noise {noise.shape}"
        )
    return federated - to_exact(noise) / active_count


def evaluate(w: np.ndarray | ExactMatrix, test: Dataset) -> float:
    """Fraction of test rows whose argmax class score matches the label.

    Ties break toward the lowest class index.
    """
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    w = to_float(w)
    _check_shapes(test, w)
    scores = _augment(test.features) @ w.T
    predictions = np.argmax(scores, axis=1)
    return float(np.mean(predictions == test.labels))


class ClientRound(NamedTuple):
    """What one client round produces.

    ``weights`` is what the client sends: the trained weights plus its
    noise, exact when noise was added.  ``record`` holds that noise,
    ``clean`` the float weights before it, and ``calibration`` what the
    noise was drawn at (None when none was added); the retrain cache is
    reused only under the same calibration.  ``trained`` is False only
    when the retrain cache was reused.
    """

    weights: np.ndarray | ExactMatrix
    record: np.ndarray
    trained: bool
    clean: np.ndarray
    calibration: Calibration | None


def _finish_round(
    trained: np.ndarray, cal: Calibration | None, noise_rng: np.random.Generator
) -> ClientRound:
    if cal is None:
        return ClientRound(trained, np.zeros_like(trained), True, trained, None)
    perturbed, noise = perturb_weights(trained, cal, noise_rng)
    return ClientRound(perturbed, noise, True, trained, cal)


def client_round_incremental(
    server_w: np.ndarray,
    fresh_data: Dataset,
    cfg: TrainConfig,
    cal: Calibration | None,
    rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> ClientRound:
    """One client round of the fresh-data algorithm.

    Trains from the current federated weights on this iteration's new data
    only (batches from ``rng``), then adds noise drawn at ``cal`` from
    ``noise_rng`` (none when ``cal`` is None, in which case the plain
    trained weights are sent).
    """
    trained = sgd_train(fresh_data, server_w, cfg, rng)
    return _finish_round(trained, cal, noise_rng)


def client_round_retrain(
    server_w: np.ndarray,
    cumulative_data: Dataset,
    cached: ClientRound | None,
    tolerance: float,
    cfg: TrainConfig,
    cal: Calibration | None,
    rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> ClientRound:
    """One client round of the cumulative-retrain algorithm.

    Retrains from scratch (zero init, ignoring ``server_w``) on the entire
    local dataset unless the federated weights already sit within
    ``tolerance`` of the cached noisy weights and the cached noise was
    drawn at the same ``cal``, in which case the cached round is returned
    with ``trained`` False.  Noise drawn for another active set is never
    reused: it would mis-calibrate this round's aggregate.
    """
    server_w = np.asarray(server_w, dtype=np.float64)
    if cached is not None:
        cached_w = to_float(cached.weights)
        if cached_w.shape != server_w.shape:
            raise ValueError(
                f"shape mismatch: cached {cached_w.shape} vs server {server_w.shape}"
            )
        if cached.calibration == cal and np.max(np.abs(server_w - cached_w)) <= tolerance:
            return cached._replace(trained=False)
    trained = sgd_train(cumulative_data, np.zeros_like(server_w), cfg, rng)
    return _finish_round(trained, cal, noise_rng)
