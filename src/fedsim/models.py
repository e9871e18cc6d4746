"""Multinomial logistic regression trained by minibatch SGD, plus the
federated client-round procedures, convergence test and model evaluation.

Weight matrices are C x (F+1) float64 arrays whose last column is the
bias.  The training objective is L2-regularized multinomial cross-entropy;
all operations are pure given their random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dp import Calibration, perturb_weights
from .exact import GridMatrix, to_exact, to_float


@dataclass
class Dataset:
    """Feature matrix (N x F) and integer labels (N,).

    The arrays are not written after construction: ``augmented`` builds
    the features with their bias column once and holds them.
    """

    features: np.ndarray
    labels: np.ndarray
    _augmented: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def augmented(self) -> np.ndarray:
        """The features with a bias column of ones, N x (F+1), built at the
        first call and held, read-only, for the later ones.  ``features``
        then becomes a view of its leading columns, so the rows are held
        once (a second copy held for the run raised the serverless
        benchmark workload's peak resident memory by 0.7 MB)."""
        if self._augmented is None:
            augmented = _augment(self.features)
            augmented.setflags(write=False)
            self._augmented, self.features = augmented, augmented[:, :-1]
        return self._augmented


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


@dataclass(frozen=True)
class TrainJob:
    """One client's training for one round: its data, start weights and
    batch stream.  Construction checks the data against the weights."""

    data: Dataset
    init: np.ndarray
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if len(self.data) == 0:
            raise ValueError("cannot train on an empty dataset")
        object.__setattr__(self, "init", np.asarray(self.init, dtype=np.float64))
        _check_shapes(self.data, self.init)


def sgd_train_cohort(jobs: Sequence[TrainJob], cfg: TrainConfig) -> list[np.ndarray]:
    """Train jobs with one row count in lock step; return their weights in order.

    Each job runs exactly ``cfg.local_steps`` minibatch gradient steps from
    its ``init``, with minibatches cycling through a permutation drawn from
    its own ``rng`` and a fresh one after each full pass; no other draw is
    taken from it.  The cohort's weights are one (k, C, F+1) array, and
    every step runs the float operations of ``_gradient``, in its order,
    once over the whole stack.
    The source rows are built once per call: every job's features with the
    bias 1, and its labels one-hot, job-major in two (k*n, .) arrays.  A
    pass writes each job's permutation, offset by its first source row,
    into one (k, n) index array: ``permutation(n)`` shuffles ``arange(n)``,
    so shuffling the job's row of source indices with its ``rng`` draws
    the same.  A step gathers its batch's rows with one ``np.take`` per
    source into buffers allocated once for a full batch (a shorter last
    batch uses a prefix of them); every elementwise step then runs in
    place.  The operands keep the
    layouts of solo training: each job's batch is a C-contiguous (b, F+1)
    block, the scores are row-major (k, b, C) and the gradient is the
    TransA product ``probs.transpose(0, 2, 1) @ xb``.  A stacked matmul
    runs one 2-D gemm per job and reductions over the class axis sum in
    2-D order, so every result equals that job trained on its own bit for
    bit.  No ``init`` is modified, and the results share no memory.
    """
    if not jobs:
        return []
    k, n = len(jobs), len(jobs[0].data)
    shape = jobs[0].init.shape
    for job in jobs:
        if len(job.data) != n:
            raise ValueError(f"cohort mixes row counts {n} and {len(job.data)}")
        if job.init.shape != shape:
            raise ValueError(f"cohort mixes weight shapes {shape} and {job.init.shape}")
    classes, width = shape
    # job i's row r is source row i*n + r
    xs = np.ones((k * n, width))
    ys = np.zeros((k * n, classes))
    for i, job in enumerate(jobs):
        xs[i * n : (i + 1) * n, :-1] = job.data.features
        ys[np.arange(i * n, (i + 1) * n), job.data.labels] = 1.0
    unshuffled = np.arange(k * n, dtype=np.intp).reshape(k, n)
    order = np.empty_like(unshuffled)

    def shapes(b: int) -> list[tuple[int, ...]]:
        # at b rows per job: indices, gathered rows, one-hot labels, scores,
        # class-major scores, row maxima, row sums
        return [(k, b), (k, b, width), (k, b, classes), (k, b, classes),
                (k, classes, b), (k, b), (k, b, 1)]

    bounds = [(s, min(s + cfg.batch_size, n)) for s in range(0, n, cfg.batch_size)]
    # allocated once for a full batch; a shorter last batch takes a prefix
    indices, *floats = shapes(bounds[0][1])
    pools = [np.empty(math.prod(indices), dtype=np.intp)]
    pools += [np.empty(math.prod(dims)) for dims in floats]

    def buffers(b: int) -> tuple:
        picked, xb, yb, probs, by_class, top, total = (
            pool[: math.prod(dims)].reshape(dims) for pool, dims in zip(pools, shapes(b))
        )
        return (b, picked, xb, yb, probs, probs.transpose(0, 2, 1), by_class,
                top, top[:, :, None], total)

    sized = {b: buffers(b) for b in {end - start for start, end in bounds}}
    batches = [(order[:, start:end], *sized[end - start]) for start, end in bounds]
    w = np.stack([job.init for job in jobs])
    w_t = w.transpose(0, 2, 1)
    grad, l2 = np.empty_like(w), np.empty_like(w)
    alpha, rate = cfg.l2_alpha, cfg.learning_rate
    for step in range(cfg.local_steps):
        position = step % len(batches)
        if position == 0:
            np.copyto(order, unshuffled)
            for job, row in zip(jobs, order):
                job.rng.shuffle(row)
        span, b, picked, xb, yb, probs, probs_t, by_class, top, top_col, total = batches[position]
        # np.take would copy strided indices once per source; copy them once
        np.copyto(picked, span)
        # the indices are in range by construction; any mode but "raise"
        # gathers straight into ``out``
        np.take(xs, picked, axis=0, out=xb, mode="wrap")
        np.take(ys, picked, axis=0, out=yb, mode="wrap")
        np.matmul(xb, w_t, out=probs)
        # a max is exact in any order; over a class-major copy it is one
        # vectorised pass per class instead of one short loop per row
        np.copyto(by_class, probs_t)
        np.maximum.reduce(by_class, axis=1, out=top)
        probs -= top_col
        np.exp(probs, out=probs)
        np.add.reduce(probs, axis=2, keepdims=True, out=total)
        probs /= total
        probs -= yb
        np.matmul(probs_t, xb, out=grad)
        grad /= b
        np.multiply(w, alpha, out=l2)
        grad += l2
        grad *= rate
        w -= grad
    return [own.copy() for own in w]


def sgd_train(
    data: Dataset,
    init: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run exactly ``cfg.local_steps`` minibatch gradient steps from ``init``.

    Minibatches cycle through a seeded permutation of the data, reshuffling
    after each full pass.  ``init`` is not modified.  This is the one-job
    call of ``sgd_train_cohort``.
    """
    return sgd_train_cohort([TrainJob(data, init, rng)], cfg)[0]


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
    federated: np.ndarray | GridMatrix, noise: np.ndarray | GridMatrix, active_count: int
) -> GridMatrix:
    """Remove an agent's own noise share from an averaged model.

    Returns ``federated - noise / active_count`` as a grid matrix, for a
    mean of n bodies (sum - Z) / n in integers, so a single client
    recovers its clean weights bit for bit.  ``noise`` is the grid matrix
    Z (``ClientRound.noise``), or a float array on the grid, lifted.
    """
    if active_count < 1:
        raise ValueError(f"active_count must be >= 1, got {active_count}")
    if not isinstance(noise, GridMatrix):
        noise = to_exact(noise)
    return to_exact(federated) - noise / active_count


def evaluate(w: np.ndarray | GridMatrix, test: Dataset) -> float | list[float]:
    """Fraction of test rows whose argmax class score matches the label.

    ``w`` is one weight matrix, whose accuracy is returned, or a stack of k
    of them, a (k, C, F+1) array, whose k accuracies are returned as a
    list in stack order.  A stack is scored by one ``np.matmul`` against
    the test set's ``augmented`` features, which runs for each model the
    gemm that model alone would run, so every accuracy equals that of its
    model evaluated alone bit for bit.  Ties break toward the lowest class
    index.
    """
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    w = to_float(w)
    if w.ndim not in (2, 3) or 0 in w.shape[:-2]:
        raise ValueError(f"weights must be a matrix or a nonempty stack, got shape {w.shape}")
    stack = w if w.ndim == 3 else w[None]
    _check_shapes(test, stack[0])
    scores = np.matmul(test.augmented(), stack.transpose(0, 2, 1))
    hits = np.count_nonzero(np.argmax(scores, axis=2) == test.labels, axis=1)
    accuracy = (hits / len(test)).tolist()
    return accuracy if w.ndim == 3 else accuracy[0]


class ClientRound(NamedTuple):
    """What one client round produces.

    ``weights`` is the body sent, a grid matrix of count 1, and ``clean``
    and ``record`` the exact values of its two parts: the trained weights
    snapped to the grid, and the noise on the grid (zero when none was
    added).  ``calibration`` is what the noise was drawn at (None when none
    was added); the retrain cache is reused only under the same calibration.
    ``trained`` is False only when the retrain cache was reused.  ``noise``
    is the record as the grid matrix the body gained, which noise
    subtraction takes without a lift.
    """

    weights: GridMatrix
    record: np.ndarray
    trained: bool
    clean: np.ndarray
    calibration: Calibration | None
    noise: GridMatrix | None = None


def finish_round(
    trained: np.ndarray, cal: Calibration | None, noise_rng: np.random.Generator
) -> ClientRound:
    """The round that sends ``trained`` snapped to the grid: plain without
    ``cal``, else with noise drawn at ``cal`` from ``noise_rng`` and recorded."""
    body = to_exact(trained)
    clean = to_float(body)
    if cal is None:
        zero = GridMatrix(np.zeros_like(body.total))
        return ClientRound(body, np.zeros_like(clean), True, clean, None, zero)
    perturbed, record = perturb_weights(body, cal, noise_rng)
    # the body gained the noise's grid integers: they are its difference
    return ClientRound(perturbed, record, True, clean, cal, perturbed - body)


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
    reused = reuse_cached_round(server_w, cached, tolerance, cal)
    if reused is not None:
        return reused
    trained = sgd_train(cumulative_data, np.zeros(np.shape(server_w)), cfg, rng)
    return finish_round(trained, cal, noise_rng)


def reuse_cached_round(
    server_w: np.ndarray,
    cached: ClientRound | None,
    tolerance: float,
    cal: Calibration | None,
) -> ClientRound | None:
    """The cached retrain round, marked untrained, when the federated
    weights sit within ``tolerance`` of its noisy weights and its noise was
    drawn at ``cal``; otherwise None and the client retrains.

    The noisy weights are compared as ``clean + record``, one IEEE
    addition: like ``to_float`` of the body it is the correctly rounded
    sum, and on the grid it cannot overflow.
    """
    if cached is None:
        return None
    server_w = np.asarray(server_w, dtype=np.float64)
    cached_w = cached.clean + cached.record
    if cached_w.shape != server_w.shape:
        raise ValueError(
            f"shape mismatch: cached {cached_w.shape} vs server {server_w.shape}"
        )
    if cached.calibration == cal and np.max(np.abs(server_w - cached_w)) <= tolerance:
        return cached._replace(trained=False)
    return None
