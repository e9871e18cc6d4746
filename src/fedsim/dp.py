"""Differential-privacy calibration and noise.

``calibrate`` is the one place the privacy policy lives: it decides
whether an agent adds noise this round and returns the ``Calibration``
(mechanism, epsilon, delta and the sensitivity's n, k, alpha) that
``perturb_weights`` then draws from.

Noise is i.i.d. per weight element.  Each agent owns a private seeded
stream (``numpy.random.Generator``), so every sampler is deterministic for
a fixed seed and independent of the order in which agents run.  Epsilon
is applied independently per perturbation; no composition accounting is
performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .exact import ExactMatrix, to_exact

Mechanism = Literal["laplace", "gaussian", "distributed_laplace"]

MECHANISMS = ("laplace", "gaussian", "distributed_laplace")
PLACEMENTS = ("local", "global_server", "distributed")

# Smallest positive subnormal float64; clamps inverse-CDF arguments away
# from log(0) so a pathological uniform draw cannot produce an infinity.
_TINY = 5e-324


@dataclass(frozen=True)
class Calibration:
    """The parameters one noise draw is calibrated for.

    ``n`` is the number of active clients, ``k`` the smallest active
    dataset size this iteration and ``alpha`` the L2 regularization
    strength; together they bound the sensitivity of the trained weights.
    """

    mechanism: Mechanism
    epsilon: float
    delta: float
    n: int
    k: int
    alpha: float

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.mechanism == "gaussian" and self.delta <= 0:
            raise ValueError("gaussian mechanism requires delta > 0")
        for name in ("n", "k", "alpha"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def sensitivity(self) -> float:
        """Global sensitivity 2 / (n * k * alpha) of the trained weights
        (Chaudhuri, Monteleoni & Sarwate 2011)."""
        return 2.0 / (self.n * self.k * self.alpha)


def calibrate(
    config,
    sizes: Mapping[str, list[int]],
    active: list[str],
    iteration: int,
    owner: str | None = None,
) -> Calibration | None:
    """The calibration of the noise ``owner`` adds this iteration, or None.

    ``owner`` names a client, or is None for the server.  Clients add
    noise unless it is server-placed; the server adds it only then, at
    the smallest epsilon and delta among the active clients that declare
    an epsilon.  A client that declares none adds no noise.  ``n`` is the
    number of ``active`` clients and ``k`` their smallest dataset size at
    ``iteration`` in ``sizes``.
    """
    if not config.use_dp_privacy:
        return None
    if (owner is None) != (config.dp_placement == "global_server"):
        return None
    names = config.client_names()
    indices = [names.index(c) for c in ([owner] if owner is not None else active)]
    declaring = [i for i in indices if config.epsilons[i] is not None]
    if not declaring:
        return None
    deltas = config.deltas or [0.0] * len(names)
    k = min(sizes[c][iteration - 1] for c in active)
    return Calibration(
        config.mechanism,
        float(min(config.epsilons[i] for i in declaring)),
        float(min(deltas[i] for i in declaring)),
        len(active), k, config.train.l2_alpha,
    )


def laplace_sample(
    scale: float, rng: np.random.Generator, size: tuple[int, ...] | int | None = None
) -> float | np.ndarray:
    """Zero-mean Laplace draw(s) with the given scale, via inverse CDF."""
    if not scale > 0:
        raise ValueError(f"laplace scale must be positive, got {scale}")
    u = rng.random(size=size) - 0.5
    draw = -scale * np.sign(u) * np.log(np.maximum(1.0 - 2.0 * np.abs(u), _TINY))
    return float(draw) if size is None else draw


def gaussian_sample(
    sensitivity: float,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    size: tuple[int, ...] | int | None = None,
) -> float | np.ndarray:
    """Zero-mean normal draw(s) calibrated by the classical Gaussian bound.

    sigma = sensitivity * sqrt(2 * ln(1.25 / delta)) / epsilon, the bound of
    Dwork & Roth 2014, Theorem A.1, which is proven only for epsilon < 1.
    Larger epsilons are accepted, but the (epsilon, delta) guarantee is then
    unproven for this sigma.
    """
    if not sensitivity > 0:
        raise ValueError(f"sensitivity must be positive, got {sensitivity}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    sigma = sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    draw = sigma * rng.standard_normal(size=size)
    return float(draw) if size is None else draw


def gamma_difference_share(
    n: int,
    scale: float,
    rng: np.random.Generator,
    size: tuple[int, ...] | int | None = None,
) -> float | np.ndarray:
    """One client's share gamma - gamma' of a distributed Laplace draw.

    Both draws are Gamma(shape=1/n, scale=scale); summing n independent
    shares yields exactly Laplace(0, scale).  With n=1 the share itself is
    Laplace-distributed (the Gamma collapses to an Exponential).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not scale > 0:
        raise ValueError(f"gamma scale must be positive, got {scale}")
    g = rng.gamma(1.0 / n, scale, size=size)
    g_prime = rng.gamma(1.0 / n, scale, size=size)
    draw = g - g_prime
    return float(draw) if size is None else draw


def perturb_weights(
    w: np.ndarray | ExactMatrix,
    cal: Calibration,
    rng: np.random.Generator,
) -> tuple[ExactMatrix, np.ndarray]:
    """Add noise drawn at ``cal`` to a weight matrix, returning the noise added.

    ``w`` may be a float array or an exact matrix.  The perturbed matrix
    is exact, so ``perturbed - noise`` recovers ``w`` bit for bit.
    ``w`` itself is not modified.
    """
    w = to_exact(w)
    delta_f = cal.sensitivity
    if cal.mechanism == "laplace":
        noise = laplace_sample(delta_f / cal.epsilon, rng, size=w.shape)
    elif cal.mechanism == "distributed_laplace":
        noise = gamma_difference_share(cal.n, delta_f / cal.epsilon, rng, size=w.shape)
    else:
        noise = gaussian_sample(delta_f, cal.epsilon, cal.delta, rng, size=w.shape)
    noise = np.asarray(noise, dtype=np.float64)
    perturbed = w + to_exact(noise)
    return perturbed, noise
