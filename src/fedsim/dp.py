"""Differential-privacy noise samplers and sensitivity calculators.

Noise is i.i.d. per weight element.  Each agent owns a private seeded
stream (``numpy.random.Generator``), so every sampler is deterministic for
a fixed seed and independent of the order in which agents run.  Epsilon
is applied independently per perturbation; no composition accounting is
performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .exact import ExactMatrix, to_exact

Mechanism = Literal["laplace", "gaussian", "distributed_laplace"]
Placement = Literal["local", "global_server", "distributed"]

MECHANISMS = ("laplace", "gaussian", "distributed_laplace")
PLACEMENTS = ("local", "global_server", "distributed")

# Smallest positive subnormal float64; clamps inverse-CDF arguments away
# from log(0) so a pathological uniform draw cannot produce an infinity.
_TINY = 5e-324


@dataclass(frozen=True)
class DpSpec:
    """Mechanism choice plus privacy parameters and noise placement."""

    mechanism: Mechanism
    epsilon: float
    delta: float = 0.0
    placement: Placement = "local"

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if self.mechanism == "gaussian" and self.delta <= 0:
            raise ValueError("gaussian mechanism requires delta > 0")
        if self.mechanism == "distributed_laplace" and self.placement != "distributed":
            raise ValueError("distributed_laplace requires placement 'distributed'")


@dataclass(frozen=True)
class SensitivityParams:
    """Inputs to the regularized logistic-regression sensitivity bound.

    ``n`` is the number of participating clients, ``k`` the size of the
    smallest client dataset, ``alpha`` the L2 regularization strength.
    """

    n: int
    k: int
    alpha: float

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def logreg_sensitivity(params: SensitivityParams) -> float:
    """Global sensitivity 2 / (n * k * alpha) of the trained weights."""
    return 2.0 / (params.n * params.k * params.alpha)


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
    spec: DpSpec,
    sens: SensitivityParams,
    rng: np.random.Generator,
) -> tuple[ExactMatrix, np.ndarray]:
    """Add mechanism noise to a weight matrix, returning the noise added.

    ``w`` may be a float array or an exact matrix.  The perturbed matrix
    is exact, so ``perturbed - noise`` recovers ``w`` bit for bit.
    ``w`` itself is not modified.
    """
    w = to_exact(w)
    delta_f = logreg_sensitivity(sens)
    if spec.mechanism == "laplace":
        lam = delta_f / spec.epsilon
        noise = laplace_sample(lam, rng, size=w.shape)
    elif spec.mechanism == "distributed_laplace":
        lam = delta_f / spec.epsilon
        noise = gamma_difference_share(sens.n, lam, rng, size=w.shape)
    else:
        noise = gaussian_sample(delta_f, spec.epsilon, spec.delta, rng, size=w.shape)
    noise = np.asarray(noise, dtype=np.float64)
    perturbed = w + to_exact(noise)
    return perturbed, noise
