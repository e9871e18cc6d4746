"""Lossless arithmetic for the masking and noise pipeline.

Pairwise security offsets and recorded DP noise must cancel out of
aggregates without leaving floating-point residue: the simulator promises
that summing masked models recovers the sum of the raw models bit for bit,
and that subtracting a recorded noise matrix recovers the clean weights
bit for bit.  Plain float64 addition cannot keep those promises (adding a
large offset rounds away the low bits of the weights), so every value that
enters the masking/noise pipeline is lifted to an :class:`ExactMatrix`,
all additions and averages happen there, and the result is rounded back to
float64 exactly once on the way out.

An :class:`ExactMatrix` holds Python-int numerators over one shared
positive integer denominator.  Every finite float64 is an integer mantissa
times a power of two, so a lifted matrix is exact over a power-of-two
denominator; sums align denominators by their lcm and averages multiply
the denominator, so nothing is ever rounded.  Rounding back divides each
numerator by the denominator with Python's correctly rounded int true
division, which is also how ``fractions.Fraction`` converts to float, so
the result is the correctly rounded float64 of the exact value.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Sequence

import numpy as np

# Bits in a float64 significand: np.frexp mantissas times 2**53 are integers.
_MANTISSA_BITS = 53


class ExactMatrix:
    """An exact rational matrix: elementwise ``num / den``.

    ``num`` is an object array of Python ints and ``den`` a positive int
    shared by every element.  Instances are immutable values; arithmetic
    returns new matrices.  Supported: ``+``/``-`` with another exact matrix,
    a float array or a number on the right (``0 + x`` also works, so
    ``sum()`` does), ``*`` by an integer, ``/`` by a positive integer,
    elementwise ``==`` (a bool array), indexing, and ``float()`` of a
    single element.  ``+``, ``-`` and ``==`` broadcast only a 0-d operand;
    operands of two different non-scalar shapes raise ``ValueError``.
    There is deliberately no ``__array__``: ``np.asarray`` never turns an
    exact value into floats behind the caller's back; use :func:`to_float`.
    """

    __slots__ = ("num", "den")
    # ndarray operators return NotImplemented, so ``arr + x`` and ``arr == x``
    # reach our methods instead of looping over ``x`` as an object.
    __array_ufunc__ = None

    def __init__(self, num: np.ndarray, den: int = 1):
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        # numpy hands back a bare int from 0-d object arithmetic; rewrap it
        self.num = np.asarray(num, dtype=object)
        self.den = den

    @property
    def shape(self) -> tuple[int, ...]:
        return self.num.shape

    def __repr__(self) -> str:
        return f"ExactMatrix({self.num!r}, den={self.den})"

    def __getitem__(self, index) -> ExactMatrix:
        return ExactMatrix(self.num[index], self.den)

    def __float__(self) -> float:
        if self.num.size != 1:
            raise TypeError("only single-element exact matrices convert to float")
        return self.num.item() / self.den

    def _aligned(self, other) -> tuple[np.ndarray, np.ndarray, int]:
        if not isinstance(other, ExactMatrix):
            other = _lift(other)
        if self.num.ndim and other.num.ndim and self.shape != other.shape:
            raise ValueError(
                f"exact matrix shape mismatch: {self.shape} != {other.shape}"
            )
        if self.den == other.den:
            return self.num, other.num, self.den
        den = math.lcm(self.den, other.den)
        return (
            _scaled(self.num, den // self.den),
            _scaled(other.num, den // other.den),
            den,
        )

    def __add__(self, other) -> ExactMatrix:
        a, b, den = self._aligned(other)
        return ExactMatrix(a + b, den)

    __radd__ = __add__

    def __sub__(self, other) -> ExactMatrix:
        a, b, den = self._aligned(other)
        return ExactMatrix(a - b, den)

    def __mul__(self, k) -> ExactMatrix:
        if not isinstance(k, Integral):
            return NotImplemented
        return ExactMatrix(_scaled(self.num, int(k)), self.den)

    def __truediv__(self, n) -> ExactMatrix:
        if not isinstance(n, Integral):
            return NotImplemented
        if n <= 0:
            raise ValueError(f"exact matrices divide only by positive integers, got {n}")
        return ExactMatrix(self.num, self.den * int(n))

    def __eq__(self, other) -> np.ndarray:
        a, b, _ = self._aligned(other)
        return np.asarray(a == b, dtype=bool)


def _scaled(num: np.ndarray, factor: int) -> np.ndarray:
    return num if factor == 1 else num * factor


def to_exact(values) -> ExactMatrix:
    """Lift a float64 array (or number) to an :class:`ExactMatrix`.

    Exact matrices pass through unchanged, so the function is idempotent.
    Raises ``ValueError`` on NaN or infinity, which have no exact value.
    """
    return values if isinstance(values, ExactMatrix) else _lift(values)


def _lift(values) -> ExactMatrix:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot lift a non-finite value to an exact matrix")
    mantissa, exponent = np.frexp(arr)
    ints = np.ldexp(mantissa, _MANTISSA_BITS).astype(np.int64)
    exponent = exponent.astype(np.int64) - _MANTISSA_BITS
    nonzero = ints != 0
    # The shared denominator is 2**-base; only nonzero elements bound it.
    base = min(int(exponent[nonzero].min()), 0) if nonzero.any() else 0
    shifts = np.where(nonzero, exponent - base, 0)
    return ExactMatrix(ints.astype(object) << shifts.astype(object), 1 << -base)


def to_float(values) -> np.ndarray:
    """Round an exact matrix back to float64 (correctly rounded per element).

    Plain arrays are copied to float64 unchanged in value.
    """
    if not isinstance(values, ExactMatrix):
        return np.array(values, dtype=np.float64)
    return np.array(values.num / values.den, dtype=np.float64)


def exact_mean(
    mats: Sequence[np.ndarray | ExactMatrix], weights: Sequence[int] | None = None
) -> ExactMatrix:
    """Elementwise (optionally weighted) exact mean of float or exact matrices.

    Order-independent by construction, which is what lets centralized and
    serverless aggregation produce identical results.  ``weights`` must be
    positive integers, one per matrix.
    """
    if len(mats) == 0:
        raise ValueError("cannot average an empty list of matrices")
    if weights is not None:
        if len(weights) != len(mats):
            raise ValueError(
                f"got {len(weights)} weights for {len(mats)} matrices"
            )
        if any(w <= 0 for w in weights):
            raise ValueError("averaging weights must be positive")
    lifted = [to_exact(m) for m in mats]
    shape = lifted[0].shape
    for m in lifted[1:]:
        if m.shape != shape:
            raise ValueError(f"matrix shape mismatch: {m.shape} != {shape}")
    counts = [1] * len(lifted) if weights is None else [int(w) for w in weights]
    den = math.lcm(*(m.den for m in lifted))
    total = sum(_scaled(m.num, c * (den // m.den)) for m, c in zip(lifted, counts))
    return ExactMatrix(total, den * sum(counts))
