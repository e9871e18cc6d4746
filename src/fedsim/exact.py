"""Exact fixed-point arithmetic for the masking and noise pipeline.

Pairwise masks and recorded DP noise must cancel out of aggregates bit for
bit, so every body a client sends lies on the grid 2^-GRID_BITS, as in
Bonawitz et al., *Practical Secure Aggregation* (CCS 2017): it holds int64
grid integers q for the values q * 2^-GRID_BITS, and every sum, mean and
noise subtraction is integer arithmetic.  ``to_exact`` is the one lift from
float64: an exact scaling by 2^GRID_BITS, rounded to nearest, ties to even.
A value on the grid lifts exactly.

A :class:`GridMatrix` is elementwise ``total / count * 2^-GRID_BITS``; a
body has count 1 and the mean of n bodies is their sum over n.  Sums wrap
modulo 2^64, which cancels the masks (see ``masking``), and equal the true
sum while it fits in int64.  ``grid_bound`` keeps it so: each of n bodies
stays below 2^(62 - ceil(log2 n)), so their sum plus the server's n * Z
stays below 2^63.  A weighted mean is formed over Python ints, and
``to_float`` rounds a result back to float64 once.
"""

from __future__ import annotations

from numbers import Integral
from typing import Sequence

import numpy as np

#: Bits below the binary point of the grid: values are multiples of 2^-GRID_BITS.
GRID_BITS = 32

_SCALE = 2.0**GRID_BITS
# Magnitudes below this are exact float64 integers.
_FLOAT_EXACT = 2**53


def grid_bound(n: int) -> int:
    """2^(62 - ceil(log2 n)): every grid integer a party forms in a round
    of ``n`` clients must lie strictly inside plus or minus this bound."""
    return 1 << (62 - (n - 1).bit_length())


def check_bound(q: np.ndarray, n: int, factor: int = 1) -> None:
    """Raise ValueError unless every ``factor * q`` is inside ``grid_bound(n)``."""
    worst = max(int(q.max()), -int(q.min())) * factor
    limit = grid_bound(n)
    if worst >= limit:
        raise ValueError(
            f"grid integer of magnitude {worst} is not below 2^{limit.bit_length() - 1}, "
            f"the bound for {n} clients"
        )


class GridMatrix:
    """An exact matrix on the grid: elementwise ``total / count * 2^-GRID_BITS``.

    ``total`` is an int64 array (an object array of Python ints for a
    weighted mean) and ``count`` a positive int.  Supported: ``+``, ``-``
    and elementwise ``==`` with a grid matrix of the same shape and either
    the same count or count 1, ``0 + x`` (so ``sum()`` works), and ``/`` by
    a positive integer.  There is deliberately no ``__array__``; use
    :func:`to_float`.
    """

    __slots__ = ("total", "count")
    # ndarray operators return NotImplemented, so ``arr == x`` reaches ours
    __array_ufunc__ = None

    def __init__(self, total: np.ndarray, count: int = 1):
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self.total = total
        self.count = count

    @property
    def shape(self) -> tuple[int, ...]:
        return self.total.shape

    def __repr__(self) -> str:
        return f"GridMatrix({self.total!r}, count={self.count})"

    def _apply(self, op, other: GridMatrix) -> tuple[np.ndarray, int]:
        """``op`` over the two totals on one count, the count-1 operand
        scaled up; inside ``grid_bound`` the scaling cannot wrap."""
        if self.shape != other.shape:
            raise ValueError(f"grid matrix shape mismatch: {self.shape} != {other.shape}")
        count = max(self.count, other.count)
        if min(self.count, other.count) not in (1, count):
            raise ValueError(f"grid matrices over counts {self.count}, {other.count} do not align")
        a = self.total if self.count == count else self.total * count
        b = other.total if other.count == count else other.total * count
        return op(a, b), count

    def __add__(self, other) -> GridMatrix:
        if not isinstance(other, GridMatrix):
            return NotImplemented
        return GridMatrix(*self._apply(np.add, other))

    def __radd__(self, other) -> GridMatrix:
        return self if isinstance(other, Integral) and other == 0 else NotImplemented

    def __sub__(self, other) -> GridMatrix:
        if not isinstance(other, GridMatrix):
            return NotImplemented
        return GridMatrix(*self._apply(np.subtract, other))

    def __eq__(self, other) -> np.ndarray:
        if not isinstance(other, GridMatrix):
            return NotImplemented
        return np.asarray(self._apply(np.equal, other)[0], dtype=bool)

    def __truediv__(self, n) -> GridMatrix:
        if not isinstance(n, Integral):
            return NotImplemented
        if n <= 0:
            raise ValueError(f"grid matrices divide only by positive integers, got {n}")
        return GridMatrix(self.total, self.count * int(n))


def snap(values) -> np.ndarray:
    """The int64 grid integers nearest ``values``: ``values * 2^GRID_BITS``
    rounded to the nearest integer, ties to even.

    Raises ValueError on NaN or infinity, which have no grid value, and on
    a value whose grid integer does not fit in int64.
    """
    arr = np.asarray(values, dtype=np.float64)
    # NaN fails the comparison too; below 2^31 the scaled value is below 2^63
    if not np.all(np.abs(arr) < 2.0 ** (63 - GRID_BITS)):
        if not np.all(np.isfinite(arr)):
            raise ValueError("cannot lift a non-finite value to the grid")
        raise ValueError(f"value outside the int64 grid, |v| >= 2^{63 - GRID_BITS}")
    return np.rint(arr * _SCALE).astype(np.int64)


def to_exact(values) -> GridMatrix:
    """Lift a float64 array (or number) to a grid matrix of count 1, as
    ``snap`` rounds it.  Grid matrices pass through unchanged."""
    return values if isinstance(values, GridMatrix) else GridMatrix(snap(values))


def to_float(values) -> np.ndarray:
    """Round a grid matrix back to float64, each element the float64
    nearest its exact value, as ``fractions.Fraction`` rounds it.

    While |total| < 2^53 the total is an exact float64, so
    ``float64(total) / count * 2^-GRID_BITS`` is one correctly rounded
    division and an exact scaling; larger totals use Python's correctly
    rounded int true division.  Plain arrays are copied to float64.
    """
    if not isinstance(values, GridMatrix):
        return np.array(values, dtype=np.float64)
    total, count = values.total, values.count
    if total.dtype == np.int64 and -_FLOAT_EXACT < total.min() and total.max() < _FLOAT_EXACT:
        return total.astype(np.float64) / count / _SCALE
    return np.array(total.astype(object) / (count << GRID_BITS), dtype=np.float64)


def exact_mean(
    mats: Sequence[np.ndarray | GridMatrix], weights: Sequence[int] | None = None
) -> GridMatrix:
    """Elementwise (optionally weighted) exact mean of float or grid matrices.

    Float matrices are lifted with ``to_exact``, and all matrices must share
    one count.  Order-independent by construction, which is what lets
    centralized and serverless aggregation produce identical results.
    Unweighted, the totals are summed modulo 2^64, which cancels masks.
    ``weights`` must be positive integers, one per matrix; a weighted sum
    is formed over Python ints.
    """
    if len(mats) == 0:
        raise ValueError("cannot average an empty list of matrices")
    if weights is not None:
        if len(weights) != len(mats):
            raise ValueError(f"got {len(weights)} weights for {len(mats)} matrices")
        if any(w <= 0 for w in weights):
            raise ValueError("averaging weights must be positive")
    lifted = [to_exact(m) for m in mats]
    shape, count = lifted[0].shape, lifted[0].count
    for m in lifted[1:]:
        if (m.shape, m.count) != (shape, count):
            raise ValueError(f"shape or count mismatch: {m.shape}/{m.count} != {shape}/{count}")
    if weights is None:
        words = np.stack([m.total for m in lifted]).view(np.uint64)
        total = np.asarray(words.sum(axis=0, dtype=np.uint64)).view(np.int64)
        return GridMatrix(total, count * len(lifted))
    counts = [int(w) for w in weights]
    total = sum(c * m.total.astype(object) for m, c in zip(lifted, counts))
    return GridMatrix(total, count * sum(counts))
