"""Core sequence operators shared by every model.

The accumulated generating operation (AGO) and its inverse (IAGO) are the
running-sum / first-difference pair every grey model is built on.  All
functions here are pure and accept either a :class:`TimeSeries` or any
1-D array-like of finite reals; :func:`as_values` and :func:`as_pair` are
the one place such an input is validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneracyError, EmptySeriesError, InsufficientDataError


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real observations, validated by :func:`as_values`."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_values(self.values))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ResidualSeries:
    """Relative residuals; ``values[0]`` is the residual at time 2 (1-based)."""

    values: np.ndarray


def as_values(x, min_len: int = 1) -> np.ndarray:
    """Unwrap a TimeSeries or array-like into a validated 1-D float array."""
    if isinstance(x, TimeSeries):
        values = x.values
    else:
        values = np.atleast_1d(np.asarray(x, dtype=float))
    if values.size == 0:
        raise EmptySeriesError("series is empty")
    if values.ndim != 1:
        raise DataError("series must be one-dimensional")
    if not np.all(np.isfinite(values)):
        raise DataError("series values must all be finite")
    if values.size < min_len:
        raise InsufficientDataError(
            f"series has {values.size} values but at least {min_len} are required"
        )
    return values


def as_pair(a, b, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Two validated series of one length, such as actuals and a forecast.

    ``min_len`` applies to ``a``; ``b`` must then match its length.
    """
    x = as_values(a, min_len)
    y = as_values(b)
    if x.size != y.size:
        raise DataError(f"series lengths differ: {x.size} vs {y.size}")
    return x, y


def as_horizon(horizon) -> int:
    """Validate a forecast horizon: a positive integer."""
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise DataError(f"horizon must be a positive integer, got {horizon!r}")
    return int(horizon)


def ago(x) -> np.ndarray:
    """Accumulated generating operation: running sum of the series."""
    return np.cumsum(as_values(x))


def iago(x1) -> np.ndarray:
    """Inverse AGO: first value kept, then first differences.

    Exact inverse of :func:`ago` whenever the running sums were computed
    without rounding (e.g. integer-valued input).
    """
    values = as_values(x1)
    out = np.empty_like(values)
    out[0] = values[0]
    out[1:] = np.diff(values)
    return out


def relative_residuals(actual, fitted) -> ResidualSeries:
    """Residual ratios (actual[t] - fitted[t]) / actual[t-1] for t = 2..N."""
    y, f = as_pair(actual, fitted, min_len=2)
    denom = y[:-1]
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        raise DegeneracyError(
            f"actual value at t={zero[0] + 1} is zero; residual ratio undefined"
        )
    return ResidualSeries((y[1:] - f[1:]) / denom)
