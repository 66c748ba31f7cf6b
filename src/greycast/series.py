"""Core sequence operators shared by every model.

The accumulated generating operation (AGO) and its inverse (IAGO) are the
running-sum / first-difference pair every grey model is built on.  All
functions here are pure and accept either a :class:`TimeSeries` or any
1-D array-like of finite reals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneracyError, EmptySeriesError, InsufficientDataError

DEFAULT_WINDOW = 4


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real observations with optional ISO-8601 date labels."""

    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if values.ndim != 1 or values.size == 0:
            raise EmptySeriesError("a time series must hold at least one value")
        if not np.all(np.isfinite(values)):
            raise DataError("time series values must all be finite")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = tuple(str(v) for v in self.labels)
            if len(labels) != values.size:
                raise DataError(
                    f"got {len(labels)} labels for {values.size} values"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ResidualSeries:
    """Relative residuals with an explicit 1-based starting time.

    ``values[0]`` is the residual at time ``start_t``; storing the offset
    keeps downstream state indexing unambiguous.
    """

    values: np.ndarray
    start_t: int = 2


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
    y = as_values(actual, min_len=2)
    f = as_values(fitted)
    if y.size != f.size:
        raise DataError(f"series lengths differ: {y.size} vs {f.size}")
    denom = y[:-1]
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        raise DegeneracyError(
            f"actual value at t={zero[0] + 1} is zero; residual ratio undefined"
        )
    return ResidualSeries((y[1:] - f[1:]) / denom, start_t=2)


def make_windows(x, window: int = DEFAULT_WINDOW) -> list[tuple[np.ndarray, float]]:
    """Sliding (input window, next value) samples for one-step-ahead training."""
    if window < 1:
        raise DataError("window must be a positive integer")
    values = as_values(x)
    if values.size < window + 1:
        raise InsufficientDataError(
            f"need at least {window + 1} values for window {window}, got {values.size}"
        )
    return [
        (values[i : i + window].copy(), float(values[i + window]))
        for i in range(values.size - window)
    ]
