"""Seeded synthetic series: trend + autoregressive noise + regime shifts.

Ships with the CLI so end-to-end runs and the acceptance suite need no
external data files.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def synthetic_series(
    n: int,
    seed: int = 0,
    base: float = 100.0,
    trend: float = 0.05,
    noise: float = 0.6,
    ar: float = 0.75,
    shifts: int = 2,
    shift_scale: float = 4.0,
) -> np.ndarray:
    """Positive exchange-rate-like series with persistent noise.

    Level = base + trend*t plus step changes at ``shifts`` seeded change
    points; the noise is AR(1) with coefficient ``ar`` driven by Gaussian
    innovations of scale ``noise``.
    """
    if n < 2:
        raise ConfigError(f"synthetic series length must be at least 2, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    if not np.all(np.isfinite([base, trend, noise, shift_scale])):
        raise ConfigError("base, trend, noise and shift scale must be finite")
    if not (0.0 <= ar < 1.0):
        raise ConfigError(f"ar coefficient must lie in [0, 1), got {ar}")
    rng = np.random.default_rng(seed)
    level = base + trend * np.arange(n, dtype=float)
    if shifts > 0:
        lo = max(1, n // 6)
        points = rng.choice(np.arange(lo, n), size=min(shifts, n - lo), replace=False)
        for point in np.sort(points):
            level[point:] += rng.uniform(-shift_scale, shift_scale)
    eps = np.empty(n)
    value = 0.0
    for t in range(n):
        value = ar * value + noise * rng.standard_normal()
        eps[t] = value
    series = level + eps
    if np.any(series <= 0):
        # Extreme parameter choices could cross zero; shift clear of it so
        # grey models stay applicable.
        series = series - series.min() + 1.0
    return series
