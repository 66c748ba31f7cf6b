"""Seeded synthetic series: trend + autoregressive noise + regime shifts.

Ships with the CLI so end-to-end runs and the acceptance suite need no
external data files.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .docspec import MAX_COUNT

BASE = 100.0
TREND = 0.05
NOISE = 0.6
AR = 0.75
SHIFTS = 2
SHIFT_SCALE = 4.0


def synthetic_series(n: int, seed: int = 0) -> np.ndarray:
    """Positive exchange-rate-like series with persistent noise.

    Level = BASE + TREND*t plus step changes at SHIFTS seeded change
    points; the noise is AR(1) with coefficient AR driven by Gaussian
    innovations of scale NOISE.  Its values stay far above zero.
    """
    if not 2 <= n <= MAX_COUNT:
        raise ConfigError(f"synthetic series length --n must be from 2 to {MAX_COUNT}, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    level = BASE + TREND * np.arange(n, dtype=float)
    lo = max(1, n // 6)
    points = rng.choice(np.arange(lo, n), size=min(SHIFTS, n - lo), replace=False)
    for point in np.sort(points):
        level[point:] += rng.uniform(-SHIFT_SCALE, SHIFT_SCALE)
    eps = np.empty(n)
    value = 0.0
    for t in range(n):
        value = AR * value + NOISE * rng.standard_normal()
        eps[t] = value
    return level + eps
