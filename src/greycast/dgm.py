"""Non-homogeneous discrete grey model (DGM).

A four-parameter affine recursion on the accumulated series,

    x1[k+1] = b1*x1[k] + b2*x0[k] + b3*k + b4,      x1[1] = xi,

fitted by least squares on the observed values, with the initial
condition ``xi`` chosen to minimise the sum of squared original-scale
residuals.  During simulation the recursion is self-contained: the
``b2`` term feeds back the simulated first difference, so a model can
run arbitrarily far past its fitting window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError, RecursionOverflowError
from .series import as_horizon, as_values

_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class DgmModel:
    """Fitted DGM parameters: the 4-vector beta and the optimal start xi."""

    beta: np.ndarray
    xi: float
    n_fit: int


@dataclass(frozen=True)
class OptimalInitial:
    """Optimal initial condition with the curvature of the residual objective.

    ``curvature`` is d2Q/dxi2 (constant because Q is quadratic in xi);
    ``degenerate`` marks the theoretical corner case where xi has no
    influence on any simulated value.
    """

    xi: float
    curvature: float
    degenerate: bool = False


def optimize_initial(beta, x) -> OptimalInitial:
    """Closed-form minimiser of Q(xi) = sum((simulated x0 - observed x0)^2).

    Q is exactly quadratic in xi, so the stationary point is the global
    minimum; no root search is needed.  The simulated values are affine in
    xi, x0[k] = d[k] + c[k]*xi: d is the run from xi = 0, and c the run of
    the homogeneous part (b1, b2, 0, 0) from xi = 1.
    """
    values = as_values(x)
    d = simulate_dgm(beta, 0.0, values.size)
    c = simulate_dgm((beta[0], beta[1], 0.0, 0.0), 1.0, values.size)
    denom = float(np.dot(c, c))
    if denom == 0.0:
        return OptimalInitial(xi=float(values[0]), curvature=0.0, degenerate=True)
    xi = float(np.dot(c, values - d) / denom)
    return OptimalInitial(xi=xi, curvature=2.0 * denom)


def fit_dgm(x) -> DgmModel:
    """Fit the DGM by minimum-norm least squares, then optimise xi.

    The regression uses observed AGO values and observed first values as
    regressors; rank-deficient designs (e.g. a constant series) fall back
    to the minimum-norm solution, which still reproduces the data.
    """
    values = as_values(x)
    if values.size < 5:
        raise InsufficientDataError(
            f"DGM needs at least 5 values, got {values.size}"
        )
    x1 = np.cumsum(values)
    n = values.size
    design = np.column_stack(
        [x1[:-1], values[:-1], np.arange(1, n, dtype=float), np.ones(n - 1)]
    )
    response = x1[1:]
    beta, _, _, _ = np.linalg.lstsq(design, response, rcond=None)
    best = optimize_initial(beta, values)
    return DgmModel(beta=beta, xi=best.xi, n_fit=n)


def simulate_dgm(beta, xi: float, n: int) -> np.ndarray:
    """Run the self-contained recursion for n steps; original-scale output."""
    if n < 1:
        raise DataError(f"simulation length must be positive, got {n}")
    b1, b2, b3, b4 = (float(v) for v in beta)
    x0 = np.empty(n)
    x0[0] = xi
    x1_prev = float(xi)
    x0_cur = float(xi)
    for k in range(1, n):
        x1_next = b1 * x1_prev + b2 * x0_cur + b3 * k + b4
        if not abs(x1_next) <= _OVERFLOW_LIMIT:  # also true for NaN
            raise RecursionOverflowError(
                f"DGM recursion overflowed at step {k + 1} "
                f"(|beta1| > 1 recursions are explosive over long horizons)"
            )
        x0_cur = x1_next - x1_prev
        x0[k] = x0_cur
        x1_prev = x1_next
    return x0


def forecast_dgm(m: DgmModel, horizon: int) -> np.ndarray:
    """Fitted values for t = 1..n_fit followed by ``horizon`` forecasts."""
    return simulate_dgm(m.beta, m.xi, m.n_fit + as_horizon(horizon))
