"""Classic GM(1,1) grey model.

Least-squares estimation of the development coefficient ``a`` and grey
input ``u`` on the whitened first-order equation, the exponential
forecaster in AGO space, and the posterior accuracy test (C ratio and
small-error probability P graded Good / Qualified / Just / Unqualified).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    InsufficientDataError,
    PositivityError,
    SingularSystemError,
)
from .series import as_horizon, as_pair, as_values, iago

GRADE_GOOD = "Good"
GRADE_QUALIFIED = "Qualified"
GRADE_JUST = "Just"
GRADE_UNQUALIFIED = "Unqualified"

# |a| below this uses the linear flat-model limit of the exponential response.
_A_EPS = 1e-12


@dataclass(frozen=True)
class GmModel:
    """Fitted GM(1,1) parameters."""

    a: float
    u: float
    x0_first: float
    n_fit: int


@dataclass(frozen=True)
class PosteriorReport:
    c_ratio: float
    p_small_error: float
    grade: str


def fit_gm11(x) -> GmModel:
    """Fit GM(1,1) by least squares on the whitened equation.

    The design matrix pairs the negated adjacent AGO means with a constant
    column; the response vector holds the original values from the second
    point on.
    """
    values = as_values(x)
    if values.size < 4:
        raise InsufficientDataError(
            f"GM(1,1) needs at least 4 values, got {values.size}"
        )
    if np.any(values <= 0):
        bad = int(np.nonzero(values <= 0)[0][0])
        raise PositivityError(
            f"GM(1,1) requires strictly positive values; value at t={bad + 1} "
            f"is {values[bad]}"
        )
    x1 = np.cumsum(values)
    z = 0.5 * (x1[:-1] + x1[1:])
    design = np.column_stack([-z, np.ones(z.size)])
    response = values[1:]
    solution, _, rank, _ = np.linalg.lstsq(design, response, rcond=None)
    if rank < 2:
        raise SingularSystemError("GM(1,1) normal equations are rank deficient")
    a, u = (float(v) for v in solution)
    return GmModel(a=a, u=u, x0_first=float(values[0]), n_fit=values.size)


def _ago_response(m: GmModel, total: int) -> np.ndarray:
    """AGO-space response: entry k (0-based) is the fitted cumulative value at k+1."""
    k = np.arange(total, dtype=float)
    if abs(m.a) < _A_EPS:
        return m.x0_first + m.u * k
    # An explosive doc (say a = -1e300) overflows to inf here, or to NaN
    # when the leading factor is 0; iago's finiteness check then rejects the
    # result with one error line, so numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        return (m.x0_first - m.u / m.a) * np.exp(-m.a * k) + m.u / m.a


def forecast_gm11(m: GmModel, horizon: int) -> np.ndarray:
    """Fitted values for t = 1..n_fit followed by ``horizon`` forecasts."""
    x1_hat = _ago_response(m, m.n_fit + as_horizon(horizon))
    return iago(x1_hat)


def posterior_grade(p_small_error: float, c_ratio: float) -> str:
    """Grade a (P, C) pair; rows are tried top-down, strict inequalities."""
    if p_small_error > 0.95 and c_ratio < 0.35:
        return GRADE_GOOD
    if p_small_error > 0.8 and c_ratio < 0.5:
        return GRADE_QUALIFIED
    if p_small_error > 0.7 and c_ratio < 0.65:
        return GRADE_JUST
    return GRADE_UNQUALIFIED


def posterior_test(actual, predicted) -> PosteriorReport:
    """Posterior accuracy test.

    C is the ratio of the error standard deviation to the data standard
    deviation (both with divisor N-1); P is the share of errors whose
    deviation from the mean error stays within 0.6745 data standard
    deviations (ties count as inside).
    """
    y, f = as_pair(actual, predicted, min_len=2)
    s1 = float(np.std(y, ddof=1))
    if s1 == 0.0:
        raise DegeneracyError(
            "actual series is constant; posterior C ratio is undefined"
        )
    q = y - f
    s2 = float(np.std(q, ddof=1))
    c_ratio = s2 / s1
    p = float(np.mean(np.abs(q - q.mean()) <= 0.6745 * s1))
    return PosteriorReport(
        c_ratio=c_ratio, p_small_error=p, grade=posterior_grade(p, c_ratio)
    )
