"""Forecast evaluation: MSE, MAE, MAPE (percent), and the Theil coefficient."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import as_pair


@dataclass(frozen=True)
class EvaluationReport:
    """The four accuracy statistics over n points.

    Metrics that are undefined for the given data (MAPE with a zero
    actual, Theil with all-zero predictions) are reported as NaN and
    listed in ``degenerate`` instead of failing the whole evaluation.
    """

    mse: float
    mae: float
    mape: float
    theil: float
    n: int
    degenerate: tuple[str, ...] = ()


def evaluate(actual, predicted) -> EvaluationReport:
    y, f = as_pair(actual, predicted)
    err = f - y
    mse = float(np.mean(err**2))
    mae = float(np.mean(np.abs(err)))
    degenerate = []
    if np.any(y == 0.0):
        mape = math.nan
        degenerate.append("mape")
    else:
        mape = float(np.mean(np.abs(err / y)) * 100.0)
    sum_pred_sq = float(np.sum(f**2))
    if sum_pred_sq == 0.0:
        theil = math.nan
        degenerate.append("theil")
    else:
        # Variant Theil: the denominator carries predicted values only,
        # not the textbook form that also adds a term for the actuals.
        theil = math.sqrt(float(np.sum(err**2)) / sum_pred_sq)
    return EvaluationReport(
        mse=mse,
        mae=mae,
        mape=mape,
        theil=theil,
        n=y.size,
        degenerate=tuple(degenerate),
    )
