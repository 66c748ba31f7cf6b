"""Rolling-origin backtest: refit at each origin, forecast h steps ahead.

Each fold refits every model on the observations up to its origin only,
so no fold ever sees data from its own evaluation window.  Each model kind
is fitted to all folds in one call, so the folds' networks train together.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError
from ..hybrid import combine_forecasts
from ..series import as_values
from .config import PipelineConfig
from .models import (
    DEFAULT_COMPONENTS,
    align_fitted,
    compute_weights,
    fit_model,  # noqa: F401  (kept importable here; bench/spans.py times it)
    fit_models,
    markov_report_doc,
    metrics_doc,
)


def run_backtest(
    values,
    cfg: PipelineConfig,
    components=DEFAULT_COMPONENTS,
    folds: int = 5,
) -> tuple[dict, list[str], list[list]]:
    """Returns (report dict, plot header, plot rows)."""
    values = as_values(values)
    n = values.size
    h = cfg.horizon
    if folds < 1:
        raise InsufficientDataError(f"fold count must be at least 1, got {folds}")
    first_origin = n - folds * h
    min_train = max(10, cfg.window + 6)
    if first_origin < min_train:
        raise InsufficientDataError(
            f"{folds} folds of horizon {h} need at least {min_train + folds * h} "
            f"observations, got {n}"
        )

    names = list(components)
    pooled: dict[str, list[float]] = {name: [] for name in names}
    pooled["hybrid"] = []
    pooled_actual: list[float] = []
    plot_rows: list[list] = []
    fold_docs: list[dict] = []
    markov_report = None

    origins = [first_origin + fold * h for fold in range(folds)]
    trains = [values[:origin] for origin in origins]
    fits_by_kind = [fit_models(name, trains, cfg) for name in names]

    for origin, train, fits in zip(origins, trains, zip(*fits_by_kind)):
        held_out = values[origin : origin + h]
        _, fold_actual, fold_preds = align_fitted(train, fits)
        weights = compute_weights(fold_actual, fold_preds, cfg)
        forecasts = [fit.forecast(h) for fit in fits]
        hybrid_forecast = combine_forecasts(forecasts, weights, cfg.combine)
        for fit in fits:
            if fit.markov_report is not None:
                markov_report = fit.markov_report
        fold_docs.append(
            {
                "origin": origin,
                "horizon": h,
                "weights": [float(w) for w in weights.weights],
            }
        )
        for name, forecast in zip(names, forecasts):
            pooled[name].extend(float(v) for v in forecast)
        pooled["hybrid"].extend(float(v) for v in hybrid_forecast)
        pooled_actual.extend(float(v) for v in held_out)
        for step in range(h):
            plot_rows.append(
                [origin + step + 1, held_out[step]]
                + [forecast[step] for forecast in forecasts]
                + [hybrid_forecast[step]]
            )

    report = {
        "schema_version": 1,
        "command": "backtest",
        "config": cfg.echo(),
        "components": names,
        "folds": fold_docs,
        "models": {
            name: metrics_doc(pooled_actual, pooled[name]) for name in names
        },
        "hybrid": {
            "scheme": cfg.hybrid_scheme,
            "metrics": metrics_doc(pooled_actual, pooled["hybrid"]),
        },
        "markov_test": markov_report_doc(markov_report),
    }
    header = ["t", "actual"] + names + ["hybrid"]
    return report, header, plot_rows
