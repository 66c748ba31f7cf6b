"""Rolling-origin backtest: refit at each origin, forecast h steps ahead.

Each fold refits every model on the observations up to its origin only,
so no fold ever sees data from its own evaluation window.  Each model kind
is fitted to all folds in one call, so the folds' networks train together.
The held-out steps form one table, from which the pooled metrics, each
lead's MAPE over the folds and the plot rows are all read.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, InsufficientDataError
from ..hybrid import combine_forecasts  # noqa: F401  (kept importable here; bench/spans.py times it)
from ..series import as_values
from .config import PipelineConfig
from .models import (
    DEFAULT_COMPONENTS,
    assemble_hybrid,
    components_markov_report,
    fit_model,  # noqa: F401  (kept importable here; bench/spans.py times it)
    fit_models,
    markov_report_doc,
    metrics_doc,
    model_from_doc,
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
        raise ConfigError(f"fold count must be at least 1, got {folds}")
    first_origin = n - folds * h
    min_train = max(10, cfg.window + 6)
    if first_origin < min_train:
        raise InsufficientDataError(
            f"{folds} folds of horizon {h} need at least {min_train + folds * h} "
            f"observations, got {n}"
        )

    names = list(components)
    origins = [first_origin + fold * h for fold in range(folds)]
    trains = [values[:origin] for origin in origins]
    fits_by_kind = [fit_models(name, trains, cfg) for name in names]

    fold_docs, blocks = [], []
    for origin, train, fits in zip(origins, trains, zip(*fits_by_kind)):
        doc = assemble_hybrid(train, fits, cfg, in_sample=False).to_doc()
        forecasts, hybrid_forecast = model_from_doc(doc).forecasts(h)
        fold_docs.append({"origin": origin, "horizon": h, "weights": doc["weights"]})
        blocks.append(
            np.column_stack([values[origin : origin + h], *forecasts, hybrid_forecast])
        )
    # Shape (folds, h, models + 2): at each held-out step, the actual, each
    # model's forecast and the hybrid's forecast.
    table = np.stack(blocks)
    actual = table[..., 0]
    metrics = {}
    for column, name in enumerate([*names, "hybrid"], start=1):
        forecast = table[..., column]
        metrics[name] = {
            **metrics_doc(actual.ravel(), forecast.ravel()),
            "mape_by_lead": [
                metrics_doc(a, f)["mape"] for a, f in zip(actual.T, forecast.T)
            ],
        }

    last_fold = [fits[-1] for fits in fits_by_kind]
    report = {
        "schema_version": 1,
        "command": "backtest",
        "config": cfg.echo("backtest"),
        "components": names,
        "folds": fold_docs,
        "models": {name: metrics[name] for name in names},
        "hybrid": {"scheme": cfg.hybrid_scheme, "metrics": metrics["hybrid"]},
        "markov_test": markov_report_doc(components_markov_report(last_fold)),
    }
    header = ["t", "actual"] + names + ["hybrid"]
    plot_rows = [
        [first_origin + i + 1, *row] for i, row in enumerate(table.reshape(folds * h, -1))
    ]
    return report, header, plot_rows
