"""Model adapters for the pipeline: fit, in-sample values, forecast, JSON docs.

Every adapter exposes the same small surface — ``kind``, ``start_t`` (the
1-based time of its first in-sample value), ``fitted``, ``forecast(h)``
and ``to_doc()`` — so the hybrid assembly and the backtest can treat all
model kinds uniformly.  Fitting goes through the :data:`FITTERS` registry,
whose entries fit one model to each series of a list (the networks of all
those fits train together), and which tests may wrap to observe exactly
what data each fit saw.

Forecasts have one path: ``forecast(h)`` rebuilds the model from its
``to_doc()`` through :func:`model_from_doc`, the same code that
``greycast forecast`` runs on a persisted doc, so a fit and its saved doc
forecast alike by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dgm import DgmModel, fit_dgm, forecast_dgm
from ..errors import ConfigError, DataError
from ..gm import GmModel, fit_gm11, forecast_gm11
from ..hybrid import (
    HybridWeights,
    RelationConfig,
    SCHEME_EFFECTIVE,
    SCHEME_GREY_RELATION,
    SCHEME_MIN_VARIANCE,
    SCHEME_SIMPLEX_LS,
    accuracy_series,
    combine_forecasts,
    effective_degree,
    effective_weights,
    min_variance_weight,
    optimize_relation_weights,
    simplex_ls_weights,
)
from ..markov import (
    FuzzyMarkovModel,
    MarkovTestReport,
    StatePartition,
    classify_states,
    count_transitions,
    expected_drift,
    fmarkov_correct,
    fuzzy_transition_matrix,
    marginal_distribution,
    markov_property_test,
)
from ..metrics import evaluate
from ..neural import (
    AffineScaler,
    FeedforwardNet,
    IgnnForecaster,
    SgnnForecaster,
    ignn_fit,  # noqa: F401  (kept importable here; bench/spans.py times it)
    ignn_fit_batch,
    ignn_fitted,
    ignn_forecast,
    sgnn_fit_batch,
    sgnn_fitted,
    sgnn_forecast,
)
from ..series import as_values, relative_residuals
from .config import PipelineConfig

SCHEMA_VERSION = 1
DEFAULT_COMPONENTS = ("dgm_fmarkov", "ignn")


@dataclass
class FittedModel:
    kind: str
    start_t: int
    fitted: np.ndarray
    _doc: dict
    markov_report: MarkovTestReport | None = None

    def forecast(self, horizon: int) -> np.ndarray:
        return model_from_doc(self.to_doc()).forecast(horizon)

    def to_doc(self) -> dict:
        return dict(self._doc)


def _gm_doc(m: GmModel) -> dict:
    return {"a": m.a, "u": m.u, "x0_first": m.x0_first, "n_fit": m.n_fit}


def _gm_from_doc(doc: dict) -> GmModel:
    return GmModel(a=doc["a"], u=doc["u"], x0_first=doc["x0_first"], n_fit=doc["n_fit"])


def _dgm_doc(m: DgmModel) -> dict:
    return {"beta": [float(b) for b in m.beta], "xi": m.xi, "n_fit": m.n_fit}


def _dgm_from_doc(doc: dict) -> DgmModel:
    return DgmModel(beta=np.asarray(doc["beta"]), xi=doc["xi"], n_fit=doc["n_fit"])


def _fit_gm(values, cfg: PipelineConfig) -> FittedModel:
    model = fit_gm11(values)
    return FittedModel(
        kind="gm",
        start_t=1,
        fitted=forecast_gm11(model, 1)[: model.n_fit],
        _doc={"schema_version": SCHEMA_VERSION, "kind": "gm", **_gm_doc(model)},
    )


def _fit_dgm(values, cfg: PipelineConfig) -> FittedModel:
    model = fit_dgm(values)
    return FittedModel(
        kind="dgm",
        start_t=1,
        fitted=forecast_dgm(model, 1)[: model.n_fit],
        _doc={"schema_version": SCHEMA_VERSION, "kind": "dgm", **_dgm_doc(model)},
    )


def _markov_summary(residuals, partition: StatePartition, cfg: PipelineConfig):
    """Crisp chi-squared summary of the residual state sequence."""
    classified = classify_states(residuals, partition)
    counts = count_transitions(classified)
    occupancy = np.bincount(classified.states, minlength=partition.k + 1)[1:]
    marginals = marginal_distribution(occupancy, classified.states.size)
    return markov_property_test(counts, marginals, alpha=cfg.alpha)


def _fit_dgm_fmarkov(values, cfg: PipelineConfig) -> FittedModel:
    values = as_values(values)
    partition = StatePartition(np.asarray(cfg.state_boundaries))
    dgm_model = fit_dgm(values)
    raw = forecast_dgm(dgm_model, 1)[: dgm_model.n_fit]
    residuals = relative_residuals(values, raw)
    fm = fuzzy_transition_matrix(residuals.values, partition)
    corrected = fmarkov_correct(raw, values, fm)
    try:
        markov_report = _markov_summary(residuals.values, partition, cfg)
    except ConfigError:
        markov_report = None  # no embedded critical value for this state count
    return FittedModel(
        kind="dgm_fmarkov",
        start_t=1,
        fitted=corrected,
        _doc={
            "schema_version": SCHEMA_VERSION,
            "kind": "fmarkov",
            "dgm": _dgm_doc(dgm_model),
            "boundaries": [float(b) for b in partition.boundaries],
            "fuzzy_counts": fm.fuzzy_counts.tolist(),
            "fuzzy_probs": fm.fuzzy_probs.tolist(),
            "degenerate_rows": [bool(v) for v in fm.degenerate_rows],
            "last_residual": float(residuals.values[-1]),
            "last_actual": float(values[-1]),
            "n_fit": dgm_model.n_fit,
        },
        markov_report=markov_report,
    )


def _scaler_doc(s: AffineScaler) -> dict:
    return {"scale": s.scale, "offset": s.offset}


def _net_doc(net: FeedforwardNet) -> dict:
    return {
        "layer_sizes": list(net.layer_sizes),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "input_scaler": _scaler_doc(net.input_scaler),
        "output_scaler": _scaler_doc(net.output_scaler),
    }


def _net_from_doc(doc: dict) -> FeedforwardNet:
    return FeedforwardNet(
        layer_sizes=tuple(doc["layer_sizes"]),
        weights=[np.asarray(w) for w in doc["weights"]],
        biases=[np.asarray(b) for b in doc["biases"]],
        input_scaler=AffineScaler(**doc["input_scaler"]),
        output_scaler=AffineScaler(**doc["output_scaler"]),
    )


def _fit_ignn(series, cfg: PipelineConfig) -> list[FittedModel]:
    forecasters = ignn_fit_batch(series, window=cfg.window, cfg=cfg.train)
    return [_ignn_model(forecaster, cfg) for forecaster in forecasters]


def _ignn_model(forecaster: IgnnForecaster, cfg: PipelineConfig) -> FittedModel:
    return FittedModel(
        kind="ignn",
        start_t=cfg.window + 1,
        fitted=ignn_fitted(forecaster),
        _doc={
            "schema_version": SCHEMA_VERSION,
            "kind": "net",
            "variant": "ignn",
            "net": _net_doc(forecaster.net),
            "window": forecaster.window,
            "ago_tail": forecaster.ago_values[-forecaster.window :].tolist(),
            "n_fit": forecaster.n_fit,
        },
    )


def _sgnn_windows(n: int) -> list[int]:
    """Trailing sub-windows at the full, 3/4, and 1/2 history lengths."""
    lengths = sorted({n, max(4, (3 * n) // 4), max(4, n // 2)}, reverse=True)
    return [length for length in lengths if length >= 4]


def _fit_sgnn(series, cfg: PipelineConfig) -> list[FittedModel]:
    series = [as_values(values) for values in series]
    windows = [_sgnn_windows(values.size) for values in series]
    forecasters = sgnn_fit_batch(series, windows, cfg=cfg.train)
    return [_sgnn_model(forecaster) for forecaster in forecasters]


def _sgnn_model(forecaster: SgnnForecaster) -> FittedModel:
    return FittedModel(
        kind="sgnn",
        start_t=forecaster.eval_start,
        fitted=sgnn_fitted(forecaster),
        _doc={
            "schema_version": SCHEMA_VERSION,
            "kind": "net",
            "variant": "sgnn",
            "net": _net_doc(forecaster.net),
            "gm_models": [_gm_doc(m) for m in forecaster.gm_models],
            "offsets": list(forecaster.offsets),
            "n_fit": forecaster.n_fit,
        },
    )


def compute_weights(actual, predictions, cfg: PipelineConfig) -> HybridWeights:
    """Weights for aligned in-sample predictions under the configured scheme."""
    scheme = cfg.hybrid_scheme
    if scheme == SCHEME_EFFECTIVE:
        degrees = [
            effective_degree(accuracy_series(actual, pred)) for pred in predictions
        ]
        return effective_weights(degrees)
    if scheme == SCHEME_MIN_VARIANCE:
        if len(predictions) != 2:
            raise ConfigError(
                f"min_variance weighting needs exactly 2 models, got {len(predictions)}"
            )
        e1 = np.asarray(actual) - predictions[0]
        e2 = np.asarray(actual) - predictions[1]
        return min_variance_weight(e1, e2)
    if scheme == SCHEME_SIMPLEX_LS:
        return simplex_ls_weights(actual, predictions)
    if scheme == SCHEME_GREY_RELATION:
        return optimize_relation_weights(
            actual, predictions, RelationConfig(rho=cfg.rho)
        )
    raise ConfigError(f"unknown hybrid scheme {scheme!r}")


def align_fitted(values, components: list[FittedModel]):
    """Common in-sample range: (start_t, actual slice, per-model slices)."""
    start = max(c.start_t for c in components)
    actual = as_values(values)[start - 1 :]
    predictions = [c.fitted[start - c.start_t :] for c in components]
    return start, actual, predictions


def assemble_hybrid(values, cfg: PipelineConfig, components=DEFAULT_COMPONENTS):
    """Fit the component models and weight them on the common in-sample range.

    Returns (fits, start_t, actual slice, prediction slices, weights,
    combined in-sample series).
    """
    values = as_values(values)
    if len(components) < 2:
        raise ConfigError("hybrid needs at least 2 component models")
    fits = [fit_model(kind, values, cfg) for kind in components]
    start, actual, predictions = align_fitted(values, fits)
    weights = compute_weights(actual, predictions, cfg)
    combined = combine_forecasts(predictions, weights, cfg.combine)
    return fits, start, actual, predictions, weights, combined


def _fit_hybrid(values, cfg: PipelineConfig, components=DEFAULT_COMPONENTS) -> FittedModel:
    fits, start, actual, predictions, weights, combined = assemble_hybrid(
        values, cfg, components
    )
    return FittedModel(
        kind="hybrid",
        start_t=start,
        fitted=combined,
        _doc={
            "schema_version": SCHEMA_VERSION,
            "kind": "hybrid",
            "scheme": weights.scheme,
            "combine": cfg.combine,
            "weights": [float(w) for w in weights.weights],
            "diagnostics": weights.diagnostics,
            "components": [f.to_doc() for f in fits],
        },
    )


def components_markov_report(fits) -> MarkovTestReport | None:
    """The Markov report of the first component that carries one.

    Only ``dgm_fmarkov`` fits carry a report, and a hybrid's components
    are distinct kinds, so there is at most one.
    """
    return next((f.markov_report for f in fits if f.markov_report is not None), None)


def _each(fit_one):
    """A batch fitter that fits each series on its own."""

    def fit_all(series, cfg: PipelineConfig) -> list[FittedModel]:
        return [fit_one(values, cfg) for values in series]

    return fit_all


#: Fit dispatch: kind -> fitter(list of series, cfg) -> list of fits.
#: Tests may wrap entries to instrument what data a fit sees.
FITTERS = {
    "gm": _each(_fit_gm),
    "dgm": _each(_fit_dgm),
    "dgm_fmarkov": _each(_fit_dgm_fmarkov),
    "ignn": _fit_ignn,
    "sgnn": _fit_sgnn,
}


def fit_models(kind: str, series, cfg: PipelineConfig) -> list[FittedModel]:
    """One base model of ``kind`` per series, in one fitter call."""
    if kind not in FITTERS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return FITTERS[kind](list(series), cfg)


def fit_model(kind: str, values, cfg: PipelineConfig, components=DEFAULT_COMPONENTS) -> FittedModel:
    if kind == "hybrid":
        return _fit_hybrid(values, cfg, components)
    return fit_models(kind, [values], cfg)[0]


# ---------------------------------------------------------------------------
# Forecasts: every model, fitted here or loaded from a file, forecasts
# through its doc.
# ---------------------------------------------------------------------------


@dataclass
class LoadedModel:
    kind: str
    n_fit: int
    _forecast: callable = field(repr=False)

    def forecast(self, horizon: int) -> np.ndarray:
        return self._forecast(horizon)


# What each model document must hold, per kind and, for nets, per variant.
# A dict names the keys of a JSON object and what each value must hold in
# turn; the object may hold no other key.  A one-element list is a non-empty
# JSON list whose items each match that element; a longer list is a JSON
# list of exactly that many items, each matching the element in its place.
# A string names a leaf: "int", "count" (an integer of at least 1),
# "number", "string", "bool", "object" (any JSON object), or "matrix" (a
# non-empty list of equal-length lists of numbers).  Sizes that tie one
# field to another are checked by :func:`_check_sizes`.
_SCALER_KEYS = {"scale": "number", "offset": "number"}
_GM_KEYS = {"a": "number", "u": "number", "x0_first": "number", "n_fit": "count"}
_DGM_KEYS = {"beta": ["number"] * 4, "xi": "number", "n_fit": "count"}
_NET_KEYS = {
    "layer_sizes": ["int"],
    "weights": ["matrix"],
    "biases": [["number"]],
    "input_scaler": _SCALER_KEYS,
    "output_scaler": _SCALER_KEYS,
}
_HEADER = {"schema_version": "int", "kind": "string"}
_NET_COMMON = {**_HEADER, "variant": "string", "net": _NET_KEYS, "n_fit": "count"}
_DOC_KEYS = {
    "gm": {**_HEADER, **_GM_KEYS},
    "dgm": {**_HEADER, **_DGM_KEYS},
    "fmarkov": {
        **_HEADER,
        "dgm": _DGM_KEYS,
        "boundaries": ["number"],
        "fuzzy_counts": "matrix",
        "fuzzy_probs": "matrix",
        "degenerate_rows": ["bool"],
        "last_residual": "number",
        "last_actual": "number",
        "n_fit": "count",
    },
    "hybrid": {
        **_HEADER,
        "scheme": "string",
        "combine": "string",
        "weights": ["number"],
        "diagnostics": "object",
        "components": ["object"],
    },
}
_NET_DOC_KEYS = {
    "ignn": {**_NET_COMMON, "window": "count", "ago_tail": ["number"]},
    "sgnn": {**_NET_COMMON, "gm_models": [_GM_KEYS], "offsets": ["int"]},
}
def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_LEAVES = {
    "int": ("an integer", _is_int),
    "count": ("an integer of at least 1", lambda v: _is_int(v) and v >= 1),
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
}


def _check_keys(node, keys, path: str) -> None:
    if keys == "matrix":
        _check_keys(node, [["number"]], path)
        if len({len(row) for row in node}) > 1:
            raise DataError(f"model document field {path!r} must have rows of equal length")
        return
    if isinstance(keys, str):
        what, holds = _LEAVES[keys]
        if not holds(node):
            raise DataError(f"model document field {path!r} must be {what}")
        return
    if isinstance(keys, list):
        if not isinstance(node, list) or not node:
            raise DataError(f"model document field {path!r} must be a non-empty JSON list")
        if len(keys) > 1 and len(node) != len(keys):
            raise DataError(f"model document field {path!r} must hold {len(keys)} entries")
        for i, item in enumerate(node):
            _check_keys(item, keys[i % len(keys)], f"{path}[{i}]")
        return
    if not isinstance(node, dict):
        raise DataError(f"model document field {path!r} must be a JSON object")
    for key, sub in keys.items():
        where = f"{path}.{key}" if path else key
        if key not in node:
            raise DataError(f"model document is missing key {where!r}")
        _check_keys(node[key], sub, where)
    extra = sorted(set(node) - set(keys))
    if extra:
        where = f"{path}.{extra[0]}" if path else extra[0]
        raise DataError(f"model document has unknown key {where!r}")


def _check_sizes(doc: dict) -> None:
    """Sizes that tie one field of a document to another, keys already checked."""
    if doc["kind"] == "fmarkov":
        k = len(doc["boundaries"]) - 1
        for key in ("fuzzy_counts", "fuzzy_probs"):
            if len(doc[key]) != k or len(doc[key][0]) != k:
                raise DataError(
                    f"model document field {key!r} must be {k} x {k}, "
                    f"one row and column per state of 'boundaries'"
                )
        if len(doc["degenerate_rows"]) != k:
            raise DataError(
                f"model document field 'degenerate_rows' must hold {k} entries, "
                f"one per state of 'boundaries'"
            )
    if doc.get("variant") == "sgnn" and len(doc["offsets"]) != len(doc["gm_models"]):
        raise DataError(
            "model document field 'offsets' must hold one entry per entry of 'gm_models'"
        )


def _fmarkov_forecast(dgm_model, fm, z_last, y_last, horizon):
    raw = forecast_dgm(dgm_model, horizon)[dgm_model.n_fit :]
    out = raw.copy()
    out[0] = raw[0] + expected_drift(fm, z_last) * y_last
    return out


def model_from_doc(doc: dict) -> LoadedModel:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DataError("model document must be a JSON object with a 'kind' field")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported model schema_version {doc.get('schema_version')!r}"
        )
    kind = doc["kind"]
    table, name = (_NET_DOC_KEYS, doc.get("variant")) if kind == "net" else (_DOC_KEYS, kind)
    if not isinstance(name, str) or name not in table:
        raise DataError(f"unknown {'net variant' if kind == 'net' else 'model kind'} {name!r}")
    _check_keys(doc, table[name], "")
    _check_sizes(doc)
    if kind == "gm":
        model = _gm_from_doc(doc)
        return LoadedModel("gm", model.n_fit, lambda h: forecast_gm11(model, h)[model.n_fit :])
    if kind == "dgm":
        model = _dgm_from_doc(doc)
        return LoadedModel("dgm", model.n_fit, lambda h: forecast_dgm(model, h)[model.n_fit :])
    if kind == "fmarkov":
        dgm_model = _dgm_from_doc(doc["dgm"])
        partition = StatePartition(np.asarray(doc["boundaries"]))
        fm = FuzzyMarkovModel(
            partition=partition,
            fuzzy_counts=np.asarray(doc["fuzzy_counts"]),
            fuzzy_probs=np.asarray(doc["fuzzy_probs"]),
            midpoints=partition.midpoints,
            degenerate_rows=np.asarray(doc["degenerate_rows"], dtype=bool),
        )
        z_last, y_last = doc["last_residual"], doc["last_actual"]
        return LoadedModel(
            "dgm_fmarkov",
            doc["n_fit"],
            lambda h: _fmarkov_forecast(dgm_model, fm, z_last, y_last, h),
        )
    if kind == "net":
        net = _net_from_doc(doc["net"])
        if doc["variant"] == "ignn":
            forecaster = IgnnForecaster(
                net=net,
                window=doc["window"],
                ago_values=np.asarray(doc["ago_tail"]),
                n_fit=doc["n_fit"],
            )
            return LoadedModel("ignn", doc["n_fit"], lambda h: ignn_forecast(forecaster, h))
        forecaster = SgnnForecaster(
            net=net,
            gm_models=[_gm_from_doc(m) for m in doc["gm_models"]],
            offsets=list(doc["offsets"]),
            n_fit=doc["n_fit"],
        )
        return LoadedModel("sgnn", doc["n_fit"], lambda h: sgnn_forecast(forecaster, h))
    parts = [model_from_doc(sub) for sub in doc["components"]]  # a hybrid
    weights = np.asarray(doc["weights"], dtype=float)
    combine = doc["combine"]

    def forecast(h):
        columns = [p.forecast(h) for p in parts]
        return combine_forecasts(columns, weights, combine)

    return LoadedModel("hybrid", max(p.n_fit for p in parts), forecast)


def markov_report_doc(report: MarkovTestReport | None):
    if report is None:
        return None
    return {
        "chi_squared": report.chi_squared,
        "dof": report.dof,
        "threshold": report.threshold,
        "alpha": report.alpha,
        "log_base": report.log_base,
        "is_markov": report.is_markov,
        "verdict": "MARKOV" if report.is_markov else "NOT MARKOV",
    }


def metrics_doc(actual, predicted) -> dict:
    report = evaluate(actual, predicted)
    return {
        "mse": report.mse,
        "mae": report.mae,
        "mape": report.mape,
        "theil": report.theil,
        "n": report.n,
        "degenerate": list(report.degenerate),
    }
