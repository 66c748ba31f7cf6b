"""Model adapters for the pipeline: fit, in-sample values, forecast, JSON docs.

Every adapter exposes the same small surface — ``kind``, ``start_t`` (the
1-based time of its first in-sample value), ``fitted``, ``forecast(h)``
and ``to_doc()`` — so the hybrid assembly and the backtest can treat all
model kinds uniformly.  Each kind is one :class:`Kind` record: the base
kinds are :data:`KINDS` and the hybrid is :data:`HYBRID`.  Fitting goes
through the :data:`FITTERS` registry, built from those records, whose
entries fit one model to each series of a list (the networks of all those
fits train together), and which tests may wrap to observe exactly what
data each fit saw.

Forecasts have one path: ``forecast(h)`` rebuilds the model from its
``to_doc()`` through :func:`model_from_doc`, the same code that
``greycast forecast`` runs on a persisted doc, so a fit and its saved doc
forecast alike by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..dgm import DgmModel, fit_dgm, forecast_dgm
from ..errors import ConfigError, DataError
from ..gm import GmModel, fit_gm11, forecast_gm11
from ..hybrid import (
    COMBINE_SCHEMES,
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
from .docspec import check_keys

SCHEMA_VERSION = 1
DEFAULT_COMPONENTS = ("dgm_fmarkov", "ignn")


@dataclass
class FittedModel:
    kind: str
    start_t: int
    fitted: np.ndarray
    _doc: dict
    markov_report: MarkovTestReport | None = None
    parts: tuple[FittedModel, ...] = ()  # a hybrid's component fits

    def forecast(self, horizon: int) -> np.ndarray:
        return model_from_doc(self.to_doc()).forecast(horizon)

    def to_doc(self) -> dict:
        return dict(self._doc)


@dataclass
class LoadedModel:
    kind: str
    n_fit: int
    _forecast: Callable = field(repr=False)
    parts: tuple[LoadedModel, ...] = ()  # a hybrid's loaded components

    def forecasts(self, horizon: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Each part's forecast, computed once, and this model's own, which
        a hybrid combines from them."""
        part_forecasts = [part.forecast(horizon) for part in self.parts]
        return part_forecasts, self._forecast(horizon, *part_forecasts)

    def forecast(self, horizon: int) -> np.ndarray:
        return self.forecasts(horizon)[1]


@dataclass(frozen=True)
class Kind:
    """One model kind: its CLI ``name``; the tag its docs carry (``doc_kind``,
    plus ``variant`` for a net); its batch ``fit``; its doc ``keys`` spec
    (see :mod:`.docspec`); its ``check(doc, at)`` of fields that must agree,
    run once the keys hold, which names each field after the prefix ``at``
    (``components[i].`` inside a hybrid, else empty); and its ``load``,
    which maps a checked doc to its forecast function of the horizon and,
    for a hybrid only, of its components' forecasts.
    Functions that a benchmark span wraps (``fit_dgm``, ...) are never held
    here: the record's own functions call them through the module globals."""

    name: str
    doc_kind: str
    fit: Callable | None
    keys: dict
    load: Callable
    check: Callable[[dict, str], None] = lambda doc, at: None
    variant: str | None = None

    def fitted_model(self, start_t, fitted, body: dict, markov_report=None, parts=()) -> FittedModel:
        """A fit of this kind; its doc is the kind's tag, then ``body``."""
        doc = {"schema_version": SCHEMA_VERSION, "kind": self.doc_kind}
        if self.variant is not None:
            doc["variant"] = self.variant
        doc.update(body)
        return FittedModel(self.name, start_t, fitted, doc, markov_report, tuple(parts))


def _each(fit_one):
    """A batch fitter that fits each series on its own."""

    def fit_all(series, cfg: PipelineConfig) -> list[FittedModel]:
        return [fit_one(values, cfg) for values in series]

    return fit_all


# Key specs that several kinds' ``keys`` share.
_HEADER = {"schema_version": "int", "kind": "string"}
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


def _gm_doc(m: GmModel) -> dict:
    return {"a": m.a, "u": m.u, "x0_first": m.x0_first, "n_fit": m.n_fit}


def _gm_from_doc(doc: dict) -> GmModel:
    return GmModel(a=doc["a"], u=doc["u"], x0_first=doc["x0_first"], n_fit=doc["n_fit"])


def _fit_gm(values, cfg: PipelineConfig) -> FittedModel:
    model = fit_gm11(values)
    return GM.fitted_model(1, forecast_gm11(model, 1)[: model.n_fit], _gm_doc(model))


def _load_gm(doc: dict):
    model = _gm_from_doc(doc)
    return lambda h: forecast_gm11(model, h)[model.n_fit :]


GM = Kind("gm", "gm", _each(_fit_gm), {**_HEADER, **_GM_KEYS}, _load_gm)


def _dgm_doc(m: DgmModel) -> dict:
    return {"beta": [float(b) for b in m.beta], "xi": m.xi, "n_fit": m.n_fit}


def _dgm_from_doc(doc: dict) -> DgmModel:
    return DgmModel(beta=np.asarray(doc["beta"]), xi=doc["xi"], n_fit=doc["n_fit"])


def _fit_dgm(values, cfg: PipelineConfig) -> FittedModel:
    model = fit_dgm(values)
    return DGM.fitted_model(1, forecast_dgm(model, 1)[: model.n_fit], _dgm_doc(model))


def _load_dgm(doc: dict):
    model = _dgm_from_doc(doc)
    return lambda h: forecast_dgm(model, h)[model.n_fit :]


DGM = Kind("dgm", "dgm", _each(_fit_dgm), {**_HEADER, **_DGM_KEYS}, _load_dgm)


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
    body = {
        "dgm": _dgm_doc(dgm_model),
        "boundaries": [float(b) for b in partition.boundaries],
        "fuzzy_counts": fm.fuzzy_counts.tolist(),
        "fuzzy_probs": fm.fuzzy_probs.tolist(),
        "degenerate_rows": [bool(v) for v in fm.degenerate_rows],
        "last_residual": float(residuals.values[-1]),
        "last_actual": float(values[-1]),
        "n_fit": dgm_model.n_fit,
    }
    return DGM_FMARKOV.fitted_model(1, corrected, body, markov_report)


def _check_fmarkov(doc: dict, at: str) -> None:
    k = len(doc["boundaries"]) - 1
    for key in ("fuzzy_counts", "fuzzy_probs"):
        if len(doc[key]) != k or len(doc[key][0]) != k:
            raise DataError(
                f"model document field '{at}{key}' must be {k} x {k}, "
                f"one row and column per state of '{at}boundaries'"
            )
    if len(doc["degenerate_rows"]) != k:
        raise DataError(
            f"model document field '{at}degenerate_rows' must hold {k} entries, "
            f"one per state of '{at}boundaries'"
        )
    if doc["dgm"]["n_fit"] != doc["n_fit"]:
        raise DataError(
            f"model document field '{at}dgm.n_fit' ({doc['dgm']['n_fit']}) "
            f"must equal '{at}n_fit' ({doc['n_fit']})"
        )


def _load_fmarkov(doc: dict):
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

    def forecast(horizon):
        raw = forecast_dgm(dgm_model, horizon)[dgm_model.n_fit :]
        out = raw.copy()
        out[0] = raw[0] + expected_drift(fm, z_last) * y_last
        return out

    return forecast


DGM_FMARKOV = Kind("dgm_fmarkov", "fmarkov", _each(_fit_dgm_fmarkov), {
    **_HEADER, "dgm": _DGM_KEYS, "boundaries": ["number"], "fuzzy_counts": "matrix",
    "fuzzy_probs": "matrix", "degenerate_rows": ["bool"], "last_residual": "number",
    "last_actual": "number", "n_fit": "count",
}, _load_fmarkov, _check_fmarkov)


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


def _check_net(doc: dict, at: str) -> None:
    """The net has one output, and a weight matrix and a bias vector of the
    sizes its ``layer_sizes`` give between each two layers."""
    net, at = doc["net"], f"{at}net."
    sizes = net["layer_sizes"]
    if sizes[-1] != 1:
        raise DataError(
            f"model document field '{at}layer_sizes' must end in 1, the one forecast"
        )
    for key in ("weights", "biases"):
        if len(net[key]) != len(sizes) - 1:
            raise DataError(
                f"model document field '{at}{key}' must hold {len(sizes) - 1} entries, "
                f"one per layer after the first of '{at}layer_sizes'"
            )
    for layer, (w, b) in enumerate(zip(net["weights"], net["biases"])):
        rows, cols = sizes[layer + 1], sizes[layer]
        if (len(w), len(w[0])) != (rows, cols):
            raise DataError(
                f"model document field '{at}weights[{layer}]' must be {rows} x {cols}, "
                f"'{at}layer_sizes[{layer + 1}]' by '{at}layer_sizes[{layer}]'"
            )
        if len(b) != rows:
            raise DataError(
                f"model document field '{at}biases[{layer}]' must hold {rows} entries, "
                f"one per unit of '{at}layer_sizes[{layer + 1}]'"
            )


def _fit_ignn(series, cfg: PipelineConfig) -> list[FittedModel]:
    return [
        IGNN.fitted_model(cfg.window + 1, ignn_fitted(f), {
            "net": _net_doc(f.net), "window": f.window,
            "ago_tail": f.ago_values[-f.window :].tolist(), "n_fit": f.n_fit,
        })
        for f in ignn_fit_batch(series, window=cfg.window, cfg=cfg.train)
    ]


def _check_ignn(doc: dict, at: str) -> None:
    window, inputs = doc["window"], doc["net"]["layer_sizes"][0]
    if window != inputs:
        raise DataError(
            f"model document field '{at}window' ({window}) must equal "
            f"'{at}net.layer_sizes[0]' ({inputs}), the net's inputs"
        )
    if len(doc["ago_tail"]) != window:
        raise DataError(
            f"model document field '{at}ago_tail' must hold {window} entries, "
            f"one per step of '{at}window'"
        )
    _check_net(doc, at)


def _load_ignn(doc: dict):
    forecaster = IgnnForecaster(
        net=_net_from_doc(doc["net"]),
        window=doc["window"],
        ago_values=np.asarray(doc["ago_tail"]),
        n_fit=doc["n_fit"],
    )
    return lambda h: ignn_forecast(forecaster, h)


IGNN = Kind("ignn", "net", _fit_ignn, {
    **_HEADER, "variant": "string", "net": _NET_KEYS, "n_fit": "count",
    "window": "count", "ago_tail": ["number"],
}, _load_ignn, _check_ignn, variant="ignn")


def _sgnn_windows(n: int) -> list[int]:
    """Trailing sub-windows at the full, 3/4, and 1/2 history lengths."""
    lengths = sorted({n, max(4, (3 * n) // 4), max(4, n // 2)}, reverse=True)
    return [length for length in lengths if length >= 4]


def _fit_sgnn(series, cfg: PipelineConfig) -> list[FittedModel]:
    series = [as_values(values) for values in series]
    windows = [_sgnn_windows(values.size) for values in series]
    return [
        SGNN.fitted_model(f.eval_start, sgnn_fitted(f), {
            "net": _net_doc(f.net), "gm_models": [_gm_doc(m) for m in f.gm_models],
            "offsets": list(f.offsets), "n_fit": f.n_fit,
        })
        for f in sgnn_fit_batch(series, windows, cfg=cfg.train)
    ]


def _check_sgnn(doc: dict, at: str) -> None:
    if len(doc["offsets"]) != len(doc["gm_models"]):
        raise DataError(
            f"model document field '{at}offsets' must hold one entry per entry of "
            f"'{at}gm_models'"
        )
    inputs = doc["net"]["layer_sizes"][0]
    if len(doc["gm_models"]) != inputs:
        raise DataError(
            f"model document field '{at}gm_models' must hold {inputs} entries, "
            f"one per input of '{at}net.layer_sizes[0]'"
        )
    _check_net(doc, at)


def _load_sgnn(doc: dict):
    forecaster = SgnnForecaster(
        net=_net_from_doc(doc["net"]),
        gm_models=[_gm_from_doc(m) for m in doc["gm_models"]],
        offsets=list(doc["offsets"]),
        n_fit=doc["n_fit"],
    )
    return lambda h: sgnn_forecast(forecaster, h)


SGNN = Kind("sgnn", "net", _fit_sgnn, {
    **_HEADER, "variant": "string", "net": _NET_KEYS, "n_fit": "count",
    "gm_models": [_GM_KEYS], "offsets": ["int"],
}, _load_sgnn, _check_sgnn, variant="sgnn")


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


def assemble_hybrid(values, fits, cfg: PipelineConfig, in_sample: bool = True) -> FittedModel:
    """The hybrid of components already fitted to ``values``, weighed on
    their common in-sample range under ``cfg``'s scheme.

    Its doc is the ``fit --model hybrid`` doc, its ``parts`` are ``fits``,
    and its ``fitted`` values combine theirs on that range.  With
    ``in_sample=False`` that combination is skipped and ``fitted`` is None:
    a backtest fold reads only the doc, and a geometric or harmonic
    combination of non-positive in-sample values must not stop it.
    """
    start, actual, predictions = align_fitted(values, fits)
    weights = compute_weights(actual, predictions, cfg)
    combined = combine_forecasts(predictions, weights, cfg.combine) if in_sample else None
    return HYBRID.fitted_model(start, combined, {
        "scheme": weights.scheme,
        "combine": cfg.combine,
        "weights": [float(w) for w in weights.weights],
        "diagnostics": weights.diagnostics,
        "components": [f.to_doc() for f in fits],
    }, parts=fits)


def _fit_hybrid(values, cfg: PipelineConfig, components=DEFAULT_COMPONENTS) -> FittedModel:
    values = as_values(values)
    if len(components) < 2:
        raise ConfigError("hybrid needs at least 2 component models")
    return assemble_hybrid(values, [fit_model(kind, values, cfg) for kind in components], cfg)


def _check_hybrid(doc: dict, at: str) -> None:
    """What ties the components together; each is loaded, and so checked, first."""
    components = doc["components"]
    for i, component in enumerate(components):
        if component["kind"] == HYBRID.doc_kind:
            raise DataError(
                f"model document field '{at}components[{i}].kind' must name a base "
                f"model, not {HYBRID.doc_kind!r}"
            )
    n_fit = components[0]["n_fit"]
    for i, component in enumerate(components):
        if component["n_fit"] != n_fit:
            raise DataError(
                f"model document field '{at}components[{i}].n_fit' ({component['n_fit']}) "
                f"must equal '{at}components[0].n_fit' ({n_fit}): all fit one series"
            )
    if len(doc["weights"]) != len(components):
        raise DataError(
            f"model document field '{at}weights' must hold {len(components)} entries, "
            f"one per entry of '{at}components'"
        )
    try:
        HybridWeights(doc["weights"], doc["scheme"])
    except DataError as exc:
        raise DataError(f"model document field '{at}weights' is not a weight vector ({exc})") from exc
    if doc["combine"] not in COMBINE_SCHEMES:
        raise DataError(
            f"model document field '{at}combine' must be one of {COMBINE_SCHEMES}, "
            f"got {doc['combine']!r}"
        )


def _load_hybrid(doc: dict):
    weights = np.asarray(doc["weights"], dtype=float)
    combine = doc["combine"]
    return lambda h, *forecasts: combine_forecasts(forecasts, weights, combine)


#: The hybrid fits through :func:`fit_model` with its components, not FITTERS.
HYBRID = Kind("hybrid", "hybrid", None, {
    **_HEADER, "scheme": "string", "combine": "string", "weights": ["number"],
    "diagnostics": "object", "components": ["object"],
}, _load_hybrid, _check_hybrid)

#: The base kinds, in the CLI's order; ``config.MODELS`` is these and "hybrid".
KINDS = (GM, DGM, DGM_FMARKOV, IGNN, SGNN)

#: Fit dispatch: kind -> fitter(list of series, cfg) -> list of fits.
#: Tests may wrap entries to instrument what data a fit sees.
FITTERS = {record.name: record.fit for record in KINDS}

#: Doc "kind" -> record; the records of a "net" doc are told apart by its
#: "variant".
_BY_DOC_KIND = {r.doc_kind: r for r in (*KINDS, HYBRID) if r.variant is None}
_NETS = {r.variant: r for r in KINDS if r.doc_kind == "net"}


def components_markov_report(fits) -> MarkovTestReport | None:
    """The Markov report of the first component that carries one.

    Only ``dgm_fmarkov`` fits carry a report, and a hybrid's components
    are distinct kinds, so there is at most one.
    """
    return next((f.markov_report for f in fits if f.markov_report is not None), None)


def fit_models(kind: str, series, cfg: PipelineConfig) -> list[FittedModel]:
    """One base model of ``kind`` per series, in one fitter call."""
    if kind not in FITTERS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return FITTERS[kind](list(series), cfg)


def fit_model(kind: str, values, cfg: PipelineConfig, components=DEFAULT_COMPONENTS) -> FittedModel:
    if kind == HYBRID.name:
        return _fit_hybrid(values, cfg, components)
    return fit_models(kind, [values], cfg)[0]


def model_from_doc(doc: dict, path: str = "") -> LoadedModel:
    """The model a doc describes; a bad doc raises a one-line DataError.

    ``path`` is where the doc sits inside a hybrid doc (``components[i]``),
    so that an error in a component names its field from the top.
    """
    where = f" in {path!r}" if path else ""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DataError(f"model document must be a JSON object with a 'kind' field{where}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"unsupported model schema_version {doc.get('schema_version')!r}{where}"
        )
    kind = doc["kind"]
    table, name = (_NETS, doc.get("variant")) if kind == "net" else (_BY_DOC_KIND, kind)
    if not isinstance(name, str) or name not in table:
        raise DataError(
            f"unknown {'net variant' if kind == 'net' else 'model kind'} {name!r}{where}"
        )
    record = table[name]
    check_keys(doc, record.keys, path)
    at = f"{path}." if path else ""
    # Only a hybrid's keys admit components: docs of their own, loaded first.
    parts = [
        model_from_doc(sub, f"{at}components[{i}]")
        for i, sub in enumerate(doc.get("components", ()))
    ]
    record.check(doc, at)
    n_fit = parts[0].n_fit if parts else doc["n_fit"]  # the parts share one
    return LoadedModel(record.name, n_fit, record.load(doc), tuple(parts))


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
