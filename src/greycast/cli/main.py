"""Command-line entry point.

Commands: synth, fit, forecast, markov-test, hybrid, backtest, report.

Exit codes map one-to-one onto error classes:

    0  success
    1  unclassified package error
    2  configuration or usage error
    3  missing input file
    4  CSV parse error
    5  data precondition violated (length, sign, alignment, degeneracy)
    6  numeric failure (rank, overflow, divergence)
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from ..errors import (
    ConfigError,
    CsvParseError,
    DataError,
    GreycastError,
    MissingInputError,
    NumericError,
)
from ..hybrid import combine_forecasts
from ..markov import (
    StatePartition,
    TransitionCounts,
    classify_states,
    count_transitions,
    marginal_distribution,
    markov_property_test,
)
from ..series import relative_residuals
from .backtest import run_backtest
from .config import PipelineConfig, load_config, parse_boundaries
from .io import (
    dump_json,
    parse_counts_csv,
    parse_series_csv,
    sniff_csv_kind,
    write_forecast_csv,
    write_json,
    write_plot_csv,
    write_series_csv,
)
from .models import (
    DEFAULT_COMPONENTS,
    _plain,
    assemble_hybrid,
    fit_model,
    markov_report_doc,
    metrics_doc,
    model_from_doc,
)
from .synth import synthetic_series


def _add_config_flags(parser: argparse.ArgumentParser, *, with_model: bool = True) -> None:
    parser.add_argument("--config", help="JSON config file; flags win on conflict")
    if with_model:
        parser.add_argument("--model", help="model kind")
    parser.add_argument("--window", type=int, help="lag window for network inputs")
    parser.add_argument("--horizon", type=int, help="forecast steps")
    parser.add_argument("--alpha", type=float, help="Markov test confidence (0.01 or 0.05)")
    parser.add_argument("--rho", type=float, help="relational identification coefficient")
    parser.add_argument("--scheme", help="hybrid weighting scheme")
    parser.add_argument("--combine", help="combination formula")
    parser.add_argument("--seed", type=int, help="master RNG seed")
    parser.add_argument(
        "--boundaries",
        help="comma-separated state boundaries; use --boundaries=-0.09,... "
        "when the first one is negative",
    )


def _config_from_args(args) -> PipelineConfig:
    overrides = {
        "model": getattr(args, "model", None),
        "window": getattr(args, "window", None),
        "horizon": getattr(args, "horizon", None),
        "alpha": getattr(args, "alpha", None),
        "rho": getattr(args, "rho", None),
        "hybrid_scheme": getattr(args, "scheme", None),
        "combine": getattr(args, "combine", None),
        "seed": getattr(args, "seed", None),
    }
    boundaries = getattr(args, "boundaries", None)
    if boundaries is not None:
        overrides["state_boundaries"] = parse_boundaries(boundaries)
    return load_config(getattr(args, "config", None), overrides)


def _components_from_args(args) -> tuple[str, ...]:
    raw = getattr(args, "components", None)
    if not raw:
        return DEFAULT_COMPONENTS
    parts = tuple(part.strip() for part in raw.split(",") if part.strip())
    if len(parts) < 2:
        raise ConfigError(f"--components needs at least 2 model kinds, got {raw!r}")
    if len(set(parts)) != len(parts):
        raise ConfigError(f"--components must name distinct model kinds, got {raw!r}")
    if "hybrid" in parts:
        raise ConfigError("--components must name base models, not 'hybrid'")
    return parts


def _load_json_doc(path: str) -> dict:
    if not os.path.exists(path):
        raise MissingInputError(f"input file not found: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object, not a {type(doc).__name__}")
    return doc


def cmd_synth(args) -> int:
    values = synthetic_series(
        n=args.n,
        seed=args.seed if args.seed is not None else 0,
        base=args.base,
        trend=args.trend,
        noise=args.noise,
        ar=args.ar,
        shifts=args.shifts,
        shift_scale=args.shift_scale,
    )
    write_series_csv(args.out, values)
    print(f"wrote {values.size} synthetic values to {args.out}")
    return 0


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    series = parse_series_csv(args.input)
    fitted = fit_model(cfg.model, series.values, cfg, _components_from_args(args))
    write_json(args.out, fitted.to_doc())
    print(f"fitted {cfg.model} on {len(series)} points -> {args.out}")
    return 0


def cmd_forecast(args) -> int:
    cfg = _config_from_args(args)
    model = model_from_doc(_load_json_doc(args.input))
    values = model.forecast(cfg.horizon)
    write_forecast_csv(args.out, model.n_fit + 1, values)
    print(
        f"forecast {cfg.horizon} steps with {model.kind} "
        f"(t = {model.n_fit + 1}..{model.n_fit + cfg.horizon}) -> {args.out}"
    )
    return 0


def _markov_from_series(args, cfg: PipelineConfig):
    series = parse_series_csv(args.input)
    base_kind = args.model or "dgm"
    if base_kind == "dgm_fmarkov":
        base_kind = "dgm"
    if base_kind not in ("gm", "dgm"):
        raise ConfigError(
            f"markov-test needs a grey base model (gm or dgm), got {base_kind!r}"
        )
    fitted = fit_model(base_kind, series.values, cfg)
    residuals = relative_residuals(series.values, fitted.fitted)
    partition = StatePartition(np.asarray(cfg.state_boundaries))
    classified = classify_states(residuals.values, partition)
    counts = count_transitions(classified)
    occupancy = np.bincount(classified.states, minlength=partition.k + 1)[1:]
    marginals = marginal_distribution(occupancy, classified.states.size)
    return markov_property_test(counts, marginals, alpha=cfg.alpha)


def cmd_markov_test(args) -> int:
    cfg = _config_from_args(args)
    if sniff_csv_kind(args.input) == "counts":
        counts, occupancy = parse_counts_csv(args.input)
        total = int(occupancy.sum())
        tc = TransitionCounts(
            counts=counts, row_totals=counts.sum(axis=1), total=total
        )
        marginals = marginal_distribution(occupancy, total)
        report = markov_property_test(tc, marginals, alpha=cfg.alpha)
    else:
        report = _markov_from_series(args, cfg)
    print(f"chi-squared = {report.chi_squared:.4f} ({report.log_base} log)")
    print(f"dof = {report.dof}")
    print(f"threshold = {report.threshold:g} (alpha = {report.alpha:g})")
    print(f"verdict: {'MARKOV' if report.is_markov else 'NOT MARKOV'}")
    if args.out:
        write_json(args.out, markov_report_doc(report))
    return 0


def cmd_hybrid(args) -> int:
    cfg = _config_from_args(args)
    components = _components_from_args(args)
    series = parse_series_csv(args.input)
    fits, start, actual, predictions, weights, combined = assemble_hybrid(
        series.values, cfg, components
    )
    horizon = cfg.horizon
    component_forecasts = {
        fit.kind: [float(v) for v in fit.forecast(horizon)] for fit in fits
    }
    hybrid_forecast = combine_forecasts(
        list(component_forecasts.values()), weights, cfg.combine
    )
    markov_report = next(
        (f.markov_report for f in fits if f.markov_report is not None), None
    )
    report = {
        "schema_version": 1,
        "command": "hybrid",
        "config": cfg.echo(),
        "components": list(components),
        "evaluation": {
            "start_t": start,
            "models": {
                fit.kind: metrics_doc(actual, pred)
                for fit, pred in zip(fits, predictions)
            },
            "hybrid": metrics_doc(actual, combined),
        },
        "weights": {
            "scheme": weights.scheme,
            "values": [float(w) for w in weights.weights],
            "diagnostics": _plain(weights.diagnostics),
        },
        "markov_test": markov_report_doc(markov_report),
        "forecast": {
            "start_t": len(series) + 1,
            "horizon": horizon,
            "models": component_forecasts,
            "hybrid": [float(v) for v in hybrid_forecast],
        },
    }
    write_json(args.out, report)
    if args.forecast_out:
        write_forecast_csv(args.forecast_out, len(series) + 1, hybrid_forecast)
    mapes = {
        kind: report["evaluation"]["models"][kind]["mape"] for kind in component_forecasts
    }
    print(f"hybrid scheme = {weights.scheme}, weights = {[round(float(w), 4) for w in weights.weights]}")
    for kind, mape in mapes.items():
        print(f"  {kind}: in-sample MAPE = {mape:.4f}%")
    print(f"  hybrid: in-sample MAPE = {report['evaluation']['hybrid']['mape']:.4f}%")
    print(f"report -> {args.out}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _config_from_args(args)
    components = _components_from_args(args)
    series = parse_series_csv(args.input)
    report, header, rows = run_backtest(
        series.values, cfg, components=components, folds=args.folds
    )
    write_json(args.out, report)
    if args.plot_out:
        write_plot_csv(args.plot_out, header, rows)
    print(
        f"backtest: {args.folds} folds x horizon {cfg.horizon} "
        f"on {len(series)} points -> {args.out}"
    )
    for name in report["models"]:
        print(f"  {name}: held-out MAPE = {report['models'][name]['mape']:.4f}%")
    print(f"  hybrid: held-out MAPE = {report['hybrid']['metrics']['mape']:.4f}%")
    return 0


def cmd_report(args) -> int:
    doc = _load_json_doc(args.input)
    command = doc.get("command", "?")
    print(f"report for command: {command}")
    config = doc.get("config", {})
    if config:
        print(
            f"  config: model={config.get('model')} scheme={config.get('hybrid_scheme')} "
            f"combine={config.get('combine')} horizon={config.get('horizon')} "
            f"seed={config.get('seed')}"
        )
    models = doc.get("models") or doc.get("evaluation", {}).get("models", {})
    for name, metrics in models.items():
        print(
            f"  {name}: mse={metrics['mse']:.6g} mae={metrics['mae']:.6g} "
            f"mape={metrics['mape']:.4f}% theil={metrics['theil']:.6g}"
        )
    hybrid = doc.get("hybrid") or doc.get("evaluation", {}).get("hybrid")
    if hybrid:
        metrics = hybrid.get("metrics", hybrid)
        print(
            f"  hybrid: mse={metrics['mse']:.6g} mae={metrics['mae']:.6g} "
            f"mape={metrics['mape']:.4f}% theil={metrics['theil']:.6g}"
        )
    weights = doc.get("weights")
    if weights:
        print(f"  weights ({weights.get('scheme')}): {weights.get('values')}")
    markov = doc.get("markov_test")
    if markov:
        print(
            f"  markov: chi-squared={markov['chi_squared']:.4f} dof={markov['dof']} "
            f"threshold={markov['threshold']:g} verdict={markov['verdict']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greycast",
        description="Grey-system forecasting pipeline (CSV in, JSON/CSV artifacts out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a seeded synthetic series CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=278)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--base", type=float, default=100.0)
    p.add_argument("--trend", type=float, default=0.05)
    p.add_argument("--noise", type=float, default=0.6)
    p.add_argument("--ar", type=float, default=0.75)
    p.add_argument("--shifts", type=int, default=2)
    p.add_argument("--shift-scale", type=float, default=4.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a model and persist it as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--components", help="comma list for --model hybrid")
    _add_config_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from a persisted model JSON")
    p.add_argument("--input", required=True, help="model JSON written by fit")
    p.add_argument("--out", required=True, help="forecast CSV")
    _add_config_flags(p, with_model=False)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("markov-test", help="chi-squared Markov property test")
    p.add_argument("--input", required=True, help="series CSV or counts fixture CSV")
    p.add_argument("--out", help="optional JSON report")
    _add_config_flags(p)
    p.set_defaults(func=cmd_markov_test)

    p = sub.add_parser("hybrid", help="fit components, weight them, report")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--forecast-out", help="optional hybrid forecast CSV")
    p.add_argument("--components", help="comma list, default dgm_fmarkov,ignn")
    _add_config_flags(p, with_model=False)
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("backtest", help="rolling-origin evaluation")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--plot-out", help="plot-data CSV")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--components", help="comma list, default dgm_fmarkov,ignn")
    _add_config_flags(p, with_model=False)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="print a summary of a report JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a grey fit; parse_args keeps no
    # state between calls, so one parser serves every call in a process.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CsvParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except GreycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
