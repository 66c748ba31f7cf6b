"""Command-line entry point.

Commands: synth, fit, forecast, markov-test, hybrid, backtest, report.

Exit codes map one-to-one onto error classes:

    0  success
    1  unclassified package error
    2  configuration or usage error
    3  missing or unreadable input file
    4  CSV parse error
    5  data precondition violated (length, sign, alignment, degeneracy),
       or an input too large to hold in memory
    6  numeric failure (rank, overflow, divergence, a forecast that is
       not finite)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
    marginal_distribution,
    markov_property_test,
)
from ..series import relative_residuals
from .backtest import run_backtest
from .config import READS, PipelineConfig, load_config, parse_boundaries, parse_components
from .docspec import LEAVES
from .io import (
    _open_input,
    parse_counts_csv,
    parse_series_csv,
    sniff_csv_kind,
    write_forecast_csv,
    write_json,
    write_plot_csv,
    write_series_csv,
)
from .models import (
    _markov_summary,
    align_fitted,
    assemble_hybrid,  # noqa: F401  (kept importable here; bench/spans.py times it)
    components_markov_report,
    fit_model,
    markov_report_doc,
    metrics_doc,
    model_from_doc,
)
from .synth import synthetic_series


#: Exit code of each error class, most specific first.
_EXIT_CODES = (
    (ConfigError, 2),
    (MissingInputError, 3),
    (CsvParseError, 4),
    (DataError, 5),
    (NumericError, 6),
    (GreycastError, 1),
)


#: The flag of each PipelineConfig field but ``train``: field -> (flag,
#: add_argument keywords). Each flag's dest is the field it overrides.
_CONFIG_FLAGS = {
    "model": ("--model", {"help": "model kind"}),
    "components": ("--components", {"type": parse_components, "help": "a hybrid's base models"}),
    "state_boundaries": ("--boundaries", {
        "type": parse_boundaries,
        "metavar": "BOUNDARIES",
        "help": "comma-separated state boundaries; use --boundaries=-0.09,... "
        "when the first one is negative",
    }),
    "window": ("--window", {"type": int, "help": "lag window for network inputs"}),
    "hybrid_scheme": ("--scheme", {"metavar": "SCHEME", "help": "hybrid weighting scheme"}),
    "combine": ("--combine", {"help": "combination formula"}),
    "rho": ("--rho", {"type": float, "help": "relational identification coefficient"}),
    "alpha": ("--alpha", {"type": float, "help": "Markov test confidence (0.01 or 0.05)"}),
    "horizon": ("--horizon", {"type": int, "help": "forecast steps"}),
    "seed": ("--seed", {"type": int, "help": "master RNG seed"}),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, which main reports on one line with
    exit code 2; a flag must be spelled in full.  Subparsers are built from
    the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _config_from_args(args) -> PipelineConfig:
    overrides = {name: getattr(args, name) for name in READS[args.command]}
    return load_config(args.config, overrides)


def _load_json_doc(path: str) -> dict:
    with _open_input(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object, not a {type(doc).__name__}")
    return doc


def cmd_synth(args) -> int:
    values = synthetic_series(n=args.n, seed=args.seed if args.seed is not None else 0)
    write_series_csv(args.out, values)
    print(f"wrote {values.size} synthetic values to {args.out}")
    return 0


def cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    if args.components and cfg.model != "hybrid":
        raise ConfigError(f"--components applies to --model hybrid only, not {cfg.model!r}")
    series = parse_series_csv(args.input)
    fitted = fit_model(cfg.model, series.values, cfg)
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
    """The Markov test of the residuals of a grey base model fitted to the
    series, and the config that made them: that model, the boundaries and
    alpha."""
    series = parse_series_csv(args.input)
    base_kind = "dgm" if args.model == "dgm_fmarkov" else args.model
    if base_kind not in ("gm", "dgm"):
        raise ConfigError(
            f"markov-test needs a grey base model (gm or dgm), got {base_kind!r}"
        )
    fitted = fit_model(base_kind, series.values, cfg)
    residuals = relative_residuals(series.values, fitted.fitted)
    partition = StatePartition(np.asarray(cfg.state_boundaries))
    config = {"model": base_kind, "state_boundaries": list(cfg.state_boundaries),
              "alpha": cfg.alpha}
    return _markov_summary(residuals.values, partition, cfg), config


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
        config = {"alpha": cfg.alpha}  # the fixture's rows are the states
    else:
        report, config = _markov_from_series(args, cfg)
    print(f"chi-squared = {report.chi_squared:.4f} ({report.log_base} log)")
    print(f"dof = {report.dof}")
    print(f"threshold = {report.threshold:g} (alpha = {report.alpha:g})")
    print(f"verdict: {'MARKOV' if report.is_markov else 'NOT MARKOV'}")
    if args.out:
        write_json(args.out, {
            "schema_version": 1,
            "command": "markov-test",
            "config": config,
            "markov_test": markov_report_doc(report),
        })
    return 0


def cmd_hybrid(args) -> int:
    cfg = _config_from_args(args)
    series = parse_series_csv(args.input)
    hybrid = fit_model("hybrid", series.values, cfg)
    start, actual, predictions = align_fitted(series.values, hybrid.parts)
    doc = hybrid.doc
    # In-sample, the weights combine as the loaded doc combines forecasts.
    combined = combine_forecasts(predictions, doc["weights"], doc["combine"])
    horizon = cfg.horizon
    forecasts, hybrid_forecast = hybrid.forecasts(horizon)
    component_forecasts = {
        kind: [float(v) for v in forecast] for kind, forecast in zip(cfg.components, forecasts)
    }
    report = {
        "schema_version": 1,
        "command": "hybrid",
        "config": cfg.echo("hybrid"),
        "components": list(cfg.components),
        "evaluation": {
            "start_t": start,
            "models": {
                kind: metrics_doc(actual, pred) for kind, pred in zip(cfg.components, predictions)
            },
            "hybrid": metrics_doc(actual, combined),
        },
        "weights": {
            "scheme": doc["scheme"],
            "values": doc["weights"],
            "diagnostics": doc["diagnostics"],
        },
        "markov_test": markov_report_doc(components_markov_report(hybrid.parts)),
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
    print(f"hybrid scheme = {doc['scheme']}, weights = {[round(w, 4) for w in doc['weights']]}")
    for kind in cfg.components:
        print(f"  {kind}: in-sample MAPE = {report['evaluation']['models'][kind]['mape']:.4f}%")
    print(f"  hybrid: in-sample MAPE = {report['evaluation']['hybrid']['mape']:.4f}%")
    print(f"report -> {args.out}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _config_from_args(args)
    series = parse_series_csv(args.input)
    report, header, rows = run_backtest(series.values, cfg, folds=args.folds)
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


def _checked(value, name: str, leaf: str):
    """``value``, the report field ``name``, if it is a ``leaf``: one of
    :data:`.docspec.LEAVES`, or one of report's own two, "number?" (a
    number, or null, which a report holds for a non-finite value and which
    reads as NaN) and "[number?]" (a non-empty list of those)."""
    if leaf == "[number?]":
        if not isinstance(value, list) or not value:
            raise DataError(f"report field {name} must be a non-empty list, got {value!r}")
        return [_checked(v, f"{name}[{i}]", "number?") for i, v in enumerate(value)]
    if leaf == "number?" and value is None:
        return math.nan
    what, holds = LEAVES[leaf.rstrip("?")]
    if not holds(value):
        raise DataError(f"report field {name} must be {what}, got {value!r}")
    return value


def _field(node: dict, key: str, leaf: str, at: str = "", default=...):
    """The field ``key`` of the report object ``node``, named ``at + key``
    and checked as :func:`_checked` does; an absent field is ``default``, or
    a data error if there is none."""
    if key not in node:
        if default is ...:
            raise DataError(f"report field {at}{key} is missing")
        return default
    return _checked(node[key], at + key, leaf)


def _metrics_lines(label: str, metrics: dict, at: str) -> list[str]:
    """The metrics line, then for a backtest's metrics lead 1's MAPE and the
    mean MAPE of leads 2..h."""
    mse, mae, mape, theil = (_field(metrics, key, "number?", at) for key in ("mse", "mae", "mape", "theil"))
    lines = [f"  {label}: mse={mse:.6g} mae={mae:.6g} mape={mape:.4f}% theil={theil:.6g}"]
    by_lead = _field(metrics, "mape_by_lead", "[number?]", at, default=None)
    if by_lead:
        first, *later = by_lead
        line = f"  {label} by lead: lead 1 mape={first:.4f}%"
        if later:
            leads = "lead 2" if len(later) == 1 else f"leads 2-{len(by_lead)}"
            line += f", {leads} mean mape={sum(later) / len(later):.4f}%"
        lines.append(line)
    return lines


#: The config fields ``report`` prints, with their labels and leaf types,
#: when a report holds them.
_REPORT_CONFIG = (("model", "model", "string"), ("hybrid_scheme", "scheme", "string"),
                  ("combine", "combine", "string"), ("horizon", "horizon", "int"),
                  ("seed", "seed", "int"))


def cmd_report(args) -> int:
    """Print a summary of a report; a field of the wrong type or a missing
    one is a data error that names it, and nothing is printed."""
    doc = _load_json_doc(args.input)
    lines = [f"report for command: {_field(doc, 'command', 'string', default='?')}"]
    config = _field(doc, "config", "object", default={})
    shown = [f"{label}={_field(config, key, leaf, 'config.')}"
             for key, label, leaf in _REPORT_CONFIG if key in config]
    if shown:
        lines.append(" ".join(["  config:", *shown]))
    for key in ("models", "hybrid"):
        # A backtest report holds this section at its top, a hybrid report
        # under evaluation.
        node, at = (doc, "") if doc.get(key) else (
            _field(doc, "evaluation", "object", default={}), "evaluation.")
        section = _field(node, key, "object", at, default={})
        at += f"{key}."
        if key == "models":
            for label in section:
                lines += _metrics_lines(label, _field(section, label, "object", at), f"{at}{label}.")
        elif section:
            if "metrics" in section:
                section, at = _field(section, "metrics", "object", at), f"{at}metrics."
            lines += _metrics_lines("hybrid", section, at)
    if doc.get("weights"):
        weights = _field(doc, "weights", "object")
        scheme = _field(weights, "scheme", "string", "weights.")
        values = _field(weights, "values", "[number?]", "weights.")
        lines.append(f"  weights ({scheme}): {values}")
    if doc.get("markov_test"):
        markov = _field(doc, "markov_test", "object")
        chi2, threshold, dof, verdict = (
            _field(markov, key, leaf, "markov_test.") for key, leaf in (
                ("chi_squared", "number?"), ("threshold", "number?"),
                ("dof", "int"), ("verdict", "string")))
        lines.append(
            f"  markov: chi-squared={chi2:.4f} dof={dof} threshold={threshold:g} verdict={verdict}"
        )
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="greycast",
        description="Grey-system forecasting pipeline (CSV in, JSON/CSV artifacts out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a seeded synthetic series CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=278)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit a model and persist it as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("forecast", help="forecast from a persisted model JSON")
    p.add_argument("--input", required=True, help="model JSON written by fit")
    p.add_argument("--out", required=True, help="forecast CSV")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("markov-test", help="chi-squared Markov property test")
    p.add_argument("--input", required=True, help="series CSV or counts fixture CSV")
    p.add_argument("--out", help="optional JSON report")
    p.add_argument(
        "--model", default="dgm", help="grey base model for a series: gm or dgm (default dgm)"
    )
    p.set_defaults(func=cmd_markov_test)

    p = sub.add_parser("hybrid", help="fit components, weight them, report")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--forecast-out", help="optional hybrid forecast CSV")
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser("backtest", help="rolling-origin evaluation")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--plot-out", help="plot-data CSV")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="print a summary of a report JSON")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_report)

    for command, names in READS.items():
        p = sub.choices[command]
        p.add_argument("--config", help="JSON config file; flags win on conflict")
        for name in names:
            flag, options = _CONFIG_FLAGS[name]
            p.add_argument(flag, dest=name, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a grey fit; parse_args keeps no
    # state between calls, so one parser serves every call in a process.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except GreycastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    except MemoryError as exc:
        # An input that asks for more values than the machine can hold, such
        # as a model doc whose n_fit is 10**15 (docspec.MAX_COUNT), is a data
        # error.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: input too large to hold in memory{detail}", file=sys.stderr)
        return dict(_EXIT_CODES)[DataError]


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except BrokenPipeError as exc:
        # The reader closed stdout early (``greycast report ... | head -3``).
        # As the SIGPIPE note of the signal module's docs advises, stdout
        # goes to devnull, so the flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = dict(_EXIT_CODES)[ConfigError]  # that of an unwritable output path
    sys.exit(code)


if __name__ == "__main__":
    console_main()
