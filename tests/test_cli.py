import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import greycast
import greycast.cli.models as cli_models
import greycast.errors
from greycast import (
    CsvParseError,
    DataError,
    StatePartition,
    TrainConfig,
    expected_drift,
    fit_dgm,
    fit_gm11,
    forecast_dgm,
    forecast_gm11,
    fuzzy_transition_matrix,
    relative_residuals,
)
from greycast.cli.backtest import run_backtest
from greycast.cli.config import MODELS, READS, PipelineConfig, load_config
from greycast.cli.docspec import MAX_COUNT
from greycast.cli.io import dump_json, parse_counts_csv, parse_series_csv
from greycast.cli.main import _CONFIG_FLAGS, _config_from_args, build_parser, main
from greycast.cli.synth import synthetic_series
from conftest import PUBLISHED_COUNTS, PUBLISHED_OCCUPANCY


def write_series(path, values):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["value"])
        for v in values:
            writer.writerow([repr(float(v))])


def write_counts_fixture(path):
    k = PUBLISHED_COUNTS.shape[0]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["state"] + [f"to{j + 1}" for j in range(k)] + ["occupancy"])
        for i in range(k):
            writer.writerow(
                [i + 1] + list(PUBLISHED_COUNTS[i]) + [PUBLISHED_OCCUPANCY[i]]
            )


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def test_parse_value_only_csv():
    ts = parse_series_csv(io.StringIO("value\n1\n2\n3\n"))
    assert ts.values.tolist() == [1.0, 2.0, 3.0]


def test_parse_dated_csv():
    ts = parse_series_csv(
        io.StringIO("date,value\n1994-09-01,99.1\n1994-09-02,99.4\n")
    )
    assert np.allclose(ts.values, [99.1, 99.4])


def test_parse_error_names_row():
    with pytest.raises(CsvParseError, match="row 3"):
        parse_series_csv(io.StringIO("value\n1\nabc\n"))


def test_parse_rejects_empty_and_duplicate_header():
    with pytest.raises(CsvParseError, match="empty"):
        parse_series_csv(io.StringIO(""))
    with pytest.raises(CsvParseError, match="duplicate header"):
        parse_series_csv(io.StringIO("value\n1\nvalue\n"))
    with pytest.raises(CsvParseError, match="header"):
        parse_series_csv(io.StringIO("price\n1\n2\n"))


def test_parse_counts_fixture(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts_fixture(path)
    counts, occupancy = parse_counts_csv(path)
    assert np.array_equal(counts, PUBLISHED_COUNTS)
    assert np.array_equal(occupancy, PUBLISHED_OCCUPANCY)


# The UTF-8 byte-order mark that Excel's "CSV UTF-8" and some editors write
# at the start of a file.
_BOM = b"\xef\xbb\xbf"


def _with_bom(path):
    path.write_bytes(_BOM + path.read_bytes())
    return path


def test_bom_series_fits_to_the_doc_of_its_twin(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_series(plain, synthetic_series(40, seed=3))
    bom.write_bytes(_BOM + plain.read_bytes())
    for data in (plain, bom):
        argv = ["fit", "--model", "dgm_fmarkov", "--input", str(data), "--out", str(data) + ".json"]
        assert main(argv) == 0
    assert (tmp_path / "bom.csv.json").read_bytes() == (tmp_path / "plain.csv.json").read_bytes()


def test_bom_config_counts_and_model_doc_load(tmp_path):
    counts = tmp_path / "counts.csv"
    write_counts_fixture(counts)
    assert np.array_equal(parse_counts_csv(_with_bom(counts))[0], PUBLISHED_COUNTS)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"alpha": 0.05}))
    assert load_config(str(_with_bom(config)), {}).alpha == 0.05
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    write_series(data, synthetic_series(30, seed=9))
    assert main(["fit", "--model", "gm", "--input", str(data), "--out", str(model)]) == 0
    plain_fc, bom_fc = tmp_path / "plain.csv", tmp_path / "bom.csv"
    assert main(["forecast", "--input", str(model), "--horizon", "3", "--out", str(plain_fc)]) == 0
    _with_bom(model)
    assert main(["forecast", "--input", str(model), "--horizon", "3", "--out", str(bom_fc)]) == 0
    assert bom_fc.read_bytes() == plain_fc.read_bytes()


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------


def test_dump_json_float_rendering():
    text = dump_json({"x": 1.0 / 3.0, "flag": True, "items": [1, None]})
    assert json.loads(text)["x"] == 1.0 / 3.0
    assert "0.33333333333333331" in text
    assert dump_json(float("nan")) == "null\n"


def test_dump_json_escapes_strings_as_before():
    # Quotes, backslashes and control characters escaped; non-ASCII text kept.
    doc = {'q"k': 'a"b', "back\\slash": "c\\d", "nl\n": "e\nf\rg\th",
           "ctl\x01": "\x01\x1f", "grüße": "雪 – ü"}
    text = dump_json(doc)
    assert text == (
        '{\n  "q\\"k": "a\\"b",\n  "back\\\\slash": "c\\\\d",\n'
        '  "nl\\n": "e\\nf\\rg\\th",\n  "ctl\\u0001": "\\u0001\\u001f",\n'
        '  "grüße": "雪 – ü"\n}\n'
    )
    assert json.loads(text) == doc
    # Backspace and form feed take the short escapes.
    assert dump_json("\b\f") == '"\\b\\f"\n'


# ---------------------------------------------------------------------------
# synth + fit + forecast commands
# ---------------------------------------------------------------------------


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--out", str(a), "--n", "50", "--seed", "9"]) == 0
    assert main(["synth", "--out", str(b), "--n", "50", "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(parse_series_csv(a)) == 50


def test_fit_gm_on_constant_series(tmp_path, capsys):
    data = tmp_path / "const.csv"
    model_path = tmp_path / "m.json"
    write_series(data, [10.0] * 6)
    rc = main(["fit", "--model", "gm", "--input", str(data), "--out", str(model_path)])
    assert rc == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "gm" and doc["schema_version"] == 2
    assert abs(doc["a"]) < 1e-9
    assert abs(doc["u"] - 10.0) < 1e-9


@pytest.mark.parametrize("kind", ["gm", "dgm", "dgm_fmarkov", "ignn", "sgnn", "hybrid"])
def test_fit_then_forecast_round_trip(tmp_path, kind):
    data = tmp_path / "series.csv"
    values = synthetic_series(40, seed=3)
    write_series(data, values)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"epochs": 30, "learning_rate": 0.1}}))
    model_path = tmp_path / "model.json"
    out_path = tmp_path / "fc.csv"
    assert main(["fit", "--model", kind, "--input", str(data),
                 "--out", str(model_path), "--config", str(config)]) == 0
    doc = json.loads(model_path.read_text())
    for part, name in [(doc, kind), *zip(doc.get("components", ()), PipelineConfig().components)]:
        assert part["schema_version"] == 2 and part["kind"] == name and "variant" not in part
    assert main(["forecast", "--input", str(model_path), "--horizon", "3", "--out", str(out_path)]) == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "t,forecast"
    assert [r.split(",")[0] for r in rows[1:]] == ["41", "42", "43"]
    got = [float(r.split(",")[1]) for r in rows[1:]]
    fit = cli_models.fit_model(kind, values, load_config(str(config), {}))
    np.testing.assert_allclose(got, fit.forecast(3), rtol=1e-15)
    if kind == "gm":  # and the library path
        m = fit_gm11(values)
        np.testing.assert_allclose(got, forecast_gm11(m, 3)[m.n_fit :], rtol=1e-15)
    if kind == "hybrid":  # the hybrid command reports the saved model's forecast
        report_path = tmp_path / "report.json"
        assert main(["hybrid", "--input", str(data), "--out", str(report_path),
                     "--horizon", "3", "--config", str(config)]) == 0
        report = json.loads(report_path.read_text())
        np.testing.assert_allclose(report["forecast"]["hybrid"], got, rtol=1e-15)


def test_dgm_fmarkov_forecast_corrects_only_its_first_step():
    # Pins the multi-step path as it stands: step 1 adds the expected drift
    # from the last residual, and steps 2..h are the raw DGM forecast.
    values = synthetic_series(120, seed=3)
    horizon = 12
    dgm = fit_dgm(values)
    raw = forecast_dgm(dgm, horizon)[dgm.n_fit :]
    residuals = relative_residuals(values, forecast_dgm(dgm, 1)[: dgm.n_fit]).values
    fm = fuzzy_transition_matrix(residuals, StatePartition.default())
    step_one = raw[0] + expected_drift(fm, residuals[-1]) * values[-1]
    fit = cli_models.fit_model("dgm_fmarkov", values, PipelineConfig())
    loaded = cli_models.model_from_doc(json.loads(json.dumps(fit.to_doc())))
    for out in (fit.forecast(horizon), loaded.forecast(horizon)):
        assert out[0] == step_one and out[0] != raw[0]
        assert out[1:].tobytes() == raw[1:].tobytes()


# ---------------------------------------------------------------------------
# markov-test command
# ---------------------------------------------------------------------------


def test_markov_test_on_published_counts(tmp_path, capsys):
    fixture = tmp_path / "fixture_states.csv"
    write_counts_fixture(fixture)
    rc = main(["markov-test", "--input", str(fixture), "--alpha", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dof = 25" in out
    assert "threshold = 44.3" in out
    assert "verdict: MARKOV" in out


def test_markov_test_skips_blank_rows_before_a_counts_header(tmp_path, capsys):
    fixture = tmp_path / "fixture_states.csv"
    write_counts_fixture(fixture)
    fixture.write_text("\n" + fixture.read_text())
    assert main(["markov-test", "--input", str(fixture), "--alpha", "0.01"]) == 0
    assert "dof = 25" in capsys.readouterr().out


def test_markov_test_on_series(tmp_path, capsys):
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(80, seed=5))
    out_path = tmp_path / "markov.json"
    rc = main(["markov-test", "--input", str(data), "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())["markov_test"]
    assert doc["dof"] == 25
    assert doc["verdict"] in ("MARKOV", "NOT MARKOV")
    assert "chi-squared" in capsys.readouterr().out


def test_markov_test_custom_boundaries(tmp_path, capsys):
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(80, seed=5))
    rc = main([
        "markov-test", "--input", str(data),
        "--boundaries=-0.1,0,0.1", "--alpha", "0.05",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dof = 1" in out  # two states
    assert "threshold = 3.841" in out


@pytest.mark.parametrize("model, base", [("gm", "gm"), ("dgm", "dgm"), ("dgm_fmarkov", "dgm")])
def test_markov_test_report_names_its_base_model(tmp_path, capsys, model, base):
    # --model is markov-test's own flag, not a config field, so the report
    # names the base model it fitted; it echoes no train block, which the
    # command never reads.
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(30, seed=9))
    out_path = tmp_path / "markov.json"
    assert main(["markov-test", "--input", str(data), "--out", str(out_path),
                 "--model", model, "--alpha", "0.05"]) == 0
    doc = json.loads(out_path.read_text())
    cfg = PipelineConfig(alpha=0.05)
    assert doc["schema_version"] == 1
    assert doc["config"] == {"model": base, "state_boundaries": list(cfg.state_boundaries), "alpha": 0.05}
    values = synthetic_series(30, seed=9)
    residuals = relative_residuals(values, cli_models.fit_model(base, values, cfg).fitted).values
    expected = cli_models._markov_summary(residuals, StatePartition.default(), cfg)
    assert doc["markov_test"] == json.loads(dump_json(cli_models.markov_report_doc(expected)))
    capsys.readouterr()
    assert main(["report", "--input", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"  config: model={base}"


def test_markov_test_report_on_counts_echoes_alpha_only(tmp_path, capsys):
    # The fixture's rows are the states and no model is fitted, so neither
    # state_boundaries nor a model is echoed.
    fixture = tmp_path / "fixture_states.csv"
    write_counts_fixture(fixture)
    out_path = tmp_path / "markov.json"
    assert main(["markov-test", "--input", str(fixture), "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"] == {"alpha": 0.01}
    assert doc["markov_test"]["dof"] == 25


# ---------------------------------------------------------------------------
# hybrid command
# ---------------------------------------------------------------------------


@pytest.fixture
def hybrid_setup(tmp_path):
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(60, seed=2))
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"train": {"epochs": 60, "learning_rate": 0.1, "seed": 0}})
    )
    return data, config


def test_hybrid_report_contents(tmp_path, hybrid_setup):
    data, config = hybrid_setup
    report_path = tmp_path / "report.json"
    fc_path = tmp_path / "fc.csv"
    rc = main([
        "hybrid", "--input", str(data), "--out", str(report_path),
        "--forecast-out", str(fc_path), "--scheme", "grey_relation",
        "--horizon", "4", "--config", str(config), "--seed", "2",
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "hybrid"
    assert report["components"] == ["dgm_fmarkov", "ignn"]
    assert report["weights"]["scheme"] == "grey_relation"
    weights = report["weights"]["values"]
    assert abs(sum(weights) - 1.0) < 1e-9
    gammas = report["weights"]["diagnostics"]["gamma_individual"]
    assert report["weights"]["diagnostics"]["gamma"] >= max(gammas) - 1e-9
    models = report["evaluation"]["models"]
    hybrid_mape = report["evaluation"]["hybrid"]["mape"]
    assert hybrid_mape <= min(m["mape"] for m in models.values()) + 1e-9
    assert report["markov_test"]["dof"] == 25
    assert len(report["forecast"]["hybrid"]) == 4
    rows = fc_path.read_text().strip().splitlines()
    assert len(rows) == 5 and rows[1].split(",")[0] == "61"


def test_hybrid_report_is_byte_deterministic(tmp_path, hybrid_setup):
    data, config = hybrid_setup
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    args = ["hybrid", "--input", str(data), "--scheme", "min_variance",
            "--config", str(config), "--seed", "2"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_rejected_call_leaves_later_calls_unchanged(tmp_path, hybrid_setup):
    data, _ = hybrid_setup
    args = ["hybrid", "--input", str(data), "--components", "dgm_fmarkov,gm",
            "--scheme", "simplex_ls", "--horizon", "3"]
    assert main(["hybrid", "--input", str(data), "--no-such-flag"]) == 2
    in_process = tmp_path / "in_process.json"
    assert main(args + ["--out", str(in_process)]) == 0

    fresh = tmp_path / "fresh.json"
    src = os.path.dirname(os.path.dirname(greycast.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "greycast", *args, "--out", str(fresh)],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert in_process.read_bytes() == fresh.read_bytes()


# ---------------------------------------------------------------------------
# backtest command
# ---------------------------------------------------------------------------


def test_backtest_report_and_plot(tmp_path):
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(80, seed=6))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"epochs": 40, "learning_rate": 0.1}}))
    report_path = tmp_path / "bt.json"
    plot_path = tmp_path / "plot.csv"
    rc = main([
        "backtest", "--input", str(data), "--out", str(report_path),
        "--plot-out", str(plot_path), "--horizon", "4", "--folds", "3",
        "--config", str(config),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["folds"]) == 3
    assert report["folds"][0]["origin"] == 80 - 3 * 4
    assert set(report["models"]) == {"dgm_fmarkov", "ignn"}
    assert report["hybrid"]["metrics"]["n"] == 12
    rows = plot_path.read_text().strip().splitlines()
    assert rows[0] == "t,actual,dgm_fmarkov,ignn,hybrid"
    assert len(rows) == 13
    assert rows[1].split(",")[0] == "69"
    # The pooled metrics are those of the plot's columns, exactly: both files
    # write 17 significant digits, so every float round-trips.
    columns = np.array([row.split(",") for row in rows[1:]], dtype=float).T
    pooled = {**report["models"], "hybrid": report["hybrid"]["metrics"]}
    for name, column in zip(rows[0].split(",")[2:], columns[2:]):
        expected = cli_models.metrics_doc(columns[1], column)
        for key in ("mse", "mae", "mape", "theil", "n"):
            assert pooled[name][key] == expected[key], (name, key)


def test_backtest_mape_by_lead(tmp_path, capsys):
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(60, seed=4))
    report_path = tmp_path / "bt.json"
    plot_path = tmp_path / "plot.csv"
    assert main([
        "backtest", "--input", str(data), "--out", str(report_path),
        "--plot-out", str(plot_path), "--horizon", "4", "--folds", "3",
        "--components", "dgm_fmarkov,dgm",
    ]) == 0
    report = json.loads(report_path.read_text())
    rows = plot_path.read_text().strip().splitlines()
    columns = np.array([row.split(",") for row in rows[1:]], dtype=float).T
    metrics = {**report["models"], "hybrid": report["hybrid"]["metrics"]}
    for name, column in zip(rows[0].split(",")[2:], columns[2:]):
        # the plot's rows run fold by fold, so lead l is every 4th row from l
        by_hand = [
            100 * sum(abs((column[i] - columns[1][i]) / columns[1][i]) for i in range(lead, 12, 4)) / 3
            for lead in range(4)
        ]
        assert metrics[name]["mape_by_lead"] == pytest.approx(by_hand, rel=1e-12, abs=0)
        mean = sum(metrics[name]["mape_by_lead"]) / 4
        assert mean == pytest.approx(metrics[name]["mape"], rel=1e-12, abs=0)
    capsys.readouterr()
    assert main(["report", "--input", str(report_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    by_lead = metrics["dgm"]["mape_by_lead"]
    dgm_line = next(i for i, line in enumerate(out) if line.startswith("  dgm:"))
    assert out[dgm_line + 1] == (
        f"  dgm by lead: lead 1 mape={by_lead[0]:.4f}%, "
        f"leads 2-4 mean mape={sum(by_lead[1:]) / 3:.4f}%"
    )


def test_backtest_mape_by_lead_is_null_at_a_zero_actual(tmp_path):
    # The zero is the last fold's last step, so no fold trains on it.
    data = tmp_path / "series.csv"
    write_series(data, [*synthetic_series(39, seed=4), 0.0])
    report_path = tmp_path / "bt.json"
    assert main([
        "backtest", "--input", str(data), "--out", str(report_path),
        "--horizon", "3", "--folds", "2", "--components", "gm,dgm",
    ]) == 0
    metrics = json.loads(report_path.read_text())["models"]["gm"]
    assert metrics["mape"] is None
    assert [v is None for v in metrics["mape_by_lead"]] == [False, False, True]


def test_backtest_never_sees_future_data(tmp_path, monkeypatch):
    n, horizon, folds = 70, 5, 3
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(n, seed=7))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"epochs": 5, "learning_rate": 0.1}}))

    seen = []
    calls = []
    original = dict(cli_models.FITTERS)

    def instrument(kind):
        def wrapped(series, cfg):
            calls.append(kind)
            seen.extend((kind, len(values)) for values in series)
            return original[kind](series, cfg)
        return wrapped

    for kind in original:
        monkeypatch.setitem(cli_models.FITTERS, kind, instrument(kind))

    rc = main([
        "backtest", "--input", str(data), "--out", str(tmp_path / "bt.json"),
        "--horizon", str(horizon), "--folds", str(folds), "--config", str(config),
    ])
    assert rc == 0
    origins = [n - folds * horizon + i * horizon for i in range(folds)]
    assert sorted({length for _, length in seen}) == origins
    per_fold = {origin: [k for k, ln in seen if ln == origin] for origin in origins}
    for origin, kinds in per_fold.items():
        assert sorted(kinds) == ["dgm_fmarkov", "hybrid", "ignn"]
    # one hybrid call for all folds, which makes one call per component kind
    assert sorted(calls) == ["dgm_fmarkov", "hybrid", "ignn"]


@pytest.mark.parametrize("components, scheme, combine", [
    ("dgm_fmarkov,ignn", "grey_relation", "arithmetic"),
    ("gm,dgm_fmarkov,sgnn", "simplex_ls", "harmonic"),
])
def test_hybrid_report_forecasts_come_from_the_hybrid_doc(
    tmp_path, hybrid_setup, components, scheme, combine
):
    # The hybrid command and fit --model hybrid then forecast, run with the
    # same flags, forecast from one doc: the CSVs are byte-identical, and the
    # report's per-model forecasts are the loaded doc's component forecasts.
    data, config = hybrid_setup
    flags = ["--input", str(data), "--config", str(config), "--components", components,
             "--scheme", scheme, "--combine", combine, "--seed", "2"]
    report_path, hybrid_fc = tmp_path / "report.json", tmp_path / "hybrid_fc.csv"
    assert main(["hybrid", *flags, "--out", str(report_path), "--horizon", "5",
                 "--forecast-out", str(hybrid_fc)]) == 0
    doc_path, doc_fc = tmp_path / "hybrid.json", tmp_path / "doc_fc.csv"
    assert main(["fit", "--model", "hybrid", *flags, "--out", str(doc_path)]) == 0
    assert main(["forecast", "--input", str(doc_path), "--horizon", "5", "--out", str(doc_fc)]) == 0
    assert hybrid_fc.read_bytes() == doc_fc.read_bytes()
    report = json.loads(report_path.read_text())
    doc = json.loads(doc_path.read_text())
    part_forecasts, hybrid_forecast = cli_models.model_from_doc(doc).forecasts(5)
    assert report["forecast"]["models"] == {
        kind: forecast.tolist() for kind, forecast in zip(report["components"], part_forecasts)
    }
    assert report["forecast"]["hybrid"] == hybrid_forecast.tolist()
    assert report["weights"]["values"] == doc["weights"]


@pytest.mark.parametrize("components", [
    ("dgm_fmarkov", "ignn"), ("dgm_fmarkov", "dgm", "sgnn"), ("gm", "dgm"),
])
def test_backtest_folds_equal_standalone_hybrid_fits(components):
    # Each fold's networks train in lockstep with the other folds', yet its
    # hybrid forecast and weights are those of a hybrid fitted to the fold's
    # training data alone, bit for bit.
    values = synthetic_series(80, seed=3)
    cfg = PipelineConfig(
        components=components, horizon=4, train=TrainConfig(epochs=20, learning_rate=0.1)
    )
    report, header, rows = run_backtest(values, cfg, folds=3)
    hybrid = np.array([row[header.index("hybrid")] for row in rows]).reshape(3, 4)
    for fold, forecast in zip(report["folds"], hybrid):
        fit = cli_models.fit_model("hybrid", values[: fold["origin"]], cfg)
        assert forecast.tobytes() == fit.forecast(4).tobytes()
        assert fold["weights"] == fit.to_doc()["weights"]


def test_backtest_combines_forecasts_only(tmp_path, monkeypatch, capsys):
    # The hybrid report's geometric combination refuses in-sample values
    # that are not all positive; a hybrid fit, and so a backtest, combines
    # only forecasts, so such in-sample values stop neither: each fold's doc
    # is the one fit --model hybrid writes for the fold's training data.
    original = cli_models.FITTERS["gm"]

    def first_fitted_negative(series, cfg):
        fits = original(series, cfg)
        for fit in fits:
            fit.fitted[0] = -1.0
        return fits

    monkeypatch.setitem(cli_models.FITTERS, "gm", first_fitted_negative)
    data, values = tmp_path / "series.csv", synthetic_series(40, seed=5)
    write_series(data, values)
    flags = ["--components", "gm,dgm", "--combine", "geometric"]
    bt, plot = tmp_path / "bt.json", tmp_path / "bt.csv"
    assert main(["backtest", "--input", str(data), *flags, "--horizon", "3", "--out", str(bt),
                 "--folds", "2", "--plot-out", str(plot)]) == 0
    hybrid = [row.split(",")[-1] for row in plot.read_text().splitlines()[1:]]
    for i, fold in enumerate(json.loads(bt.read_text())["folds"]):
        train, doc_path = tmp_path / f"train{i}.csv", tmp_path / f"fold{i}.json"
        write_series(train, values[: fold["origin"]])
        assert main(["fit", "--model", "hybrid", "--input", str(train), *flags,
                     "--out", str(doc_path)]) == 0
        assert json.loads(doc_path.read_text())["weights"] == fold["weights"]
        fc = tmp_path / f"fold{i}.csv"
        assert main(["forecast", "--input", str(doc_path), "--horizon", "3", "--out", str(fc)]) == 0
        assert [row.split(",")[1] for row in fc.read_text().splitlines()[1:]] == hybrid[3 * i : 3 * i + 3]
    capsys.readouterr()
    assert main(["hybrid", "--input", str(data), *flags, "--out", str(tmp_path / "h.json")]) == 5
    assert capsys.readouterr().err == (
        "error: geometric combination requires strictly positive forecasts\n"
    )


@pytest.mark.parametrize("command, flags", [
    ("hybrid", ["--forecast-out"]),
    ("backtest", ["--folds", "2", "--plot-out"]),
])
def test_echoed_config_reruns_the_report(tmp_path, command, flags):
    # A report's config echo, fed back as --config, reruns that report.
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(50, seed=4))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"epochs": 5, "learning_rate": 0.1}, "window": 3}))
    argv = [command, "--input", str(data), *flags, str(tmp_path / "fc.csv")]
    first, echo, second = tmp_path / "r1.json", tmp_path / "echo.json", tmp_path / "r2.json"
    assert main([*argv, "--out", str(first), "--config", str(config), "--components",
                 "gm,sgnn,dgm_fmarkov", "--scheme", "simplex_ls", "--horizon", "3",
                 "--seed", "4", "--boundaries=-0.2,0,0.05,0.3"]) == 0
    echo.write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert load_config(str(echo), {}).components == ("gm", "sgnn", "dgm_fmarkov")
    assert main([*argv, "--out", str(second), "--config", str(echo)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_components_from_a_config_file(tmp_path):
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(40, seed=3))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"components": ["gm", "dgm"]}))
    hybrid, doc = tmp_path / "h.json", tmp_path / "m.json"
    assert main(["hybrid", "--input", str(data), "--out", str(hybrid), "--config", str(config)]) == 0
    report = json.loads(hybrid.read_text())
    assert report["components"] == report["config"]["components"] == ["gm", "dgm"]
    assert main(["fit", "--model", "hybrid", "--input", str(data), "--out", str(doc),
                 "--config", str(config)]) == 0
    assert [part["kind"] for part in json.loads(doc.read_text())["components"]] == ["gm", "dgm"]
    # the flag wins over the file
    assert main(["hybrid", "--input", str(data), "--out", str(hybrid), "--config", str(config),
                 "--components", "dgm,gm"]) == 0
    assert json.loads(hybrid.read_text())["components"] == ["dgm", "gm"]


def test_min_variance_on_three_models_is_refused_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(series, cfg):
        raise AssertionError("fitted before the config was checked")

    for kind in cli_models.FITTERS:
        monkeypatch.setitem(cli_models.FITTERS, kind, no_fit)
    for command in ("hybrid", "backtest"):
        argv = _probe_argv(tmp_path, "min_variance_three_models")
        argv[0] = command
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: min_variance weighting needs exactly 2 models, got 3\n"
        )


# ---------------------------------------------------------------------------
# report command
# ---------------------------------------------------------------------------


def test_report_command_prints_summary(tmp_path, hybrid_setup, capsys):
    data, config = hybrid_setup
    report_path = tmp_path / "report.json"
    assert main([
        "hybrid", "--input", str(data), "--out", str(report_path),
        "--config", str(config), "--seed", "2",
    ]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "dgm_fmarkov" in out and "hybrid" in out and "markov" in out


@pytest.mark.parametrize("command, flags", [
    ("hybrid", []),
    ("backtest", ["--folds", "3", "--horizon", "4"]),
    ("markov-test", []),
])
def test_report_reads_every_report_the_cli_writes(tmp_path, hybrid_setup, capsys, command, flags):
    data, config = hybrid_setup
    report_path = tmp_path / "r.json"
    assert main([command, "--input", str(data), "--out", str(report_path),
                 "--config", str(config), *flags]) == 0
    doc = json.loads(report_path.read_text())
    capsys.readouterr()
    assert main(["report", "--input", str(report_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"report for command: {command}"
    evaluation = doc.get("evaluation", doc)
    metrics = dict(evaluation.get("models", {}))
    if "hybrid" in evaluation:
        metrics["hybrid"] = evaluation["hybrid"].get("metrics", evaluation["hybrid"])
    assert len(metrics) == (0 if command == "markov-test" else 3)
    for name, m in metrics.items():
        assert (f"  {name}: mse={m['mse']:.6g} mae={m['mae']:.6g} "
                f"mape={m['mape']:.4f}% theil={m['theil']:.6g}") in out
    if command == "hybrid":
        assert f"  weights ({doc['weights']['scheme']}): {doc['weights']['values']}" in out
    m = doc["markov_test"]
    assert out[-1] == (
        f"  markov: chi-squared={m['chi_squared']:.4f} dof={m['dof']} "
        f"threshold={m['threshold']:g} verdict={m['verdict']}"
    )


@pytest.mark.parametrize("by_lead, line", [
    ([1.0, 2.0, 4.0], "  gm by lead: lead 1 mape=1.0000%, leads 2-3 mean mape=3.0000%"),
    ([1.0, 2.0], "  gm by lead: lead 1 mape=1.0000%, lead 2 mean mape=2.0000%"),
    ([1.0], "  gm by lead: lead 1 mape=1.0000%"),
    ([None, 2.0], "  gm by lead: lead 1 mape=nan%, lead 2 mean mape=2.0000%"),
])
def test_report_prints_mape_by_lead(tmp_path, capsys, by_lead, line):
    report = tmp_path / "r.json"
    metrics = {"mse": 1.0, "mae": 1.0, "mape": 1.0, "theil": 0.5, "mape_by_lead": by_lead}
    report.write_text(json.dumps({"command": "backtest", "models": {"gm": metrics}}))
    assert main(["report", "--input", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[2] == line


def test_report_prints_a_null_metric_as_nan(tmp_path, capsys):
    # dump_json writes a non-finite metric, such as MAPE with a zero actual, as null
    report = tmp_path / "r.json"
    metrics = {"mse": 1.0, "mae": 1.0, "mape": None, "theil": 0.5}
    report.write_text(json.dumps({"command": "hybrid", "evaluation": {"models": {"gm": metrics}}}))
    assert main(["report", "--input", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "  gm: mse=1 mae=1 mape=nan% theil=0.5"


# ---------------------------------------------------------------------------
# exit codes and config handling
# ---------------------------------------------------------------------------


def test_exit_code_missing_input(tmp_path, capsys):
    rc = main(["fit", "--model", "gm", "--input", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_exit_code_config_error(tmp_path, capsys):
    data = tmp_path / "s.csv"
    write_series(data, [10.0] * 8)
    rc = main(["markov-test", "--input", str(data), "--alpha", "0.2"])
    assert rc == 2


def test_exit_code_unknown_config_key(tmp_path, capsys):
    data = tmp_path / "s.csv"
    write_series(data, [10.0] * 8)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"modell": "gm"}))
    rc = main(["fit", "--model", "gm", "--input", str(data),
               "--out", str(tmp_path / "m.json"), "--config", str(config)])
    assert rc == 2


def test_exit_code_parse_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("value\n1\nabc\n")
    rc = main(["fit", "--model", "gm", "--input", str(data),
               "--out", str(tmp_path / "m.json")])
    assert rc == 4


def test_exit_code_data_error(tmp_path, capsys):
    data = tmp_path / "short.csv"
    write_series(data, [5.0, 6.0])
    rc = main(["fit", "--model", "gm", "--input", str(data),
               "--out", str(tmp_path / "m.json")])
    assert rc == 5


def test_exit_code_numeric_error(tmp_path, capsys):
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(20, seed=8))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"train": {"learning_rate": 1e12, "epochs": 40}}))
    rc = main(["fit", "--model", "ignn", "--input", str(data),
               "--out", str(tmp_path / "m.json"), "--config", str(config)])
    assert rc == 6


_NAN, _INF = float("nan"), float("inf")

# Model docs with a value of the wrong JSON type or size, an unknown key, a
# ragged matrix or an explosive model: probe -> (kind fitted, path of the
# field, value written there); an empty path merges the value into the doc.
_DOC_EDITS = {
    "ignn_window_string": ("ignn", ("window",), "4"),
    "ignn_n_fit_string": ("ignn", ("n_fit",), "x"),
    "ignn_ago_tail_string": ("ignn", ("ago_tail",), "abcd"),
    "scaler_scale_string": ("ignn", ("net", "input_scaler", "scale"), "x"),
    "scaler_extra_key": ("ignn", ("net", "input_scaler", "extra"), 1.0),
    "variant_list": ("ignn", ("variant",), [1]),
    "ragged_weights": ("ignn", ("net", "weights", 0, 0), [0.5]),
    "sgnn_no_gm_models": ("sgnn", ("gm_models",), []),
    "gm_a_string": ("gm", ("a",), "x"),
    "gm_n_fit_fraction": ("gm", ("n_fit",), 40.5),
    "fmarkov_beta_string": ("dgm_fmarkov", ("dgm", "beta"), "abcd"),
    "ragged_fuzzy_probs": ("dgm_fmarkov", ("fuzzy_probs", 0), [1.0]),
    "fmarkov_beta_short": ("dgm_fmarkov", ("dgm", "beta"), [0.5]),
    "fuzzy_probs_one_state": ("dgm_fmarkov", ("fuzzy_probs",), [[1.0]]),
    "degenerate_rows_short": ("dgm_fmarkov", ("degenerate_rows",), [False]),
    "gm_n_fit_zero": ("gm", ("n_fit",), 0),
    "sgnn_offsets_short": ("sgnn", ("offsets",), [0]),
    "ignn_window_zero": ("ignn", ("window",), 0),
    # exp overflows; the one error line must come without a numpy warning
    "gm_a_explosive": ("gm", ("a",), -1e300),
    # ... and where its leading factor is 0, so inf times 0 gives NaN
    "gm_a_explosive_zero_start": ("gm", (), {"a": -1e300, "u": 0.0, "x0_first": 0.0}),
    # fields that disagree with one another (the hybrid's components are
    # dgm_fmarkov and ignn); each forecast from the wrong origin, or failed
    # with another exit code, until its kind's check refused it
    "fmarkov_dgm_n_fit_other": ("dgm_fmarkov", ("dgm", "n_fit"), 5),
    "hybrid_component_n_fit_other": ("hybrid", ("components", 1, "n_fit"), 40),
    "hybrid_weights_short": ("hybrid", ("weights",), [1.0]),
    "hybrid_combine_unknown": ("hybrid", ("combine",), "median"),
    # net docs whose sizes disagree with the net's input or output layer
    "ignn_window_other": ("ignn", ("window",), 2),
    "ignn_ago_tail_long": ("ignn", ("ago_tail",), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
    "ignn_two_outputs": ("ignn", ("net", "layer_sizes", -1), 2),
    "sgnn_one_gm_model": ("sgnn", (), {
        "gm_models": [{"a": -0.01, "u": 10.0, "x0_first": 10.0, "n_fit": 30}], "offsets": [0],
    }),
    "sgnn_two_outputs": ("sgnn", ("net", "layer_sizes", -1), 2),
    # net weights and biases of the wrong shape for the net's layer sizes
    "ignn_weights_truncated": ("ignn", ("net", "weights", 0), [[0.1, 0.2, 0.3, 0.4]] * 2),
    "sgnn_weights_one_layer": ("sgnn", ("net", "weights"), [[[0.5] * 3] * 4]),
    "hybrid_component_biases_short": ("hybrid", ("components", 1, "net", "biases", 0), [0.5]),
    # an error inside a component names it
    "hybrid_component_dgm_n_fit_other": ("hybrid", ("components", 0, "dgm", "n_fit"), 5),
    # a hybrid's component is a base model, and its weights lie on the simplex
    "hybrid_component_hybrid": ("hybrid", ("components", 0), {
        "schema_version": 2, "kind": "hybrid", "scheme": "grey_relation",
        "combine": "arithmetic", "weights": [0.5, 0.5], "diagnostics": {},
        "components": [{"schema_version": 2, "kind": "gm", "a": -0.01, "u": 10.0,
                        "x0_first": 10.0, "n_fit": 30}] * 2,
    }),
    "hybrid_weights_sum_above_one": ("hybrid", ("weights",), [0.5, 0.7]),
    "hybrid_weights_negative": ("hybrid", ("weights",), [-1.0, 2.0]),
    # a fuzzy transition row off the probability simplex
    "fuzzy_probs_row_of_fives": ("dgm_fmarkov", ("fuzzy_probs", 2), [5.0] * 6),
    # non-finite numbers, which json reads as NaN and Infinity
    "fmarkov_fuzzy_probs_nan_row": ("dgm_fmarkov", ("fuzzy_probs", 1), [_NAN] * 6),
    "fmarkov_last_actual_nan": ("dgm_fmarkov", ("last_actual",), _NAN),
    "ignn_weight_nan": ("ignn", ("net", "weights", 0, 0, 0), _NAN),
    "ignn_bias_infinite": ("ignn", ("net", "biases", 1, 0), _INF),
    "ignn_ago_tail_nan": ("ignn", ("ago_tail", 0), _NAN),
    "sgnn_weight_nan": ("sgnn", ("net", "weights", 1, 0, 0), _NAN),
    "dgm_xi_nan": ("dgm", ("xi",), _NAN),
    "dgm_beta_infinite": ("dgm", ("beta", 2), -_INF),
    "gm_a_nan": ("gm", ("a",), _NAN),
    "gm_u_beyond_float_range": ("gm", ("u",), -10**400),
}

# The field that the error line of a _DOC_EDITS probe must name.
_DOC_EDIT_FIELDS = {
    "fmarkov_dgm_n_fit_other": "dgm.n_fit",
    "hybrid_component_n_fit_other": "components[1].n_fit",
    "hybrid_weights_short": "weights",
    "hybrid_combine_unknown": "combine",
    "ignn_window_other": "window",
    "ignn_ago_tail_long": "ago_tail",
    "ignn_two_outputs": "net.layer_sizes",
    "sgnn_one_gm_model": "gm_models",
    "sgnn_two_outputs": "net.layer_sizes",
    "ignn_weights_truncated": "net.weights[0]",
    "sgnn_weights_one_layer": "net.weights",
    "hybrid_component_biases_short": "components[1].net.biases[0]",
    "hybrid_component_dgm_n_fit_other": "components[0].dgm.n_fit",
    "hybrid_component_hybrid": "components[0].kind",
    "hybrid_weights_sum_above_one": "weights",
    "hybrid_weights_negative": "weights",
    "fuzzy_probs_row_of_fives": "fuzzy_probs[2]",
    "fmarkov_fuzzy_probs_nan_row": "fuzzy_probs[1][0]",
    "fmarkov_last_actual_nan": "last_actual",
    "ignn_weight_nan": "net.weights[0][0][0]",
    "ignn_bias_infinite": "net.biases[1][0]",
    "ignn_ago_tail_nan": "ago_tail[0]",
    "sgnn_weight_nan": "net.weights[1][0][0]",
    "dgm_xi_nan": "xi",
    "dgm_beta_infinite": "beta[2]",
    "gm_a_nan": "a",
    "gm_u_beyond_float_range": "u",
}


# Config files with a bad value: probe -> config written.  A value of the
# wrong type must not be converted: "false" is not false, and 2.5 epochs is
# not 2.
_CONFIGS = {
    "negative_learning_rate": {"train": {"learning_rate": -1}},
    "zero_learning_rate": {"train": {"learning_rate": 0}},
    "negative_epochs": {"train": {"epochs": -3}},
    "fractional_epochs": {"train": {"epochs": 2.5}},
    "shuffle_string": {"train": {"shuffle": "false"}},
    "window_string": {"window": "abc"},
    "seed_string": {"seed": "x"},
    "seed_null": {"seed": None},
    "seed_negative": {"seed": -1},
    "train_seed_negative": {"train": {"seed": -5}},
    "rho_string": {"rho": "x"},
    "alpha_string": {"alpha": "x"},
    "horizon_string": {"horizon": "x"},
    "boundaries_string": {"state_boundaries": "abc"},
    "boundaries_nan": {"state_boundaries": [0, float("nan"), 1]},
    "boundaries_infinite": {"state_boundaries": [0, 1, float("inf")]},
    "components_file_one_kind": {"components": ["dgm"]},
    "components_file_repeated_kind": {"components": ["dgm", "gm", "dgm"]},
    "components_file_hybrid": {"components": ["dgm", "hybrid"]},
    "components_file_unknown_kind": {"components": ["dgm", "arima"]},
    "components_file_string": {"components": "dgm,gm"},
}


_EIGHT_STATES = "--boundaries=-0.2,-0.09,-0.05,-0.025,-0.01,0,0.01,0.025,0.09"

# Calls on a valid series: probe -> (exit code, command, flags after
# --input and --out).  A call that exits 0 writes a report with no Markov
# test.
_CALLS = {
    "boundaries_flag_nan": (2, "hybrid", ["--components", "dgm,gm", "--boundaries=0,nan,1"]),
    "boundaries_flag_infinite": (2, "fit", ["--model", "dgm_fmarkov", "--boundaries=-inf,0,1"]),
    "markov_test_boundaries_nan": (2, "markov-test", ["--boundaries=-0.1,nan,0.1"]),
    "components_one_kind": (2, "hybrid", ["--components", "dgm"]),
    "components_repeated_kind": (2, "hybrid", ["--components", "dgm,gm,dgm"]),
    "components_hybrid": (2, "hybrid", ["--components", "dgm,hybrid"]),
    "components_unknown_kind": (2, "backtest", ["--components", "dgm,foo"]),
    "backtest_folds_zero": (2, "backtest", ["--folds", "0"]),
    "backtest_folds_negative": (2, "backtest", ["--folds", "-2"]),
    "backtest_too_few_points": (5, "backtest", ["--folds", "25"]),
    # a config flag the subcommand does not read, an unknown flag or a
    # flag value of the wrong type is a usage error
    "forecast_combine": (2, "forecast", ["--combine", "harmonic"]),
    "markov_test_window": (2, "markov-test", ["--window", "9"]),
    "fit_horizon": (2, "fit", ["--model", "gm", "--horizon", "3"]),
    "unknown_flag": (2, "forecast", ["--bogus", "1"]),
    "horizon_not_an_integer": (2, "forecast", ["--horizon", "x"]),
    "components_on_gm": (2, "fit", ["--model", "gm", "--components", "dgm,gm"]),
    # eight states (dof 49) have no embedded critical value: hybrid and
    # backtest report no Markov test, and markov-test is a usage error
    "eight_states_hybrid": (0, "hybrid", ["--components", "dgm_fmarkov,dgm", _EIGHT_STATES]),
    "eight_states_backtest": (0, "backtest", ["--components", "dgm_fmarkov,dgm", _EIGHT_STATES]),
    "eight_states_markov_test": (2, "markov-test", [_EIGHT_STATES]),
    "min_variance_three_models": (
        2, "hybrid", ["--scheme", "min_variance", "--components", "dgm_fmarkov,dgm,gm"],
    ),
}


# Inputs to report: probe -> (document written, or None for the model doc
# that fit --model hybrid writes; the field the error line names).
_REPORTS = {
    "report_not_an_object": ([1, 2], None),
    "report_hybrid_model_doc": (None, "weights"),  # its weights are a list
    "report_metrics_not_an_object": ({"command": "hybrid", "models": {"a": 1}}, "models.a"),
    "report_chi_squared_string": ({"markov_test": {"chi_squared": "x"}}, "markov_test.chi_squared"),
    "report_mape_by_lead_string": (
        {"models": {"gm": {"mse": 1, "mae": 1, "mape": 1, "theil": 1, "mape_by_lead": "x"}}},
        "models.gm.mape_by_lead",
    ),
    # greycast writes a non-finite metric as null, never as NaN
    "report_mape_nan": ({"models": {"gm": {"mse": 1, "mae": 1, "mape": _NAN, "theil": 1}}},
                        "models.gm.mape"),
    "report_mape_by_lead_item_string": (
        {"models": {"gm": {"mse": 1, "mae": 1, "mape": 1, "theil": 1, "mape_by_lead": [1, "x"]}}},
        "models.gm.mape_by_lead[1]",
    ),
    # fields that report prints must have the type it prints
    "report_command_list": ({"command": ["hybrid"]}, "command"),
    "report_weights_scheme_int": ({"weights": {"scheme": 7, "values": "abc"}}, "weights.scheme"),
    "report_weights_no_scheme": ({"weights": {"values": [0.5, 0.5]}}, "weights.scheme"),
    "report_weights_values_string": (
        {"weights": {"scheme": "grey_relation", "values": "abc"}}, "weights.values",
    ),
    "report_weights_values_item_string": (
        {"weights": {"scheme": "grey_relation", "values": [0.5, "x"]}}, "weights.values[1]",
    ),
    "report_markov_dof_string": (
        {"markov_test": {"chi_squared": 1.0, "threshold": 3.8, "dof": "many", "verdict": "MARKOV"}},
        "markov_test.dof",
    ),
    "report_markov_verdict_int": (
        {"markov_test": {"chi_squared": 1.0, "threshold": 3.8, "dof": 1, "verdict": 3}},
        "markov_test.verdict",
    ),
    # each config field report prints, of the wrong type
    "report_config_model_int": ({"config": {"model": 1}}, "config.model"),
    "report_config_scheme_list": (
        {"config": {"hybrid_scheme": ["grey_relation"]}}, "config.hybrid_scheme",
    ),
    "report_config_combine_null": (
        {"config": {"horizon": [1, 2], "seed": "x", "combine": None}}, "config.combine",
    ),
    "report_config_horizon_list": ({"config": {"horizon": [1, 2]}}, "config.horizon"),
    "report_config_seed_string": ({"config": {"seed": "x"}}, "config.seed"),
}


def _probe_argv(tmp_path, probe):
    """Write the probe's input files; return the greycast argv to run."""
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(30, seed=9))
    fit = ["fit", "--model", "gm", "--input", str(data), "--out", str(tmp_path / "m.json")]
    forecast = ["forecast", "--input", str(tmp_path / "m.json"), "--out", str(tmp_path / "f.csv")]
    if probe in _DOC_EDITS:
        kind, path, value = _DOC_EDITS[probe]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"epochs": 2}}))
        assert main(["fit", "--model", kind, *fit[3:], "--config", str(config)]) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        if path:
            node[path[-1]] = value
        else:
            doc.update(value)
        (tmp_path / "m.json").write_text(json.dumps(doc))
        return forecast
    if probe in _CONFIGS:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(_CONFIGS[probe]))
        return fit + ["--config", str(config)]
    if probe in _CALLS:
        _, command, flags = _CALLS[probe]
        return [command, "--input", str(data), "--out", str(tmp_path / "out.json"), *flags]
    if probe == "model_missing_key":
        assert main(fit) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        del doc["a"]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        return forecast
    if probe in _REPORTS:
        doc = _REPORTS[probe][0]
        report = tmp_path / "r.json"
        if doc is None:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"train": {"epochs": 2}}))
            assert main(["fit", "--model", "hybrid", *fit[3:], "--config", str(config)]) == 0
            report = tmp_path / "m.json"
        else:
            report.write_text(json.dumps(doc))
        return ["report", "--input", str(report)]
    if probe == "input_flag_missing":
        return ["fit", "--model", "gm", "--out", str(tmp_path / "m.json")]
    if probe == "input_is_directory":
        return ["fit", "--model", "gm", "--input", str(tmp_path), "--out", str(tmp_path / "m.json")]
    if probe == "report_input_is_directory":
        return ["report", "--input", str(tmp_path)]
    if probe == "config_is_directory":
        return fit + ["--config", str(tmp_path)]
    if probe == "synth_seed_negative":
        return ["synth", "--n", "10", "--seed", "-3", "--out", str(tmp_path / "x.csv")]
    if probe == "synth_noise_nan":  # --noise is not a synth flag; its shape is fixed
        return ["synth", "--n", "10", "--noise", "nan", "--out", str(tmp_path / "x.csv")]
    assert probe == "unwritable_output"
    return fit[:-1] + [str(tmp_path / "no_such_dir" / "m.json")]


@pytest.mark.parametrize("probe, code", [
    *((probe, 2) for probe in _CONFIGS),
    *((probe, code) for probe, (code, _, _) in _CALLS.items()),
    ("model_missing_key", 5),
    *((probe, 5) for probe in _REPORTS),
    ("unwritable_output", 2),
    ("input_flag_missing", 2),
    ("input_is_directory", 3),
    ("report_input_is_directory", 3),
    ("config_is_directory", 2),
    ("synth_seed_negative", 2),
    ("synth_noise_nan", 2),
    *((probe, 5) for probe in _DOC_EDITS),
])
def test_exit_code_probes(tmp_path, capsys, probe, code):
    argv = _probe_argv(tmp_path, probe)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert json.loads((tmp_path / "out.json").read_text())["markov_test"] is None
        return
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if probe == "model_missing_key":
        assert "'a'" in err
    if probe in _DOC_EDIT_FIELDS:
        assert err.startswith(f"error: model document field '{_DOC_EDIT_FIELDS[probe]}' "), err
    if probe.endswith("is_directory"):
        assert "cannot read " in err
    if _REPORTS.get(probe, (None, None))[1]:
        assert f"report field {_REPORTS[probe][1]} " in err, err
    if probe.startswith("backtest_folds"):
        assert "fold count must be at least 1" in err
    if probe.startswith("components_") and probe != "components_on_gm":
        assert err.startswith("error: components must "), err
    if probe == "min_variance_three_models":
        assert err == "error: min_variance weighting needs exactly 2 models, got 3\n"


@pytest.mark.parametrize("kind", ["gm", "dgm", "dgm_fmarkov"])
def test_model_doc_too_large_to_hold_exits_5(tmp_path, capsys, kind):
    # MAX_COUNT (10**15) float64 values are 8 PB, which every machine fails
    # to allocate; a larger n_fit is refused before any allocation.
    data, model = tmp_path / "data.csv", tmp_path / "m.json"
    write_series(data, synthetic_series(30, seed=9))
    assert main(["fit", "--model", kind, "--input", str(data), "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    for part in (doc, doc.get("dgm", {})):
        part["n_fit"] = MAX_COUNT
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["forecast", "--input", str(model), "--out", str(tmp_path / "f.csv")]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input too large to hold in memory"), captured.err
    assert captured.err.count("\n") == 1


def _edited_doc(tmp_path, kind, path, value):
    """The path of a ``kind`` doc fitted to synth(60, seed 3) whose field at
    ``path`` is ``value``."""
    cfg = PipelineConfig(train=TrainConfig(epochs=20, learning_rate=0.1))
    doc = cli_models.fit_model(kind, synthetic_series(60, seed=3), cfg).to_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    return model


@pytest.mark.parametrize("kind, path", [
    ("gm", ("n_fit",)), ("dgm", ("n_fit",)), ("sgnn", ("gm_models", 0, "n_fit")),
])
@pytest.mark.parametrize("n_fit", [MAX_COUNT + 1, 10**18, 2**63, 10**30])
def test_doc_count_above_the_cap_exits_5_naming_the_field(tmp_path, capsys, kind, path, n_fit):
    # Past numpy's size limit, such an n_fit used to escape main as a
    # ValueError, or, at 2**63, say "series is empty".
    model = _edited_doc(tmp_path, kind, path, n_fit)
    capsys.readouterr()
    assert main(["forecast", "--input", str(model), "--out", str(tmp_path / "f.csv")]) == 5
    field = ".".join(str(key) for key in path).replace(".0.", "[0].")
    assert capsys.readouterr().err == (
        f"error: model document field '{field}' must be an integer from 1 to {MAX_COUNT}\n"
    )


@pytest.mark.parametrize("command", ["forecast", "hybrid", "synth"])
@pytest.mark.parametrize("big", [MAX_COUNT + 1, 10**30])
def test_size_flag_above_the_cap_exits_2(tmp_path, capsys, command, big):
    # 10**30 used to escape main as numpy's ValueError.
    data, model = tmp_path / "s.csv", tmp_path / "m.json"
    write_series(data, synthetic_series(30, seed=9))
    assert main(["fit", "--model", "gm", "--input", str(data), "--out", str(model)]) == 0
    argv = {
        "forecast": ["forecast", "--input", str(model), "--horizon", str(big)],
        "hybrid": ["hybrid", "--input", str(data), "--components", "gm,dgm", "--horizon", str(big)],
        "synth": ["synth", "--n", str(big)],
    }[command]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    what = ("synthetic series length --n must be from 2 to" if command == "synth"
            else "horizon must be an integer of at most")
    assert capsys.readouterr().err == f"error: {what} {MAX_COUNT}, got {big}\n"


@pytest.mark.parametrize("kind, path", [
    ("ignn", ("net", "input_scaler", "scale")),
    ("sgnn", ("net", "output_scaler", "offset")),
    ("dgm_fmarkov", ("last_residual",)),
    ("hybrid", ("components", 1, "net", "input_scaler", "offset")),
])
def test_integer_beyond_int64_in_a_float_field_loads_as_its_float(tmp_path, capsys, kind, path):
    # 10**30 used to reach numpy as a Python int, and np.isfinite raised
    # TypeError out of main; it now loads exactly as 1e30 does.
    runs = []
    for value in (10**30, 1e30):
        model, out = _edited_doc(tmp_path, kind, path, value), tmp_path / "f.csv"
        out.unlink(missing_ok=True)
        code = main(["forecast", "--input", str(model), "--horizon", "3", "--out", str(out)])
        runs.append((code, capsys.readouterr(), out.read_bytes() if code == 0 else None))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind, path", [
    ("ignn", ("net", "biases", 1, 0)),
    ("sgnn", ("net", "biases", 1, 0)),
    ("hybrid", ("components", 1, "net", "biases", 1, 0)),
])
def test_non_finite_forecast_exits_6_without_a_warning(tmp_path, capsys, kind, path):
    # An output bias of 1e308 used to print numpy's overflow warnings and
    # exit 0 with a null forecast for every step (5 for a hybrid, from the
    # combination).
    model = _edited_doc(tmp_path, kind, path, 1e308)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["forecast", "--input", str(model), "--horizon", "3",
                     "--out", str(tmp_path / "f.csv")])
    name = "ignn" if kind == "hybrid" else kind
    assert (code, capsys.readouterr().err) == (6, f"error: {name} forecast is not finite at step 1\n")


def test_seed_flag_sets_train_seed(tmp_path):
    # The flag wins over a config file's train.seed, as over every other
    # field, and the report echoes the seed it trained with.
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(40, seed=3))
    reports = []
    for train_seed in (5, 3):
        config = tmp_path / f"cfg{train_seed}.json"
        config.write_text(json.dumps({"train": {"epochs": 5, "learning_rate": 0.1, "seed": train_seed}}))
        report = tmp_path / f"r{train_seed}.json"
        assert main(["hybrid", "--input", str(data), "--out", str(report),
                     "--config", str(config), "--seed", "3"]) == 0
        reports.append(report.read_bytes())
    assert json.loads(reports[0])["config"]["train"]["seed"] == 3
    assert reports[0] == reports[1]
    assert load_config(None, {"seed": 3}).train.seed == 3


# Every error class and the exit code the CLI maps it to.
_EXIT_CODES = {
    greycast.errors.GreycastError: 1,
    greycast.errors.ConfigError: 2,
    greycast.errors.MissingInputError: 3,
    greycast.errors.CsvParseError: 4,
    greycast.errors.DataError: 5,
    greycast.errors.EmptySeriesError: 5,
    greycast.errors.InsufficientDataError: 5,
    greycast.errors.PositivityError: 5,
    greycast.errors.DegeneracyError: 5,
    greycast.errors.NumericError: 6,
    greycast.errors.SingularSystemError: 6,
    greycast.errors.RecursionOverflowError: 6,
    greycast.errors.DivergenceError: 6,
}


def test_exit_code_table_names_every_error_class():
    classes = {
        value for value in vars(greycast.errors).values()
        if isinstance(value, type) and issubclass(value, greycast.errors.GreycastError)
    }
    assert classes == set(_EXIT_CODES)


@pytest.mark.parametrize("error", list(_EXIT_CODES), ids=lambda error: error.__name__)
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(importlib.import_module("greycast.cli.main"), "synthetic_series", fail)
    assert main(["synth", "--out", str(tmp_path / "x.csv")]) == _EXIT_CODES[error]
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: boom\n")


def test_closed_stdout_exits_2_with_one_line(tmp_path):
    # As in `greycast report --input r.json | head -3`, where head has
    # exited before the summary is printed: no reader is left on stdout.
    report = tmp_path / "r.json"
    metrics = {"mse": 1.0, "mae": 1.0, "mape": 1.0, "theil": 0.5}
    report.write_text(json.dumps({"command": "backtest", "models": {"gm": metrics}}))
    src = os.path.dirname(os.path.dirname(greycast.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "greycast", "report", "--input", str(report)],
            env=dict(os.environ, PYTHONPATH=src), stdout=write_end, stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"error: cannot write stdout: Broken pipe\n")


@pytest.mark.parametrize("kind, path", [
    ("ignn", ("net", "input_scaler", "scale")),
    ("sgnn", ("gm_models", 1, "u")),
    ("hybrid", ("components", 0, "fuzzy_probs")),
])
def test_model_doc_names_a_missing_nested_key(kind, path):
    cfg = PipelineConfig(train=TrainConfig(epochs=2))
    doc = cli_models.fit_model(kind, synthetic_series(30, seed=9), cfg).to_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    with pytest.raises(DataError, match=f"missing key '[^']*{path[-1]}'"):
        cli_models.model_from_doc(doc)


# The kind tags that schema 1 wrote where they were not the CLI name.
_SCHEMA_1_TAGS = {
    "dgm_fmarkov": {"kind": "fmarkov"},
    "ignn": {"kind": "net", "variant": "ignn"},
    "sgnn": {"kind": "net", "variant": "sgnn"},
}

# A doc to refit, and the path of the part that carries the old schema or
# tag: the doc itself, or one component of a dgm_fmarkov,ignn hybrid.
_OLD_DOCS = [
    ("gm", ()), ("dgm_fmarkov", ()), ("ignn", ()), ("sgnn", ()), ("hybrid", ()),
    ("hybrid", ("components", 0)), ("hybrid", ("components", 1)),
]


def _old_doc_id(kind, path, *_):
    return f"{kind}.components[{path[1]}]" if path else kind


def _forecast_old_doc(tmp_path, capsys, kind, path, edit):
    """Forecast from a fitted ``kind`` doc whose part at ``path`` is edited
    by ``edit``; return the exit code and stderr."""
    cfg = PipelineConfig(train=TrainConfig(epochs=2))
    doc = cli_models.fit_model(kind, synthetic_series(30, seed=9), cfg).to_doc()
    part = doc
    for key in path:
        part = part[key]
    edit(part)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["forecast", "--input", str(model), "--out", str(tmp_path / "f.csv")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("kind, path", _OLD_DOCS, ids=[_old_doc_id(*p) for p in _OLD_DOCS])
def test_schema_1_doc_exits_5_saying_to_refit(tmp_path, capsys, kind, path):
    def to_schema_1(part):
        part.update(_SCHEMA_1_TAGS.get(part["kind"], {}), schema_version=1)

    code, err = _forecast_old_doc(tmp_path, capsys, kind, path, to_schema_1)
    where = f" in 'components[{path[1]}]'" if path else ""
    assert (code, err) == (5, f"error: model schema_version 1{where} is not 2, "
                              "the one this greycast reads: refit the model\n")


_RETAGGED = [
    ("dgm_fmarkov", (), "fmarkov"), ("ignn", (), "net"), ("sgnn", (), "net"),
    ("hybrid", ("components", 0), "fmarkov"), ("hybrid", ("components", 1), "net"),
]


@pytest.mark.parametrize("kind, path, tag", _RETAGGED, ids=[_old_doc_id(*p) for p in _RETAGGED])
def test_schema_2_doc_with_a_schema_1_tag_exits_5(tmp_path, capsys, kind, path, tag):
    def retag(part):
        part.update(_SCHEMA_1_TAGS[part["kind"]])

    code, err = _forecast_old_doc(tmp_path, capsys, kind, path, retag)
    where = f" in 'components[{path[1]}]'" if path else ""
    assert (code, err) == (5, f"error: unknown model kind {tag!r}{where}\n")


def test_models_names_each_kind_record_and_hybrid():
    # config.py cannot import cli/models.py, so it names the kinds again.
    assert MODELS == (*(record.name for record in cli_models.KINDS), cli_models.HYBRID.name)


def test_fitted_docs_share_one_n_fit():
    values = synthetic_series(60, seed=2)
    components = tuple(record.name for record in cli_models.KINDS)
    cfg = PipelineConfig(
        components=components, hybrid_scheme="effective_degree", train=TrainConfig(epochs=2)
    )
    doc = cli_models.fit_model("hybrid", values, cfg).to_doc()
    assert [part["n_fit"] for part in doc["components"]] == [60] * len(components)
    assert doc["components"][components.index("dgm_fmarkov")]["dgm"]["n_fit"] == 60
    assert cli_models.model_from_doc(doc).n_fit == 60


# The names bench/spans.py times in greycast.cli.models, by the step that
# calls them (and evaluate, which metrics_doc calls).  A record that held one of these functions itself, not a
# function that calls it through the module global, would escape the timing
# wrapper, and its span would read 0.
_TIMED_NAMES = {
    "fit": ("fit_model", "fit_gm11", "forecast_gm11", "fit_dgm", "forecast_dgm",
            "fuzzy_transition_matrix", "fmarkov_correct", "classify_states",
            "count_transitions", "marginal_distribution", "markov_property_test",
            "ignn_fitted", "optimize_relation_weights"),
    "forecast": ("forecast_gm11", "forecast_dgm", "expected_drift", "ignn_forecast",
                 "combine_forecasts"),
}


def test_kinds_call_timed_functions_through_the_module(monkeypatch):
    called = set()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in {"evaluate", *_TIMED_NAMES["fit"], *_TIMED_NAMES["forecast"]}:
        monkeypatch.setattr(cli_models, name, spy(name, getattr(cli_models, name)))
    values = synthetic_series(40, seed=2)
    cfg = PipelineConfig(components=("gm", "dgm_fmarkov", "ignn"), train=TrainConfig(epochs=2))
    fit = cli_models.fit_model("hybrid", values, cfg)
    assert sorted(set(_TIMED_NAMES["fit"]) - called) == []
    called.clear()
    fit.forecast(3)
    assert sorted(set(_TIMED_NAMES["forecast"]) - called) == []
    called.clear()
    cli_models.metrics_doc(values, fit.parts[0].fitted)  # gm's, from t = 1
    assert called == {"evaluate"}


# Each config flag, a value for it, and what it sets the field of the same
# name to.
_FLAGS = [
    ("--model", "dgm", "model", "dgm"),
    ("--components", "gm, sgnn", "components", ("gm", "sgnn")),
    ("--boundaries", "-0.1,0,0.1", "state_boundaries", (-0.1, 0.0, 0.1)),
    ("--window", "3", "window", 3),
    ("--scheme", "simplex_ls", "hybrid_scheme", "simplex_ls"),
    ("--combine", "harmonic", "combine", "harmonic"),
    ("--rho", "0.3", "rho", 0.3),
    ("--alpha", "0.05", "alpha", 0.05),
    ("--horizon", "7", "horizon", 7),
    ("--seed", "5", "seed", 5),
]


def test_every_config_field_but_train_has_a_flag():
    names = [f.name for f in fields(PipelineConfig) if f.name != "train"]
    assert [name for _, _, name, _ in _FLAGS] == names


@pytest.mark.parametrize("flag, text, name, value", _FLAGS, ids=[f[0] for f in _FLAGS])
def test_each_config_flag_sets_its_field(flag, text, name, value):
    command = "fit" if flag == "--model" else "hybrid"
    args = build_parser().parse_args([command, "--input", "s.csv", "--out", "m.json", f"{flag}={text}"])
    assert getattr(args, name) is not None  # the flag's dest is the field
    cfg = _config_from_args(args)
    assert getattr(cfg, name) == value
    default = PipelineConfig()
    others = [f.name for f in fields(PipelineConfig) if f.name not in (name, "train")]
    assert [getattr(cfg, other) for other in others] == [getattr(default, other) for other in others]


# The flags of each subcommand that reads the config, besides -h/--help,
# --config and the config flags it reads.
_OWN_FLAGS = {
    "fit": {"--input", "--out"},
    "forecast": {"--input", "--out"},
    "markov-test": {"--input", "--out", "--model"},
    "hybrid": {"--input", "--out", "--forecast-out"},
    "backtest": {"--input", "--out", "--plot-out", "--folds"},
}


@pytest.mark.parametrize("command", list(READS))
def test_help_lists_the_config_flags_the_subcommand_reads(capsys, command):
    assert main([command, "--help"]) == 0
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
    config_flags = [_CONFIG_FLAGS[name][0] for name in READS[command]]
    assert set(listed) == {"--help", "--config", *config_flags, *_OWN_FLAGS[command]}


def test_load_config_reads_back_an_echoed_config(tmp_path):
    # every field but model, which neither echoing command reads
    cfg = PipelineConfig(
        components=("gm", "dgm", "sgnn"),
        state_boundaries=(-0.2, 0.0, 0.1, 0.3),
        window=3,
        train=TrainConfig(learning_rate=0.2, epochs=7, seed=4, shuffle=False),
        hybrid_scheme="simplex_ls",
        combine="geometric",
        rho=0.25,
        alpha=0.05,
        horizon=6,
        seed=9,
    )
    path = tmp_path / "cfg.json"
    for command in ("hybrid", "backtest"):
        path.write_text(json.dumps(cfg.echo(command)))
        assert load_config(str(path), {}) == cfg


@pytest.mark.parametrize("command", ["hybrid", "backtest"])
def test_report_echoes_only_the_fields_its_command_reads(tmp_path, capsys, command):
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(40, seed=3))
    report_path = tmp_path / "r.json"
    flags = ["--folds", "2", "--horizon", "3"] if command == "backtest" else []
    assert main([command, "--input", str(data), "--out", str(report_path),
                 "--components", "dgm,gm", *flags]) == 0
    echoed = json.loads(report_path.read_text())["config"]
    assert list(echoed) == [f.name for f in fields(PipelineConfig)
                            if f.name in (*READS[command], "train")]
    assert "model" not in echoed
    capsys.readouterr()
    assert main(["report", "--input", str(report_path)]) == 0
    config_line = capsys.readouterr().out.splitlines()[1]
    assert config_line == "  config: scheme=grey_relation combine=arithmetic horizon=" + (
        "3 seed=0" if command == "backtest" else "1 seed=0")


def test_report_prints_only_the_config_fields_it_holds(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"command": "hybrid", "config": {"model": "gm", "seed": 4}}))
    assert main(["report", "--input", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "  config: model=gm seed=4"


# Each subcommand with one flag cut to a prefix; argparse accepts any
# unambiguous prefix unless told not to.
_ABBREVIATED = {
    "synth": ["synth", "--out", "{tmp}/x.csv", "--se", "3"],
    "fit": ["fit", "--mod", "gm", "--input", "{data}", "--out", "{tmp}/x.json"],
    "forecast": ["forecast", "--input", "{tmp}/m.json", "--out", "{tmp}/x.csv", "--hor", "3"],
    "markov-test": ["markov-test", "--input", "{data}", "--out", "{tmp}/x.json", "--mod", "gm"],
    "hybrid": ["hybrid", "--input", "{data}", "--out", "{tmp}/x.json", "--forecast-out",
               "{tmp}/x.csv", "--comp", "dgm,gm", "--sch", "simplex_ls"],
    "backtest": ["backtest", "--input", "{data}", "--out", "{tmp}/x.json", "--fold", "2",
                 "--components", "dgm,gm"],
    "report": ["report", "--input", "{tmp}/m.json", "--in", "{tmp}/m.json"],
}


@pytest.mark.parametrize("command", list(_ABBREVIATED))
def test_abbreviated_flag_is_a_usage_error(tmp_path, capsys, command):
    data = tmp_path / "s.csv"
    write_series(data, synthetic_series(30, seed=9))
    assert main(["fit", "--model", "gm", "--input", str(data),
                 "--out", str(tmp_path / "m.json")]) == 0
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path, data=data) for a in _ABBREVIATED[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments: --") and err.count("\n") == 1, err
    assert sorted(tmp_path.iterdir()) == before


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": "gm", "horizon": 7}))
    cfg = load_config(str(config), {"model": "dgm"})
    assert cfg.model == "dgm"
    assert cfg.horizon == 7


def test_pipeline_config_validation():
    with pytest.raises(Exception, match="alpha"):
        PipelineConfig(alpha=0.1)
    with pytest.raises(Exception, match="model"):
        PipelineConfig(model="arima")
    with pytest.raises(Exception, match="boundaries"):
        PipelineConfig(state_boundaries=(0.1, 0.0, 0.2))


# ---------------------------------------------------------------------------
# weight diagnostics go into reports and model docs as they are
# ---------------------------------------------------------------------------

_ACTUAL = synthetic_series(30, seed=4)
_PREDICTIONS = [
    _ACTUAL * (1.0 + 0.03 * np.random.default_rng(j).standard_normal(_ACTUAL.size))
    for j in range(4)
]
# probe -> (scheme, predictions, diagnostics key that must be true or None)
_DIAGNOSTICS = {
    "effective_degree": ("effective_degree", _PREDICTIONS[:2], None),
    "min_variance": ("min_variance", _PREDICTIONS[:2], None),
    "simplex_ls_2": ("simplex_ls", _PREDICTIONS[:2], None),
    "simplex_ls_3": ("simplex_ls", _PREDICTIONS[:3], None),
    "simplex_ls_identical": ("simplex_ls", [_PREDICTIONS[0]] * 2, "degenerate"),
    "grey_relation_2": ("grey_relation", _PREDICTIONS[:2], None),
    "grey_relation_3": ("grey_relation", _PREDICTIONS[:3], None),
    "grey_relation_4": ("grey_relation", _PREDICTIONS, None),
    "grey_relation_identical": ("grey_relation", [_PREDICTIONS[0]] * 3, "tie"),
    "grey_relation_exact": ("grey_relation", [_ACTUAL] * 2, "tie"),
}


@pytest.mark.parametrize("probe", list(_DIAGNOSTICS))
def test_weight_diagnostics_are_plain_json(probe):
    scheme, predictions, flag = _DIAGNOSTICS[probe]
    cfg = PipelineConfig(hybrid_scheme=scheme)
    diagnostics = cli_models.compute_weights(_ACTUAL, predictions, cfg).diagnostics
    text = json.dumps(diagnostics)  # a numpy integer or bool raises TypeError
    assert json.loads(dump_json(diagnostics)) == json.loads(text)
    if flag is not None:
        assert diagnostics[flag] is True
