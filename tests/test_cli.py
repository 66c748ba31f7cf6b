import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import greycast
import greycast.cli.models as cli_models
from greycast import CsvParseError, DataError, TrainConfig, fit_gm11, forecast_gm11
from greycast.cli.config import PipelineConfig, load_config
from greycast.cli.io import dump_json, parse_counts_csv, parse_series_csv
from greycast.cli.main import main
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
    assert ts.labels is None


def test_parse_dated_csv():
    ts = parse_series_csv(
        io.StringIO("date,value\n1994-09-01,99.1\n1994-09-02,99.4\n")
    )
    assert np.allclose(ts.values, [99.1, 99.4])
    assert ts.labels == ("1994-09-01", "1994-09-02")


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


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------


def test_dump_json_float_rendering():
    text = dump_json({"x": 1.0 / 3.0, "flag": True, "items": [1, None]})
    assert json.loads(text)["x"] == 1.0 / 3.0
    assert "0.33333333333333331" in text
    assert dump_json(float("nan")) == "null\n"


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
    assert doc["kind"] == "gm" and doc["schema_version"] == 1
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


def test_markov_test_on_series(tmp_path, capsys):
    data = tmp_path / "series.csv"
    write_series(data, synthetic_series(80, seed=5))
    out_path = tmp_path / "markov.json"
    rc = main(["markov-test", "--input", str(data), "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
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
        assert sorted(kinds) == ["dgm_fmarkov", "ignn"]
    assert sorted(calls) == ["dgm_fmarkov", "ignn"]  # one call per kind, all folds


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


# Model docs with a value of the wrong JSON type, an unknown key or a ragged
# matrix: probe -> (kind fitted, path of the field, value written there).
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
        node[path[-1]] = value
        (tmp_path / "m.json").write_text(json.dumps(doc))
        return forecast
    train = {
        "negative_learning_rate": {"learning_rate": -1},
        "zero_learning_rate": {"learning_rate": 0},
        "negative_epochs": {"epochs": -3},
    }
    if probe in train:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": train[probe]}))
        return fit + ["--config", str(config)]
    if probe == "model_missing_key":
        assert main(fit) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        del doc["a"]
        (tmp_path / "m.json").write_text(json.dumps(doc))
        return forecast
    if probe == "report_not_an_object":
        (tmp_path / "r.json").write_text("[1, 2]")
        return ["report", "--input", str(tmp_path / "r.json")]
    if probe == "input_is_directory":
        return ["fit", "--model", "gm", "--input", str(tmp_path), "--out", str(tmp_path / "m.json")]
    if probe == "report_input_is_directory":
        return ["report", "--input", str(tmp_path)]
    if probe == "config_is_directory":
        return fit + ["--config", str(tmp_path)]
    assert probe == "unwritable_output"
    return fit[:-1] + [str(tmp_path / "no_such_dir" / "m.json")]


@pytest.mark.parametrize("probe, code", [
    ("negative_learning_rate", 2),
    ("zero_learning_rate", 2),
    ("negative_epochs", 2),
    ("model_missing_key", 5),
    ("report_not_an_object", 5),
    ("unwritable_output", 2),
    ("input_is_directory", 3),
    ("report_input_is_directory", 3),
    ("config_is_directory", 2),
    *((probe, 5) for probe in _DOC_EDITS),
])
def test_exit_code_probes(tmp_path, capsys, probe, code):
    argv = _probe_argv(tmp_path, probe)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if probe == "model_missing_key":
        assert "'a'" in err
    if probe.endswith("is_directory"):
        assert "cannot read " in err


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
