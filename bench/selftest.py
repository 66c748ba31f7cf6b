"""Self-tests for the benchmark's output checks.

    python3 bench/selftest.py

Each test runs greycast once on a small seeded input, shows that the
check accepts the real output, then corrupts one value and shows that the
check rejects it, so that no check passes vacuously.  Exits 1 if any test
fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

gc = run.import_greycast()

import workloads  # noqa: E402

B = workloads.BOUNDARIES
X = workloads.make_series(np.random.default_rng(5), 120, 12, slot=1, shifted=True)[:108]


def rejects(check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a corrupted output")


def fit_doc(kind: str) -> dict:
    fit = gc.models.fit_model(kind, X, gc.config.PipelineConfig())
    return json.loads(json.dumps(fit.to_doc()))


def forecast_of(doc: dict, h: int = 12) -> np.ndarray:
    return gc.models.model_from_doc(doc).forecast(h)


def test_perturbed_gm_parameter():
    doc = fit_doc("gm")
    checks.gm_doc(doc, X)
    for key in ("a", "u"):
        bad = dict(doc)
        bad[key] *= 1 + 1e-7
        rejects(checks.gm_doc, bad, X)


def test_perturbed_dgm_parameters():
    doc = fit_doc("dgm")
    checks.dgm_doc(doc, X)
    bad = dict(doc, beta=list(np.array(doc["beta"]) * (1 + 1e-7)))
    rejects(checks.dgm_doc, bad, X)
    rejects(checks.dgm_doc, dict(doc, xi=doc["xi"] + 0.5), X)


def test_changed_forecast_value():
    for kind in ("gm", "dgm", "dgm_fmarkov"):
        doc = fit_doc(kind)
        forecast = forecast_of(doc)
        checks.model_forecast(kind, doc, forecast, X, B)
        forecast[5] *= 1 + 1e-7
        rejects(checks.model_forecast, kind, doc, forecast, X, B)


def test_fuzzy_rows():
    probs = np.array(fit_doc("dgm_fmarkov")["fuzzy_probs"])
    checks.fuzzy_rows(probs)
    probs[2, 2] += 1e-6
    rejects(checks.fuzzy_rows, probs)


def test_markov_statistic_and_threshold():
    fitted = gc.models.fit_model("dgm", X, gc.config.PipelineConfig()).fitted
    z = gc.series.relative_residuals(X, fitted).values
    partition = gc.markov.StatePartition(np.asarray(B))
    classified = gc.markov.classify_states(z, partition)
    counts = gc.markov.count_transitions(classified)
    occupancy = np.bincount(classified.states, minlength=partition.k + 1)[1:]
    report = gc.markov.markov_property_test(
        counts, gc.markov.marginal_distribution(occupancy, classified.states.size), alpha=0.01
    )
    args = (report.chi_squared, report.threshold, z, B, report.dof, report.alpha)
    checks.markov_test(*args)
    rejects(checks.markov_test, report.chi_squared * (1 + 1e-6), *args[1:])
    rejects(checks.markov_test, report.chi_squared, report.threshold + 0.05, *args[2:])


def hybrid_report(tmp: Path, components: str, scheme: str, formula: str) -> dict:
    x_path = tmp / "x.csv"
    workloads.write_series(x_path, X)
    out = tmp / f"{scheme}.json"
    code, err = workloads.run_cli(gc, [
        "hybrid", "--input", x_path, "--out", out, "--components", components,
        "--scheme", scheme, "--combine", formula, "--horizon", 12,
    ])
    assert code == 0, err
    return json.loads(out.read_text())


def test_hybrid_reports(tmp: Path):
    own = checks.component_fits(X, ("gm", "dgm", "dgm_fmarkov"), B, 12)
    cases = [
        ("dgm_fmarkov,dgm", "grey_relation", "arithmetic"),
        ("dgm_fmarkov,dgm", "simplex_ls", "geometric"),
        ("dgm_fmarkov,dgm", "min_variance", "arithmetic"),
        ("dgm_fmarkov,dgm,gm", "effective_degree", "harmonic"),
    ]
    for case in cases:
        report = hybrid_report(tmp, *case)
        checks.hybrid_report(report, X, B, own)
        off = copy.deepcopy(report)
        off["weights"]["values"][0] += 0.01  # off the simplex
        rejects(checks.simplex, "weights", off["weights"]["values"])
        rejects(checks.hybrid_report, off, X, B, own)
        moved = copy.deepcopy(report)  # on the simplex, but not the scheme's answer
        w = np.asarray(moved["weights"]["values"])
        moved["weights"]["values"] = list(0.9 * w + 0.1 * np.roll(w, 1))
        rejects(checks.hybrid_report, moved, X, B, own)
        changed = copy.deepcopy(report)
        changed["forecast"]["hybrid"][3] *= 1 + 1e-9
        rejects(checks.hybrid_report, changed, X, B, own)


def test_backtest(tmp: Path):
    x_path = tmp / "bt.csv"
    workloads.write_series(x_path, X)
    config = tmp / "train.json"
    config.write_text(json.dumps({"train": {"epochs": 2}}))
    code, err = workloads.run_cli(gc, [
        "backtest", "--input", x_path, "--out", tmp / "bt.json", "--plot-out", tmp / "bt_plot.csv",
        "--folds", 3, "--horizon", 12, "--config", config,
    ])
    assert code == 0, err
    report = json.loads((tmp / "bt.json").read_text())
    header, rows = workloads.read_csv(tmp / "bt_plot.csv")
    checks.backtest(report, header, rows, X, 3, 12, B)
    for row, col, factor in ((4, -1, 1 + 1e-9), (7, 2, 1 + 1e-7), (0, 1, 1 + 1e-12)):
        bad = copy.deepcopy(rows)
        bad[row][col] *= factor
        rejects(checks.backtest, report, header, bad, X, 3, 12, B)
    off = copy.deepcopy(report)
    off["folds"][1]["weights"] = [1.2, -0.2]
    rejects(checks.simplex, "fold weights", off["folds"][1]["weights"])
    rejects(checks.backtest, off, header, rows, X, 3, 12, B)
    pooled = copy.deepcopy(report)
    pooled["hybrid"]["metrics"]["mape"] *= 1 + 1e-6
    rejects(checks.backtest, pooled, header, rows, X, 3, 12, B)


def test_geometric_job(tmp: Path):
    nn = workloads.NnBacktest(gc, tmp, seed=0)
    code, err = nn.geometric(0)[1]
    checks.geometric_failure(code, err)
    rejects(checks.geometric_failure, 0, "")
    rejects(checks.geometric_failure, 6, err)
    rejects(checks.geometric_failure, 5, "error: something else\n")


def main() -> int:
    failures = 0
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name, test in list(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test(Path(tmp)) if test.__code__.co_argcount else test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    try:
        run.WORK.rmdir()
    except OSError:
        pass  # a benchmark run is using it
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
