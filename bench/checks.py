"""Output checks for the benchmark's workloads.

Each check takes what the program wrote (a model doc, a report, a plot
CSV, an exit code) plus the input series, recomputes the answer with
:mod:`reference` or tests a property the method must have, and raises
:class:`CheckFailed` on the first disagreement.  ``selftest.py`` feeds each
check one corrupted output to show that it can fail.
"""

from __future__ import annotations

import numpy as np

import reference as ref

GEOMETRIC_MESSAGE = "error: geometric combination requires strictly positive forecasts"
GEOMETRIC_EXIT = 5
CHI2_THRESHOLD_TOLERANCE = 0.02
# Comparisons against fits recomputed from the series.  GM's closed-form
# response (x0 - u/a) e^{-ak} + u/a cancels |u/a| against values near the
# series level, so on a near-flat series (a -> 0) a 1e-12 difference in a
# and u shows up as ~1e-9 in the path; this tolerance leaves room for that
# and nothing more.
OWN_FIT_RTOL = 1e-7


class CheckFailed(AssertionError):
    pass


def close(what: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol):
        worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else None
        raise CheckFailed(f"{what}: got {got.tolist()}, expected {want.tolist()} (max diff {worst})")


def simplex(what: str, w) -> None:
    w = np.asarray(w, dtype=float)
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
        raise CheckFailed(f"{what}: weights {w.tolist()} are not on the simplex")


# --- grey_fleet -----------------------------------------------------------


def gm_doc(doc: dict, x: np.ndarray) -> None:
    a, u = ref.gm_params(x)
    close("GM (a, u)", [doc["a"], doc["u"]], [a, u], rtol=1e-9)
    if doc["x0_first"] != x[0] or doc["n_fit"] != x.size:
        raise CheckFailed("GM doc does not record the series start and length")


def dgm_doc(doc: dict, x: np.ndarray) -> None:
    beta = ref.dgm_beta(x)
    close("DGM beta", doc["beta"], beta, rtol=1e-9, atol=1e-9 * np.max(np.abs(beta)))
    xi = doc["xi"]
    step = 1e-3 * max(1.0, abs(xi))
    best = ref.dgm_sse(doc["beta"], xi, x)
    for trial in (xi - step, xi + step):
        if ref.dgm_sse(doc["beta"], trial, x) < best:
            raise CheckFailed(f"DGM xi={xi} is beaten by xi={trial}")


def fuzzy_rows(probs) -> None:
    p = np.asarray(probs, dtype=float)
    if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12):
        raise CheckFailed("fuzzy transition rows must be non-negative and sum to 1")


def model_forecast(kind: str, doc: dict, forecast, x: np.ndarray, boundaries) -> None:
    """A reloaded doc's forecast against the closed form or own recursion."""
    h = len(forecast)
    n = x.size
    if kind == "gm":
        want = ref.gm_path(doc["a"], doc["u"], doc["x0_first"], n + h)[n:]
    elif kind == "dgm":
        want = ref.dgm_simulate(doc["beta"], doc["xi"], n + h)[n:]
    else:
        want = ref.fmarkov_forecast(x, boundaries, h)
    close(f"{kind} forecast", forecast, want, rtol=1e-9)


def markov_test(chi_squared: float, threshold: float, z, boundaries, dof: int, alpha: float) -> None:
    from scipy.stats import chi2

    close("chi-squared", chi_squared, ref.chi_squared(z, boundaries), rtol=1e-9)
    quantile = float(chi2.ppf(1.0 - alpha, dof))
    if abs(threshold - quantile) > CHI2_THRESHOLD_TOLERANCE:
        raise CheckFailed(
            f"chi-squared threshold {threshold} is not the {1 - alpha} quantile {quantile:.4f}"
        )


# --- hybrid_schemes -------------------------------------------------------


def component_fits(x: np.ndarray, kinds, boundaries, horizon: int):
    """Own in-sample fits and forecasts, keyed by component kind."""
    n = x.size
    fits, forecasts = {}, {}
    for kind in kinds:
        if kind == "gm":
            a, u = ref.gm_params(x)
            path = ref.gm_path(a, u, x[0], n + horizon)
            fits[kind], forecasts[kind] = path[:n], path[n:]
        elif kind == "dgm":
            beta = ref.dgm_beta(x)
            path = ref.dgm_simulate(beta, ref.dgm_optimal_xi(beta, x), n + horizon)
            fits[kind], forecasts[kind] = path[:n], path[n:]
        else:
            fits[kind] = ref.fmarkov_fit(x, boundaries)[3]
            forecasts[kind] = ref.fmarkov_forecast(x, boundaries, horizon)
    return fits, forecasts


def hybrid_report(report: dict, x: np.ndarray, boundaries, own) -> None:
    """One `greycast hybrid` report of grey components against own fits."""
    kinds = report["components"]
    fits, forecasts = own
    preds = np.array([fits[k] for k in kinds])
    scheme = report["weights"]["scheme"]
    formula = report["config"]["combine"]
    w = np.asarray(report["weights"]["values"], dtype=float)
    diag = report["weights"]["diagnostics"]
    simplex(f"{scheme} weights", w)
    rtol = OWN_FIT_RTOL
    for kind in kinds:
        close(f"{kind} in-sample MSE", report["evaluation"]["models"][kind]["mse"],
              np.mean((fits[kind] - x) ** 2), rtol=rtol)
    if scheme == "simplex_ls":
        best = ref.simplex_ls(x, preds)
        achieved = ref.sse(x, preds, w)
        close("simplex_ls diagnostic SSE", diag["sse"], achieved, rtol=rtol)
        close("simplex_ls SSE against the exact solve", achieved, ref.sse(x, preds, best), rtol=rtol)
        rivals = list(np.eye(len(kinds))) + [np.full(len(kinds), 1.0 / len(kinds))]
        if any(achieved > ref.sse(x, preds, r) * (1 + rtol) for r in rivals):
            raise CheckFailed("simplex_ls SSE is worse than a single model or the uniform mix")
    elif scheme == "grey_relation":
        gamma = diag["gamma"]
        close("grey relation gamma", gamma, ref.relation_gamma(x, preds, w), rtol=rtol)
        singles = [ref.relation_gamma(x, preds, e) for e in np.eye(len(kinds))]
        close("individual gammas", diag["gamma_individual"], singles, rtol=rtol)
        if gamma < max(singles) * (1 - rtol):
            raise CheckFailed(f"grey relation gamma {gamma} is below a single model's")
        if len(kinds) == 2 and gamma < ref.relation_grid_max(x, preds) - 1e-6:
            raise CheckFailed(f"grey relation gamma {gamma} is below the grid maximum")
    elif scheme == "effective_degree":
        close("effective-degree weights", w, ref.effective_weights(x, preds), rtol=rtol)
    elif scheme == "min_variance":
        close("min-variance weights", w, ref.min_variance_weights(x, preds), rtol=rtol, atol=1e-12)
    close("hybrid in-sample MSE", report["evaluation"]["hybrid"]["mse"],
          np.mean((ref.combine(preds, w, formula) - x) ** 2), rtol=rtol)
    fc = report["forecast"]
    columns = np.array([fc["models"][k] for k in kinds])
    for kind, column in zip(kinds, columns):
        close(f"{kind} forecast", column, forecasts[kind], rtol=rtol)
    close(f"{formula} hybrid forecast", fc["hybrid"], ref.combine(columns, w, formula), rtol=1e-12)


# --- nn_backtest ----------------------------------------------------------


def backtest(report: dict, header, rows, x: np.ndarray, folds: int, horizon: int, boundaries) -> None:
    """Plot CSV and report of an arithmetic `greycast backtest`."""
    names = report["components"]
    if header != ["t", "actual", *names, "hybrid"]:
        raise CheckFailed(f"unexpected plot header {header}")
    table = np.asarray(rows, dtype=float)
    n = x.size
    first = n - folds * horizon
    close("plot t column", table[:, 0], np.arange(first + 1, n + 1), rtol=0)
    close("plot actual column", table[:, 1], x[first:], rtol=0)
    for fold, doc in enumerate(report["folds"]):
        origin = first + fold * horizon
        if doc["origin"] != origin:
            raise CheckFailed(f"fold {fold} origin {doc['origin']}, expected {origin}")
        w = np.asarray(doc["weights"], dtype=float)
        simplex(f"fold {fold} weights", w)
        block = table[fold * horizon : (fold + 1) * horizon]
        close(f"fold {fold} hybrid column", block[:, -1], block[:, 2:-1] @ w, rtol=1e-12)
        if "dgm_fmarkov" in names:
            col = 2 + names.index("dgm_fmarkov")
            close(f"fold {fold} dgm_fmarkov forecast", block[:, col],
                  ref.fmarkov_forecast(x[:origin], boundaries, horizon), rtol=1e-9)
    pooled = {name: table[:, 2 + i] for i, name in enumerate(names)}
    for name, column in pooled.items():
        for key, value in ref.metrics(table[:, 1], column).items():
            close(f"pooled {name} {key}", report["models"][name][key], value, rtol=1e-9)
    for key, value in ref.metrics(table[:, 1], table[:, -1]).items():
        close(f"pooled hybrid {key}", report["hybrid"]["metrics"][key], value, rtol=1e-9)


def geometric_failure(exit_code: int, stderr: str) -> None:
    if exit_code != GEOMETRIC_EXIT or stderr.strip() != GEOMETRIC_MESSAGE or stderr.count("\n") > 1:
        raise CheckFailed(
            f"geometric backtest exited {exit_code} with {stderr!r}; expected exit "
            f"{GEOMETRIC_EXIT} with {GEOMETRIC_MESSAGE!r}"
        )
