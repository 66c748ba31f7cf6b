import itertools
import math

import numpy as np
import pytest

from greycast import (
    ConfigError,
    DataError,
    DegeneracyError,
    HybridWeights,
    RelationConfig,
    accuracy_series,
    combine_forecasts,
    effective_degree,
    effective_weights,
    grey_relation_degree,
    min_variance_weight,
    optimize_relation_weights,
    project_to_simplex,
    simplex_ls_weights,
)
from greycast.cli.config import PipelineConfig, TrainConfig
from greycast.cli.models import align_fitted, fit_model
from greycast.cli.synth import synthetic_series


def gamma_oracle(actual, forecasts, weights, rho=0.5):
    """Direct evaluation of the relational degree of a combined error."""
    actual = np.asarray(actual, dtype=float)
    errors = np.array([actual - np.asarray(f, dtype=float) for f in forecasts])
    emin = np.abs(errors).min()
    emax = np.abs(errors).max()
    combined = np.abs(np.asarray(weights) @ errors)
    return float(np.mean((emin + rho * emax) / (combined + rho * emax)))


# ---------------------------------------------------------------------------
# accuracy and effective degree
# ---------------------------------------------------------------------------


def test_accuracy_series_examples():
    assert np.allclose(accuracy_series([5.0, 6.0], [5.0, 6.0]), [1.0, 1.0])
    assert np.allclose(accuracy_series([100.0], [90.0]), [0.9])
    assert np.allclose(accuracy_series([100.0], [0.0]), [0.0])
    # more than 100% error goes negative, never clamped
    assert np.allclose(accuracy_series([100.0], [250.0]), [-0.5])


def test_accuracy_series_zero_actual():
    with pytest.raises(DegeneracyError, match="t=2"):
        accuracy_series([1.0, 0.0], [1.0, 1.0])


def test_effective_degree_trivial_cases():
    assert effective_degree([1.0, 1.0, 1.0, 1.0]) == 1.0
    assert effective_degree([0.8, 0.8]) == 0.8


def test_effective_degree_hand_case():
    # independent evaluation: mean 0.8; deviation sum of squares 0.08;
    # sigma = sqrt(0.08)/2; score = 0.8*(1 - sigma)
    sigma = math.sqrt(0.08) / 2.0
    expected = 0.8 * (1.0 - sigma)
    assert math.isclose(effective_degree([1.0, 0.6]), expected, rel_tol=1e-12)


def test_effective_weights():
    assert np.allclose(effective_weights([1.0, 1.0]).weights, [0.5, 0.5])
    assert np.allclose(effective_weights([0.9, 0.6]).weights, [0.6, 0.4])
    assert np.allclose(effective_weights([0.5, 0.3, 0.2]).weights, [0.5, 0.3, 0.2])
    with pytest.raises(DegeneracyError):
        effective_weights([0.5, -0.1])


# ---------------------------------------------------------------------------
# minimal-variance split
# ---------------------------------------------------------------------------


def test_min_variance_equal_variances():
    e = np.array([1.0, -1.0, 2.0, -2.0])
    hw = min_variance_weight(e, e[::-1])
    assert math.isclose(hw.diagnostics["rho_star"], 0.5, rel_tol=1e-12)


def test_min_variance_error_free_model():
    e1 = np.zeros(6)
    e2 = np.array([1.0, -2.0, 0.5, 1.5, -1.0, 0.3])
    hw = min_variance_weight(e1, e2)
    assert hw.weights[0] == 1.0


def test_min_variance_tie_and_flag():
    hw = min_variance_weight([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert hw.weights[0] == 0.5
    assert hw.diagnostics["tie"] is True


def test_min_variance_one_three_case_with_grid_oracle():
    # orthogonal mean-zero errors with sample variances exactly 1 and 3
    e1 = math.sqrt(3.0) / 2.0 * np.array([1.0, 1.0, -1.0, -1.0])
    e2 = 1.5 * np.array([1.0, -1.0, 1.0, -1.0])
    assert math.isclose(np.var(e1, ddof=1), 1.0)
    assert math.isclose(np.var(e2, ddof=1), 3.0)
    assert abs(float(np.cov(e1, e2, ddof=1)[0, 1])) < 1e-15

    hw = min_variance_weight(e1, e2)
    assert math.isclose(hw.diagnostics["rho_star"], 0.75, rel_tol=1e-12)

    grid = np.linspace(0.0, 1.0, 1001)
    variances = [np.var(r * e1 + (1 - r) * e2, ddof=1) for r in grid]
    assert math.isclose(grid[int(np.argmin(variances))], 0.75, abs_tol=1e-3)


def test_min_variance_local_minimum_property():
    rng = np.random.default_rng(51)
    e1 = rng.normal(0, 1.0, size=40)
    e2 = rng.normal(0, 2.0, size=40)
    hw = min_variance_weight(e1, e2)
    rho = hw.diagnostics["rho_star"]

    def var_at(r):
        return float(np.var(r * e1 + (1 - r) * e2, ddof=1))

    base = var_at(rho)
    for nudge in (-0.01, 0.01):
        r = min(1.0, max(0.0, rho + nudge))
        assert base <= var_at(r) + 1e-12


# ---------------------------------------------------------------------------
# simplex least squares
# ---------------------------------------------------------------------------


def test_simplex_projection():
    assert np.allclose(project_to_simplex([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(project_to_simplex([2.0, 0.0]), [1.0, 0.0])
    w = project_to_simplex(np.array([0.9, -0.3, 0.7]))
    assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)
    assert np.all(w >= 0)


def test_simplex_ls_perfect_forecast_wins():
    rng = np.random.default_rng(53)
    actual = rng.uniform(50, 60, size=30)
    noisy = actual + rng.normal(0, 2.0, size=30)
    hw = simplex_ls_weights(actual, [actual.copy(), noisy])
    assert hw.weights[0] > 1.0 - 1e-6
    assert hw.diagnostics["sse"] < 1e-9


def test_simplex_ls_symmetric_cancellation():
    rng = np.random.default_rng(54)
    actual = rng.uniform(10, 20, size=25)
    e = rng.normal(0, 1.0, size=25)
    hw = simplex_ls_weights(actual, [actual + e, actual - e])
    assert np.allclose(hw.weights, [0.5, 0.5], atol=1e-9)
    assert hw.diagnostics["sse"] < 1e-18


def test_simplex_ls_matches_grid_and_closed_form():
    rng = np.random.default_rng(55)
    actual = rng.uniform(100, 110, size=40)
    # mean-zero error structure so raw moments match centered ones
    e1 = rng.normal(0, 1.0, size=40)
    e2 = rng.normal(0, 2.0, size=40)
    e1 -= e1.mean()
    e2 -= e2.mean()
    f1, f2 = actual - e1, actual - e2
    hw = simplex_ls_weights(actual, [f1, f2])

    grid = np.arange(0.0, 1.0 + 1e-12, 1e-5)
    combined_err = np.outer(grid, e1) + np.outer(1.0 - grid, e2)
    sse = np.sum(combined_err**2, axis=1)
    grid_best = grid[int(np.argmin(sse))]
    assert abs(hw.weights[0] - grid_best) < 1e-4

    closed = min_variance_weight(e1, e2).diagnostics["rho_star"]
    assert abs(hw.weights[0] - closed) < 1e-6


def test_simplex_ls_identical_forecasts_degenerate():
    actual = np.array([10.0, 11.0, 12.0])
    f = np.array([10.5, 10.5, 12.5])
    hw = simplex_ls_weights(actual, [f, f.copy(), f.copy()])
    assert np.allclose(hw.weights, 1.0 / 3.0)
    assert hw.diagnostics["degenerate"] is True


def test_simplex_ls_never_worse_than_best_single_model():
    rng = np.random.default_rng(56)
    for _ in range(10):
        actual = rng.uniform(50, 80, size=35)
        forecasts = [actual + rng.normal(0, s, size=35) for s in (0.5, 1.5, 3.0)]
        hw = simplex_ls_weights(actual, forecasts)
        combined = np.column_stack(forecasts) @ hw.weights
        combined_mse = np.mean((combined - actual) ** 2)
        best_single = min(np.mean((f - actual) ** 2) for f in forecasts)
        assert combined_mse <= best_single + 1e-9


def _benchmark_series(rng, slot, shifted):
    """The benchmark's series recipe, first 278 of 302 points.

    The level grows at the slot's rate; a level shift of the slot's size
    at a drawn position when ``shifted``; AR(1) noise whose innovations
    are standardised over the first 278 and the last 24 points.
    """
    base = rng.uniform(80.0, 120.0)
    level = base * np.exp((0.0, 0.0005, 0.001, 0.002, -0.0005)[slot % 5] * np.arange(302))
    if shifted:
        level[rng.integers(302 // 5, 3 * 302 // 5) :] += (0.0, 0.02, -0.02)[slot % 3] * base
    z = rng.standard_normal(302)
    for part in (z[:278], z[278:]):
        part -= part.mean()
        part /= part.std()
    noise = np.empty(278)
    value = 0.0
    for t in range(278):
        value = 0.3 * value + 0.004 * base * z[t]
        noise[t] = value
    return level[:278] + noise


def _benchmark_fits(values, kinds):
    """Aligned in-sample (actual, predictions) of the kinds fitted to values."""
    fits = [fit_model(kind, values, PipelineConfig()) for kind in kinds]
    _, actual, predictions = align_fitted(values, fits)
    return actual, predictions


def test_simplex_ls_finds_the_best_support_of_three():
    # slot 0 has no growth and a shift of size zero, whose position is drawn
    values = _benchmark_series(np.random.default_rng(1), 0, shifted=True)
    actual, predictions = _benchmark_fits(values, ("dgm_fmarkov", "dgm", "gm"))
    hw = simplex_ls_weights(actual, predictions)
    # a solver that settles on the support {dgm_fmarkov} stops at SSE 42.8270
    assert hw.diagnostics["sse"] <= 42.81371
    assert np.allclose(hw.weights, [0.7527, 0.0, 0.2473], atol=1e-4)
    assert hw.diagnostics["support"] == [0, 2]
    assert hw.diagnostics["iterations"] == 7


# ---------------------------------------------------------------------------
# grey relational degree
# ---------------------------------------------------------------------------


def test_relation_degree_perfect_methods():
    actual = np.array([5.0, 6.0, 7.0])
    assert grey_relation_degree(actual, actual) == 1.0


def test_relation_degree_single_constant_error():
    actual = np.array([10.0, 10.0, 10.0])
    predicted = actual + 2.0
    assert math.isclose(grey_relation_degree(actual, predicted), 1.0, rel_tol=1e-12)


def test_relation_degree_hand_case():
    actual = np.array([10.0, 10.0])
    f1 = actual - np.array([1.0, 2.0])
    f2 = actual - np.array([2.0, 4.0])
    e1 = actual - f1
    e2 = actual - f2
    g1 = grey_relation_degree(actual, f1, peer_errors=[e2])
    g2 = grey_relation_degree(actual, f2, peer_errors=[e1])
    assert math.isclose(g1, 0.875, rel_tol=1e-12)
    assert math.isclose(g2, 0.625, rel_tol=1e-12)


@pytest.mark.parametrize("peers", [0, 1, 3])
def test_relation_degree_matches_the_formula(peers):
    rng = np.random.default_rng(75 + peers)
    actual = rng.uniform(50, 70, size=23)
    predicted = actual + rng.normal(0, 1.0, size=23)
    peer_errors = [rng.normal(0, 2.0, size=23) for _ in range(peers)]
    own = np.abs(actual - predicted)
    pooled = np.concatenate([own, *np.abs(peer_errors)]) if peers else own
    emin, emax, rho = pooled.min(), pooled.max(), 0.3
    expected = float(((emin + rho * emax) / (own + rho * emax)).mean())
    got = grey_relation_degree(actual, predicted, peer_errors or None, RelationConfig(rho))
    assert got == expected


def test_relation_config_validation():
    with pytest.raises(ConfigError):
        RelationConfig(rho=0.0)
    with pytest.raises(ConfigError):
        RelationConfig(rho=1.0)


# ---------------------------------------------------------------------------
# relational-degree weight optimisation
# ---------------------------------------------------------------------------


def test_relation_weights_identical_forecasts():
    actual = np.array([10.0, 12.0, 11.0])
    f = np.array([10.5, 11.5, 11.5])
    hw = optimize_relation_weights(actual, [f, f.copy()])
    assert np.allclose(hw.weights, [0.5, 0.5])
    assert hw.diagnostics["tie"] is True


def test_relation_weights_all_exact_forecasts():
    # every error is 0, so each degree is 1, as grey_relation_degree scores it
    actual = np.array([10.0, 12.0, 11.0])
    hw = optimize_relation_weights(actual, [actual.copy(), actual.copy()])
    assert hw.weights.tolist() == [0.5, 0.5]
    assert hw.diagnostics == {"gamma": 1.0, "gamma_individual": [1.0, 1.0], "tie": True}


def test_relation_weights_perfect_forecast():
    rng = np.random.default_rng(57)
    actual = rng.uniform(20, 30, size=20)
    noisy = actual + rng.normal(0, 1.0, size=20)
    hw = optimize_relation_weights(actual, [actual.copy(), noisy])
    assert math.isclose(hw.diagnostics["gamma"], 1.0, abs_tol=1e-9)
    assert hw.weights[0] > 1.0 - 1e-6


@pytest.mark.parametrize(
    "seed, bias",
    # bias 1.0: the forecasts err on opposite sides, so the optimum lies
    # strictly inside (0, 1), at a zero of the combined error
    [(58, 0.0), (63, 0.0), (64, 0.0), (65, 0.0), (66, 1.0)],
)
def test_relation_weights_match_grid_oracle_two_models(seed, bias):
    rng = np.random.default_rng(seed)
    actual = rng.uniform(100, 120, size=30)
    f1 = actual + bias + rng.normal(0, 1.0, size=30)
    f2 = actual - 2.0 * bias + rng.normal(0, 2.0, size=30)
    hw = optimize_relation_weights(actual, [f1, f2])

    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    scores = [gamma_oracle(actual, [f1, f2], [w, 1 - w]) for w in grid]
    grid_gamma = max(scores)
    assert hw.diagnostics["gamma"] >= grid_gamma - 1e-12
    assert math.isclose(
        hw.diagnostics["gamma"],
        gamma_oracle(actual, [f1, f2], hw.weights),
        rel_tol=1e-12,
    )
    if bias:
        w1 = hw.weights[0]
        assert 0.0 < w1 < 1.0
        combined = np.abs(w1 * (actual - f1) + (1.0 - w1) * (actual - f2))
        assert combined.min() < 1e-12


def test_two_model_weights_are_a_kink_bit_for_bit():
    rng = np.random.default_rng(67)
    actual = rng.uniform(100, 120, size=40)
    f1 = actual + 1.0 + rng.normal(0, 1.0, size=40)
    f2 = actual - 2.0 + rng.normal(0, 2.0, size=40)
    hw = optimize_relation_weights(actual, [f1, f2])

    e1, e2 = actual - f1, actual - f2
    kinks = -e2 / (e1 - e2)
    points = [0.0, 1.0, *kinks[(kinks >= 0.0) & (kinks <= 1.0)]]
    scores = [gamma_oracle(actual, [f1, f2], [w, 1.0 - w]) for w in points]
    w1 = points[int(np.argmax(scores))]
    assert 0.0 < w1 < 1.0
    assert hw.weights.tolist() == [w1, 1.0 - w1]


def _two_model_kink_scan(actual, forecasts, rho=0.5):
    """The two-model solve as a separate path scored it: w1 at 0, at 1 and
    at every zero of the combined error, the first best kept."""
    e1, e2 = (np.asarray(actual) - np.asarray(f) for f in forecasts)
    abs_errors = np.abs([e1, e2])
    emin, emax = float(abs_errors.min()), float(abs_errors.max())
    delta = e1 - e2
    kinks = -e2[delta != 0.0] / delta[delta != 0.0]
    points = np.concatenate(([0.0, 1.0], kinks[(kinks >= 0.0) & (kinks <= 1.0)]))
    combined = np.abs(e2[None, :] + points[:, None] * delta[None, :])
    scores = np.mean((emin + rho * emax) / (combined + rho * emax), axis=-1)
    best = int(np.argmax(scores))
    return [float(points[best]), 1.0 - float(points[best])], float(scores[best])


@pytest.mark.parametrize("seed", range(80, 110))
def test_two_model_weights_match_the_kink_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    actual = 100.0 + rng.normal(0, 5.0, size=n).cumsum()
    forecasts = [actual + rng.normal(rng.normal(0, 2.0), rng.uniform(0.5, 4.0), size=n)
                 for _ in range(2)]
    hw = optimize_relation_weights(actual, forecasts)
    weights, gamma = _two_model_kink_scan(actual, forecasts)
    assert hw.weights.tolist() == weights
    # the vertex search forms the combined error as w @ errors, so its
    # rounding may differ from the scan's in the last digit
    assert math.isclose(hw.diagnostics["gamma"], gamma, rel_tol=1e-15)


def test_equal_single_models_tie_to_the_first():
    actual = np.array([10.0, 10.0])
    f1 = actual - np.array([1.0, 2.0])
    f2 = actual - np.array([2.0, 1.0])  # the same errors in the other order
    # the combined error has no zero on the edge, and the corners score best
    hw = optimize_relation_weights(actual, [f1, f2])
    g1, g2 = hw.diagnostics["gamma_individual"]
    assert g1 == g2 and math.isclose(g1, 5.0 / 6.0, rel_tol=1e-15)
    assert hw.weights.tolist() == [1.0, 0.0]
    assert hw.diagnostics["gamma"] == g1
    # the separate two-model scan tried w1 = 0, model 2 alone, first
    assert _two_model_kink_scan(actual, [f1, f2])[0] == [0.0, 1.0]


def _simplex_grid(step_count):
    """Every (i, j, k) / step_count on the 2-simplex, as rows."""
    i, j = np.divmod(np.arange((step_count + 1) ** 2), step_count + 1)
    keep = i + j <= step_count
    i, j = i[keep], j[keep]
    return np.column_stack([i, j, step_count - i - j]) / step_count


@pytest.mark.parametrize("seed, bias", [(70, 0.0), (71, 0.0), (72, 1.0), (73, 1.0)])
def test_relation_weights_match_grid_oracle_three_models(seed, bias):
    rng = np.random.default_rng(seed)
    actual = rng.uniform(100, 120, size=30)
    forecasts = [
        actual + bias + rng.normal(0, 1.0, size=30),
        actual - 2.0 * bias + rng.normal(0, 2.0, size=30),
        actual + 0.5 * bias + rng.normal(0, 1.5, size=30),
    ]
    hw = optimize_relation_weights(actual, forecasts)

    errors = np.array([actual - f for f in forecasts])
    emin, emax = np.abs(errors).min(), np.abs(errors).max()
    grid_gamma = -np.inf
    for rows in np.array_split(_simplex_grid(500), 50):  # step 2e-3
        combined = np.abs(rows @ errors)
        scores = np.mean((emin + 0.5 * emax) / (combined + 0.5 * emax), axis=1)
        grid_gamma = max(grid_gamma, float(scores.max()))
    assert hw.diagnostics["gamma"] >= grid_gamma - 1e-12
    assert math.isclose(
        hw.diagnostics["gamma"],
        gamma_oracle(actual, forecasts, hw.weights),
        rel_tol=1e-12,
    )


def _coordinate_search(fn, start: np.ndarray, initial_step: float = 0.25):
    """Derivative-free coordinate moves projected back onto the simplex.

    The heuristic that once weighted four or more models, from 16 starts;
    kept here as an oracle that the exact searches must not fall below.
    """
    w = project_to_simplex(np.asarray(start, dtype=float))
    best = fn(w)
    step = initial_step
    m = w.size
    while step > 1e-8:
        improved = False
        for i in range(m):
            for sign in (1.0, -1.0):
                trial = w.copy()
                trial[i] += sign * step
                trial = project_to_simplex(trial)
                value = fn(trial)
                if value > best + 1e-15:
                    w, best = trial, value
                    improved = True
        if not improved:
            step *= 0.5
    return w, best


def test_relation_weights_three_models_not_below_the_coordinate_search():
    """The exact solve against the 16-start search it replaced.

    These are the first two series of the benchmark's hybrid_schemes
    workload at seeds 1 and 503; on the last one the search stops short,
    5.9e-8 below the best vertex.
    """
    series = []
    for seed in (1, 503):
        rng = np.random.default_rng(seed)
        series.extend(_benchmark_series(rng, slot, shifted=False) for slot in (0, 1))
    for values in series:
        actual, predictions = _benchmark_fits(values, ("dgm_fmarkov", "dgm", "gm"))
        hw = optimize_relation_weights(actual, predictions)

        errors = np.array([actual - p for p in predictions])
        emin, emax = np.abs(errors).min(), np.abs(errors).max()

        def gamma_of(w):
            return float(np.mean((emin + 0.5 * emax) / (np.abs(w @ errors) + 0.5 * emax)))

        rng = np.random.default_rng(0)
        starts = [np.full(3, 1.0 / 3.0), *np.eye(3)]
        while len(starts) < 16:
            starts.append(rng.dirichlet(np.ones(3)))
        searched = max(_coordinate_search(gamma_of, start)[1] for start in starts)
        # one-sided: the search can only stop short of the best vertex
        assert hw.diagnostics["gamma"] >= searched - 1e-15


_KINDS = ("gm", "dgm", "dgm_fmarkov", "ignn", "sgnn")


@pytest.fixture(scope="module")
def four_and_five_model_solves():
    """Every 4- and 5-subset of the five kinds, fitted to synth(60) at seeds
    1 and 2: (actual, predictions, weights) per solve, 12 in all."""
    cfg = PipelineConfig(train=TrainConfig(epochs=60, learning_rate=0.1))
    solves = []
    for seed in (1, 2):
        values = synthetic_series(60, seed=seed)
        fits = {kind: fit_model(kind, values, cfg) for kind in _KINDS}
        for size in (4, 5):
            for kinds in itertools.combinations(_KINDS, size):
                _, actual, predictions = align_fitted(values, [fits[k] for k in kinds])
                hw = optimize_relation_weights(actual, predictions)
                solves.append((actual, predictions, hw))
    return solves


def _gamma_function(actual, predictions):
    """The degree of each weight row, with the envelopes of all models."""
    errors = np.array([actual - p for p in predictions])
    emin, emax = np.abs(errors).min(), np.abs(errors).max()
    return lambda w: np.mean((emin + 0.5 * emax) / (np.abs(w @ errors) + 0.5 * emax), axis=-1)


def test_four_and_five_models_not_below_the_coordinate_search(four_and_five_model_solves):
    """The face sweep against the 16-start search it replaced."""
    for actual, predictions, hw in four_and_five_model_solves:
        gamma_of = _gamma_function(actual, predictions)
        m = len(predictions)
        rng = np.random.default_rng(0)
        starts = [np.full(m, 1.0 / m), *np.eye(m)]
        while len(starts) < 16:
            starts.append(rng.dirichlet(np.ones(m)))
        searched = max(_coordinate_search(lambda w: float(gamma_of(w)), s)[1] for s in starts)
        assert hw.diagnostics["gamma"] >= searched - 1e-12


def test_four_and_five_models_not_below_any_three_model_face(four_and_five_model_solves):
    grid = _simplex_grid(200)  # step 5e-3
    for actual, predictions, hw in four_and_five_model_solves:
        gamma_of = _gamma_function(actual, predictions)
        m = len(predictions)
        for face in itertools.combinations(range(m), 3):
            rows = np.zeros((len(grid), m))
            rows[:, face] = grid
            assert hw.diagnostics["gamma"] >= float(gamma_of(rows).max()) - 1e-12
        assert math.isclose(hw.diagnostics["gamma"], float(gamma_of(hw.weights)), rel_tol=1e-12)


def _vertex_optimum(errors, emin, emax):
    """Best degree over every vertex of the arrangement, by brute force.

    A vertex solves sum(w) = 1 together with m - 1 of the sets w·e_t = 0
    (mixed-sign points only) and w_j = 0; the feasible ones are scored.
    """
    m = len(errors)
    mixed = np.any(errors > 0.0, axis=0) & np.any(errors < 0.0, axis=0)
    planes = np.concatenate([errors.T[mixed], np.eye(m)])
    chosen = np.array(list(itertools.combinations(range(len(planes)), m - 1)))
    systems = np.concatenate([planes[chosen], np.ones((len(chosen), 1, m))], axis=1)
    systems /= np.abs(systems).max(axis=(1, 2))[:, None, None]
    systems = systems[np.abs(np.linalg.det(systems)) > 1e-12]
    target = np.zeros((len(systems), m, 1))
    target[:, -1] = 1.0
    w = np.linalg.solve(systems, target)[:, :, 0]
    w = np.clip(w[np.all(w >= -1e-12, axis=1)], 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    return float(np.max(np.mean((emin + 0.5 * emax) / (np.abs(w @ errors) + 0.5 * emax), axis=1)))


def test_four_and_five_models_sweep_past_the_faces():
    """On random problems the sweep raises the degree past every face, and
    stops where no face can be raised with the other weights held.

    It never reports more than the brute-force optimum, but it is not
    exact: on 9 of these 20 problems it stops short of it, by up to 1.5e-4.
    """
    gains = 0
    for seed in range(10):
        for m in (4, 5):
            rng = np.random.default_rng(seed)
            actual = rng.uniform(50, 70, size=25)
            forecasts = [actual + rng.normal(0, s, size=25) for s in np.linspace(0.5, 2.5, m)]
            hw = optimize_relation_weights(actual, forecasts)
            gamma, w = hw.diagnostics["gamma"], hw.weights
            errors = np.array([actual - f for f in forecasts])
            emin, emax = np.abs(errors).min(), np.abs(errors).max()
            faces = [list(face) for face in itertools.combinations(range(m), 3)]
            best_face = max(_vertex_optimum(errors[face], emin, emax) for face in faces)
            assert best_face - 1e-12 <= gamma <= _vertex_optimum(errors, emin, emax) + 1e-12
            gains += gamma > best_face + 1e-9
            for face in faces:
                rest = [j for j in range(m) if j not in face]
                rows = w[face].sum() * errors[face] + w[rest] @ errors[rest]
                assert _vertex_optimum(rows, emin, emax) <= gamma + 1e-12
    assert gains == 14


def test_five_kind_hybrid_fit_returns_simplex_weights():
    # the 16-start search it replaced ran for more than ten minutes here
    cfg = PipelineConfig(components=_KINDS, train=TrainConfig(epochs=60, learning_rate=0.1))
    doc = fit_model("hybrid", synthetic_series(120, seed=2), cfg).to_doc()
    weights = np.array(doc["weights"])
    assert doc["scheme"] == "grey_relation" and weights.size == 5
    assert np.all(weights >= 0) and math.isclose(weights.sum(), 1.0, abs_tol=1e-9)


def test_relation_weights_not_worse_than_best_single():
    rng = np.random.default_rng(59)
    for m in (2, 3, 4):
        actual = rng.uniform(50, 70, size=25)
        forecasts = [
            actual + rng.normal(0, s, size=25) for s in np.linspace(0.5, 2.5, m)
        ]
        hw = optimize_relation_weights(actual, forecasts)
        assert hw.diagnostics["gamma"] >= max(hw.diagnostics["gamma_individual"]) - 1e-9


def test_relation_weights_three_models_beats_components():
    rng = np.random.default_rng(60)
    actual = rng.uniform(10, 14, size=20)
    forecasts = [actual + rng.normal(0, s, size=20) for s in (0.4, 0.8, 1.2)]
    hw = optimize_relation_weights(actual, forecasts)
    assert math.isclose(hw.weights.sum(), 1.0, abs_tol=1e-9)
    assert np.all(hw.weights >= 0)


# ---------------------------------------------------------------------------
# combination formulas
# ---------------------------------------------------------------------------


def test_combine_degenerate_weight_returns_first():
    f1 = np.array([4.0, 9.0, 16.0])
    f2 = np.array([1.0, 2.0, 3.0])
    for scheme in ("arithmetic", "geometric", "harmonic"):
        out = combine_forecasts([f1, f2], [1.0, 0.0], scheme)
        assert np.allclose(out, f1)


def test_combine_geometric_hand_case():
    out = combine_forecasts([[4.0], [9.0]], [0.5, 0.5], "geometric")
    assert math.isclose(out[0], 6.0, rel_tol=1e-12)


def test_combine_harmonic_hand_case():
    out = combine_forecasts([[1.0], [1.0 / 3.0]], [0.5, 0.5], "harmonic")
    assert math.isclose(out[0], 0.5, rel_tol=1e-12)


def test_combine_mean_ordering():
    rng = np.random.default_rng(61)
    for _ in range(10):
        f = rng.uniform(0.5, 10.0, size=(3, 15))
        w = rng.dirichlet(np.ones(3))
        am = combine_forecasts(f, w, "arithmetic")
        gm = combine_forecasts(f, w, "geometric")
        hm = combine_forecasts(f, w, "harmonic")
        assert np.all(hm <= gm + 1e-12)
        assert np.all(gm <= am + 1e-12)


def test_combine_positivity_required():
    with pytest.raises(DataError):
        combine_forecasts([[1.0], [-2.0]], [0.5, 0.5], "geometric")
    with pytest.raises(DataError):
        combine_forecasts([[0.0], [2.0]], [0.5, 0.5], "harmonic")
    # arithmetic has no positivity requirement
    out = combine_forecasts([[1.0], [-2.0]], [0.5, 0.5], "arithmetic")
    assert out[0] == -0.5


def test_combine_unknown_scheme():
    with pytest.raises(ConfigError):
        combine_forecasts([[1.0], [2.0]], [0.5, 0.5], "median")


# ---------------------------------------------------------------------------
# weight vector hygiene
# ---------------------------------------------------------------------------


def test_all_weight_schemes_return_simplex_vectors():
    rng = np.random.default_rng(62)
    actual = rng.uniform(40, 50, size=30)
    f1 = actual + rng.normal(0, 1.0, size=30)
    f2 = actual + rng.normal(0, 1.5, size=30)
    produced = [
        effective_weights(
            [
                effective_degree(accuracy_series(actual, f1)),
                effective_degree(accuracy_series(actual, f2)),
            ]
        ),
        min_variance_weight(actual - f1, actual - f2),
        simplex_ls_weights(actual, [f1, f2]),
        optimize_relation_weights(actual, [f1, f2]),
    ]
    for hw in produced:
        assert abs(hw.weights.sum() - 1.0) <= 1e-9
        assert np.all(hw.weights >= 0)


def test_hybrid_weights_validation():
    with pytest.raises(DataError):
        HybridWeights(np.array([0.7, 0.7]), "simplex_ls")
    with pytest.raises(DataError):
        HybridWeights(np.array([1.2, -0.2]), "simplex_ls")
