import numpy as np
import pytest

from greycast import (
    DataError,
    InsufficientDataError,
    RecursionOverflowError,
    fit_dgm,
    forecast_dgm,
    optimize_initial,
    simulate_dgm,
)
from greycast.cli.synth import synthetic_series


def oracle_simulate(beta, xi, n):
    """Plain-Python re-implementation of the self-contained recursion,
    kept independent of the library path; used both as data generator and
    as the continuation oracle."""
    b1, b2, b3, b4 = beta
    x0 = [float(xi)]
    x1_prev = float(xi)
    x0_cur = float(xi)
    for k in range(1, n):
        x1_next = b1 * x1_prev + b2 * x0_cur + b3 * k + b4
        x0_cur = x1_next - x1_prev
        x0.append(x0_cur)
        x1_prev = x1_next
    return np.array(x0)


def oracle_q(beta, xi, observed):
    sim = oracle_simulate(beta, xi, len(observed))
    return float(np.sum((sim - np.asarray(observed)) ** 2))


def oracle_grid_xi(beta, observed, center, half_width=10.0):
    """Coarse-to-fine grid minimisation of Q."""
    lo, hi = center - half_width, center + half_width
    best = None
    for _ in range(12):
        grid = np.linspace(lo, hi, 201)
        scores = [oracle_q(beta, g, observed) for g in grid]
        idx = int(np.argmin(scores))
        best = grid[idx]
        span = grid[1] - grid[0]
        lo, hi = best - span, best + span
    return float(best)


GEN_BETA = (0.5, 0.2, 1.0, 2.0)
GEN_XI = 3.0


def test_constant_series_reproduced_exactly():
    m = fit_dgm([7.0] * 6)
    out = forecast_dgm(m, 5)
    assert out.size == 11
    assert np.allclose(out, 7.0, atol=1e-8)


def test_too_short_series():
    with pytest.raises(InsufficientDataError):
        fit_dgm([1, 2, 3, 4])


def test_refit_recovers_generating_parameters():
    data = oracle_simulate(GEN_BETA, GEN_XI, 10)
    m = fit_dgm(data)
    assert np.allclose(m.beta, GEN_BETA, atol=1e-6)
    assert abs(m.xi - GEN_XI) < 1e-6
    # in-sample residuals vanish on exactly generated data
    assert np.max(np.abs(forecast_dgm(m, 1)[:10] - data)) < 1e-8


def test_forecast_matches_generator_continuation():
    data = oracle_simulate(GEN_BETA, GEN_XI, 10)
    m = fit_dgm(data)
    continued = oracle_simulate(GEN_BETA, GEN_XI, 13)
    out = forecast_dgm(m, 3)
    assert np.allclose(out, continued, atol=1e-6)


def test_forecast_horizon_validation():
    m = fit_dgm([7.0] * 6)
    with pytest.raises(DataError):
        forecast_dgm(m, 0)


def test_forecast_overflow_names_step():
    with pytest.raises(RecursionOverflowError, match="step"):
        simulate_dgm((1.5, 0.0, 0.0, 0.0), 1e200, 2000)


@pytest.mark.parametrize("beta, xi, step", [
    ((1.5, 0.0, 0.0, 0.0), 1e200, 569),  # the first step past the 1e300 limit
    ((1.0, 0.0, 0.0, float("nan")), 1.0, 2),
    ((1.0, 0.0, 0.0, float("inf")), 1.0, 2),
    ((1.0, 0.0, 0.0, float("-inf")), 1.0, 2),
])
def test_non_finite_or_overflowing_step_is_named(beta, xi, step):
    with pytest.raises(RecursionOverflowError, match=f"overflowed at step {step} "):
        simulate_dgm(beta, xi, 2000)


def test_optimal_xi_exact_fit_case():
    data = oracle_simulate(GEN_BETA, GEN_XI, 10)
    best = optimize_initial(GEN_BETA, data)
    assert abs(best.xi - GEN_XI) < 1e-9
    assert oracle_q(GEN_BETA, best.xi, data) < 1e-16
    assert not best.degenerate


def test_optimal_xi_matches_grid_oracle():
    # perturb the observations so no exact fit exists
    rng = np.random.default_rng(21)
    data = oracle_simulate(GEN_BETA, GEN_XI, 10) + rng.normal(0, 0.3, size=10)
    best = optimize_initial(GEN_BETA, data)
    grid_xi = oracle_grid_xi(GEN_BETA, data, GEN_XI)
    assert abs(best.xi - grid_xi) < 1e-6


def test_xi_equals_first_value_on_self_generated_data():
    # with b1 = b2 = 0 only the first two simulated values move with xi;
    # on self-generated data the optimum is the generating start, which is
    # the first observed value
    beta = (0.0, 0.0, 1.5, 2.0)
    data = oracle_simulate(beta, 4.25, 8)
    best = optimize_initial(beta, data)
    assert abs(best.xi - data[0]) < 1e-9


def test_q_is_quadratic_parabola_identity():
    rng = np.random.default_rng(22)
    data = oracle_simulate(GEN_BETA, GEN_XI, 12) + rng.normal(0, 0.5, size=12)
    best = optimize_initial(GEN_BETA, data)
    q_minus = oracle_q(GEN_BETA, best.xi - 1.0, data)
    q_star = oracle_q(GEN_BETA, best.xi, data)
    q_plus = oracle_q(GEN_BETA, best.xi + 1.0, data)
    second_difference = q_plus + q_minus - 2.0 * q_star
    assert abs(second_difference - best.curvature) <= 1e-8 * max(1.0, best.curvature)


def test_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(23)
    data = oracle_simulate(GEN_BETA, GEN_XI, 12) + rng.normal(0, 0.5, size=12)
    best = optimize_initial(GEN_BETA, data)
    step = 1e-4
    q_star = oracle_q(GEN_BETA, best.xi, data)
    gradient = (
        oracle_q(GEN_BETA, best.xi + step, data)
        - oracle_q(GEN_BETA, best.xi - step, data)
    ) / (2 * step)
    assert abs(gradient) < 1e-6 * (1.0 + abs(q_star))


def test_simulate_agrees_with_oracle():
    out = simulate_dgm(GEN_BETA, GEN_XI, 15)
    assert np.allclose(out, oracle_simulate(GEN_BETA, GEN_XI, 15), atol=1e-10)


def reference_coefficients(beta, n):
    """The joint (d, c) loop optimize_initial once ran: simulated
    x0[k] = d[k] + c[k]*xi, with the recursion carried symbolically in xi."""
    b1, b2, b3, b4 = (float(v) for v in beta)
    d = np.empty(n)
    c = np.empty(n)
    d[0], c[0] = 0.0, 1.0
    d1_prev, c1_prev = 0.0, 1.0
    d0_cur, c0_cur = 0.0, 1.0
    for k in range(1, n):
        d1_next = b1 * d1_prev + b2 * d0_cur + b3 * k + b4
        c1_next = b1 * c1_prev + b2 * c0_cur
        d0_cur = d1_next - d1_prev
        c0_cur = c1_next - c1_prev
        d[k], c[k] = d0_cur, c0_cur
        d1_prev, c1_prev = d1_next, c1_next
    return d, c


def reference_optimize_initial(beta, values):
    d, c = reference_coefficients(beta, values.size)
    denom = float(np.dot(c, c))
    if denom == 0.0:
        return float(values[0]), 0.0, True
    return float(np.dot(c, values - d) / denom), 2.0 * denom, False


def test_optimize_initial_matches_the_coefficient_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    for seed in range(300):
        n = int(rng.integers(5, 401))
        values = synthetic_series(n, seed=seed)
        beta = fit_dgm(values).beta
        best = optimize_initial(beta, values)
        assert (best.xi, best.curvature, best.degenerate) == reference_optimize_initial(beta, values)
    values = oracle_simulate(GEN_BETA, GEN_XI, 30)
    for beta in (GEN_BETA, (0.0, 0.0, 1.5, 2.0), (1.0, -1.0, 0.0, 0.0), (0.9, 0.3, -0.2, 5.0)):
        best = optimize_initial(beta, values)
        assert (best.xi, best.curvature, best.degenerate) == reference_optimize_initial(beta, values)


def test_optimize_initial_on_an_explosive_recursion_names_the_step():
    with pytest.raises(RecursionOverflowError, match="overflowed at step"):
        optimize_initial((10.0, 0.0, 0.0, 1.0), np.ones(400))
