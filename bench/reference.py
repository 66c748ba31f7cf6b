"""Reference computations the benchmark checks greycast's outputs against.

Everything here is written from the method's definitions with numpy only;
nothing imports greycast, so a fault in the package cannot hide behind the
same fault in its check.  Where the package uses one algorithm, the
reference deliberately uses another (QR for SVD least squares, eliminated
variables for KKT systems, a plain loop for searchsorted).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# --- least squares --------------------------------------------------------


def lstsq_qr(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Full-rank least squares by QR on column-scaled regressors."""
    scale = np.linalg.norm(design, axis=0)
    q, r = np.linalg.qr(design / scale)
    return np.linalg.solve(r, q.T @ response) / scale


# --- GM(1,1) --------------------------------------------------------------


def gm_params(x: np.ndarray) -> tuple[float, float]:
    """(a, u) from x0[k] + a*z1[k] = u, z1 the adjacent AGO means."""
    x1 = np.cumsum(x)
    z = 0.5 * (x1[:-1] + x1[1:])
    a, u = lstsq_qr(np.column_stack([-z, np.ones(z.size)]), x[1:])
    return float(a), float(u)


def gm_path(a: float, u: float, x0_first: float, total: int) -> np.ndarray:
    """Closed-form time response x1(k) = (x0(1) - u/a) e^{-ak} + u/a, differenced."""
    k = np.arange(total, dtype=float)
    x1 = (x0_first - u / a) * np.exp(-a * k) + u / a
    return np.concatenate([[x1[0]], np.diff(x1)])


# --- DGM ------------------------------------------------------------------


def dgm_beta(x: np.ndarray) -> np.ndarray:
    """beta of x1[k+1] = b1 x1[k] + b2 x0[k] + b3 k + b4 by least squares."""
    x1 = np.cumsum(x)
    n = x.size
    design = np.column_stack(
        [x1[:-1], x[:-1], np.arange(1, n, dtype=float), np.ones(n - 1)]
    )
    return lstsq_qr(design, x1[1:])


def dgm_simulate(beta, xi: float, n: int) -> np.ndarray:
    """The DGM recursion on the original scale, started at x0[1] = xi."""
    b1, b2, b3, b4 = (float(b) for b in beta)
    out = [float(xi)]
    x1 = float(xi)
    for k in range(1, n):
        x1_next = b1 * x1 + b2 * out[-1] + b3 * k + b4
        out.append(x1_next - x1)
        x1 = x1_next
    return np.array(out)


def dgm_sse(beta, xi: float, x: np.ndarray) -> float:
    return float(np.sum((dgm_simulate(beta, xi, x.size) - x) ** 2))


# --- fuzzy Markov ---------------------------------------------------------


def midpoints(boundaries) -> np.ndarray:
    b = np.asarray(boundaries, dtype=float)
    return 0.5 * (b[:-1] + b[1:])


def memberships(z: float, mids: np.ndarray) -> np.ndarray:
    """Triangular memberships peaking at each midpoint, saturated at the ends."""
    mu = np.zeros(mids.size)
    if z <= mids[0]:
        mu[0] = 1.0
        return mu
    if z >= mids[-1]:
        mu[-1] = 1.0
        return mu
    for i in range(mids.size - 1):
        if mids[i] <= z < mids[i + 1]:
            mu[i] = (mids[i + 1] - z) / (mids[i + 1] - mids[i])
            mu[i + 1] = 1.0 - mu[i]
            return mu
    raise AssertionError("unreachable")


def relative_residuals(actual: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """Z at t = 2..n: (actual[t] - fitted[t]) / actual[t-1]."""
    return (actual[1:] - fitted[1:]) / actual[:-1]


def fuzzy_probs(z: np.ndarray, boundaries) -> np.ndarray:
    mids = midpoints(boundaries)
    mu = np.array([memberships(v, mids) for v in z])
    counts = sum(np.outer(mu[t], mu[t + 1]) for t in range(len(z) - 1))
    rows = counts.sum(axis=1)
    probs = np.full(counts.shape, 1.0 / mids.size)
    live = rows > 0
    probs[live] = counts[live] / rows[live, None]
    return probs


def drift(z: float, probs: np.ndarray, boundaries) -> float:
    mids = midpoints(boundaries)
    return float(memberships(z, mids) @ probs @ mids)


def fmarkov_fit(x: np.ndarray, boundaries):
    """DGM plus fuzzy drift correction: (beta, xi, probs, corrected fit)."""
    beta = dgm_beta(x)
    xi = dgm_optimal_xi(beta, x)
    raw = dgm_simulate(beta, xi, x.size)
    z = relative_residuals(x, raw)
    probs = fuzzy_probs(z, boundaries)
    corrected = raw.copy()
    for t in range(2, x.size):  # 0-based; Z for time t-1 is z[t - 2]
        corrected[t] = raw[t] + drift(z[t - 2], probs, boundaries) * x[t - 1]
    return beta, xi, probs, corrected


def fmarkov_forecast(x: np.ndarray, boundaries, horizon: int) -> np.ndarray:
    beta, xi, probs, _ = fmarkov_fit(x, boundaries)
    raw = dgm_simulate(beta, xi, x.size + horizon)
    z_last = (x[-1] - raw[x.size - 1]) / x[-2]
    out = raw[x.size :].copy()
    out[0] += drift(z_last, probs, boundaries) * x[-1]
    return out


def dgm_optimal_xi(beta, x: np.ndarray) -> float:
    """The simulated path is affine in xi, so its SSE minimiser is closed form."""
    d = dgm_simulate(beta, 0.0, x.size)
    c = dgm_simulate(beta, 1.0, x.size) - d
    return float(c @ (x - d) / (c @ c))


# --- crisp Markov test ----------------------------------------------------


def chi_squared(z: np.ndarray, boundaries) -> float:
    """2 * sum n_ij |ln(P_ij / P_0j)| over the crisp state sequence of z."""
    b = list(boundaries)
    k = len(b) - 1
    states = [min(max(sum(1 for edge in b if edge <= v), 1), k) - 1 for v in z]
    counts = np.zeros((k, k))
    for i, j in zip(states, states[1:]):
        counts[i, j] += 1
    p0 = np.bincount(states, minlength=k) / len(states)
    chi = 0.0
    for i in range(k):
        row = counts[i].sum()
        for j in range(k):
            if counts[i, j] > 0:
                chi += 2.0 * counts[i, j] * abs(math.log(counts[i, j] / row / p0[j]))
    return chi


# --- combination weights --------------------------------------------------


def sse(actual: np.ndarray, preds: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum((actual - preds.T @ w) ** 2))


def simplex_ls(actual: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Exact least squares over the simplex by enumerating supports.

    On each support the sum constraint is eliminated by writing the last
    weight as 1 minus the others, which leaves an unconstrained problem.
    """
    p = preds.shape[0]
    best, best_sse = None, math.inf
    for size in range(1, p + 1):
        for support in itertools.combinations(range(p), size):
            w = np.zeros(p)
            last = support[-1]
            if size == 1:
                w[last] = 1.0
            else:
                free = list(support[:-1])
                design = (preds[free] - preds[last]).T
                w[free] = np.linalg.lstsq(design, actual - preds[last], rcond=None)[0]
                w[last] = 1.0 - w[free].sum()
            if np.all(w >= -1e-12):
                value = sse(actual, preds, w)
                if value < best_sse:
                    best, best_sse = np.clip(w, 0.0, None), value
    return best


def relation_gamma(actual, preds, w, rho: float = 0.5) -> float:
    """Grey relational degree of the combined error; envelopes of the singles."""
    errors = actual[None, :] - preds
    single = np.abs(errors)
    emin, emax = single.min(), single.max()
    combined = np.abs(np.asarray(w) @ errors)
    return float(np.mean((emin + rho * emax) / (combined + rho * emax)))


def relation_grid_max(actual, preds, step: float = 1e-4, rho: float = 0.5) -> float:
    """Best two-model grey relational degree on a grid of w1."""
    errors = actual[None, :] - preds
    single = np.abs(errors)
    emin, emax = single.min(), single.max()
    best = -math.inf
    for w1 in np.array_split(np.arange(0.0, 1.0 + step / 2, step), 20):
        combined = np.abs(np.outer(w1, errors[0]) + np.outer(1.0 - w1, errors[1]))
        scores = np.mean((emin + rho * emax) / (combined + rho * emax), axis=1)
        best = max(best, float(scores.max()))
    return best


def effective_weights(actual, preds) -> np.ndarray:
    degrees = []
    for f in preds:
        acc = 1.0 - np.abs((actual - f) / actual)
        sigma = math.sqrt(float(np.sum((acc - acc.mean()) ** 2))) / acc.size
        degrees.append(acc.mean() * (1.0 - sigma))
    degrees = np.array(degrees)
    return degrees / degrees.sum()


def min_variance_weights(actual, preds) -> np.ndarray:
    e1, e2 = actual - preds[0], actual - preds[1]
    c = np.cov(e1, e2, ddof=1)
    rho = min(max((c[1, 1] - c[0, 1]) / (c[0, 0] + c[1, 1] - 2 * c[0, 1]), 0.0), 1.0)
    return np.array([rho, 1.0 - rho])


def combine(preds: np.ndarray, w: np.ndarray, formula: str) -> np.ndarray:
    if formula == "arithmetic":
        return w @ preds
    if formula == "geometric":
        return np.exp(w @ np.log(preds))
    if formula == "harmonic":
        return 1.0 / (w @ (1.0 / preds))
    raise ValueError(f"unknown combination formula {formula!r}")


# --- accuracy -------------------------------------------------------------


def metrics(actual, predicted) -> dict:
    err = np.asarray(predicted) - np.asarray(actual)
    return {
        "mse": float(np.mean(err**2)),
        "mae": float(np.mean(np.abs(err))),
        "mape": float(np.mean(np.abs(err / actual)) * 100.0),
        "theil": math.sqrt(float(np.sum(err**2)) / float(np.sum(np.asarray(predicted) ** 2))),
    }
