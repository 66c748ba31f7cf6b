"""Combination forecasting: weight schemes and combination formulas.

Four ways to weight competing forecasts of the same series — effective
degree ratios, the minimal-variance two-model split, simplex-constrained
least squares, and grey-relational-degree maximisation — plus the
arithmetic / geometric / harmonic combination rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DegeneracyError
from .series import as_pair, as_values

SCHEME_EFFECTIVE = "effective_degree"
SCHEME_MIN_VARIANCE = "min_variance"
SCHEME_SIMPLEX_LS = "simplex_ls"
SCHEME_GREY_RELATION = "grey_relation"
SCHEMES = (SCHEME_EFFECTIVE, SCHEME_MIN_VARIANCE, SCHEME_SIMPLEX_LS, SCHEME_GREY_RELATION)

COMBINE_ARITHMETIC = "arithmetic"
COMBINE_GEOMETRIC = "geometric"
COMBINE_HARMONIC = "harmonic"
COMBINE_SCHEMES = (COMBINE_ARITHMETIC, COMBINE_GEOMETRIC, COMBINE_HARMONIC)


def on_simplex(w):
    """Whether the finite ``w`` lies on the probability simplex along its last
    axis, one answer per row of a matrix: each entry at least -1e-9 and the
    sum within 1e-9 of 1."""
    w = np.asarray(w, dtype=float)
    return (w >= -1e-9).all(axis=-1) & (np.abs(w.sum(axis=-1) - 1.0) <= 1e-9)


@dataclass(frozen=True)
class HybridWeights:
    """A weight vector on the probability simplex plus provenance."""

    weights: np.ndarray
    scheme: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
            raise DataError("weights must be a finite 1-D vector")
        if not on_simplex(w):
            raise DataError(
                f"weights must lie on the probability simplex, got {w.tolist()}"
            )
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))


@dataclass(frozen=True)
class RelationConfig:
    """Identification coefficient for relational coefficients."""

    rho: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie strictly in (0, 1), got {self.rho}")


def accuracy_series(actual, predicted) -> np.ndarray:
    """Per-point accuracy 1 - |relative error|; can go negative, never clamped."""
    y, f = as_pair(actual, predicted)
    zero = np.nonzero(y == 0.0)[0]
    if zero.size:
        raise DegeneracyError(
            f"actual value at t={zero[0] + 1} is zero; accuracy undefined"
        )
    return 1.0 - np.abs((y - f) / y)


def effective_degree(accuracy) -> float:
    """Scalar quality score E*(1 - sigma) over an accuracy series.

    sigma is the root of the summed squared deviations divided by N (not
    the usual standard deviation).
    """
    a = as_values(accuracy)
    mean = float(a.mean())
    sigma = float(np.sqrt(np.sum((a - mean) ** 2)) / a.size)
    return mean * (1.0 - sigma)


def effective_weights(degrees) -> HybridWeights:
    """Normalised effective-degree ratios."""
    s = np.asarray(degrees, dtype=float)
    if s.ndim != 1 or s.size < 2:
        raise DataError("need effective degrees for at least 2 models")
    if np.any(s <= 0):
        raise DegeneracyError(
            f"effective degrees must all be positive to form weights, got {s.tolist()}"
        )
    return HybridWeights(
        weights=s / s.sum(),
        scheme=SCHEME_EFFECTIVE,
        diagnostics={"degrees": [float(v) for v in s]},
    )


def min_variance_weight(e1, e2) -> HybridWeights:
    """Variance-minimising split between two error sequences.

    weights[0] multiplies model 1.  The numerator carries the variance of
    the OTHER model (plus the covariance correction), so the lower-variance
    model receives the larger weight.
    """
    a, b = as_pair(e1, e2, min_len=2)
    var1 = float(np.var(a, ddof=1))
    var2 = float(np.var(b, ddof=1))
    cov = float(np.cov(a, b, ddof=1)[0, 1])
    denom = var1 + var2 - 2.0 * cov
    tie = False
    if denom == 0.0:
        rho = 0.5
        tie = True
    else:
        rho = float(np.clip((var2 - cov) / denom, 0.0, 1.0))
    return HybridWeights(
        weights=np.array([rho, 1.0 - rho]),
        scheme=SCHEME_MIN_VARIANCE,
        diagnostics={
            "rho_star": rho,
            "var_e1": var1,
            "var_e2": var2,
            "cov": cov,
            "tie": tie,
            # The variance-minimising split puts var_e2 in the numerator;
            # a var_e1 numerator would maximise the combined variance.
            "numerator": "var_e2",
        },
    )


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _columns(forecasts, n: int | None = None) -> np.ndarray:
    """The forecasts as the columns of one matrix; each must hold ``n``
    values, or as many as the first when ``n`` is None."""
    columns = [as_values(f) for f in forecasts]
    n = columns[0].size if n is None else n
    for j, col in enumerate(columns):
        if col.size != n:
            raise DataError(f"forecast {j + 1} has length {col.size}, expected {n}")
    return np.column_stack(columns)


def _forecast_matrix(actual, forecasts) -> tuple[np.ndarray, np.ndarray]:
    y = as_values(actual)
    if len(forecasts) < 2:
        raise DataError(f"need at least 2 forecasts, got {len(forecasts)}")
    return y, _columns(forecasts, y.size)


def _identical_forecasts(f: np.ndarray) -> bool:
    """Whether every column of ``f`` equals the first, up to rounding."""
    spread = np.max(np.abs(f - f[:, [0]]))
    return spread <= 1e-12 * max(1.0, float(np.max(np.abs(f))))


def simplex_ls_weights(actual, forecasts) -> HybridWeights:
    """Least-squares weights on the simplex, solved exactly.

    The minimiser solves the sum-to-one least-squares problem restricted
    to its own support.  Every non-empty support is solved through its KKT
    system (:func:`_equality_ls`), and the feasible solution with the
    lowest SSE is kept, the uniform vector included.  The single-component
    supports are the unit vectors, so the achieved SSE never exceeds the
    best single model's or the uniform mix's.

    That is 2**p - 1 solves, 31 for the CLI's five model kinds; no caller
    combines more, so no active-set method is provided.  Diagnostics give
    the number of solves as ``iterations`` and the chosen component
    indices as ``support``.
    """
    y, f = _forecast_matrix(actual, forecasts)
    p = f.shape[1]
    if _identical_forecasts(f):
        w = np.full(p, 1.0 / p)
        sse = float(np.sum((y - f @ w) ** 2))
        return HybridWeights(
            weights=w,
            scheme=SCHEME_SIMPLEX_LS,
            diagnostics={"sse": sse, "iterations": 0, "degenerate": True},
        )

    gram = f.T @ f
    rhs = f.T @ y

    def sse(w: np.ndarray) -> float:
        return float(np.sum((y - f @ w) ** 2))

    candidates = [np.full(p, 1.0 / p)]
    iterations = 0
    for size in range(1, p + 1):
        for support in itertools.combinations(range(p), size):
            iterations += 1
            solved = _equality_ls(gram, rhs, list(support), p)
            if solved is not None:
                candidates.append(solved)
    best = min(candidates, key=sse)
    return HybridWeights(
        weights=best,
        scheme=SCHEME_SIMPLEX_LS,
        diagnostics={
            "sse": sse(best),
            "iterations": iterations,
            "support": [int(j) for j in np.nonzero(best)[0]],
            "degenerate": False,
        },
    )


def _equality_ls(gram, rhs, support, p) -> np.ndarray | None:
    """Solve min w'Gw - 2w'b s.t. sum(w)=1 on a support; None if infeasible."""
    s = len(support)
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = 2.0 * gram[np.ix_(support, support)]
    kkt[:s, s] = 1.0
    kkt[s, :s] = 1.0
    target = np.append(2.0 * rhs[support], 1.0)
    try:
        solution = np.linalg.solve(kkt, target)
    except np.linalg.LinAlgError:
        return None
    w_support = solution[:s]
    if np.any(w_support < -1e-12):
        return None
    w = np.zeros(p)
    w[support] = np.clip(w_support, 0.0, None)
    total = w.sum()
    if total <= 0:
        return None
    return w / total


def grey_relation_degree(actual, predicted, peer_errors=None, cfg: RelationConfig | None = None) -> float:
    """Grey relational degree of one forecast against the zero-error ideal.

    The min/max envelopes are taken jointly over this method's absolute
    errors and every peer error sequence supplied, matching how the degree
    is defined when several candidate methods are compared at once.
    """
    cfg = cfg or RelationConfig()
    y, f = as_pair(actual, predicted)
    own = np.abs(y - f)
    pools = [own]
    for peer in peer_errors or ():
        pools.append(np.abs(as_values(peer)))
    emin = min(float(p.min()) for p in pools)
    emax = max(float(p.max()) for p in pools)
    if emax == 0.0:
        return 1.0
    return float(_relation_scores(own, emin, emax, cfg.rho))


def _relation_scores(combined_abs, emin, emax, rho):
    """Relational degree of each combined absolute error row (last axis)."""
    return np.mean((emin + rho * emax) / (combined_abs + rho * emax), axis=-1)


def _edge_kinks(ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """Weights t in [0, 1], in data order, where t*ei + (1-t)*ej has a zero."""
    delta = ei - ej
    movable = delta != 0.0
    kinks = -ej[movable] / delta[movable]
    return kinks[(kinks >= 0.0) & (kinks <= 1.0)]


#: Candidate-by-point entries scored at once by the exact solve, so
#: peak memory stays flat however many arrangement vertices a series has.
_SCORE_BLOCK = 1 << 16


def _arrangement_vertices(errors: np.ndarray, rows: int):
    """The simplex's vertices in the arrangement of the error sets, in blocks.

    ``errors`` is (m, N) for m of 2 or 3.  Each point t gives the set
    w·e_t = 0 on the simplex: a point of the segment for two models, a line
    of the triangle for three.  The vertices are the m corners, the zeros
    on each edge (:func:`_edge_kinks`), and for three models the crossings
    of two lines inside the simplex, yielded in that order as (k, m) weight
    blocks of at most ``rows`` rows.  Two lines cross where w is parallel
    to e_s x e_t; the crossing is inside when that cross product has no two
    entries of opposite sign.  A line whose errors never take both signs
    meets the simplex only on its boundary, where the corners and edge
    zeros already are, so only mixed-sign lines are crossed.
    """
    m = len(errors)
    boundary = [np.eye(m)]
    for i, j in itertools.combinations(range(m), 2):
        t = _edge_kinks(errors[i], errors[j])
        w = np.zeros((t.size, m))
        w[:, i] = t
        w[:, j] = 1.0 - t
        boundary.append(w)
    boundary = np.concatenate(boundary)
    for lo in range(0, len(boundary), rows):
        yield boundary[lo : lo + rows]
    if m < 3:
        return
    lines = errors.T[np.any(errors > 0.0, axis=0) & np.any(errors < 0.0, axis=0)]
    first, second = np.triu_indices(len(lines), 1)
    for lo in range(0, first.size, rows):
        cross = np.cross(lines[first[lo : lo + rows]], lines[second[lo : lo + rows]])
        total = cross.sum(axis=1)
        inside = (np.all(cross >= 0.0, axis=1) | np.all(cross <= 0.0, axis=1)) & (total != 0.0)
        yield cross[inside] / total[inside, None]


def _best_on_face(errors, w, face, emin, emax, rho):
    """Re-weight only the models of ``face`` (at most three), exactly.

    The other weights stay as in ``w`` and leave the face the weight
    ``mass``.  On the rows ``mass * errors[face] + w[rest] @ errors[rest]``
    the face is the two- or three-model problem, so every vertex of their
    arrangement is scored in order, with the given envelopes, and the
    first best one kept.  Returns (weights, degree).
    """
    rest = [j for j in range(len(errors)) if j not in face]
    mass = 1.0 - w[rest].sum()
    rows = mass * errors[face] + w[rest] @ errors[rest]
    best_u, best_gamma = None, -np.inf
    for block in _arrangement_vertices(rows, max(1, _SCORE_BLOCK // rows.shape[1])):
        if len(block):
            scores = _relation_scores(np.abs(block @ rows), emin, emax, rho)
            idx = int(np.argmax(scores))
            if scores[idx] > best_gamma:
                best_u, best_gamma = block[idx], float(scores[idx])
    best = w.copy()
    best[face] = mass * best_u
    return best, best_gamma


def optimize_relation_weights(actual, forecasts, cfg: RelationConfig | None = None) -> HybridWeights:
    """Maximise the relational degree of the combined error over the simplex.

    The envelopes stay fixed at the individual methods' values, so every
    unit vector scores exactly its own individual degree; the optimum can
    therefore never fall below the best single method.

    Each term of the degree, c / (|w·e_t| + rho*emax), is convex on either
    side of the zero of its combined error, so the degree is convex on
    every cell of the arrangement of the sets w·e_t = 0 and its maximum
    over the simplex lies at a vertex of that arrangement (a convex
    function on a polytope peaks at an extreme point).  On a face of at
    most three models those vertices are the corners, every zero of the
    combined error on an edge, and the crossings inside the triangle
    (:func:`_best_on_face`).  Every face of three models (of all of them,
    for two) is scored from zero weight outside it, and the first best
    point kept, so of two single models with equal degree the first wins.

    That is exact for two and three models, which have one face.  Four or
    more models have more vertices than can be listed (they grow as the
    (m-1)-th power of the number of lines), so from the best face point
    the faces are swept again, each re-weighted exactly while the other
    weights stay fixed, until a sweep raises the degree no further.  The
    result is at least as good as every face, but it is not proven
    optimal over the whole simplex.

    Identical forecasts, or forecasts that are all exact, get the uniform
    weights with ``tie`` set in the diagnostics.
    """
    cfg = cfg or RelationConfig()
    y, f = _forecast_matrix(actual, forecasts)
    m = f.shape[1]
    errors = y[None, :] - f.T  # (m, N) signed errors
    abs_errors = np.abs(errors)
    emin, emax = float(abs_errors.min()), float(abs_errors.max())
    rho = cfg.rho
    if emax == 0.0:  # every forecast is exact, so every degree is 1
        diagnostics = {"gamma": 1.0, "gamma_individual": [1.0] * m, "tie": True}
        return HybridWeights(np.full(m, 1.0 / m), SCHEME_GREY_RELATION, diagnostics)
    individual = [float(_relation_scores(e, emin, emax, rho)) for e in abs_errors]

    def diag(gamma: float, tie: bool = False) -> dict:
        return {"gamma": gamma, "gamma_individual": individual, "tie": tie}

    if _identical_forecasts(f):
        w = np.full(m, 1.0 / m)
        gamma = float(_relation_scores(np.abs(w @ errors), emin, emax, rho))
        return HybridWeights(w, SCHEME_GREY_RELATION, diag(gamma, tie=True))

    faces = [list(face) for face in itertools.combinations(range(m), min(m, 3))]
    best_w, best_gamma = None, -np.inf
    for face in faces:
        w, gamma = _best_on_face(errors, np.zeros(m), face, emin, emax, rho)
        if gamma > best_gamma:
            best_w, best_gamma = w, gamma
    improved = m > 3
    while improved:
        improved = False
        for face in faces:
            w, gamma = _best_on_face(errors, best_w, face, emin, emax, rho)
            if gamma > best_gamma:
                best_w, best_gamma, improved = w, gamma, True
    return HybridWeights(best_w, SCHEME_GREY_RELATION, diag(best_gamma))


def combine_forecasts(forecasts, w, scheme: str = COMBINE_ARITHMETIC) -> np.ndarray:
    """Weighted arithmetic, geometric, or harmonic combination."""
    if scheme not in COMBINE_SCHEMES:
        raise ConfigError(f"unknown combination scheme {scheme!r}")
    weights = w.weights if isinstance(w, HybridWeights) else np.asarray(w, dtype=float)
    if len(forecasts) != weights.size:
        raise DataError(
            f"got {len(forecasts)} forecasts for {weights.size} weights"
        )
    f = _columns(forecasts)
    if scheme == COMBINE_ARITHMETIC:
        return f @ weights
    if np.any(f <= 0):
        raise DataError(
            f"{scheme} combination requires strictly positive forecasts"
        )
    if scheme == COMBINE_GEOMETRIC:
        return np.exp(np.log(f) @ weights)
    return 1.0 / ((1.0 / f) @ weights)
