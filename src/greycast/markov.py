"""Fuzzy-weight Markov machinery over relative-residual states.

Residual ratios are partitioned into k states, one-step transitions are
counted (crisp) or weighted by triangular memberships (fuzzy), the
chi-squared test decides whether the state sequence carries the Markov
property, and the expected residual drift corrects a grey model's fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, DegeneracyError, InsufficientDataError
from .series import relative_residuals

#: Six-state partition of residual ratios used as the default: 2.5-9% loss,
#: 1-2.5% loss, <1% loss, <1% gain, 1-2.5% gain, 2.5-9% gain.
DEFAULT_BOUNDARIES = (-0.09, -0.025, -0.01, 0.0, 0.01, 0.025, 0.09)

LOG_NATURAL = "natural"
LOG_BASE10 = "base10"

# Upper chi-squared critical values for dof = (k-1)^2, k = 2..7.
# Embedded so the test has no runtime dependence on statistical tables;
# the dof-25 / alpha-0.01 entry is kept at the conventional rounded 44.3.
CRITICAL_VALUES = {
    (1, 0.05): 3.841,
    (1, 0.01): 6.635,
    (4, 0.05): 9.488,
    (4, 0.01): 13.277,
    (9, 0.05): 16.919,
    (9, 0.01): 21.666,
    (16, 0.05): 26.296,
    (16, 0.01): 32.000,
    (25, 0.05): 37.652,
    (25, 0.01): 44.3,
    (36, 0.05): 50.998,
    (36, 0.01): 58.619,
}


@dataclass(frozen=True)
class StatePartition:
    """Strictly increasing state boundaries m_0 < m_1 < ... < m_k."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 3:
            raise DataError("a partition needs at least 3 boundaries (2 states)")
        if not np.all(np.isfinite(b)) or not np.all(np.diff(b) > 0):
            raise DataError("state boundaries must be finite and strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @property
    def k(self) -> int:
        return self.boundaries.size - 1

    @cached_property
    def midpoints(self) -> np.ndarray:
        """State midpoints, computed once per partition and read-only."""
        mids = 0.5 * (self.boundaries[:-1] + self.boundaries[1:])
        mids.flags.writeable = False
        return mids

    @classmethod
    def default(cls) -> "StatePartition":
        return cls(np.array(DEFAULT_BOUNDARIES))


@dataclass(frozen=True)
class ClassifiedStates:
    """1-based state indices plus a mask of values clamped into the extremes."""

    states: np.ndarray
    clamped: np.ndarray
    k: int

    @property
    def n_clamped(self) -> int:
        return int(np.count_nonzero(self.clamped))


@dataclass(frozen=True)
class TransitionCounts:
    """Integer one-step transition counts n_ij with row occupancies."""

    counts: np.ndarray
    row_totals: np.ndarray
    total: int


@dataclass(frozen=True)
class FuzzyMarkovModel:
    partition: StatePartition
    fuzzy_counts: np.ndarray
    fuzzy_probs: np.ndarray
    midpoints: np.ndarray
    degenerate_rows: np.ndarray


@dataclass(frozen=True)
class MarkovTestReport:
    chi_squared: float
    dof: int
    threshold: float
    is_markov: bool
    log_base: str
    alpha: float


def classify_states(z, partition: StatePartition) -> ClassifiedStates:
    """Map residual ratios to states 1..k.

    Intervals are closed on the left and open on the right, with the last
    one closed on both sides; out-of-range values clamp to the nearest
    extreme state and are flagged rather than rejected.
    """
    values = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(values)):
        raise DataError("residual values must be finite")
    b = partition.boundaries
    pos = np.searchsorted(b, values, side="right")
    states = np.clip(pos, 1, partition.k).astype(int)
    clamped = (values < b[0]) | (values > b[-1])
    return ClassifiedStates(states=states, clamped=clamped, k=partition.k)


def count_transitions(states, k: int | None = None) -> TransitionCounts:
    """Count one-step transitions; the last point has no successor and is
    excluded from the occupancy totals."""
    if isinstance(states, ClassifiedStates):
        seq = states.states
        k = states.k if k is None else k
    else:
        seq = np.asarray(states, dtype=int)
    if seq.size < 2:
        raise InsufficientDataError(
            f"need at least 2 states to count transitions, got {seq.size}"
        )
    if k is None:
        k = int(seq.max())
    if np.any(seq < 1) or np.any(seq > k):
        raise DataError(f"state indices must lie in 1..{k}")
    counts = np.zeros((k, k), dtype=int)
    np.add.at(counts, (seq[:-1] - 1, seq[1:] - 1), 1)
    return TransitionCounts(
        counts=counts, row_totals=counts.sum(axis=1), total=seq.size
    )


def transition_probabilities(tc: TransitionCounts) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalise counts into probabilities.

    Returns (probs, degenerate_rows); rows with zero occupancy become
    uniform and are flagged.
    """
    return _row_normalise(np.asarray(tc.counts, dtype=float))


def _row_normalise(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows divided by their sums; all-zero rows become uniform and are flagged."""
    totals = matrix.sum(axis=1)
    degenerate = totals == 0
    probs = matrix / np.where(degenerate, 1.0, totals)[:, None]
    probs[degenerate] = 1.0 / matrix.shape[0]
    return probs, degenerate


def marginal_distribution(occupancy, total: int) -> np.ndarray:
    """Occupancy shares n_j / N over all classified points."""
    counts = np.asarray(occupancy, dtype=float)
    if total < 1:
        raise DegeneracyError(f"total must be at least 1, got {total}")
    if np.any(counts < 0):
        raise DataError("occupancy counts must be non-negative")
    if counts.sum() > total:
        raise DataError(
            f"occupancy counts sum to {counts.sum():g} which exceeds total {total}"
        )
    return counts / float(total)


def markov_property_test(
    tc: TransitionCounts,
    marginals,
    alpha: float = 0.01,
    log_base: str = LOG_NATURAL,
) -> MarkovTestReport:
    """Chi-squared test of the Markov property.

    The statistic is 2 * sum n_ij * |log(P_ij / P_0j)| with the convention
    that empty cells contribute nothing, compared against the embedded
    critical value at (k-1)^2 degrees of freedom.
    """
    if alpha not in (0.01, 0.05):
        raise ConfigError(f"alpha must be 0.01 or 0.05, got {alpha}")
    if log_base == LOG_NATURAL:
        log = math.log
    elif log_base == LOG_BASE10:
        log = math.log10
    else:
        raise ConfigError(f"log_base must be 'natural' or 'base10', got {log_base!r}")
    counts = np.asarray(tc.counts, dtype=float)
    k = counts.shape[0]
    p0 = np.asarray(marginals, dtype=float)
    if p0.size != k:
        raise DataError(f"marginals length {p0.size} does not match {k} states")
    col_mass = counts.sum(axis=0)
    bad = np.nonzero((p0 <= 0) & (col_mass > 0))[0]
    if bad.size:
        raise DegeneracyError(
            f"marginal probability for state {bad[0] + 1} is zero but the "
            f"column holds {int(col_mass[bad[0]])} transitions"
        )
    row_totals = counts.sum(axis=1)
    chi = 0.0
    for i in range(k):
        if row_totals[i] == 0:
            continue
        for j in range(k):
            n_ij = counts[i, j]
            if n_ij > 0:
                p_ij = n_ij / row_totals[i]
                chi += 2.0 * n_ij * abs(log(p_ij / p0[j]))
    dof = (k - 1) ** 2
    key = (dof, alpha)
    if key not in CRITICAL_VALUES:
        raise ConfigError(
            f"no embedded critical value for dof={dof} at alpha={alpha}; "
            f"supported dof: {sorted({d for d, _ in CRITICAL_VALUES})}"
        )
    threshold = CRITICAL_VALUES[key]
    chi = float(chi)
    return MarkovTestReport(
        chi_squared=chi,
        dof=dof,
        threshold=threshold,
        is_markov=bool(chi > threshold),
        log_base=log_base,
        alpha=alpha,
    )


def fuzzy_memberships(z: float, partition: StatePartition) -> np.ndarray:
    """Triangular partition-of-unity memberships over the state midpoints.

    Full membership at a midpoint, linear in between, saturated at the
    extreme states; the vector always sums to exactly 1.
    """
    if not np.isfinite(z):
        raise DataError("membership argument must be finite")
    mids = partition.midpoints
    mu = np.zeros(partition.k)
    if z <= mids[0]:
        mu[0] = 1.0
    elif z >= mids[-1]:
        mu[-1] = 1.0
    else:
        i = int(np.searchsorted(mids, z, side="right")) - 1
        w = (mids[i + 1] - z) / (mids[i + 1] - mids[i])
        mu[i] = w
        mu[i + 1] = 1.0 - w
    return mu


def fuzzy_transition_matrix(z, partition: StatePartition) -> FuzzyMarkovModel:
    """Accumulate membership products over consecutive residual pairs."""
    values = np.atleast_1d(np.asarray(z, dtype=float))
    if values.size < 2:
        raise InsufficientDataError(
            f"need at least 2 residuals for fuzzy transitions, got {values.size}"
        )
    memberships = np.vstack([fuzzy_memberships(v, partition) for v in values])
    a = memberships[:-1].T @ memberships[1:]
    probs, degenerate = _row_normalise(a)
    return FuzzyMarkovModel(
        partition=partition,
        fuzzy_counts=a,
        fuzzy_probs=probs,
        midpoints=partition.midpoints,
        degenerate_rows=degenerate,
    )


def expected_drift(fm: FuzzyMarkovModel, z_prev: float) -> float:
    """Membership-weighted expected destination-state midpoint.

    The inner sum pairs each transition probability with the midpoint of
    the destination state.
    """
    mu = fuzzy_memberships(z_prev, fm.partition)
    return float(mu @ (fm.fuzzy_probs @ fm.midpoints))


def fmarkov_correct(fitted, actual, fm: FuzzyMarkovModel) -> np.ndarray:
    """Correct a fitted series by the expected residual drift.

    The corrected value at t adds drift(Z[t-1]) * actual[t-1] to the raw
    fit, where drift is :func:`expected_drift`; the first two points have
    no usable previous residual and pass through unchanged.
    """
    residuals = relative_residuals(actual, fitted).values
    fitted = np.asarray(fitted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    # Expected destination midpoint from each state, the same for every point.
    state_drift = fm.fuzzy_probs @ fm.midpoints
    out = fitted.copy()
    # residuals[i] is Z at time i + 2 (1-based), so Z[t-1] is residuals[t - 3].
    for t in range(3, fitted.size + 1):
        mu = fuzzy_memberships(residuals[t - 3], fm.partition)
        out[t - 1] = fitted[t - 1] + float(mu @ state_drift) * actual[t - 2]
    return out
