import math

import numpy as np
import pytest

from greycast import (
    ConfigError,
    DataError,
    DegeneracyError,
    FuzzyMarkovModel,
    InsufficientDataError,
    StatePartition,
    TransitionCounts,
    classify_states,
    count_transitions,
    expected_drift,
    fmarkov_correct,
    fuzzy_memberships,
    fit_dgm,
    forecast_dgm,
    fuzzy_transition_matrix,
    marginal_distribution,
    markov_property_test,
    relative_residuals,
    transition_probabilities,
)
from greycast.cli.synth import synthetic_series
from conftest import PUBLISHED_COUNTS, PUBLISHED_OCCUPANCY, PUBLISHED_TOTAL


def oracle_chi_squared(counts, marginals, log):
    """Independent double-loop evaluation of the statistic."""
    counts = np.asarray(counts, dtype=float)
    row_totals = counts.sum(axis=1)
    chi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            n = counts[i, j]
            if n > 0:
                chi += 2.0 * n * abs(log((n / row_totals[i]) / marginals[j]))
    return chi


def default_partition():
    return StatePartition.default()


# ---------------------------------------------------------------------------
# state classification
# ---------------------------------------------------------------------------


def test_classify_published_intervals():
    p = default_partition()
    assert classify_states([-0.05], p).states.tolist() == [1]
    assert classify_states([0.005], p).states.tolist() == [4]
    out = classify_states([0.30], p)
    assert out.states.tolist() == [6]
    assert out.clamped.tolist() == [True]
    assert out.n_clamped == 1


def test_classify_interval_closure():
    p = default_partition()
    # left-closed, right-open; last interval closed on the right
    assert classify_states([-0.025], p).states.tolist() == [2]
    assert classify_states([0.0], p).states.tolist() == [4]
    result = classify_states([0.09], p)
    assert result.states.tolist() == [6]
    assert result.n_clamped == 0
    low = classify_states([-0.09], p)
    assert low.states.tolist() == [1] and low.n_clamped == 0
    below = classify_states([-0.2], p)
    assert below.states.tolist() == [1] and below.n_clamped == 1


def test_partition_validation():
    with pytest.raises(DataError):
        StatePartition([0.0, 0.0, 1.0])
    with pytest.raises(DataError):
        StatePartition([0.0, 1.0])
    assert default_partition().k == 6


# ---------------------------------------------------------------------------
# crisp counts and probabilities
# ---------------------------------------------------------------------------


def test_count_transitions_examples():
    tc = count_transitions([1, 1, 2, 1], k=2)
    assert tc.counts.tolist() == [[1, 1], [1, 0]]
    assert tc.row_totals.tolist() == [2, 1]
    assert tc.total == 4

    tc = count_transitions([2, 2, 2], k=2)
    assert tc.counts.tolist() == [[0, 0], [0, 2]]

    tc = count_transitions([1, 2, 3, 1], k=3)
    assert tc.counts[0, 1] == 1 and tc.counts[1, 2] == 1 and tc.counts[2, 0] == 1
    assert tc.counts.sum() == 3


def test_count_transitions_requires_two_points():
    with pytest.raises(InsufficientDataError):
        count_transitions([1], k=2)


def test_transition_probabilities_published_row_one(published_counts):
    tc = TransitionCounts(published_counts, published_counts.sum(axis=1), PUBLISHED_TOTAL)
    probs, degenerate = transition_probabilities(tc)
    assert np.allclose(
        np.round(probs[0], 4), [0.7260, 0.1918, 0.0411, 0.0, 0.0274, 0.0137]
    )
    assert not degenerate.any()


def test_transition_probabilities_uniform_and_degenerate():
    tc = TransitionCounts(np.array([[5, 5], [0, 0]]), np.array([10, 0]), 11)
    probs, degenerate = transition_probabilities(tc)
    assert np.allclose(probs[0], [0.5, 0.5])
    assert degenerate.tolist() == [False, True]

    tc = TransitionCounts(np.zeros((3, 3), dtype=int), np.zeros(3, dtype=int), 1)
    probs, degenerate = transition_probabilities(tc)
    assert np.allclose(probs, 1.0 / 3.0)
    assert degenerate.all()


def test_row_sums_to_one():
    rng = np.random.default_rng(31)
    counts = rng.integers(0, 50, size=(6, 6))
    tc = TransitionCounts(counts, counts.sum(axis=1), int(counts.sum()) + 1)
    probs, degenerate = transition_probabilities(tc)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginals_published_vector(published_occupancy):
    m = marginal_distribution(published_occupancy, PUBLISHED_TOTAL)
    assert np.allclose(
        np.round(m, 4), [0.2626, 0.1511, 0.1043, 0.0683, 0.1583, 0.2554]
    )


def test_marginals_trivial_cases():
    assert marginal_distribution([1, 1], 2).tolist() == [0.5, 0.5]
    assert marginal_distribution([0, 4], 4).tolist() == [0.0, 1.0]
    with pytest.raises(DegeneracyError):
        marginal_distribution([1, 1], 0)
    with pytest.raises(DataError):
        marginal_distribution([3, 3], 4)


# ---------------------------------------------------------------------------
# chi-squared Markov property test
# ---------------------------------------------------------------------------


def test_chi_squared_hand_case():
    tc = TransitionCounts(np.array([[2, 0], [0, 2]]), np.array([2, 2]), 5)
    report = markov_property_test(tc, [0.5, 0.5], alpha=0.01)
    assert math.isclose(report.chi_squared, 8 * math.log(2), rel_tol=1e-12)
    assert report.dof == 1
    assert report.threshold == 6.635
    assert not report.is_markov


def test_chi_squared_zero_when_rows_match_marginals():
    counts = np.array([[3, 1], [6, 2]])
    tc = TransitionCounts(counts, counts.sum(axis=1), 13)
    report = markov_property_test(tc, [0.75, 0.25], alpha=0.05)
    assert report.chi_squared == 0.0
    assert not report.is_markov


def test_published_counts_verdict_both_log_bases(
    published_counts, published_occupancy
):
    tc = TransitionCounts(
        published_counts, published_counts.sum(axis=1), PUBLISHED_TOTAL
    )
    marginals = marginal_distribution(published_occupancy, PUBLISHED_TOTAL)
    for base, log in (("natural", math.log), ("base10", math.log10)):
        report = markov_property_test(tc, marginals, alpha=0.01, log_base=base)
        assert report.dof == 25
        assert report.threshold == 44.3
        assert report.chi_squared > 44.3
        assert report.is_markov
        expected = oracle_chi_squared(published_counts, marginals, log)
        assert math.isclose(report.chi_squared, expected, rel_tol=1e-12)


def test_chi_squared_permutation_invariance(published_counts, published_occupancy):
    marginals = marginal_distribution(published_occupancy, PUBLISHED_TOTAL)
    tc = TransitionCounts(
        published_counts, published_counts.sum(axis=1), PUBLISHED_TOTAL
    )
    base = markov_property_test(tc, marginals).chi_squared
    rng = np.random.default_rng(32)
    for _ in range(5):
        perm = rng.permutation(6)
        permuted = published_counts[np.ix_(perm, perm)]
        tc_p = TransitionCounts(permuted, permuted.sum(axis=1), PUBLISHED_TOTAL)
        report = markov_property_test(tc_p, marginals[perm])
        assert math.isclose(report.chi_squared, base, rel_tol=1e-9)


def test_chi_squared_degenerate_marginal():
    counts = np.array([[1, 1], [1, 1]])
    tc = TransitionCounts(counts, counts.sum(axis=1), 5)
    with pytest.raises(DegeneracyError):
        markov_property_test(tc, [1.0, 0.0])


def test_chi_squared_parameter_validation():
    counts = np.array([[1, 1], [1, 1]])
    tc = TransitionCounts(counts, counts.sum(axis=1), 5)
    with pytest.raises(ConfigError):
        markov_property_test(tc, [0.5, 0.5], alpha=0.10)
    with pytest.raises(ConfigError):
        markov_property_test(tc, [0.5, 0.5], log_base="base2")


# ---------------------------------------------------------------------------
# fuzzy memberships
# ---------------------------------------------------------------------------


def test_membership_apex_at_midpoint():
    p = default_partition()
    mu = fuzzy_memberships(-0.005, p)  # midpoint of state 3
    assert mu.tolist() == [0, 0, 1, 0, 0, 0]


def test_membership_symmetric_split():
    p = default_partition()
    mu = fuzzy_memberships(0.0, p)  # equidistant between -0.005 and 0.005
    assert mu[2] == 0.5 and mu[3] == 0.5
    assert mu.sum() == 1.0


def test_membership_saturates_at_extremes():
    p = default_partition()
    assert fuzzy_memberships(-1.0, p).tolist() == [1, 0, 0, 0, 0, 0]
    assert fuzzy_memberships(1.0, p).tolist() == [0, 0, 0, 0, 0, 1]


def test_membership_partition_of_unity_10000_points():
    p = default_partition()
    rng = np.random.default_rng(33)
    zs = rng.uniform(-0.2, 0.2, size=10_000)
    for z in zs:
        mu = fuzzy_memberships(z, p)
        assert abs(mu.sum() - 1.0) < 1e-12
        assert np.all(mu >= 0.0)


# ---------------------------------------------------------------------------
# fuzzy transition matrix
# ---------------------------------------------------------------------------


def test_fuzzy_counts_equal_crisp_at_midpoints():
    p = default_partition()
    rng = np.random.default_rng(34)
    mids = p.midpoints
    states = rng.integers(1, 7, size=60)
    z = mids[states - 1]
    fm = fuzzy_transition_matrix(z, p)
    crisp = count_transitions(classify_states(z, p))
    assert np.allclose(fm.fuzzy_counts, crisp.counts, atol=1e-12)
    crisp_probs, crisp_flags = transition_probabilities(crisp)
    assert np.allclose(fm.fuzzy_probs, crisp_probs, atol=1e-12)
    assert np.array_equal(fm.degenerate_rows, crisp_flags)


def test_fuzzy_uniform_symmetry():
    # two states; every observation sits exactly between the midpoints so
    # each membership vector is (0.5, 0.5) and all fuzzy counts agree
    p = StatePartition([-1.0, 0.0, 1.0])  # midpoints -0.5, 0.5
    z = np.zeros(5)
    fm = fuzzy_transition_matrix(z, p)
    assert np.allclose(fm.fuzzy_counts, fm.fuzzy_counts[0, 0])


def test_fuzzy_single_crisp_transition():
    p = StatePartition([-1.0, 0.0, 1.0])
    fm = fuzzy_transition_matrix([-0.5, 0.5], p)
    assert np.allclose(fm.fuzzy_counts, [[0, 1], [0, 0]])
    assert np.allclose(fm.fuzzy_probs[0], [0, 1])
    # the second row saw no mass and falls back to uniform
    assert fm.degenerate_rows.tolist() == [False, True]
    assert np.allclose(fm.fuzzy_probs[1], [0.5, 0.5])


def test_fuzzy_requires_two_points():
    with pytest.raises(InsufficientDataError):
        fuzzy_transition_matrix([0.0], default_partition())


# ---------------------------------------------------------------------------
# correction
# ---------------------------------------------------------------------------


def crisp_model(partition, row_state, probs_row):
    """Hand-built model with a single meaningful row."""
    k = partition.k
    probs = np.full((k, k), 1.0 / k)
    probs[row_state - 1] = probs_row
    counts = np.zeros((k, k))
    counts[row_state - 1] = np.asarray(probs_row) * 10
    return FuzzyMarkovModel(
        partition=partition,
        fuzzy_counts=counts,
        fuzzy_probs=probs,
        midpoints=partition.midpoints,
        degenerate_rows=np.zeros(k, dtype=bool),
    )


def test_correction_single_term():
    p = default_partition()
    # previous residual at the state-3 midpoint; row 3 concentrated on
    # state 5, whose midpoint is 0.0175
    fm = crisp_model(p, row_state=3, probs_row=[0, 0, 0, 0, 1, 0])
    actual = np.array([100.0, 100.0, 100.0])
    fitted = np.array([100.0, 100.5, 100.0])  # Z_2 = (100 - 100.5)/100 = -0.005
    out = fmarkov_correct(fitted, actual, fm)
    assert out[0] == 100.0 and out[1] == 100.5  # no usable previous residual
    assert math.isclose(out[2], 101.75, rel_tol=1e-12)


def test_correction_symmetric_cancellation():
    p = default_partition()
    # row 3 splits evenly over the states with midpoints -0.005 and 0.005
    fm = crisp_model(p, row_state=3, probs_row=[0, 0, 0.5, 0.5, 0, 0])
    actual = np.array([100.0, 100.0, 100.0])
    fitted = np.array([100.0, 100.5, 98.0])
    out = fmarkov_correct(fitted, actual, fm)
    assert out[2] == fitted[2]


def test_correction_matches_double_sum_oracle():
    p = StatePartition([-0.3, -0.1, 0.1, 0.3])
    rng = np.random.default_rng(35)
    actual = 50.0 + rng.normal(0, 2.0, size=12)
    fitted = actual + rng.normal(0, 1.5, size=12)
    z = (actual[1:] - fitted[1:]) / actual[:-1]
    fm = fuzzy_transition_matrix(z, p)
    out = fmarkov_correct(fitted, actual, fm)

    mids = p.midpoints
    for t in range(3, 13):  # 1-based time
        mu = fuzzy_memberships(z[t - 3], p)
        correction = 0.0
        for i in range(p.k):
            inner = 0.0
            for j in range(p.k):
                inner += mids[j] * fm.fuzzy_probs[i, j]
            correction += mu[i] * inner
        expected = fitted[t - 1] + correction * actual[t - 2]
        assert math.isclose(out[t - 1], expected, rel_tol=1e-12)
    assert out[0] == fitted[0] and out[1] == fitted[1]


def test_fuzzy_pipeline_equals_crisp_pipeline_at_midpoints():
    p = default_partition()
    rng = np.random.default_rng(36)
    mids = p.midpoints
    n = 40
    actual = 100.0 + rng.normal(0, 1.0, size=n)
    # choose fitted so each residual lands exactly on a state midpoint
    states = rng.integers(1, 7, size=n - 1)
    fitted = actual.copy()
    fitted[1:] = actual[1:] - mids[states - 1] * actual[:-1]
    z = (actual[1:] - fitted[1:]) / actual[:-1]

    fuzzy = fuzzy_transition_matrix(z, p)
    fuzzy_out = fmarkov_correct(fitted, actual, fuzzy)

    crisp_counts = count_transitions(classify_states(z, p))
    crisp_probs, crisp_flags = transition_probabilities(crisp_counts)
    crisp = FuzzyMarkovModel(
        partition=p,
        fuzzy_counts=crisp_counts.counts.astype(float),
        fuzzy_probs=crisp_probs,
        midpoints=mids,
        degenerate_rows=crisp_flags,
    )
    crisp_out = fmarkov_correct(fitted, actual, crisp)
    assert np.allclose(fuzzy_out, crisp_out, atol=1e-12)


def test_expected_drift_concentrated_row():
    p = default_partition()
    fm = crisp_model(p, row_state=5, probs_row=[0, 0, 0, 0, 0, 1])
    # state-5 midpoint input, row 5 sends everything to state 6 (mid 0.0575)
    assert math.isclose(expected_drift(fm, 0.0175), 0.0575, rel_tol=1e-12)


def criterion_08_series():
    """Acceptance criterion 08's (fitted, actual): every residual sits on a
    state midpoint of the default partition."""
    rng = np.random.default_rng(104)
    rng.uniform(-0.2, 0.2, size=10_000)  # the membership draws criterion 08 makes first
    mids = default_partition().midpoints
    n = 60
    actual = 100.0 + rng.normal(0, 1.0, size=n)
    states = rng.integers(1, 7, size=n - 1)
    fitted = actual.copy()
    fitted[1:] = actual[1:] - mids[states - 1] * actual[:-1]
    return fitted, actual


def dgm_series(seed):
    """A 278-point synthetic series and its DGM fit, as dgm_fmarkov fits it."""
    actual = synthetic_series(278, seed=seed)
    model = fit_dgm(actual)
    return forecast_dgm(model, 1)[: model.n_fit], actual


@pytest.mark.parametrize("case", ["criterion_08", 1, 2, 3, 4])
def test_correction_equals_the_per_point_reference_bit_for_bit(case):
    fitted, actual = criterion_08_series() if case == "criterion_08" else dgm_series(case)
    p = default_partition()
    z = relative_residuals(actual, fitted).values  # z[i] is Z at 1-based time i + 2
    fm = fuzzy_transition_matrix(z, p)
    expected = fitted.copy()
    for t in range(2, fitted.size):  # 0-based; Z at t - 1 is z[t - 2]
        mu = fuzzy_memberships(z[t - 2], p)
        expected[t] = fitted[t] + float(mu @ (fm.fuzzy_probs @ fm.midpoints)) * actual[t - 1]
    assert fmarkov_correct(fitted, actual, fm).tobytes() == expected.tobytes()


def test_partition_midpoints_are_computed_once_and_read_only():
    p = default_partition()
    assert p.midpoints is p.midpoints
    with pytest.raises(ValueError, match="read-only"):
        p.midpoints[0] = 0.0
