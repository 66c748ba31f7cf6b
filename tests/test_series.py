import numpy as np
import pytest

from greycast import (
    DataError,
    DegeneracyError,
    EmptySeriesError,
    InsufficientDataError,
    TimeSeries,
    accuracy_series,
    ago,
    evaluate,
    grey_relation_degree,
    iago,
    min_variance_weight,
    posterior_test,
    relative_residuals,
)


def test_ago_examples():
    assert ago([1, 2, 3]).tolist() == [1, 3, 6]
    assert ago([5, 5, 5, 5]).tolist() == [5, 10, 15, 20]
    assert ago([1, -1, 1, -1]).tolist() == [1, 0, 1, 0]


def test_iago_examples():
    assert iago([1, 3, 6]).tolist() == [1, 2, 3]
    assert iago([5, 10, 15, 20]).tolist() == [5, 5, 5, 5]
    assert iago([1, 0, 1, 0]).tolist() == [1, -1, 1, -1]


def test_empty_series_rejected():
    with pytest.raises(EmptySeriesError):
        ago([])
    with pytest.raises(EmptySeriesError):
        iago([])


def test_round_trip_exact_on_integer_series():
    # Integer values keep every partial sum exactly representable, so the
    # inverse recovers each element bit-for-bit.
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 300)
        x = rng.integers(-1_000_000, 1_000_000, size=n).astype(float)
        assert np.array_equal(iago(ago(x)), x)


def test_round_trip_close_on_arbitrary_floats():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(0.1, 200.0, size=rng.integers(2, 400))
        back = iago(ago(x))
        assert np.allclose(back, x, rtol=1e-10, atol=1e-10)


def test_ago_linearity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = rng.integers(1, 100)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        a, b = rng.normal(size=2)
        lhs = ago(a * x + b * y)
        rhs = a * ago(x) + b * ago(y)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_relative_residuals_examples():
    r = relative_residuals([100, 110, 105], [100, 108, 106])
    assert np.allclose(r.values, [0.02, -1 / 110])

    same = relative_residuals([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
    assert np.all(same.values == 0)

    single = relative_residuals([100, 100], [100, 90])
    assert np.allclose(single.values, [0.10])


def test_relative_residuals_errors():
    with pytest.raises(DegeneracyError, match="t=2"):
        relative_residuals([1.0, 0.0, 2.0], [1.0, 0.0, 2.0])
    with pytest.raises(DataError):
        relative_residuals([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        relative_residuals([1.0], [1.0])


@pytest.mark.parametrize("check", [
    relative_residuals, accuracy_series, grey_relation_degree, min_variance_weight,
    evaluate, posterior_test,
], ids=lambda check: check.__name__)
def test_unequal_lengths_share_one_message(check):
    # Every function that scores one series against another validates the
    # pair through series.as_pair, so all of them word the error alike.
    with pytest.raises(DataError) as info:
        check([1.0, 2.0, 3.0], [1.0, 2.0])
    assert str(info.value) == "series lengths differ: 3 vs 2"


def test_time_series_validation():
    ts = TimeSeries([1.0, 2.0])
    assert len(ts) == 2 and ts.values.tolist() == [1.0, 2.0]
    with pytest.raises(DataError, match="must all be finite"):
        TimeSeries([1.0, np.nan])
    with pytest.raises(EmptySeriesError):
        TimeSeries([])


def test_two_dimensional_time_series_is_a_data_error():
    # A 2-D input holds values, so "empty" would misname what is wrong.
    with pytest.raises(DataError, match="series must be one-dimensional"):
        TimeSeries([[1.0, 2.0], [3.0, 4.0]])
