import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from greycast import (
    AffineScaler,
    DataError,
    DegeneracyError,
    DivergenceError,
    FeedforwardNet,
    SgnnForecaster,
    TrainConfig,
    backprop_gradients,
    fit_gm11,
    forecast_gm11,
    forward,
    ignn_fit,
    ignn_fitted,
    ignn_forecast,
    init_net,
    predict_scaled,
    sgnn_fit,
    sgnn_fitted,
    sgnn_forecast,
    train_bp,
    train_bp_batch,
)
from greycast import neural


def oracle_forward(net, x):
    """Hand-rolled forward pass with explicit loops: the second route."""
    a = list(float(v) for v in x)
    n_layers = len(net.weights)
    for layer in range(n_layers):
        w = net.weights[layer]
        b = net.biases[layer]
        z = []
        for row in range(w.shape[0]):
            total = b[row]
            for col in range(w.shape[1]):
                total += w[row, col] * a[col]
            z.append(total)
        if layer == n_layers - 1:
            a = z
        else:
            a = [1.0 / (1.0 + math.exp(-v)) for v in z]
    return np.array(a)


def oracle_loss(net, inputs, targets):
    total = 0.0
    for x, t in zip(inputs, targets):
        out = oracle_forward(net, x)
        diff = out - np.atleast_1d(np.asarray(t, dtype=float))
        total += 0.5 * float(diff @ diff)
    return total


def zero_net(layer_sizes):
    sizes = tuple(layer_sizes)
    return FeedforwardNet(
        layer_sizes=sizes,
        weights=[np.zeros((sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)],
        biases=[np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)],
    )


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_forward_zero_weights_111():
    net = zero_net((1, 1, 1))
    net.weights[1][0, 0] = 1.0
    assert forward(net, [0.7])[0] == 0.5  # sigmoid(0) through a unit output


def test_forward_zero_weights_output_bias():
    net = zero_net((3, 2, 1))
    net.biases[1][0] = 1.25
    assert forward(net, [1.0, -2.0, 3.0])[0] == 1.25


def test_forward_matches_oracle_on_random_nets():
    rng = np.random.default_rng(41)
    for seed in range(5):
        net = init_net((4, 4, 1), seed=seed)
        x = rng.normal(size=4)
        assert np.allclose(forward(net, x), oracle_forward(net, x), atol=1e-12)


def test_forward_shape_mismatch():
    net = zero_net((4, 4, 1))
    with pytest.raises(DataError):
        forward(net, [1.0, 2.0])


def test_single_layer_net_is_affine():
    net = FeedforwardNet(
        layer_sizes=(2, 1),
        weights=[np.array([[0.5, 0.5]])],
        biases=[np.zeros(1)],
    )
    assert forward(net, [3.0, 3.0])[0] == 3.0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_unchanged_net():
    net = init_net((2, 3, 1), seed=1)
    trained = train_bp(net, [([0.1, 0.2], [0.3])], TrainConfig(epochs=0))
    for w0, w1 in zip(net.weights, trained.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(net.biases, trained.biases):
        assert np.array_equal(b0, b1)
    assert len(trained.loss_history) == 1


def test_gradients_match_central_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for seed in range(10):
        net = init_net((4, 4, 1), seed=seed)
        inputs = [rng.uniform(0.1, 0.9, size=4) for _ in range(3)]
        targets = [rng.uniform(0.1, 0.9, size=1) for _ in range(3)]
        _, grads_w, grads_b = backprop_gradients(net, inputs, targets)
        step = 1e-5
        for layer in range(len(net.weights)):
            for idx in np.ndindex(net.weights[layer].shape):
                saved = net.weights[layer][idx]
                net.weights[layer][idx] = saved + step
                up = oracle_loss(net, inputs, targets)
                net.weights[layer][idx] = saved - step
                down = oracle_loss(net, inputs, targets)
                net.weights[layer][idx] = saved
                numeric = (up - down) / (2 * step)
                analytic = grads_w[layer][idx]
                rel = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
                worst = max(worst, rel)
            for row in range(net.biases[layer].size):
                saved = net.biases[layer][row]
                net.biases[layer][row] = saved + step
                up = oracle_loss(net, inputs, targets)
                net.biases[layer][row] = saved - step
                down = oracle_loss(net, inputs, targets)
                net.biases[layer][row] = saved
                numeric = (up - down) / (2 * step)
                analytic = grads_b[layer][row]
                rel = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
                worst = max(worst, rel)
    assert worst < 1e-4


def test_learns_linear_function():
    rng = np.random.default_rng(43)
    xs = rng.uniform(0.0, 1.0, size=20)
    samples = [([x], [2.0 * x]) for x in xs]
    net = init_net((1, 2, 1), seed=3)
    trained = train_bp(net, samples, TrainConfig(learning_rate=0.2, epochs=3000, seed=3))
    mse = np.mean(
        [(forward(trained, [x])[0] - 2.0 * x) ** 2 for x in xs]
    )
    assert mse < 1e-3
    assert trained.loss_history[-1] < trained.loss_history[0]


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(44)
    samples = [
        (rng.uniform(0.1, 0.9, size=4), rng.uniform(0.1, 0.9, size=1))
        for _ in range(6)
    ]
    cfg = TrainConfig(learning_rate=0.1, epochs=50, seed=11, shuffle=True)
    first = train_bp(init_net((4, 4, 1), seed=5), samples, cfg)
    second = train_bp(init_net((4, 4, 1), seed=5), samples, cfg)
    for w1, w2 in zip(first.weights, second.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(first.biases, second.biases):
        assert np.array_equal(b1, b2)
    assert first.loss_history == second.loss_history


def test_divergence_raises():
    samples = [([1000.0], [1000.0])]
    net = init_net((1, 2, 1), seed=0)
    with pytest.raises(DivergenceError, match="learning rate"):
        train_bp(net, samples, TrainConfig(learning_rate=1e12, epochs=50))


def test_empty_samples_rejected():
    with pytest.raises(DataError):
        train_bp(init_net((1, 2, 1)), [], TrainConfig())


def random_samples(rng, count, sizes, scale=1.0):
    return [
        (scale * rng.uniform(0.1, 0.9, size=sizes[0]),
         scale * rng.uniform(0.1, 0.9, size=sizes[-1]))
        for _ in range(count)
    ]


def assert_same_net(got, want):
    assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
    assert all(np.array_equal(a, b) for a, b in zip(got.biases, want.biases))
    assert got.loss_history == want.loss_history


@pytest.mark.parametrize("sizes", [(4, 4, 1), (3, 5, 2, 1)])
def test_lockstep_training_matches_training_alone(sizes):
    rng = np.random.default_rng(47)
    nets = [init_net(sizes, seed=seed) for seed in (1, 2, 3)]
    sample_sets = [random_samples(rng, count, sizes) for count in (5, 7, 9)]
    cfg = TrainConfig(learning_rate=0.3, epochs=25, seed=6, shuffle=True)
    together = train_bp_batch(nets, sample_sets, cfg)
    for net, samples, got in zip(nets, sample_sets, together):
        assert_same_net(got, train_bp(net, samples, cfg))
        assert len(got.loss_history) == cfg.epochs + 1


@pytest.mark.parametrize("sizes", [(3, 4, 1), (2, 3, 2, 1)])
def test_lockstep_training_matches_pinned_numbers(sizes):
    # The lockstep tests compare the loop with itself, so a change to the
    # arithmetic of both sides would pass them; this pins the loop to
    # recorded numbers (shuffled, two nets of 3 and 5 samples, 4 epochs).
    # np.exp may differ in the last bit between CPUs, hence a tolerance
    # rather than bit equality.
    rng = np.random.default_rng(51)
    nets = [init_net(sizes, seed=seed) for seed in (1, 2)]
    sample_sets = [random_samples(rng, count, sizes) for count in (3, 5)]
    cfg = TrainConfig(learning_rate=0.4, epochs=4, seed=7, shuffle=True)
    assert_matches_pinned(train_bp_batch(nets, sample_sets, cfg), "-".join(map(str, sizes)))


def assert_matches_pinned(trained, key):
    pinned = json.loads(Path(__file__).with_name("pinned_training.json").read_text())
    for got, want in zip(trained, pinned[key], strict=True):
        for field in ("weights", "biases"):
            for array, expected in zip(getattr(got, field), want[field], strict=True):
                np.testing.assert_allclose(array, expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.loss_history, want["loss_history"], rtol=1e-12, atol=0)


def test_training_longer_than_one_block_matches_pinned_numbers():
    # The nets' samples run out in the first, second and third replayed
    # window of steps, the last of which is partial; the numbers were
    # recorded by a loop that kept every step of an epoch.
    counts = (300, 1100, 700)
    assert counts[0] < neural._BLOCK_STEPS < counts[2] < 2 * neural._BLOCK_STEPS < counts[1]
    rng = np.random.default_rng(52)
    nets = [init_net((4, 4, 1), seed=seed) for seed in (3, 4, 5)]
    sample_sets = [random_samples(rng, count, (4, 4, 1)) for count in counts]
    cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=7, shuffle=True)
    assert_matches_pinned(train_bp_batch(nets, sample_sets, cfg), "4-4-1-long")


def test_training_memory_does_not_grow_with_the_samples():
    # Each recorded step holds about 2.5 kB; recording all 20 000 steps of
    # an epoch would add about 50 MB.  The samples themselves, the epoch-0
    # loss pass and one block of steps stay within 6 MB.
    rng = np.random.default_rng(53)
    samples = list(zip(rng.uniform(0.1, 0.9, (20_000, 4)), rng.uniform(0.1, 0.9, (20_000, 1))))
    net = init_net((4, 4, 1), seed=1)
    tracemalloc.start()
    try:
        train_bp(net, samples, TrainConfig(epochs=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


@pytest.mark.parametrize("sizes", [(4, 4, 1), (3, 5, 2, 1)])
def test_one_training_step_applies_the_checked_gradient(sizes):
    # One epoch on one sample is one step of w - rate * grad, with the
    # gradient the finite-difference checks test.
    rng = np.random.default_rng(50)
    net = init_net(sizes, seed=8)
    [(x, t)] = random_samples(rng, 1, sizes)
    rate = 0.3
    cfg = TrainConfig(learning_rate=rate, epochs=1, shuffle=False)
    trained = train_bp(net, [(x, t)], cfg)
    loss, grads_w, grads_b = backprop_gradients(net, [x], [t])
    for got, before, grad in zip(trained.weights + trained.biases,
                                 net.weights + net.biases, grads_w + grads_b):
        assert np.any(grad != 0.0)
        np.testing.assert_allclose(got, before - rate * grad, rtol=1e-14, atol=0)
    assert trained.loss_history[0] == 2 * loss / 1


def test_lockstep_rejects_nets_of_different_shapes():
    rng = np.random.default_rng(48)
    nets = [init_net((2, 3, 1)), init_net((4, 4, 1))]
    sample_sets = [random_samples(rng, 3, net.layer_sizes) for net in nets]
    with pytest.raises(DataError, match="layer sizes"):
        train_bp_batch(nets, sample_sets, TrainConfig(epochs=1))


def test_lockstep_divergence_of_one_net_raises():
    rng = np.random.default_rng(49)
    sizes = (1, 1)  # linear: a large input makes every step overshoot
    sample_sets = [
        random_samples(rng, 6, sizes),
        [([1000.0], [1000.0])] * 3,
        random_samples(rng, 4, sizes),
    ]
    nets = [init_net(sizes, seed=i) for i in range(3)]
    cfg = TrainConfig(learning_rate=0.5, epochs=30)
    train_bp(nets[0], sample_sets[0], cfg)  # the others train fine alone
    train_bp(nets[2], sample_sets[2], cfg)
    with pytest.raises(DivergenceError, match="learning rate"):
        train_bp_batch(nets, sample_sets, cfg)


# ---------------------------------------------------------------------------
# scalers
# ---------------------------------------------------------------------------


def test_scaler_round_trip():
    scaler = AffineScaler.from_range([3.0, 13.0])
    values = np.linspace(3.0, 13.0, 23)
    assert np.allclose(scaler.inverse(scaler.transform(values)), values, atol=1e-12)
    assert scaler.transform(3.0) == 0.1
    assert scaler.transform(13.0) == 0.9


def test_scaler_rejects_constant_range():
    with pytest.raises(DegeneracyError):
        AffineScaler.from_range([5.0, 5.0, 5.0])


# ---------------------------------------------------------------------------
# IGNN
# ---------------------------------------------------------------------------


def test_ignn_grey_white_round_trip():
    # when predictions equal the true accumulated values, differencing
    # recovers the original series exactly
    x = np.array([4.0, 6.0, 5.0, 7.0, 6.5, 8.0])
    a = np.cumsum(x)
    recovered = a[1:] - a[:-1]
    assert np.allclose(recovered, x[1:], atol=1e-12)


def test_ignn_constant_series():
    # The accumulated series keeps growing, so every forecast step
    # extrapolates past the scaler's training range; a wide hidden layer
    # keeps the learned map near-linear there.  Frozen configuration,
    # bit-deterministic training.
    f = ignn_fit(
        [5.0] * 12,
        window=4,
        cfg=TrainConfig(learning_rate=0.5, epochs=12000, seed=0),
        hidden=32,
    )
    fitted = ignn_fitted(f)
    mape = np.mean(np.abs((fitted - 5.0) / 5.0)) * 100
    assert mape < 2.0
    assert f.net.loss_history[-1] < f.net.loss_history[0]
    forecast = ignn_forecast(f, 3)
    assert np.all(np.abs(forecast - 5.0) / 5.0 < 0.05)


def test_ignn_horizon_one_matches_last_window_prediction():
    f = ignn_fit([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], window=3,
                 cfg=TrainConfig(epochs=50, seed=1))
    ago = f.ago_values
    direct = predict_scaled(f.net, ago[-3:]) - ago[-1]
    assert math.isclose(ignn_forecast(f, 1)[0], direct, rel_tol=1e-12)


def test_ignn_horizon_validation():
    f = ignn_fit([5.0] * 8, window=3, cfg=TrainConfig(epochs=5))
    with pytest.raises(DataError):
        ignn_forecast(f, 0)


def test_ignn_forecasts_finite_regardless_of_net_quality():
    f = ignn_fit(np.linspace(10, 30, 15), window=4, cfg=TrainConfig(epochs=3, seed=9))
    assert np.all(np.isfinite(ignn_forecast(f, 10)))


def test_batched_prediction_matches_predict_scaled_row_by_row():
    rng = np.random.default_rng(51)
    n = 30
    values = 50.0 + 1.5 * np.arange(n) + rng.normal(0, 0.5, size=n)
    cfg = TrainConfig(learning_rate=0.2, epochs=20, seed=3)
    f = ignn_fit(values, window=4, cfg=cfg)
    ago = f.ago_values
    rows = [predict_scaled(f.net, ago[i : i + 4]) - ago[i + 3] for i in range(n - 4)]
    assert np.array_equal(ignn_fitted(f), rows)

    g = sgnn_fit(values, [n, 22, 15], cfg=cfg)
    t0 = max(g.offsets)
    fitted = np.column_stack([
        forecast_gm11(m, 1)[: m.n_fit][t0 - off :] for m, off in zip(g.gm_models, g.offsets)
    ])
    assert np.array_equal(sgnn_fitted(g), [predict_scaled(g.net, row) for row in fitted])
    ahead = np.column_stack([forecast_gm11(m, 5)[m.n_fit :] for m in g.gm_models])
    assert np.array_equal(sgnn_forecast(g, 5), [predict_scaled(g.net, row) for row in ahead])


# ---------------------------------------------------------------------------
# SGNN
# ---------------------------------------------------------------------------


def test_sgnn_identical_submodels_with_averaging_net():
    values = np.array([10.0, 10.5, 11.2, 11.8, 12.5, 13.1, 13.9, 14.6])
    m = fit_gm11(values)
    averaging = FeedforwardNet(
        layer_sizes=(2, 1),
        weights=[np.array([[0.5, 0.5]])],
        biases=[np.zeros(1)],
    )
    f = SgnnForecaster(
        net=averaging,
        gm_models=[m, m],
        offsets=[0, 0],
        n_fit=values.size,
    )
    sub_fitted = forecast_gm11(m, 1)[: m.n_fit]
    assert np.allclose(sgnn_fitted(f), sub_fitted, atol=1e-12)
    assert np.allclose(sgnn_forecast(f, 4), forecast_gm11(m, 4)[m.n_fit :], atol=1e-12)


def test_sgnn_single_submodel_rejected():
    with pytest.raises(DataError):
        sgnn_fit(np.linspace(10, 20, 12), [8], cfg=TrainConfig(epochs=1))


def test_sgnn_subwindow_length_validation():
    with pytest.raises(DataError):
        sgnn_fit(np.linspace(10, 20, 12), [8, 3], cfg=TrainConfig(epochs=1))
    with pytest.raises(DataError):
        sgnn_fit(np.linspace(10, 20, 12), [13, 8], cfg=TrainConfig(epochs=1))


def test_sgnn_combiner_beats_noisy_submodel():
    rng = np.random.default_rng(46)
    n = 24
    t = np.arange(n, dtype=float)
    values = 50.0 + 1.5 * t + rng.normal(0, 0.2, size=n)
    f = sgnn_fit(
        values,
        [n, n * 3 // 4],
        cfg=TrainConfig(learning_rate=0.2, epochs=2000, seed=4),
    )
    combined = sgnn_fitted(f)
    start = f.eval_start - 1
    actual = values[start:]
    combined_mse = np.mean((combined - actual) ** 2)
    worst_sub = -np.inf
    for m, off in zip(f.gm_models, f.offsets):
        sub = forecast_gm11(m, 1)[: m.n_fit][start - off :]
        worst_sub = max(worst_sub, np.mean((sub - actual) ** 2))
    assert combined_mse <= worst_sub
