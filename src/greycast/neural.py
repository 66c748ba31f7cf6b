"""Feedforward networks with online back-propagation, plus the grey wrappers.

The network itself is deliberately small: sigmoid hidden layers, a linear
output, per-sample gradient descent on squared error.  IGNN wraps it in a
grey layer (train on the accumulated series) and a white layer (difference
the predictions back); SGNN feeds the fitted values of several GM(1,1)
sub-models into a combining network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    DegeneracyError,
    DivergenceError,
    InsufficientDataError,
)
from .gm import GmModel, fit_gm11, forecast_gm11
from .series import as_horizon, as_values, make_windows


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class AffineScaler:
    """Invertible y = scale * x + offset normalisation."""

    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.scale == 0.0 or not np.isfinite(self.scale) or not np.isfinite(self.offset):
            raise DegeneracyError("scaler must be finite with nonzero scale")

    def transform(self, x):
        return self.scale * np.asarray(x, dtype=float) + self.offset

    def inverse(self, y):
        return (np.asarray(y, dtype=float) - self.offset) / self.scale

    @classmethod
    def from_range(cls, values, lo: float = 0.1, hi: float = 0.9) -> "AffineScaler":
        """Min-max scaler mapping the observed range onto [lo, hi]."""
        v = np.asarray(values, dtype=float)
        vmin, vmax = float(v.min()), float(v.max())
        if vmax == vmin:
            raise DegeneracyError(
                "cannot build a min-max scaler from a constant range"
            )
        scale = (hi - lo) / (vmax - vmin)
        return cls(scale=scale, offset=lo - scale * vmin)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 2000
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise DataError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise DataError(f"epochs must be non-negative, got {self.epochs}")


@dataclass
class FeedforwardNet:
    """Layer sizes, weight matrices, and bias vectors.

    ``weights[l]`` has shape (layer_sizes[l+1], layer_sizes[l]); hidden
    layers use the sigmoid, the output layer is linear.  The scalers
    record how raw data maps into network space but are not applied by
    :func:`forward` itself.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    input_scaler: AffineScaler = field(default_factory=AffineScaler)
    output_scaler: AffineScaler = field(default_factory=AffineScaler)
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise DataError(f"invalid layer sizes {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DataError("one weight matrix and bias vector per layer expected")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            expected = (sizes[layer + 1], sizes[layer])
            if w.shape != expected:
                raise DataError(
                    f"weight matrix {layer} has shape {w.shape}, expected {expected}"
                )
            if b.shape != (sizes[layer + 1],):
                raise DataError(
                    f"bias vector {layer} has shape {b.shape}, "
                    f"expected {(sizes[layer + 1],)}"
                )
        self.layer_sizes = sizes

    def copy(self) -> "FeedforwardNet":
        return FeedforwardNet(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            input_scaler=self.input_scaler,
            output_scaler=self.output_scaler,
            loss_history=list(self.loss_history),
        )


def init_net(
    layer_sizes,
    seed: int = 0,
    input_scaler: AffineScaler | None = None,
    output_scaler: AffineScaler | None = None,
) -> FeedforwardNet:
    """Seeded uniform [-0.5, 0.5] initialisation."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    weights = [
        rng.uniform(-0.5, 0.5, size=(sizes[l + 1], sizes[l]))
        for l in range(len(sizes) - 1)
    ]
    biases = [rng.uniform(-0.5, 0.5, size=sizes[l + 1]) for l in range(len(sizes) - 1)]
    return FeedforwardNet(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        input_scaler=input_scaler or AffineScaler(),
        output_scaler=output_scaler or AffineScaler(),
    )


def _forward_cached(net: FeedforwardNet, x: np.ndarray):
    """Forward pass keeping every activation for back-propagation."""
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        a = z if layer == last else sigmoid(z)
        activations.append(a)
    return activations


def forward(net: FeedforwardNet, x) -> np.ndarray:
    """Network-space forward pass (no scaling applied)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (net.layer_sizes[0],):
        raise DataError(
            f"input shape {x.shape} does not match input layer "
            f"size {net.layer_sizes[0]}"
        )
    return _forward_cached(net, x)[-1]


def _sample_gradients(net: FeedforwardNet, x: np.ndarray, target: np.ndarray):
    """Gradients of 0.5*||out - target||^2 for one sample."""
    activations = _forward_cached(net, x)
    delta = activations[-1] - target
    loss = 0.5 * float(delta @ delta)
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = np.outer(delta, activations[layer])
        grads_b[layer] = delta
        if layer > 0:
            a_prev = activations[layer]
            delta = (net.weights[layer].T @ delta) * a_prev * (1.0 - a_prev)
    return loss, grads_w, grads_b


def backprop_gradients(net: FeedforwardNet, inputs, targets):
    """Total loss and summed gradients over a batch.

    Loss is sum over samples of 0.5*||forward(x) - t||^2; used by the
    training loop and by finite-difference checks.
    """
    inputs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in inputs]
    targets = [np.atleast_1d(np.asarray(t, dtype=float)) for t in targets]
    if not inputs or len(inputs) != len(targets):
        raise DataError("inputs and targets must be non-empty and aligned")
    total = 0.0
    acc_w = [np.zeros_like(w) for w in net.weights]
    acc_b = [np.zeros_like(b) for b in net.biases]
    for x, t in zip(inputs, targets):
        loss, gw, gb = _sample_gradients(net, x, t)
        total += loss
        for layer in range(len(acc_w)):
            acc_w[layer] += gw[layer]
            acc_b[layer] += gb[layer]
    return total, acc_w, acc_b


def train_bp(net: FeedforwardNet, samples, cfg: TrainConfig | None = None) -> FeedforwardNet:
    """Per-sample gradient descent on squared error.

    Returns a trained copy; the input net is untouched.  The returned
    net's ``loss_history`` holds the pre-training mean squared error
    followed by one mean-per-sample entry per epoch.  This is the
    one-net case of :func:`train_bp_batch`.
    """
    return train_bp_batch([net], [samples], cfg)[0]


def _as_sample_arrays(samples, sizes):
    if not samples:
        raise DataError("training requires at least one sample")
    inputs = np.array([np.atleast_1d(np.asarray(x, dtype=float)) for x, _ in samples])
    targets = np.array([np.atleast_1d(np.asarray(t, dtype=float)) for _, t in samples])
    if inputs.shape[1:] != (sizes[0],) or targets.shape[1:] != (sizes[-1],):
        raise DataError(
            f"samples of shape {inputs.shape[1:]} -> {targets.shape[1:]} do not fit "
            f"a net of layer sizes {sizes}"
        )
    return inputs, targets


def _mean_sq_error(net: FeedforwardNet, inputs, targets) -> float:
    return sum(
        float(np.sum((_forward_cached(net, x)[-1] - t) ** 2))
        for x, t in zip(inputs, targets)
    ) / len(inputs)


def train_bp_batch(nets, sample_sets, cfg: TrainConfig | None = None) -> list[FeedforwardNet]:
    """Train independent nets of one shape in lockstep, each on its own samples.

    Every net gets exactly the updates :func:`train_bp` would give it
    alone: its own ``default_rng(cfg.seed)`` permutation each epoch, its
    own loss history and its own divergence check.  The weights are
    stacked along a leading net axis and vectors are column matrices of
    shape (nets, size, 1), so one ``np.matmul`` or ufunc call advances
    every net by one sample.  Step ``t`` of an epoch feeds each net its
    ``t``-th sample; a net whose samples ran out this epoch takes the step
    on its first sample with a learning rate of zero, which leaves it
    unchanged.
    """
    cfg = cfg or TrainConfig()
    nets = list(nets)
    sample_sets = [list(samples) for samples in sample_sets]
    if len(nets) != len(sample_sets):
        raise DataError(f"{len(nets)} nets but {len(sample_sets)} sample sets")
    if not nets:
        raise DataError("training requires at least one net")
    if any(net.layer_sizes != nets[0].layer_sizes for net in nets):
        raise DataError("nets trained together must share their layer sizes")
    sizes = nets[0].layer_sizes
    last = len(sizes) - 2
    data = [_as_sample_arrays(samples, sizes) for samples in sample_sets]
    counts = [inputs.shape[0] for inputs, _ in data]
    width = max(counts)
    trained = [net.copy() for net in nets]
    histories = [[_mean_sq_error(net, *arrays)] for net, arrays in zip(trained, data)]

    weights = [np.stack([net.weights[l] for net in trained]) for l in range(last + 1)]
    biases = [np.stack([net.biases[l] for net in trained])[..., None] for l in range(last + 1)]
    # Per epoch, step-major copies of every net's shuffled samples; the
    # steps past a net's sample count keep its first sample.
    xs = np.empty((width, len(nets), sizes[0], 1))
    targets = np.empty((width, len(nets), sizes[-1], 1))
    # rates[l][t] is every net's learning rate at step t, in the shape of
    # layer l's output (a broadcast multiply costs twice a plain one).
    rates = [np.zeros((width, len(nets), s, 1)) for s in sizes[1:]]
    for b, ((inputs, outputs), n) in enumerate(zip(data, counts)):
        xs[:, b, :, 0] = inputs[0]
        targets[:, b, :, 0] = outputs[0]
        for rate in rates:
            rate[:n, b] = cfg.learning_rate
    errors = np.empty_like(targets)  # output minus target at each step
    # outs[l] is layer l's output and outs_t[l] its transpose; deltas[l] is
    # the loss gradient at that output, scaled[l] that gradient times the
    # learning rate, and steps[l] the update to weights[l].
    outs = [np.empty((len(nets), s, 1)) for s in sizes[1:]]
    outs_t = [out.transpose(0, 2, 1) for out in outs]
    weights_t = [w.transpose(0, 2, 1) for w in weights]
    deltas = [np.empty_like(out) for out in outs[:-1]] + [None]
    scaled = [np.empty_like(out) for out in outs]
    slope = [np.empty_like(out) for out in outs[:-1]]
    steps = [np.empty_like(w) for w in weights]
    rngs = [np.random.default_rng(cfg.seed) for _ in nets]
    # Divergence shows up as non-finite loss, which is detected and raised;
    # the intermediate overflow warnings carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            for b, (rng, (inputs, outputs), n) in enumerate(zip(rngs, data, counts)):
                order = rng.permutation(n) if cfg.shuffle else np.arange(n)
                xs[:n, b, :, 0] = inputs[order]
                targets[:n, b, :, 0] = outputs[order]
            for x, x_t, target, error, rate in zip(
                xs, xs.transpose(0, 1, 3, 2), targets, errors, zip(*rates)
            ):
                a = x
                for l in range(last + 1):
                    out = outs[l]
                    np.matmul(weights[l], a, out=out)
                    out += biases[l]
                    if l < last:  # sigmoid, in place
                        np.negative(out, out=out)
                        np.exp(out, out=out)
                        out += 1.0
                        np.reciprocal(out, out=out)
                    a = out
                np.subtract(a, target, out=error)
                deltas[last] = error
                for l in range(last, -1, -1):
                    delta = deltas[l]
                    if l:  # back-propagate through the weights before they move
                        below, a_below = deltas[l - 1], outs[l - 1]
                        np.matmul(weights_t[l], delta, out=below)
                        np.subtract(1.0, a_below, out=slope[l - 1])
                        slope[l - 1] *= a_below
                        below *= slope[l - 1]
                    np.multiply(delta, rate[l], out=scaled[l])
                    np.multiply(scaled[l], outs_t[l - 1] if l else x_t, out=steps[l])
                    weights[l] -= steps[l]
                    biases[l] -= scaled[l]
            # A running total in sample order, as a per-sample loop adds it.
            sq = np.square(errors[..., 0]).sum(axis=-1)
            for b, (history, n) in enumerate(zip(histories, counts)):
                epoch_loss = float(np.cumsum(sq[:n, b])[-1]) / n
                if not np.isfinite(epoch_loss):
                    raise DivergenceError(
                        "training loss is not finite; try a smaller learning rate"
                    )
                history.append(epoch_loss)
    for b, (net, history) in enumerate(zip(trained, histories)):
        net.weights = [w[b].copy() for w in weights]
        net.biases = [bias[b, :, 0].copy() for bias in biases]
        net.loss_history = history
    return trained


def predict_scaled(net: FeedforwardNet, raw_inputs) -> float:
    """Scale raw inputs, run the net, unscale the scalar output."""
    x = net.input_scaler.transform(raw_inputs)
    return float(net.output_scaler.inverse(forward(net, x))[0])


# ---------------------------------------------------------------------------
# IGNN: grey layer (AGO) in front of the net, white layer (IAGO) behind it.
# ---------------------------------------------------------------------------


@dataclass
class IgnnForecaster:
    net: FeedforwardNet
    window: int
    ago_values: np.ndarray
    n_fit: int


def ignn_fit(
    x,
    window: int = 4,
    cfg: TrainConfig | None = None,
    hidden: int = 4,
) -> IgnnForecaster:
    """Train a one-step predictor on the accumulated series."""
    return ignn_fit_batch([x], window, cfg, hidden)[0]


def ignn_fit_batch(
    series,
    window: int = 4,
    cfg: TrainConfig | None = None,
    hidden: int = 4,
) -> list[IgnnForecaster]:
    """:func:`ignn_fit` on each series, with the nets trained in lockstep."""
    cfg = cfg or TrainConfig()
    nets, sample_sets, agos = [], [], []
    for x in series:
        values = as_values(x, min_len=window + 2)
        ago_values = np.cumsum(values)
        scaler = AffineScaler.from_range(ago_values)
        raw_samples = make_windows(ago_values, window)
        sample_sets.append(
            [(scaler.transform(w), scaler.transform(t)) for w, t in raw_samples]
        )
        nets.append(
            init_net(
                (window, hidden, 1),
                seed=cfg.seed,
                input_scaler=scaler,
                output_scaler=replace(scaler),
            )
        )
        agos.append(ago_values)
    trained = train_bp_batch(nets, sample_sets, cfg)
    return [
        IgnnForecaster(net=net, window=window, ago_values=ago, n_fit=ago.size)
        for net, ago in zip(trained, agos)
    ]


def ignn_fitted(f: IgnnForecaster) -> np.ndarray:
    """In-sample one-step reconstructions for t = window+1 .. n_fit.

    Each prediction is differenced against the previous observed
    accumulated value, so the white layer is exact regardless of how well
    the net fits.
    """
    out = np.empty(f.n_fit - f.window)
    for i in range(out.size):
        ago_next = predict_scaled(f.net, f.ago_values[i : i + f.window])
        out[i] = ago_next - f.ago_values[i + f.window - 1]
    return out


def ignn_forecast(f: IgnnForecaster, horizon: int) -> np.ndarray:
    """Recursive multi-step forecast on the original scale."""
    h = as_horizon(horizon)
    buf = list(f.ago_values)
    out = np.empty(h)
    for step in range(h):
        ago_next = predict_scaled(f.net, np.asarray(buf[-f.window :]))
        out[step] = ago_next - buf[-1]
        buf.append(ago_next)
    return out


# ---------------------------------------------------------------------------
# SGNN: a network combining the fitted values of several GM(1,1) sub-models,
# each built on a trailing sub-window of the same series.
# ---------------------------------------------------------------------------


@dataclass
class SgnnForecaster:
    net: FeedforwardNet
    gm_models: list[GmModel]
    offsets: list[int]
    n_fit: int

    @property
    def eval_start(self) -> int:
        """1-based first time covered by every sub-model."""
        return max(self.offsets) + 1


def _sub_model_inputs(f: SgnnForecaster) -> np.ndarray:
    """Matrix of sub-model fitted values over the common time range."""
    t0 = max(f.offsets)
    rows = f.n_fit - t0
    inputs = np.empty((rows, len(f.gm_models)))
    for j, (m, off) in enumerate(zip(f.gm_models, f.offsets)):
        fitted = forecast_gm11(m, 1)[: m.n_fit]
        inputs[:, j] = fitted[t0 - off :]
    return inputs


def sgnn_fit(
    x,
    sub_window_lengths,
    cfg: TrainConfig | None = None,
    hidden: int = 4,
) -> SgnnForecaster:
    """Fit one GM(1,1) per trailing sub-window, then train the combiner."""
    return sgnn_fit_batch([x], [sub_window_lengths], cfg, hidden)[0]


def sgnn_fit_batch(
    series,
    sub_window_lengths,
    cfg: TrainConfig | None = None,
    hidden: int = 4,
) -> list[SgnnForecaster]:
    """:func:`sgnn_fit` on each series with its own sub-window lengths, with
    the combining nets trained in lockstep."""
    cfg = cfg or TrainConfig()
    shells, nets, sample_sets = [], [], []
    for x, window_lengths in zip(series, sub_window_lengths):
        values = as_values(x)
        lengths = [int(v) for v in window_lengths]
        if len(lengths) < 2:
            raise DataError(f"SGNN needs at least 2 sub-models, got {len(lengths)}")
        for length in lengths:
            if length < 4:
                raise InsufficientDataError(
                    f"each sub-window must hold at least 4 values, got {length}"
                )
            if length > values.size:
                raise InsufficientDataError(
                    f"sub-window length {length} exceeds series length {values.size}"
                )
        offsets = [values.size - length for length in lengths]
        models = [fit_gm11(values[off:]) for off in offsets]
        shell = SgnnForecaster(
            net=init_net((len(models), hidden, 1)),
            gm_models=models,
            offsets=offsets,
            n_fit=values.size,
        )
        inputs = _sub_model_inputs(shell)
        targets = values[max(offsets) :]
        input_scaler = AffineScaler.from_range(inputs)
        output_scaler = AffineScaler.from_range(targets)
        sample_sets.append(
            [
                (input_scaler.transform(row), output_scaler.transform([t]))
                for row, t in zip(inputs, targets)
            ]
        )
        nets.append(
            init_net(
                (len(models), hidden, 1),
                seed=cfg.seed,
                input_scaler=input_scaler,
                output_scaler=output_scaler,
            )
        )
        shells.append(shell)
    for shell, net in zip(shells, train_bp_batch(nets, sample_sets, cfg)):
        shell.net = net
    return shells


def sgnn_fitted(f: SgnnForecaster) -> np.ndarray:
    """In-sample combined values for t = eval_start .. n_fit."""
    inputs = _sub_model_inputs(f)
    return np.array([predict_scaled(f.net, row) for row in inputs])


def sgnn_forecast(f: SgnnForecaster, horizon: int) -> np.ndarray:
    """Combine the sub-models' own forecasts step by step."""
    h = as_horizon(horizon)
    sub_forecasts = np.column_stack(
        [forecast_gm11(m, h)[m.n_fit :] for m in f.gm_models]
    )
    return np.array([predict_scaled(f.net, row) for row in sub_forecasts])
