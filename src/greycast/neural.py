"""Feedforward networks with online back-propagation, plus the grey wrappers.

The network itself is deliberately small: sigmoid hidden layers, a linear
output, per-sample gradient descent on squared error.  IGNN wraps it in a
grey layer (train on the accumulated series) and a white layer (difference
the predictions back); SGNN feeds the fitted values of several GM(1,1)
sub-models into a combining network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError,
    DegeneracyError,
    DivergenceError,
    InsufficientDataError,
)
from .gm import GmModel, fit_gm11, forecast_gm11
from .series import as_horizon, as_values


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


def _blocks(sizes, rows):
    """One flat buffer and, as views of it, each layer's (rows, out, in)
    weight block and (rows, out, 1) bias block, contiguous and in layer order."""
    shapes = [shape for n_in, n_out in zip(sizes, sizes[1:])
              for shape in ((rows, n_out, n_in), (rows, n_out, 1))]
    ends = list(accumulate(math.prod(shape) for shape in shapes))
    buffer = np.empty(ends[-1])
    blocks = [buffer[end - math.prod(shape) : end].reshape(shape)
              for shape, end in zip(shapes, ends)]
    return buffer, blocks[0::2], blocks[1::2]


def _stack(nets):
    """The weights (nets, out, in) and column biases (nets, out, 1) of nets of
    one shape, as :func:`_blocks` of one flat buffer."""
    buffer, weights, biases = _blocks(nets[0].layer_sizes, len(nets))
    for l, (w, b) in enumerate(zip(weights, biases)):
        w[...] = [net.weights[l] for net in nets]
        b[..., 0] = [net.biases[l] for net in nets]
    return buffer, weights, biases


class _Columns:
    """Column buffers (rows, size, 1) for one stacked pass over ``rows`` nets
    or samples: every layer's output and, per hidden layer, an array of ones
    (the sigmoid's ``+ 1`` and its slope's ``1 -``), the slope and the
    back-propagated delta."""

    def __init__(self, sizes, rows: int):
        self.outs = [np.empty((rows, s, 1)) for s in sizes[1:]]
        hidden = self.outs[:-1]
        self.ones = [np.ones_like(out) for out in hidden]
        self.slopes = [np.empty_like(out) for out in hidden]
        self.deltas = [np.empty_like(out) for out in hidden]


def _call(f, *args):
    """Run one call at once: the ``emit`` of a pass that is not recorded."""
    f(*args)


def _forward(weights, biases, x, cols, emit=_call):
    """Stacked forward pass of column inputs ``x`` (rows, inputs, 1) into
    ``cols.outs``, in place.

    The weights and biases have a leading axis of rows, or of 1 to run one
    net on every row.  Hidden layers use the sigmoid.  Each numpy call goes
    through ``emit(ufunc, *args)`` with its output last, so a caller can run
    it at once or record it to run later.  Returns the linear output layer's
    array.
    """
    a = x
    for l, (w, b, out) in enumerate(zip(weights, biases, cols.outs)):
        emit(np.matmul, w, a, out)
        emit(np.add, out, b, out)
        if l < len(cols.ones):  # sigmoid, in place
            emit(np.negative, out, out)
            emit(np.exp, out, out)
            emit(np.add, out, cols.ones[l], out)
            emit(np.reciprocal, out, out)
        a = out
    return a


def _backward(weights, x, cols, error, rate, scaled, steps, emit=_call):
    """Back-propagate ``error`` (output minus target) through a :func:`_forward`
    pass of ``x`` into ``cols``, emitting its calls as that function does.

    Fills ``scaled[l]``, the loss gradient at layer l's output times
    ``rate[l]`` (the bias step), and ``steps[l]``, that times the layer's
    input (the weight step).  The weights are only read; the caller moves them.
    """
    ins = [x, *cols.outs[:-1]]
    delta = error
    for l in range(len(steps) - 1, -1, -1):
        a = ins[l]
        emit(np.multiply, delta, rate[l], scaled[l])
        emit(np.multiply, scaled[l], a.transpose(0, 2, 1), steps[l])
        if l:  # down through the weights and the sigmoid's slope (1 - a) * a
            slope, below = cols.slopes[l - 1], cols.deltas[l - 1]
            emit(np.subtract, cols.ones[l - 1], a, slope)
            emit(np.multiply, slope, a, slope)
            emit(np.matmul, weights[l].transpose(0, 2, 1), delta, below)
            emit(np.multiply, below, slope, below)
            delta = below


def _activations(net: FeedforwardNet, rows) -> _Columns:
    """One net's forward pass on every row of ``rows`` (rows, inputs), as
    the pass's :class:`_Columns`."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != net.layer_sizes[0]:
        raise DataError(
            f"input shape {rows.shape[1:]} does not match input layer "
            f"size {net.layer_sizes[0]}"
        )
    cols = _Columns(net.layer_sizes, len(rows))
    _forward(*_stack([net])[1:], rows[..., None], cols)
    return cols


def _sq_total(errors, start: float = 0.0) -> float:
    """Squared error summed over (samples, outputs) onto ``start``: a running
    total in sample order, as a per-sample loop adds it."""
    return float(np.cumsum(np.append(start, np.square(errors).sum(axis=-1)))[-1])


def forward(net: FeedforwardNet, x) -> np.ndarray:
    """Network-space forward pass (no scaling applied)."""
    return _activations(net, np.atleast_1d(np.asarray(x, dtype=float))[None]).outs[-1][0, :, 0]


def backprop_gradients(net: FeedforwardNet, inputs, targets):
    """Total loss and summed gradients over a batch.

    Loss is sum over samples of 0.5*||forward(x) - t||^2.  The gradients
    come from the back-propagation that trains: each sample is one row of
    the stack, run through ``net``'s weights at a rate of 1, and the
    per-sample steps are summed.  Finite-difference checks test it.
    """
    inputs, targets = list(inputs), list(targets)
    if not inputs or len(inputs) != len(targets):
        raise DataError("inputs and targets must be non-empty and aligned")
    x, t = _as_sample_arrays(list(zip(inputs, targets)), net.layer_sizes)
    cols = _activations(net, x)
    x = x[..., None]
    error = cols.outs[-1] - t[..., None]
    scaled = [np.empty_like(out) for out in cols.outs]
    steps = [np.empty((len(x), *w.shape)) for w in net.weights]
    weights = [w[None] for w in net.weights]
    _backward(weights, x, cols, error, [1.0] * len(steps), scaled, steps)
    grads_b = [step.sum(axis=0)[:, 0] for step in scaled]
    return 0.5 * _sq_total(error[..., 0]), [step.sum(axis=0) for step in steps], grads_b


def train_bp(net: FeedforwardNet, samples, cfg: TrainConfig | None = None) -> FeedforwardNet:
    """Per-sample gradient descent on squared error.

    Returns a trained copy; the input net is untouched.  The returned
    net's ``loss_history`` holds the pre-training mean squared error
    followed by one mean-per-sample entry per epoch.  This is the
    one-net case of :func:`train_bp_batch`.
    """
    return train_bp_batch([net], [samples], cfg)[0]


def _sample_rows(values) -> np.ndarray:
    """One field of every sample as the rows of an array; scalars become one column."""
    rows = np.array(values, dtype=float)
    return rows[:, None] if rows.ndim == 1 else rows


def _as_sample_arrays(samples, sizes):
    if not samples:
        raise DataError("training requires at least one sample")
    inputs, targets = (_sample_rows(values) for values in zip(*samples))
    if inputs.shape[1:] != (sizes[0],) or targets.shape[1:] != (sizes[-1],):
        raise DataError(
            f"samples of shape {inputs.shape[1:]} -> {targets.shape[1:]} do not fit "
            f"a net of layer sizes {sizes}"
        )
    return inputs, targets


#: Steps of an epoch recorded once and replayed over each window of that many
#: steps, so the record and the step-major buffers stay this size however
#: many samples a net has.
_BLOCK_STEPS = 512


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

    Every weight and bias lives in one flat buffer and every step in a
    second of the same layout, so one subtraction moves them all.  The
    numpy calls of a block of steps (:func:`_forward`, :func:`_backward`,
    the update) are recorded once over step-major buffers of samples,
    targets, errors and rates that hold one block.  Each epoch refills
    those buffers in place with each successive window of its shuffled
    samples and replays the calls, a last partial window only its own
    steps.  The record holds about 18 calls per step for a 4-4-1 net,
    about 2.5 kB a step, so at most :data:`_BLOCK_STEPS` steps of it are
    kept whatever the number of samples.
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
    data = [_as_sample_arrays(samples, sizes) for samples in sample_sets]
    counts = [inputs.shape[0] for inputs, _ in data]
    width = max(counts)
    histories = [
        [_sq_total(_activations(net, inputs).outs[-1][..., 0] - outputs) / n]
        for net, (inputs, outputs), n in zip(nets, data, counts)
    ]

    params, weights, biases = _stack(nets)
    # steps[l] and scaled[l] are the steps for weights[l] and biases[l].
    step_buffer, steps, scaled = _blocks(sizes, len(nets))
    block = min(width, _BLOCK_STEPS)
    # Step-major copies of one window of every net's shuffled samples.
    xs = np.empty((block, len(nets), sizes[0], 1))
    targets = np.empty((block, len(nets), sizes[-1], 1))
    # rates[l][t] is every net's learning rate at step t of the window, in
    # the shape of layer l's output (a broadcast multiply costs twice a
    # plain one).
    rates = [np.empty((block, len(nets), s, 1)) for s in sizes[1:]]
    errors = np.empty_like(targets)  # output minus target at each step
    cols = _Columns(sizes, len(nets))
    calls = []

    def record(f, *args):
        calls.append((f, args))

    for x, target, error, rate in zip(xs, targets, errors, zip(*rates)):
        record(np.subtract, _forward(weights, biases, x, cols, record), target, error)
        _backward(weights, x, cols, error, rate, scaled, steps, record)
        record(np.subtract, params, step_buffer, params)
    calls_per_step = len(calls) // block
    rngs = [np.random.default_rng(cfg.seed) for _ in nets]
    # Divergence shows up as non-finite loss, which is detected and raised;
    # the intermediate overflow warnings carry no extra information.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            # A net whose samples ran out takes its steps on its first
            # sample (index 0) with a learning rate of zero.
            orders = [
                np.append(rng.permutation(n) if cfg.shuffle else np.arange(n),
                          np.zeros(width - n, dtype=int))
                for rng, n in zip(rngs, counts)
            ]
            totals = [0.0] * len(nets)
            for lo in range(0, width, block):
                k = min(block, width - lo)
                lives = [min(k, max(0, n - lo)) for n in counts]  # steps on own samples
                for b, ((inputs, outputs), order, live) in enumerate(zip(data, orders, lives)):
                    window = order[lo : lo + k]
                    xs[:k, b, :, 0] = inputs[window]
                    targets[:k, b, :, 0] = outputs[window]
                    for rate in rates:
                        rate[:live, b] = cfg.learning_rate
                        rate[live:k, b] = 0.0
                for f, args in calls[: k * calls_per_step]:
                    f(*args)
                totals = [_sq_total(errors[:live, b, :, 0], total)
                          for b, (live, total) in enumerate(zip(lives, totals))]
            for history, total, n in zip(histories, totals, counts):
                epoch_loss = total / n
                if not np.isfinite(epoch_loss):
                    raise DivergenceError(
                        "training loss is not finite; try a smaller learning rate"
                    )
                history.append(epoch_loss)
    return [
        replace(
            net,
            weights=[w[b].copy() for w in weights],
            biases=[bias[b, :, 0].copy() for bias in biases],
            loss_history=history,
        )
        for b, (net, history) in enumerate(zip(nets, histories))
    ]


def _predict_rows(net: FeedforwardNet, rows) -> np.ndarray:
    """:func:`predict_scaled` on each row of raw inputs, in one forward pass."""
    outputs = _activations(net, net.input_scaler.transform(rows)).outs[-1]
    return net.output_scaler.inverse(outputs[:, 0, 0])


def predict_scaled(net: FeedforwardNet, raw_inputs) -> float:
    """Scale raw inputs, run the net, unscale the scalar output."""
    return float(_predict_rows(net, [raw_inputs])[0])


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
    if window < 1:
        raise DataError("window must be a positive integer")
    nets, sample_sets, agos = [], [], []
    for x in series:
        values = as_values(x, min_len=window + 2)
        ago_values = np.cumsum(values)
        scaler = AffineScaler.from_range(ago_values)
        windows = scaler.transform(sliding_window_view(ago_values[:-1], window))
        sample_sets.append(list(zip(windows, scaler.transform(ago_values[window:]))))
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
    windows = sliding_window_view(f.ago_values[: f.n_fit - 1], f.window)
    return _predict_rows(f.net, windows) - windows[:, -1]


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


def _sub_model_inputs(gm_models, offsets, n_fit: int) -> np.ndarray:
    """Matrix of sub-model fitted values over the common time range."""
    t0 = max(offsets)
    inputs = np.empty((n_fit - t0, len(gm_models)))
    for j, (m, off) in enumerate(zip(gm_models, offsets)):
        inputs[:, j] = forecast_gm11(m, 1)[t0 - off : m.n_fit]
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
    nets, sample_sets, parts = [], [], []
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
        inputs = _sub_model_inputs(models, offsets, values.size)
        targets = values[max(offsets) :, None]
        input_scaler = AffineScaler.from_range(inputs)
        output_scaler = AffineScaler.from_range(targets)
        sample_sets.append(
            list(zip(input_scaler.transform(inputs), output_scaler.transform(targets)))
        )
        nets.append(
            init_net(
                (len(models), hidden, 1),
                seed=cfg.seed,
                input_scaler=input_scaler,
                output_scaler=output_scaler,
            )
        )
        parts.append((models, offsets, values.size))
    return [
        SgnnForecaster(net, models, offsets, n_fit)
        for net, (models, offsets, n_fit) in zip(train_bp_batch(nets, sample_sets, cfg), parts)
    ]


def sgnn_fitted(f: SgnnForecaster) -> np.ndarray:
    """In-sample combined values for t = eval_start .. n_fit."""
    return _predict_rows(f.net, _sub_model_inputs(f.gm_models, f.offsets, f.n_fit))


def sgnn_forecast(f: SgnnForecaster, horizon: int) -> np.ndarray:
    """Combine the sub-models' own forecasts at each step."""
    h = as_horizon(horizon)
    sub_forecasts = np.column_stack(
        [forecast_gm11(m, h)[m.n_fit :] for m in f.gm_models]
    )
    return _predict_rows(f.net, sub_forecasts)
