"""Pipeline configuration: JSON config file merged with command-line flags."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

from ..errors import ConfigError, DataError
from ..hybrid import COMBINE_SCHEMES, SCHEME_MIN_VARIANCE, SCHEMES
from ..markov import DEFAULT_BOUNDARIES
from ..neural import TrainConfig
from .docspec import MAX_COUNT

MODELS = ("gm", "dgm", "dgm_fmarkov", "ignn", "sgnn", "hybrid")
BASE_MODELS = MODELS[:-1]  # the kinds a hybrid combines
ALPHAS = (0.01, 0.05)

_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


def _integer(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum`` and at most ``maximum``;
    a bool, a fraction or a string is a config error."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be an integer of at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be an integer of at most {maximum}, got {value}")
    return int(value)


def _number(name: str, value) -> float:
    """``value`` as a float; a bool or a string is a config error."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass
class PipelineConfig:
    model: str = "gm"
    components: tuple[str, ...] = ("dgm_fmarkov", "ignn")
    state_boundaries: tuple[float, ...] = DEFAULT_BOUNDARIES
    window: int = 4
    train: TrainConfig = field(default_factory=TrainConfig)
    hybrid_scheme: str = "grey_relation"
    combine: str = "arithmetic"
    rho: float = 0.5
    alpha: float = 0.01
    horizon: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if not isinstance(self.components, (list, tuple)):
            raise ConfigError(f"components must be a list of model kinds, got {self.components!r}")
        for kind in self.components:
            if kind not in BASE_MODELS:
                raise ConfigError(f"components must name base models {BASE_MODELS}, got {kind!r}")
        self.components = tuple(self.components)
        if len(self.components) < 2 or len(set(self.components)) < len(self.components):
            raise ConfigError(
                f"components must name 2 or more distinct model kinds, got {list(self.components)}"
            )
        if not isinstance(self.state_boundaries, (list, tuple)):
            raise ConfigError(
                f"state_boundaries must be a list of numbers, got {self.state_boundaries!r}"
            )
        bounds = tuple(_number("state_boundaries", b) for b in self.state_boundaries)
        if not all(map(math.isfinite, bounds)):
            raise ConfigError(f"state_boundaries must be finite reals, got {list(bounds)}")
        if len(bounds) < 3 or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError(
                "state_boundaries must be at least 3 strictly increasing reals"
            )
        self.state_boundaries = bounds
        self.window = _integer("window", self.window, 1)
        if self.hybrid_scheme not in SCHEMES:
            raise ConfigError(
                f"hybrid_scheme must be one of {SCHEMES}, got {self.hybrid_scheme!r}"
            )
        if self.combine not in COMBINE_SCHEMES:
            raise ConfigError(
                f"combine must be one of {COMBINE_SCHEMES}, got {self.combine!r}"
            )
        if self.hybrid_scheme == SCHEME_MIN_VARIANCE and len(self.components) != 2:
            # compute_weights refuses this too, but only once every component is fitted
            raise ConfigError(
                f"min_variance weighting needs exactly 2 models, got {len(self.components)}"
            )
        self.rho = _number("rho", self.rho)
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie strictly in (0, 1), got {self.rho}")
        self.alpha = _number("alpha", self.alpha)
        if self.alpha not in ALPHAS:
            raise ConfigError(f"alpha must be one of {ALPHAS}, got {self.alpha}")
        self.horizon = _integer("horizon", self.horizon, 1, MAX_COUNT)
        self.seed = _integer("seed", self.seed, 0)

    def echo(self, command: str) -> dict:
        """Serializable snapshot for the report of ``command`` (``hybrid`` or
        ``backtest``): the fields it reads and ``train``, in field order
        (not ``dataclasses.asdict``, whose deep copy costs far more)."""
        echoed = (*READS[command], "train")
        values = ((name, getattr(self, name)) for name in _CONFIG_FIELDS if name in echoed)
        doc = {name: list(v) if isinstance(v, tuple) else v for name, v in values}
        doc["train"] = {name: getattr(self.train, name) for name in _TRAIN_DEFAULTS}
        return doc


#: PipelineConfig's field names, in order.
_CONFIG_FIELDS = tuple(f.name for f in fields(PipelineConfig))

#: The config fields each subcommand reads: it takes the flags of these
#: only, and a ``hybrid`` or ``backtest`` report echoes these and ``train``.
READS = {
    "fit": tuple(name for name in _CONFIG_FIELDS if name not in ("train", "alpha", "horizon")),
    "forecast": ("horizon",),
    "markov-test": ("state_boundaries", "alpha"),
    "hybrid": tuple(name for name in _CONFIG_FIELDS if name not in ("model", "train")),
    "backtest": tuple(name for name in _CONFIG_FIELDS if name not in ("model", "train")),
}


def _build_train(raw: dict, default_seed: int) -> TrainConfig:
    unknown = set(raw) - set(_TRAIN_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    merged = {**_TRAIN_DEFAULTS, "seed": default_seed, **raw}
    if not isinstance(merged["shuffle"], bool):
        raise ConfigError(f"train.shuffle must be true or false, got {merged['shuffle']!r}")
    try:
        return TrainConfig(
            learning_rate=_number("train.learning_rate", merged["learning_rate"]),
            epochs=_integer("train.epochs", merged["epochs"], 0),
            seed=_integer("train.seed", merged["seed"], 0),
            shuffle=merged["shuffle"],
        )
    except DataError as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc


def load_config(path: str | None, overrides: dict) -> PipelineConfig:
    """Merge a JSON config file with flag overrides; flags win on conflict."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as handle:
                raw = json.load(handle)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    train_raw = merged.pop("train", {})
    if not isinstance(train_raw, dict):
        raise ConfigError("train config must be a JSON object")
    seed = _integer("seed", merged.get("seed", 0), 0)
    if overrides.get("seed") is not None:  # the flag wins over train.seed too
        train_raw = {**train_raw, "seed": seed}
    try:
        return PipelineConfig(train=_build_train(train_raw, seed), **merged)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def parse_boundaries(text: str) -> tuple[float, ...]:
    """Parse a comma-separated boundary list from a flag value."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid boundary list {text!r}: {exc}") from exc


def parse_components(text: str) -> tuple[str, ...]:
    """Parse a comma-separated list of model kinds from a flag value."""
    return tuple(part.strip() for part in text.split(",") if part.strip())
