"""Pipeline configuration: JSON config file merged with command-line flags."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from ..errors import ConfigError, DataError
from ..hybrid import COMBINE_SCHEMES, SCHEMES
from ..markov import DEFAULT_BOUNDARIES
from ..neural import TrainConfig

MODELS = ("gm", "dgm", "dgm_fmarkov", "ignn", "sgnn", "hybrid")
ALPHAS = (0.01, 0.05)

_TRAIN_KEYS = ("learning_rate", "epochs", "seed", "shuffle")


@dataclass
class PipelineConfig:
    model: str = "gm"
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
        bounds = tuple(float(b) for b in self.state_boundaries)
        if len(bounds) < 3 or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigError(
                "state_boundaries must be at least 3 strictly increasing reals"
            )
        self.state_boundaries = bounds
        if int(self.window) < 1:
            raise ConfigError(f"window must be a positive integer, got {self.window}")
        self.window = int(self.window)
        if self.hybrid_scheme not in SCHEMES:
            raise ConfigError(
                f"hybrid_scheme must be one of {SCHEMES}, got {self.hybrid_scheme!r}"
            )
        if self.combine not in COMBINE_SCHEMES:
            raise ConfigError(
                f"combine must be one of {COMBINE_SCHEMES}, got {self.combine!r}"
            )
        if not (0.0 < float(self.rho) < 1.0):
            raise ConfigError(f"rho must lie strictly in (0, 1), got {self.rho}")
        self.rho = float(self.rho)
        if float(self.alpha) not in ALPHAS:
            raise ConfigError(f"alpha must be one of {ALPHAS}, got {self.alpha}")
        self.alpha = float(self.alpha)
        if int(self.horizon) < 1:
            raise ConfigError(f"horizon must be a positive integer, got {self.horizon}")
        self.horizon = int(self.horizon)
        self.seed = int(self.seed)

    def echo(self) -> dict:
        """Serializable snapshot for report files."""
        return {
            "model": self.model,
            "state_boundaries": list(self.state_boundaries),
            "window": self.window,
            "train": {
                "learning_rate": self.train.learning_rate,
                "epochs": self.train.epochs,
                "seed": self.train.seed,
                "shuffle": self.train.shuffle,
            },
            "hybrid_scheme": self.hybrid_scheme,
            "combine": self.combine,
            "rho": self.rho,
            "alpha": self.alpha,
            "horizon": self.horizon,
            "seed": self.seed,
        }


def _build_train(raw: dict, default_seed: int) -> TrainConfig:
    unknown = set(raw) - set(_TRAIN_KEYS)
    if unknown:
        raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
    try:
        return TrainConfig(
            learning_rate=float(raw.get("learning_rate", 0.05)),
            epochs=int(raw.get("epochs", 2000)),
            seed=int(raw.get("seed", default_seed)),
            shuffle=bool(raw.get("shuffle", True)),
        )
    except (TypeError, ValueError, DataError) as exc:
        raise ConfigError(f"invalid train config: {exc}") from exc


def load_config(path: str | None, overrides: dict) -> PipelineConfig:
    """Merge a JSON config file with flag overrides; flags win on conflict."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                raw = json.load(handle)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    train_raw = merged.pop("train", {})
    if not isinstance(train_raw, dict):
        raise ConfigError("train config must be a JSON object")
    seed = int(merged.get("seed", 0))
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
