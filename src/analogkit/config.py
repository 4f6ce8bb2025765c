"""Flat key=value experiment configuration.

One config file drives one run; every command echoes the full config into
a provenance header of its outputs so results are reproducible from the
artifact alone. Time ranges are half-open ``[start, end)`` ISO-8601 UTC
pairs; the test range must be disjoint from both the search and training
ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .archive import parse_time, read_text
from .errors import ConfigError, DataError, SchemaError
from .training import TrainConfig

METHODS = ("anen_equal", "anen_weighted", "deep_anen")

# key -> (type tag, default). Dynamic `weight.<variable>` keys ride alongside.
_SCHEMA = {
    "forecast_csv": ("path", None),
    "observation_csv": ("path", None),
    "checkpoint": ("path", None),
    "method": ("str", "anen_equal"),
    "methods": ("str_list", None),
    "m": ("int", 11),
    "allow_short": ("bool", False),
    "stations": ("str_list", None),
    "train_stations": ("str_list", None),
    "leads": ("int_list", None),
    "train_leads": ("int_list", None),
    "search_start": ("time", None),
    "search_end": ("time", None),
    "train_start": ("time", None),
    "train_end": ("time", None),
    "test_start": ("time", None),
    "test_end": ("time", None),
    "search_splits": ("int_list", [1, 2, 4, 8]),
    "brier_quantile": ("float", 0.75),
    "spread_bins": ("int", 5),
    "error_intervals": ("float_list", None),
    "baseline_variable": ("str", None),
    "synth_stations": ("int", 1),
    "synth_cycles": ("int", 100),
    "synth_leads": ("int", 1),
    "synth_variables": ("int", 6),
    "synth_hidden": ("int_list", [0, 1, 2]),
    "synth_g": ("str", "product_sin"),
    "synth_sigma_noise": ("float", 0.1),
}
# Every TrainConfig field is a key of the same name and default.
_KINDS = {int: "int", float: "float", tuple: "int_list"}
_SCHEMA.update(
    (f.name, (_KINDS[type(f.default)], list(f.default) if type(f.default) is tuple else f.default))
    for f in fields(TrainConfig)
)


def _convert(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "time":
            return parse_time(raw)
        if kind == "str_list":
            return [s for s in raw.split(",") if s]
        if kind == "int_list":
            return [int(s) for s in raw.split(",") if s]
        if kind == "float_list":
            return [float(s) for s in raw.split(",") if s]
        return raw  # str, path
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from None


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)  # variable -> weight
    raw_lines: list = field(default_factory=list)  # for provenance echo

    def __getattr__(self, key):
        # dataclass fields resolve normally; everything else is a config key
        if key.startswith("_") or key in ("values", "weights", "raw_lines"):
            raise AttributeError(key)
        if key in self.values:
            return self.values[key]
        if key in _SCHEMA:
            return _SCHEMA[key][1]
        raise AttributeError(key)

    def require(self, *keys: str):
        missing = [k for k in keys if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    def train_config(self) -> TrainConfig:
        settings = {f.name: getattr(self, f.name) for f in fields(TrainConfig)}
        settings["hidden_sizes"] = tuple(settings["hidden_sizes"])
        try:
            return TrainConfig(**settings)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def provenance_lines(self) -> list[str]:
        return [f"# config.{line}" for line in self.raw_lines]


def _ranges_overlap(a_start, a_end, b_start, b_end) -> bool:
    return a_start < b_end and b_start < a_end


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate a key=value config file."""
    cfg = ExperimentConfig()
    try:
        lines = read_text(path).splitlines()
    except (DataError, SchemaError) as err:  # unreadable path or a non-UTF-8 byte
        raise ConfigError(str(err)) from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("weight."):
            variable = key[len("weight."):]
            try:
                w = float(raw)
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: bad weight {raw!r}") from None
            if not 0 <= w < math.inf:  # NaN fails too
                raise ConfigError(f"{path}: line {lineno}: weights must be finite and nonnegative")
            cfg.weights[variable] = w
        elif key in _SCHEMA:
            if key in cfg.values:
                raise ConfigError(f"{path}: line {lineno}: duplicate key {key}")
            cfg.values[key] = _convert(key, _SCHEMA[key][0], raw)
        else:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        cfg.raw_lines.append(f"{key}={raw}")
    if seed_override is not None:
        cfg.values["seed"] = seed_override
        cfg.raw_lines.append(f"seed={seed_override} (command-line override)")
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
    for key in ("stations", "train_stations", "leads", "train_leads", "methods", "search_splits"):
        items = getattr(cfg, key)
        if items is not None and (not items or len(set(items)) < len(items)):
            raise ConfigError(f"{key} must name one or more distinct entries, got {items}")
    if cfg.methods is not None:
        bad = [m for m in cfg.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; known: {METHODS}")
    if min(cfg.search_splits) < 1:
        raise ConfigError(f"search_splits must be positive integers, got {cfg.search_splits}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.t_half < 0:
        raise ConfigError("t_half must be nonnegative")
    if cfg.m < 1:
        raise ConfigError("m must be >= 1")
    if not 0 <= cfg.brier_quantile <= 1:  # NaN fails too
        raise ConfigError(f"brier_quantile must be in [0, 1], got {cfg.brier_quantile}")
    if cfg.spread_bins < 1:
        raise ConfigError(f"spread_bins must be >= 1, got {cfg.spread_bins}")
    edges = cfg.error_intervals
    if edges is not None and not (
        edges and all(map(math.isfinite, edges)) and all(a < b for a, b in zip(edges, edges[1:]))
    ):
        raise ConfigError(
            f"error_intervals must be one or more finite, strictly increasing edges, got {edges}"
        )
    if (cfg.error_intervals is None) != (cfg.baseline_variable is None):
        raise ConfigError("error_intervals and baseline_variable must be given together")
    for start_key, end_key in (
        ("search_start", "search_end"),
        ("train_start", "train_end"),
        ("test_start", "test_end"),
    ):
        start, end = getattr(cfg, start_key), getattr(cfg, end_key)
        if (start is None) != (end is None):
            raise ConfigError(f"{start_key} and {end_key} must be given together")
        if start is not None and start >= end:
            raise ConfigError(f"{start_key} must precede {end_key}")
    test = (cfg.test_start, cfg.test_end)
    if test[0] is not None:
        for other_key in ("search", "train"):
            other = (getattr(cfg, f"{other_key}_start"), getattr(cfg, f"{other_key}_end"))
            if other[0] is not None and _ranges_overlap(*test, *other):
                raise ConfigError(f"test range must be disjoint from the {other_key} range")
