"""Flat key=value experiment configuration.

One config file drives one run; every command echoes the full config into
a provenance header of its outputs so results are reproducible from the
artifact alone. Time ranges are half-open ``[start, end)`` ISO-8601 UTC
pairs; the test range must be disjoint from both the search and training
ranges. Values are ints, floats, times, strings or lists of them; settings
no run varies are module constants (such as ``verification.SPREAD_BINS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .archive import parse_decimal, parse_int, parse_time, read_settings, read_text
from .errors import ConfigError, DataError, SchemaError
from .synthetic import SynthSpec
from .training import TrainConfig
from .verification import check_edges

METHODS = ("anen_equal", "anen_weighted", "deep_anen")

# key -> (type tag, default). Dynamic `weight.<variable>` keys ride alongside.
_SCHEMA = {
    "forecast_csv": ("str", None),
    "observation_csv": ("str", None),
    "checkpoint": ("str", None),
    "method": ("str", "anen_equal"),
    "methods": ("str_list", None),
    "m": ("int", 11),
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
    "error_intervals": ("float_list", None),
    "baseline_variable": ("str", None),
}
# Field name -> config key. Every TrainConfig field is a key of the same name,
# and every SynthSpec field one of these; both share `seed`. A key's default
# is its field's.
_TRAIN_KEYS = {f.name: f.name for f in fields(TrainConfig)}
_SYNTH_KEYS = {"n_stations": "synth_stations", "n_cycles": "synth_cycles",
               "n_leads": "synth_leads", "n_variables": "synth_variables", "seed": "seed",
               "hidden": "synth_hidden", "g_name": "synth_g", "sigma_noise": "synth_sigma_noise"}
_KINDS = {int: "int", float: "float", tuple: "int_list", str: "str"}
_SCHEMA.update(
    (keys[f.name], (_KINDS[type(f.default)],
                    list(f.default) if type(f.default) is tuple else f.default))
    for cls, keys in ((TrainConfig, _TRAIN_KEYS), (SynthSpec, _SYNTH_KEYS)) for f in fields(cls)
)
_PARSERS = {"int": parse_int, "float": parse_decimal, "time": parse_time, "str": str}


def _convert(key: str, kind: str, raw: str):
    try:
        if kind.endswith("_list"):  # an empty value is an empty list, an empty item an error
            items = raw.split(",") if raw else []
            if "" in items:
                raise ValueError(raw)
            return list(map(_PARSERS[kind[: -len("_list")]], items))
        return _PARSERS[kind](raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as {kind}") from None


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)  # variable -> weight
    raw_lines: list = field(default_factory=list)  # for provenance echo
    training: TrainConfig = field(default_factory=TrainConfig)  # load_config builds both
    synth: SynthSpec = field(default_factory=SynthSpec)  # from the keys, after --seed

    def __getattr__(self, key):
        # dataclass fields resolve normally; everything else is a config key
        if key.startswith("_") or key in ("values", "weights", "raw_lines", "training", "synth"):
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

    def _settings(self, keys: dict) -> dict:
        """Field name -> value of each config key in ``keys``; lists become tuples."""
        values = {name: getattr(self, key) for name, key in keys.items()}
        return {name: tuple(v) if isinstance(v, list) else v for name, v in values.items()}

    def provenance_lines(self) -> list[str]:
        return [f"# config.{line}" for line in self.raw_lines]


def load_config(path, seed_override: str | None = None) -> ExperimentConfig:
    """Parse and validate a key=value config file and the text of ``--seed``."""
    cfg = ExperimentConfig()
    try:  # an unreadable path, a non-UTF-8 byte or a malformed line
        lines = enumerate(read_text(path).splitlines(), start=1)
        settings = read_settings(path, lines, lambda k: k in _SCHEMA or k.startswith("weight."))
    except (DataError, SchemaError) as err:
        raise ConfigError(str(err)) from None
    for key, (lineno, raw) in settings.items():
        if key.startswith("weight."):
            try:
                w = parse_decimal(raw)
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: bad weight {raw!r}") from None
            if not 0 <= w < math.inf:  # NaN fails too
                raise ConfigError(f"{path}: line {lineno}: weights must be finite and nonnegative")
            cfg.weights[key[len("weight."):]] = w
        else:
            cfg.values[key] = _convert(key, _SCHEMA[key][0], raw)
        cfg.raw_lines.append(f"{key}={raw}")
    if seed_override is not None:
        cfg.values["seed"] = _convert("seed", "int", seed_override)
        cfg.raw_lines.append(f"seed={cfg.values['seed']} (command-line override)")
    _validate(cfg)
    try:  # every command checks every setting
        cfg.training = TrainConfig(**cfg._settings(_TRAIN_KEYS))
        cfg.synth = SynthSpec(**cfg._settings(_SYNTH_KEYS))
    except ValueError as err:
        raise ConfigError(str(err)) from None
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
    if "anen_weighted" in [cfg.method, *(cfg.methods or [])] and not any(cfg.weights.values()):
        raise ConfigError("anen_weighted needs at least one positive weight.<variable> key")
    if cfg.m < 1:
        raise ConfigError("m must be >= 1")
    if cfg.error_intervals is not None:
        try:
            check_edges(cfg.error_intervals)
        except ValueError as err:
            raise ConfigError(f"error_intervals: {err}") from None
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
            if other[0] is not None and test[0] < other[1] and other[0] < test[1]:
                raise ConfigError(f"test range must be disjoint from the {other_key} range")
