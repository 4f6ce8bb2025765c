"""Experiment runner: ingest, synth, train, predict, verify, and the
search-length sensitivity experiment.

Every command takes ``--config <path>`` and ``--out <dir>`` (plus an
optional ``--seed`` override) and echoes the full config into a provenance
header of its outputs. Exit codes: 0 success, 1 config error, 2 data
error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import archive as ar
from .config import ExperimentConfig, load_config
from .ensemble import (
    AnalogQuery,
    Ranking,
    build_ensemble,
    classic_base,
    latent_base,
    search_classic,
    search_latent,
    target_distances,
)
from .errors import AnalogkitError, ConfigError, DataError, DivergenceError
from .metric import MetricConfig
from .network import ModelCheckpoint, embed_block, load_checkpoint, save_checkpoint
from .synthetic import generate, write_manifest
from .training import train, write_train_log
from .verification import (
    BRIER_QUANTILE,
    VerificationSet,
    build_report,
    error_interval_rmse,
    quantile,
    rmse as vset_rmse,
    brier as vset_brier,
)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _cycles_in(fcst: ar.ForecastArchive, start: int, end: int, name: str) -> np.ndarray:
    """Indices of cycles with start <= cycle time < end; none is a DataError."""
    cycles = np.nonzero((fcst.cycles >= start) & (fcst.cycles < end))[0]
    if cycles.size == 0:
        raise DataError(f"no forecast cycles inside the {name} range")
    return cycles


def _stations(fcst: ar.ForecastArchive, names: list[str] | None) -> list[str]:
    """The given station ids, or every station when None."""
    if names is None:
        return list(fcst.stations)
    for station in names:
        if station not in fcst.stations:
            raise ConfigError(f"station {station} not present in the forecast archive")
    return list(names)


def _lead_indices(fcst: ar.ForecastArchive, seconds: list[int] | None) -> list[int]:
    """Lead indices of the given lead seconds, or of every lead when None."""
    if seconds is None:
        return list(range(fcst.n_leads))
    lead_list = fcst.leads.tolist()
    for lead_s in seconds:
        if lead_s not in lead_list:
            raise ConfigError(f"lead {lead_s}s not present in the forecast archive")
    return [lead_list.index(lead_s) for lead_s in seconds]


def _effective_weights(cfg: ExperimentConfig, method: str, fcst: ar.ForecastArchive) -> np.ndarray:
    """Per-variable metric weights for a classic method.

    anen_equal gives every variable weight 1; anen_weighted takes the
    ``weight.<variable>`` config keys, with unlisted variables at 0.
    """
    if method == "anen_equal":
        return np.ones(fcst.n_variables)
    return np.array([cfg.weights.get(variable, 0.0) for variable in fcst.variables])


def _provenance(cfg: ExperimentConfig, command: str, extra: list[str] | None = None) -> list[str]:
    lines = [f"# analogkit {command}"] + cfg.provenance_lines()
    if extra:
        lines.extend(f"# {e}" for e in extra)
    return lines


def _output_dir(path) -> Path:
    """The ``--out`` directory, created with its parents if absent."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise DataError(f"{out}: cannot write: {err.strerror}") from None
    return out


def _load_archives(cfg: ExperimentConfig):
    cfg.require("forecast_csv", "observation_csv")
    fcst = ar.load_forecasts(cfg.forecast_csv)
    obs = ar.load_observations(cfg.observation_csv)
    return fcst, obs


def _prediction_targets(cfg: ExperimentConfig):
    """Archives and targets (stations, leads, test cycles) of predict and the
    experiment. A weight of a variable the archive lacks is a config error."""
    cfg.require("search_start", "search_end", "test_start", "test_end")
    fcst, obs = _load_archives(cfg)
    stations = _stations(fcst, cfg.stations)
    leads = _lead_indices(fcst, cfg.leads)
    test_cycles = _cycles_in(fcst, cfg.test_start, cfg.test_end, "test")
    for variable in cfg.weights:
        if variable not in fcst.variables:
            raise ConfigError(f"weight.{variable}: variable not in the archive")
    return fcst, obs, stations, leads, test_cycles


def _train_model(
    cfg: ExperimentConfig, fcst: ar.ForecastArchive, obs: ar.ObservationArchive, out: Path
) -> ModelCheckpoint:
    """Train over the training range and write checkpoint.txt (also on
    divergence) and train_log.csv into ``out``.

    Stations are ``train_stations``, else ``stations``, else every station.
    Leads are ``train_leads``, else ``leads``, else every lead. An edge lead
    draws nothing, but one in ``train_leads`` raises before training.
    """
    cfg.require("train_start", "train_end")
    stations = _stations(fcst, cfg.train_stations or cfg.stations)
    cycles = _cycles_in(fcst, cfg.train_start, cfg.train_end, "training")
    leads = _lead_indices(fcst, cfg.train_leads or cfg.leads)
    for lead in (leads if cfg.train_leads else []):  # with extract_window's message
        ar._require_window_fits(fcst, lead, cfg.t_half)
    path = out / "checkpoint.txt"
    model, log = train(
        fcst, obs, stations, leads, cycles, cfg.training, on_divergence_save=str(path)
    )
    save_checkpoint(model, path)
    write_train_log(log, out / "train_log.csv")
    return model


# ---------------------------------------------------------------------------
# prediction core (shared by cmd_predict and the search-length experiment)
# ---------------------------------------------------------------------------


# a huge value's square overflows, and its score (inf or nan) ranks last, as in cmd_verify
@np.errstate(over="ignore", invalid="ignore")
def run_predictions(
    cfg: ExperimentConfig,
    method: str,
    fcst: ar.ForecastArchive,
    obs: ar.ObservationArchive,
    stations: list[str],
    leads: list[int],
    search_ranges: list[np.ndarray],
    test_cycles: np.ndarray,
    model: ModelCheckpoint | None,
) -> tuple[list[list[tuple[str, int, int, Ranking]]], list[tuple[str, int, int, str]]]:
    """Ensembles of ``method`` for every (station, test cycle, lead) with a
    target window, ranked against each range of ``search_ranges``;
    ``model`` is used by deep_anen only.

    Iteration order is fixed (stations as given, leads ascending, cycles
    ascending), so output is deterministic. Each (station, lead) embeds its
    cycles once, over every range and the test cycles, and builds one search
    base over the union of the ranges. Each target is scored against that
    base once, by :func:`~analogkit.ensemble.target_distances`; every range
    then ranks from those distances, classic ranges weighted by their own
    climatology σ. Returns each range's (station, cycle, lead, ensemble)
    tuples and the (station, cycle, lead, reason) skips of all ranges, with
    cycle and lead as archive indices. Skips come target-major:
    a target's skips in every range follow one another, and a target
    without a window or embedding is skipped in every range with one
    reason. ``predict`` passes one range, so its skipped.csv keeps the
    (station, lead, cycle) order.
    """
    t_half = model.t_half if method == "deep_anen" else cfg.t_half
    rows: list[list[tuple[str, int, int, Ranking]]] = [[] for _ in search_ranges]
    skipped: list[tuple[str, int, int, str]] = []
    targets = sorted(int(x) for x in test_cycles)
    union = ar.sorted_distinct(np.concatenate(search_ranges))
    if method == "deep_anen":
        embedded = ar.sorted_distinct(np.concatenate([union, test_cycles]))
    else:
        weights = _effective_weights(cfg, method, fcst)
    for station in stations:
        s = fcst.station_index(station)
        for lead in sorted(leads):
            if method == "deep_anen":
                block = embed_block(model, fcst, s, lead, embedded)
                base = latent_base(block, obs, union)
                searches = [partial(search_latent, embeddings=block, obs=obs)] * len(search_ranges)
            else:
                base = classic_base(fcst, obs, s, lead, union, t_half)
                searches = [
                    partial(search_classic, fcst=fcst, obs=obs, cfg=MetricConfig(
                        weights=weights, sigma=ar.climatology_stats(
                            fcst, s, lead, search_cycles).sigma, t_half=t_half))
                    for search_cycles in search_ranges
                ]
            range_bases = [base.subrange(search_cycles) for search_cycles in search_ranges]
            for c in targets:
                try:
                    distances = target_distances(base, fcst, c)
                except DataError as err:  # includes WindowUnavailable
                    skipped.extend([(station, c, lead, str(err))] * len(search_ranges))
                    continue
                for range_rows, range_base, search in zip(rows, range_bases, searches):
                    query = AnalogQuery(
                        station=s,
                        target_cycle=c,
                        lead=lead,
                        t_half=t_half,
                        search_cycles=range_base.search_cycles,
                        m=cfg.m,
                    )
                    try:
                        ranked = search(query, limit=cfg.m, base=range_base, distances=distances)
                        ensemble = build_ensemble(ranked, query)
                    except DataError as err:  # includes InsufficientAnalogs
                        skipped.append((station, c, lead, str(err)))
                        continue
                    range_rows.append((station, c, lead, ensemble))
    return rows, skipped


def write_predictions(
    rows: list[tuple[str, int, int, Ranking]],
    fcst: ar.ForecastArchive,
    cycle_times: list[str],
    path,
    header_lines: list[str],
) -> None:
    """Write the members of the (station, cycle, lead, ensemble) ``rows``;
    ``cycle_times`` holds the formatted time of every archive cycle. A
    station the CSV would not load back is refused (see
    :func:`analogkit.archive.require_writable`)."""
    ar.require_writable(dict.fromkeys(station for station, *_ in rows))
    leads = fcst.leads.tolist()
    with ar.open_output(path) as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(ar.PREDICTION_HEADER) + "\n")
        ar.write_rows(fh, (
            (
                f"{station},{cycle_times[cycle]},{leads[lead]},".replace("%", "%%"),
                [f"{rank},%.17g,{cycle_times[c]},%.17g\n"
                 for rank, c in enumerate(ens.cycles.tolist(), start=1)],
                np.column_stack((ens.members, ens.scores)).ravel().tolist(),
            )
            for station, cycle, lead, ens in rows
        ))


class Pairing(NamedTuple):
    """Verification pairs plus what was left out of them."""

    vset: VerificationSet
    keys: list  # (station, cycle seconds, lead_s) of each pair
    excluded_short: int  # ensembles with fewer members than the longest
    excluded_missing_obs: int  # unknown station or missing observation


def pair_targets(targets, obs: ar.ObservationArchive) -> Pairing:
    """Pair each target's members with the observation at its valid time.

    ``targets`` is a list of ((station, cycle seconds, lead_s), members).
    Ensembles shorter than the longest, which only a predictions file
    written elsewhere holds, are excluded, because the set needs one member
    count, as are targets without an observation. The observations are
    looked up once per station, over its valid times.
    """
    full_m = max((len(members) for _, members in targets), default=0)
    full = [(key, members) for key, members in targets if len(members) == full_m]
    # an int64 sum beyond the range wraps to a time before year 1 or after
    # 9999, where no observation is
    cycles, leads = np.array([key[1:] for key, _ in full], dtype=np.int64).reshape(-1, 2).T
    valid_times = cycles + leads
    rows_of: dict[str, list[int]] = {}
    for i, ((station, _, _), _) in enumerate(full):
        rows_of.setdefault(station, []).append(i)
    y = np.empty(len(full))
    for station, rows in rows_of.items():
        y[rows] = obs.values_for(station, valid_times[rows])
    paired = np.isfinite(y)
    keys = [key for (key, _), ok in zip(full, paired) if ok]
    if not keys:
        raise DataError("no verifiable prediction/observation pairs")
    vset = VerificationSet(
        members=np.array([members for (_, members), ok in zip(full, paired) if ok]),
        observations=y[paired],
        lead_s=np.array([lead_s for _, _, lead_s in keys], dtype=np.int64),
    )
    return Pairing(vset, keys, len(targets) - len(full), int(np.count_nonzero(~paired)))


def pairs_from_rows(
    rows: list[tuple], fcst: ar.ForecastArchive, obs: ar.ObservationArchive
) -> Pairing:
    """Verification pairs for in-memory (station, cycle, lead, ensemble) rows."""
    cycles, leads = fcst.cycles.tolist(), fcst.leads.tolist()
    return pair_targets(
        [((s, cycles[c], leads[lead]), ens.members) for s, c, lead, ens in rows], obs
    )


def _brier_threshold(cfg: ExperimentConfig, obs: ar.ObservationArchive) -> float:
    """The one Brier event threshold, of ``verify`` and the experiment alike:
    the ``BRIER_QUANTILE`` (linear interpolation) of the observations of
    ``stations``, else of every station of ``obs``, over the test range when
    one is set, whichever targets were predicted or skipped."""
    times = obs.times
    if cfg.test_start is not None:
        times = times[(times >= cfg.test_start) & (times < cfg.test_end)]
    stations = cfg.stations or obs.stations
    pooled = np.concatenate([np.empty(0)] + [obs.values_for(s, times) for s in stations])
    pooled = pooled[np.isfinite(pooled)]
    if pooled.size == 0:
        raise DataError("no observations available to compute the Brier threshold")
    return quantile(pooled, BRIER_QUANTILE)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: ExperimentConfig, out: Path) -> int:
    fcst, obs = _load_archives(cfg)
    n_missing_fcst = int(np.isnan(fcst.values).sum())
    n_missing_obs = int(np.isnan(obs.values).sum())
    with ar.open_output(out / "ingest_summary.txt") as fh:
        for line in _provenance(cfg, "ingest"):
            fh.write(line + "\n")
        fh.write(f"stations={len(fcst.stations)}\n")
        fh.write(f"variables={len(fcst.variables)}\n")
        fh.write(f"cycles={fcst.n_cycles}\n")
        fh.write(f"leads={fcst.n_leads}\n")
        fh.write(f"first_cycle={ar.format_time(int(fcst.cycles[0]))}\n")
        fh.write(f"last_cycle={ar.format_time(int(fcst.cycles[-1]))}\n")
        fh.write(f"forecast_cells_missing={n_missing_fcst}\n")
        fh.write(f"observation_times={len(obs.times)}\n")
        fh.write(f"observation_cells_missing={n_missing_obs}\n")
    return 0


def cmd_synth(cfg: ExperimentConfig, out: Path) -> int:
    try:  # noise that overflows in the draws
        fcst, obs, manifest = generate(cfg.synth)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    ar.write_forecasts(fcst, out / "forecasts.csv")
    ar.write_observations(obs, out / "observations.csv")
    write_manifest(manifest, out / "manifest.txt")
    return 0


def cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    cfg.require("train_start", "train_end")
    fcst, obs = _load_archives(cfg)
    _train_model(cfg, fcst, obs, out)
    return 0


def cmd_predict(cfg: ExperimentConfig, out: Path) -> int:
    fcst, obs, stations, leads, test_cycles = _prediction_targets(cfg)
    search_cycles = _cycles_in(fcst, cfg.search_start, cfg.search_end, "search")
    model = None
    extra = []
    if cfg.method == "deep_anen":
        cfg.require("checkpoint")
        model = load_checkpoint(cfg.checkpoint)
    else:
        weights = _effective_weights(cfg, cfg.method, fcst)
        extra = [
            f"effective_weight.{v}={ar.format_float(w)}"
            for v, w in zip(fcst.variables, weights)
        ]
    (rows,), skipped = run_predictions(
        cfg, cfg.method, fcst, obs, stations, leads, [search_cycles], test_cycles, model
    )
    cycle_times = ar.format_times(fcst.cycles)
    write_predictions(
        rows, fcst, cycle_times, out / "predictions.csv", _provenance(cfg, "predict", extra)
    )
    lead_s = fcst.leads.tolist()
    with ar.open_output(out / "skipped.csv") as fh:
        fh.write("station,cycle_time,lead_s,reason\n")
        for station, cycle, lead, reason in skipped:
            fh.write(
                f"{station},{cycle_times[cycle]},{lead_s[lead]},{reason.replace(',', ';')}\n"
            )
    if not rows:
        raise DataError("all prediction targets failed; see skipped.csv")
    return 0


# the name cmd_verify calls, so that bench/tracer.py can time it as cli.read_predictions
read_predictions = ar.load_predictions


# scores of huge values overflow, and are written as computed (inf or nan)
@np.errstate(over="ignore", invalid="ignore")
def cmd_verify(cfg: ExperimentConfig, out: Path, predictions_path=None) -> int:
    fcst = None
    if cfg.error_intervals is not None:
        cfg.require("forecast_csv")
        # the baseline's records alone: a fault in another variable's is not verify's to name
        fcst = ar.load_forecasts(cfg.forecast_csv, cfg.baseline_variable)
        if cfg.baseline_variable not in fcst.variables:
            raise ConfigError(f"baseline_variable {cfg.baseline_variable} not in the archive")
    cfg.require("observation_csv")
    obs = ar.load_observations(cfg.observation_csv)
    groups = read_predictions(out / "predictions.csv" if predictions_path is None
                              else predictions_path)
    vset, accepted, excluded_short, excluded_missing_obs = pair_targets(groups, obs)
    threshold = _brier_threshold(cfg, obs)
    report = build_report(vset, brier_threshold=threshold, seed=cfg.seed)

    extra = [
        f"brier_threshold={ar.format_float(threshold)}",
        f"pairs={report.n_pairs}",
        f"excluded_missing_obs={excluded_missing_obs}",
        f"excluded_short_ensembles={excluded_short}",
    ]
    with ar.open_output(out / "report.csv") as fh:
        for line in _provenance(cfg, "verify", extra):
            fh.write(line + "\n")
        fh.write("lead_s,metric,value,bin,lo,hi,count\n")
        fh.write(f"all,brier_threshold,{ar.format_float(threshold)},,,,\n")
        for lead in sorted(report.per_lead):
            for name, value in report.per_lead[lead].items():
                fh.write(f"{lead},{name},{ar.format_float(value)},,,,\n")
        for name, value in report.aggregate.items():
            fh.write(f"all,{name},{ar.format_float(value)},,,,\n")
        for i, b in enumerate(report.spread_bins):
            fh.write(
                f"all,spread_error_rmse,{ar.format_float(b.rmse)},{i},"
                f"{ar.format_float(b.rmse_lo)},{ar.format_float(b.rmse_hi)},{b.count}\n"
            )
            fh.write(
                f"all,spread_error_mean_spread,{ar.format_float(b.mean_spread)},{i},,,{b.count}\n"
            )
        if fcst is not None:
            intervals, excluded = _baseline_intervals(cfg, fcst, vset, accepted)
            fh.write(f"all,interval_excluded,{excluded},,,,\n")
            for i, stat in enumerate(intervals):
                value = "" if stat.rmse is None else ar.format_float(stat.rmse)
                hi = "inf" if np.isinf(stat.hi) else ar.format_float(stat.hi)
                fh.write(
                    f"all,interval_rmse,{value},{i},"
                    f"{ar.format_float(stat.lo)},{hi},{stat.count}\n"
                )
    with ar.open_output(out / "rank_histogram.csv") as fh:
        fh.write("rank,count\n")
        for rank, count in enumerate(report.rank_counts, start=1):
            fh.write(f"{rank},{count}\n")
    return 0


def _baseline_intervals(
    cfg: ExperimentConfig, fcst: ar.ForecastArchive, vset: VerificationSet, keys
):
    """Group verified pairs by the baseline forecast's own error magnitude.

    ``keys`` holds the (station, cycle seconds, lead_s) of each pair in
    ``vset``, whose observations the baseline forecast is compared against.
    A pair whose station, cycle or lead the archive lacks has no baseline.
    """
    vi = fcst.variables.index(cfg.baseline_variable)
    station_index = {s: i for i, s in enumerate(fcst.stations)}
    s = np.array([station_index.get(key[0], -1) for key in keys], dtype=np.intp)
    c, has_cycle = ar.locate(fcst.cycles, np.array([key[1] for key in keys], dtype=np.int64))
    l, has_lead = ar.locate(fcst.leads, np.array([key[2] for key in keys], dtype=np.int64))
    known = (s >= 0) & has_cycle & has_lead
    baseline = np.full(vset.n_pairs, np.nan)
    baseline[known] = fcst.values[s[known], vi, c[known], l[known]] - vset.observations[known]
    return error_interval_rmse(vset, baseline, list(cfg.error_intervals))


def cmd_experiment_search_length(cfg: ExperimentConfig, out: Path) -> int:
    """Predict and verify with nested suffixes of the search range.

    Splits are fractions of the full search range anchored at its end:
    split k of max(splits) covers the most recent k/max of the range. Every
    split predicts the targets ``predict`` would; one pass per method ranks
    them against every split, so each (station, lead) is embedded once and
    each target scored once, against the largest split, with each split
    ranking from those scores. A deep model, when needed, is loaded from
    the configured checkpoint if that file exists; otherwise it is trained
    exactly as ``train`` would, writing checkpoint.txt and train_log.csv
    into the output directory.
    """
    methods = cfg.methods or [cfg.method]
    fcst, obs, stations, leads, test_cycles = _prediction_targets(cfg)
    splits = sorted(cfg.search_splits)
    threshold = _brier_threshold(cfg, obs)
    span = cfg.search_end - cfg.search_start
    starts = [cfg.search_end - span * split // splits[-1] for split in splits]
    ranges = [
        _cycles_in(fcst, start, cfg.search_end, f"split {split} search")
        for split, start in zip(splits, starts)
    ]
    # Trained last, so that a fault in the ranges above leaves no training output behind.
    model = None
    if "deep_anen" in methods:
        if cfg.checkpoint is not None and Path(cfg.checkpoint).exists():
            model = load_checkpoint(cfg.checkpoint)
        else:
            model = _train_model(cfg, fcst, obs, out)
    results = []
    for method in methods:
        split_rows, _skipped = run_predictions(
            cfg, method, fcst, obs, stations, leads, ranges, test_cycles, model
        )
        for split, start, search_cycles, rows in zip(splits, starts, ranges, split_rows):
            if not rows:
                raise DataError(f"split {split}: all prediction targets failed")
            vset = pairs_from_rows(rows, fcst, obs).vset
            with np.errstate(over="ignore", invalid="ignore"):  # as in cmd_verify
                r, b = vset_rmse(vset), vset_brier(vset, threshold)
            n_cycles = int(search_cycles.size)
            results.append((method, split, start, cfg.search_end, n_cycles, vset.n_pairs, r, b))
    with ar.open_output(out / "search_length.csv") as fh:
        for line in _provenance(
            cfg, "experiment-search-length", [f"brier_threshold={ar.format_float(threshold)}"]
        ):
            fh.write(line + "\n")
        fh.write("method,split,search_start,search_end,n_search_cycles,n_pairs,rmse,brier\n")
        for method, split, start, end, n_cycles, n_pairs, r, b in results:
            fh.write(
                f"{method},{split},{ar.format_time(start)},{ar.format_time(end)},"
                f"{n_cycles},{n_pairs},{ar.format_float(r)},{ar.format_float(b)}\n"
            )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a command-line fault as a config error: one stderr line, exit 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="analogkit",
        description="Analog ensemble forecasting with classical and learned metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "synth", "train", "predict", "verify", "experiment-search-length"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value experiment config")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        p.add_argument("--seed", default=None, help="override the config seed")
        if name == "verify":
            p.add_argument("--predictions", default=None, help="predictions CSV to verify")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --help exits 0 here
        cfg = load_config(args.config, seed_override=args.seed)
        out = _output_dir(args.out)
        if args.command == "ingest":
            return cmd_ingest(cfg, out)
        if args.command == "synth":
            return cmd_synth(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "predict":
            return cmd_predict(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out, predictions_path=args.predictions)
        return cmd_experiment_search_length(cfg, out)  # the parser admits no other command
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3
    except AnalogkitError as err:  # SchemaError, DataError and their kin
        print(f"data error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
