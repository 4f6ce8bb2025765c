"""The benchmark's workloads: inputs made from a seed, the timed command
sequence run through ``analogkit.cli.main``, and the checks on its outputs.

Every workload writes its inputs into a workspace directory with configs
that name files relative to it, and the commands run with the workspace
as the working directory, so the outputs of one seed are byte-identical
wherever and however often they are produced.

Functions of the package are always looked up on their module at call
time (``synthetic.generate``), so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from analogkit import archive, network, synthetic
from analogkit.archive import format_time
from analogkit.synthetic import SynthSpec

import oracle

CLASSIC, DEEP = "anen_equal", "deep_anen"
METHODS = (CLASSIC, DEEP)

# End-to-end metrics: name -> unit. Each is defined on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ingest_rows_per_s": "rows/s",
    "classic_targets_per_s": "1/s",
    "deep_targets_per_s": "1/s",
}
# Stage throughputs that only some workloads have; printed, not gated.
STAGE_RATES = {
    "train_iters_per_s": "1/s",
    "verify_pairs_per_s": "1/s",
    "sweep_queries_per_s": "1/s",
}

SPOT_CHECKS_PER_METHOD = 24
SCORE_RTOL = 1e-9


@dataclass(frozen=True)
class Command:
    stage: str  # ingest | train | predict | verify | sweep
    method: str | None
    argv: tuple[str, ...]


@dataclass
class Inputs:
    """What setup produced, kept in memory for the checks."""

    fcst: archive.ForecastArchive
    obs: archive.ObservationArchive
    csv_rows: int  # forecast plus observation records written


def digest(root: Path, relpaths) -> str:
    h = hashlib.sha256()
    for rel in sorted(relpaths):
        path = root / rel
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def _config_text(keys: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in keys.items())


def _non_comment_lines(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


def _header_value(path: Path, key: str) -> str:
    for line in path.read_text().splitlines():
        if line.startswith(f"# {key}="):
            return line.split("=", 1)[1]
    raise KeyError(f"{path}: no '{key}=' in the provenance header")


class Workload:
    """One set of inputs and one command sequence."""

    name = ""
    why = ""
    n_stations = 1
    n_leads = 1
    n_cycles = 2200
    n_test = 200
    t_half = 0
    m = 11
    splits: tuple[int, ...] = ()  # search-length splits, for sweeps
    with_checkpoint = True  # written in setup; otherwise produced by the sequence
    checkpoint_path = "model/checkpoint.txt"
    extra_config: dict = {}

    # -- setup ---------------------------------------------------------------

    def spec(self, seed: int) -> SynthSpec:
        return SynthSpec(n_stations=self.n_stations, n_cycles=self.n_cycles,
                         n_leads=self.n_leads, n_variables=6, seed=seed)

    def config(self, method: str, cycles: np.ndarray, seed: int) -> dict:
        n_search = self.n_cycles - self.n_test
        keys = {
            "forecast_csv": "data/forecasts.csv",
            "observation_csv": "data/observations.csv",
            "method": method,
            "t_half": self.t_half,
            "m": self.m,
            "seed": seed,
            "search_start": format_time(cycles[0]),
            "search_end": format_time(cycles[n_search]),
            "test_start": format_time(cycles[n_search]),
            "test_end": format_time(cycles[-1] + 86400),
            "checkpoint": self.checkpoint_path,
        }
        keys.update(self.extra_config)
        return keys

    def setup(self, ws: Path, seed: int) -> Inputs:
        (ws / "data").mkdir(parents=True)
        fcst, obs, _ = synthetic.generate(self.spec(seed))
        archive.write_forecasts(fcst, ws / "data" / "forecasts.csv")
        archive.write_observations(obs, ws / "data" / "observations.csv")
        for method in METHODS:
            (ws / f"config_{method}.txt").write_text(
                _config_text(self.config(method, fcst.cycles, seed)))
        if self.with_checkpoint:
            (ws / "model").mkdir()
            model = network.init_model(list(fcst.variables), self.t_half, (16,), 8, seed=seed)
            network.save_checkpoint(model, ws / self.checkpoint_path)
        return Inputs(fcst, obs, fcst.values.size + obs.values.size)

    def input_files(self) -> list[str]:
        files = ["data/forecasts.csv", "data/observations.csv"]
        files += [f"config_{m}.txt" for m in METHODS]
        if self.with_checkpoint:
            files.append(self.checkpoint_path)
        return files

    # -- timed sequence ----------------------------------------------------------

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def output_files(self) -> list[str]:
        raise NotImplementedError

    # -- per-round figures --------------------------------------------------------

    def targets(self) -> int:
        """Prediction targets per predict command, predicted or skipped."""
        return self.n_stations * self.n_leads * self.n_test

    def round_metrics(self, durations: list[tuple[Command, float]], ws: Path,
                      inputs: Inputs) -> dict[str, float]:
        """End-to-end and stage figures of one round from its command times
        (setup_s and peak_rss_mb aside)."""
        time_of = Counter()
        for command, dt in durations:
            time_of[(command.stage, command.method)] += dt
        out = {"wall_s": sum(dt for _, dt in durations),
               "ingest_rows_per_s": inputs.csv_rows / time_of[("ingest", None)]}
        for method, key in ((CLASSIC, "classic_targets_per_s"), (DEEP, "deep_targets_per_s")):
            stage = "sweep" if ("sweep", method) in time_of else "predict"
            queries = self.targets() * (len(self.splits) if stage == "sweep" else 1)
            out[key] = queries / time_of[(stage, method)]
        self.stage_rates(out, time_of, ws)
        return out

    def stage_rates(self, out: dict, time_of: Counter, ws: Path) -> None:
        pass

    # -- checks -------------------------------------------------------------------

    def check(self, ws: Path, inputs: Inputs, seed: int) -> list[str]:
        """Failures found in the outputs of the last round, as messages."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared predict/verify checks
# ---------------------------------------------------------------------------


def _read_predictions(path: Path) -> dict[tuple[str, str, int], list[tuple[int, float, str, float]]]:
    groups: dict = {}
    lines = _non_comment_lines(path)
    for line in lines[1:]:
        station, cycle_time, lead_s, rank, value, source, score = line.split(",")
        groups.setdefault((station, cycle_time, int(lead_s)), []).append(
            (int(rank), float(value), source, float(score)))
    return {k: sorted(v) for k, v in groups.items()}


def skip_counts(path: Path) -> Counter:
    """Skipped targets by reason class, from a skipped.csv."""
    counts = Counter({r: 0 for r in oracle.SKIP_REASONS})
    for line in _non_comment_lines(path)[1:]:
        counts[oracle.skip_reason(line.split(",", 3)[3])] += 1
    return counts


def check_predictions(wl: Workload, ws: Path, inputs: Inputs, seed: int) -> list[str]:
    """Both methods' predict and verify outputs against the oracle."""
    orc = oracle.Oracle(inputs.fcst, inputs.obs, wl.t_half)
    failures = []
    for method in METHODS:
        failures += _check_method(wl, ws, orc, method, seed)
    return failures


def _check_method(wl: Workload, ws: Path, orc: oracle.Oracle, method: str,
                  seed: int) -> list[str]:
    """Target set, skip counts, spot-checked rankings and verified pair count."""
    fcst, out_dir = orc.fcst, f"pred_{method}"
    n_search = wl.n_cycles - wl.n_test
    search = np.arange(n_search)
    model = network.load_checkpoint(ws / wl.checkpoint_path) if method == DEEP else None
    groups = _read_predictions(ws / out_dir / "predictions.csv")
    skipped = skip_counts(ws / out_dir / "skipped.csv")
    failures = []

    expected_skips = Counter({r: 0 for r in oracle.SKIP_REASONS})
    expected_keys, rankable = set(), []
    for s in range(fcst.n_stations):
        for lead in range(fcst.n_leads):
            block = orc.block(s, lead)
            for c in range(n_search, wl.n_cycles):
                key = (fcst.stations[s], format_time(int(fcst.cycles[c])), int(fcst.leads[lead]))
                if not block.in_bounds or not block.complete[c]:
                    expected_skips[oracle.WINDOW_UNAVAILABLE] += 1
                    continue
                expected_keys.add(key)
                rankable.append((s, lead, c, key))
    if set(groups) != expected_keys:
        failures.append(f"{out_dir}: {len(groups)} targets predicted, expected {len(expected_keys)}")
    if skipped != expected_skips:
        failures.append(f"{out_dir}: skips {dict(skipped)}, expected {dict(expected_skips)}")

    rng = np.random.default_rng([seed, METHODS.index(method)])
    picks = rng.choice(len(rankable), size=min(SPOT_CHECKS_PER_METHOD, len(rankable)), replace=False)
    for i in sorted(picks):
        s, lead, c, key = rankable[i]
        want = orc.block(s, lead).rank(method, c, search, wl.m, model)
        got = groups.get(key)
        if isinstance(want, str) or got is None:
            failures.append(f"{out_dir}: target {key}: oracle {want!r}, program {got!r}")
            continue
        same = len(got) == len(want) and all(
            g[0] == k + 1
            and g[2] == format_time(int(fcst.cycles[w[0]]))
            and g[1] == w[2]
            and abs(g[3] - w[1]) <= SCORE_RTOL * max(1.0, abs(w[1]))
            for k, (g, w) in enumerate(zip(got, want)))
        if not same:
            failures.append(f"{out_dir}: target {key}: members or sources differ from the oracle")

    pairs = int(_header_value(ws / out_dir / "report.csv", "pairs"))
    if pairs != len(expected_keys):
        failures.append(f"{out_dir}: verify paired {pairs} targets, expected {len(expected_keys)}")
    return failures


def _predict_verify(method: str) -> list[Command]:
    config, out = f"config_{method}.txt", f"pred_{method}"
    return [
        Command("predict", method, ("predict", "--config", config, "--out", out)),
        Command("verify", method, ("verify", "--config", config, "--out", out)),
    ]


_PRED_OUTPUTS = ["predictions.csv", "skipped.csv", "report.csv", "rank_histogram.csv"]
_INGEST = Command("ingest", None, ("ingest", "--config", f"config_{CLASSIC}.txt", "--out", "ingest"))


def _verify_rate(out: dict, time_of: Counter, ws: Path) -> None:
    pairs = sum(int(_header_value(ws / f"pred_{m}" / "report.csv", "pairs")) for m in METHODS)
    out["verify_pairs_per_s"] = pairs / (time_of[("verify", CLASSIC)] + time_of[("verify", DEEP)])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TrainPipeline(Workload):
    name = "train_pipeline"
    why = ("the acceptance pipeline at 400 iterations: train, then predict and verify with "
           "both methods; triplet sampling and BPTT do most of the work, search little")
    # The acceptance config trains 3,000 iterations. 400 let two rounds fit
    # in one run and still separate the methods: deep/equal RMSE 0.43 to
    # 0.60 at seeds 1 to 10, against the 0.9 that criterion 5 requires.
    iterations = 400
    with_checkpoint = False
    checkpoint_path = "train/checkpoint.txt"
    extra_config = {
        "alpha": 1.0, "learning_rate": 0.005, "dropout_rate": 0.015,
        "max_iterations": iterations, "batch_size": 32, "k_pos": 11, "eval_interval": 200,
        "early_stop_patience": 1200, "hidden_sizes": 16, "embed_dim": 8,
    }

    def config(self, method, cycles, seed):
        keys = super().config(method, cycles, seed)
        return {**keys, "train_start": keys["search_start"], "train_end": keys["search_end"]}

    def commands(self):
        return [_INGEST,
                Command("train", DEEP, ("train", "--config", f"config_{DEEP}.txt", "--out", "train")),
                *_predict_verify(CLASSIC), *_predict_verify(DEEP)]

    def output_files(self):
        return (["ingest/ingest_summary.txt", "train/checkpoint.txt", "train/train_log.csv"]
                + [f"pred_{m}/{f}" for m in METHODS for f in _PRED_OUTPUTS])

    def stage_rates(self, out, time_of, ws):
        last = _non_comment_lines(ws / "train" / "train_log.csv")[-1]
        out["train_iters_per_s"] = int(last.split(",")[0]) / time_of[("train", DEEP)]
        _verify_rate(out, time_of, ws)

    def check(self, ws, inputs, seed):
        failures = check_predictions(self, ws, inputs, seed)
        last = _non_comment_lines(ws / "train" / "train_log.csv")[-1]
        if int(last.split(",")[0]) != self.iterations:
            failures.append(f"train: log ends at iteration {last.split(',')[0]}")
        eq, da = (_aggregate_scores(ws / f"pred_{m}" / "report.csv") for m in METHODS)
        print(f"criterion 5: deep/equal rmse {da['rmse'] / eq['rmse']:.4f}, "
              f"crps {da['crps'] / eq['crps']:.4f}")
        if not (da["rmse"] < 0.9 * eq["rmse"] and da["crps"] < eq["crps"]):
            failures.append(f"criterion 5: deep rmse {da['rmse']:.4f} crps {da['crps']:.4f} vs "
                            f"equal rmse {eq['rmse']:.4f} crps {eq['crps']:.4f}")
        return failures


def _aggregate_scores(path: Path) -> dict[str, float]:
    scores = {}
    for line in _non_comment_lines(path)[1:]:
        fields = line.split(",")
        if fields[0] == "all" and fields[3] == "":
            scores[fields[1]] = float(fields[2])
    return scores


class PredictWide(Workload):
    name = "predict_wide"
    why = ("inference only over many (station, lead) blocks with t_half 1: CSV parsing "
           "and search dominate, and no triplet sampling or BPTT runs")
    n_stations = 2
    n_leads = 5
    n_cycles = 660
    n_test = 60
    t_half = 1
    extra_config = {"error_intervals": "0.25,0.5,1,2", "baseline_variable": "v1"}

    def commands(self):
        return [_INGEST, *_predict_verify(CLASSIC), *_predict_verify(DEEP)]

    def output_files(self):
        return ["ingest/ingest_summary.txt"] + [f"pred_{m}/{f}" for m in METHODS for f in _PRED_OUTPUTS]

    def stage_rates(self, out, time_of, ws):
        _verify_rate(out, time_of, ws)

    def check(self, ws, inputs, seed):
        return check_predictions(self, ws, inputs, seed)


class SearchSweep(Workload):
    name = "search_sweep"
    why = ("the same targets queried against nested search ranges (250 to 2,000 cycles) "
           "in memory: shows search-length scaling and work shared across queries")
    n_leads = 2
    n_cycles = 2075
    n_test = 75
    splits = (1, 2, 4, 8)
    extra_config = {"search_splits": "1,2,4,8"}

    def config(self, method, cycles, seed):
        return {**super().config(method, cycles, seed), "methods": method}

    def commands(self):
        return [_INGEST] + [
            Command("sweep", m, ("experiment-search-length", "--config", f"config_{m}.txt",
                                 "--out", f"sweep_{m}"))
            for m in METHODS]

    def output_files(self):
        return ["ingest/ingest_summary.txt"] + [f"sweep_{m}/search_length.csv" for m in METHODS]

    def stage_rates(self, out, time_of, ws):
        queries = len(METHODS) * len(self.splits) * self.targets()
        out["sweep_queries_per_s"] = queries / (time_of[("sweep", CLASSIC)] + time_of[("sweep", DEEP)])

    def check(self, ws, inputs, seed):
        """Every (method, split) row against the brute-force ranking of every target."""
        fcst, obs = inputs.fcst, inputs.obs
        n_search = self.n_cycles - self.n_test
        test = np.arange(n_search, self.n_cycles)
        model = network.load_checkpoint(ws / self.checkpoint_path)
        orc = oracle.Oracle(fcst, obs, self.t_half)
        valid = fcst.cycles[test][:, None] + fcst.leads[None, :]
        in_test = (obs.times >= fcst.cycles[n_search]) & (obs.times < fcst.cycles[-1] + 86400)
        threshold = float(np.quantile(obs.values[0][in_test & np.isfinite(obs.values[0])], 0.75))
        failures = []
        for method in METHODS:
            rows = {int(l.split(",")[1]): l.split(",")
                    for l in _non_comment_lines(ws / f"sweep_{method}" / "search_length.csv")[1:]}
            for split in self.splits:
                start = n_search - n_search * split // max(self.splits)
                search = np.arange(start, n_search)
                members, observed = [], []
                for lead in range(fcst.n_leads):
                    block = orc.block(0, lead)
                    for c in test:
                        ranked = block.rank(method, int(c), search, self.m, model)
                        if isinstance(ranked, str):
                            failures.append(f"sweep {method} split {split}: target {c} {ranked}")
                            continue
                        members.append([w[2] for w in ranked])
                        observed.append(obs.values[0][np.searchsorted(obs.times, valid[c - n_search, lead])])
                members, observed = np.array(members), np.array(observed)
                err = members.mean(axis=1) - observed
                want_rmse = float(np.sqrt(np.mean(err * err)))
                want_brier = float(np.mean(
                    (np.mean(members > threshold, axis=1) - (observed > threshold)) ** 2))
                row = rows.get(split)
                ok = (row is not None
                      and int(row[4]) == search.size
                      and int(row[5]) == len(observed)
                      and abs(float(row[6]) - want_rmse) <= SCORE_RTOL * want_rmse
                      and abs(float(row[7]) - want_brier) <= 1e-12)
                if not ok:
                    failures.append(f"sweep {method} split {split}: {row} differs from the "
                                    f"oracle (n_search {search.size}, pairs {len(observed)}, "
                                    f"rmse {want_rmse!r}, brier {want_brier!r})")
        return failures


WORKLOADS = {w.name: w for w in (TrainPipeline(), PredictWide(), SearchSweep())}
