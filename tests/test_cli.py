import ast
import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from analogkit.archive import format_times
from analogkit.cli import main
from analogkit.config import load_config
from analogkit.training import TrainConfig

BASE_CONFIG = """
forecast_csv={d}/data/forecasts.csv
observation_csv={d}/data/observations.csv
method={method}
t_half=0
m=5
seed=7
synth_cycles=120
synth_variables=3
synth_hidden=0
synth_g=linear
synth_sigma_noise=0.05
search_start=2011-01-01T00:00:00Z
search_end=2011-04-11T00:00:00Z
train_start=2011-01-01T00:00:00Z
train_end=2011-04-11T00:00:00Z
test_start=2011-04-11T00:00:00Z
test_end=2011-05-01T00:00:00Z
alpha=1.0
k_pos=3
batch_size=8
max_iterations=40
eval_interval=20
early_stop_patience=40
hidden_sizes=8
embed_dim=4
dropout_rate=0.0
checkpoint={d}/train/checkpoint.txt
"""


def write_config(tmp_path, method="anen_equal", extra="", drop=()):
    lines = [
        l for l in BASE_CONFIG.format(d=tmp_path, method=method).strip().splitlines()
        if l and not any(l.startswith(f"{k}=") for k in drop)
    ]
    path = tmp_path / f"config_{method}.txt"
    path.write_text("\n".join(lines) + "\n" + extra)
    return path


@pytest.fixture
def pipeline(tmp_path):
    """Synthetic dataset generated through the CLI, ready for train/predict."""
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
    return tmp_path


class TestSynthAndIngest:
    def test_synth_writes_dataset(self, pipeline):
        d = pipeline / "data"
        assert (d / "forecasts.csv").exists()
        assert (d / "observations.csv").exists()
        assert "hidden_variables=v1" in (d / "manifest.txt").read_text()

    def test_ingest_summary(self, pipeline):
        cfg = write_config(pipeline)
        out = pipeline / "ingest"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "ingest_summary.txt").read_text()
        assert "cycles=120" in text
        assert "variables=3" in text
        assert "forecast_cells_missing=0" in text

    def test_ingest_of_shuffled_gapped_archive(self, pipeline, capsys):
        """Shuffled records with every 7th value emptied ingest to the same
        summary, with exactly the emptied cells more missing."""
        gapped, emptied = pipeline / "gapped", {}
        gapped.mkdir()
        for name in ("forecasts.csv", "observations.csv"):
            header, *rows = (pipeline / "data" / name).read_text().splitlines()
            random.Random(0).shuffle(rows)
            emptied[name] = sum(not row.endswith(",") for row in rows[::7])
            rows[::7] = [row.rsplit(",", 1)[0] + "," for row in rows[::7]]
            (gapped / name).write_text("\n".join([header, *rows]) + "\n")

        def summary(data, out):
            extra = f"forecast_csv={data}/forecasts.csv\nobservation_csv={data}/observations.csv\n"
            cfg = write_config(pipeline, extra=extra, drop=("forecast_csv", "observation_csv"))
            assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
            lines = (out / "ingest_summary.txt").read_text().splitlines()
            return dict(line.split("=", 1) for line in lines if not line.startswith("#"))

        want = summary(pipeline / "data", pipeline / "ingest_sorted")
        got = summary(gapped, pipeline / "ingest_gapped")
        assert capsys.readouterr().err == ""
        assert emptied["forecasts.csv"] > 0 and emptied["observations.csv"] > 0
        for key, name in (("forecast_cells_missing", "forecasts.csv"),
                          ("observation_cells_missing", "observations.csv")):
            assert int(got.pop(key)) == int(want.pop(key)) + emptied[name]
        assert got == want


class TestConfigValidation:
    def test_overlapping_test_and_training_ranges_exit_1(self, pipeline):
        cfg = write_config(pipeline, extra="", drop=("test_start",))
        cfg.write_text(cfg.read_text() + "test_start=2011-04-01T00:00:00Z\n")
        assert main(["train", "--config", str(cfg), "--out", str(pipeline / "t")]) == 1

    def test_unknown_key_exit_1(self, pipeline):
        cfg = pipeline / "bad.txt"
        cfg.write_text("not_a_real_key=1\n")
        assert main(["train", "--config", str(cfg), "--out", str(pipeline / "t")]) == 1

    def test_unknown_method_exit_1(self, pipeline):
        cfg = pipeline / "bad.txt"
        cfg.write_text("method=magic\n")
        assert main(["predict", "--config", str(cfg), "--out", str(pipeline / "t")]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 2

    @pytest.mark.parametrize("name", ["_private", "no_such_key", "allow_short"])
    def test_attribute_of_no_key(self, tmp_path, name):
        """A private name or one outside the schema is no config value."""
        cfg = tmp_path / "config.txt"
        cfg.write_text("m=3\n")
        with pytest.raises(AttributeError, match=name):
            getattr(load_config(cfg), name)

    def test_no_training_keys_give_the_train_config_defaults(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("m=3\n")
        assert load_config(cfg).training == TrainConfig()

    def test_every_training_key_reaches_train_config(self, tmp_path):
        """A non-default value for each TrainConfig field, written as a config key."""
        settings = {}
        for f in fields(TrainConfig):
            if isinstance(f.default, tuple):
                settings[f.name] = (7, 5)
            elif isinstance(f.default, float):
                settings[f.name] = f.default / 2
            else:
                settings[f.name] = f.default + 1
        cfg = tmp_path / "config.txt"
        cfg.write_text("".join(
            f"{name}={','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
            for name, v in settings.items()
        ))
        got = load_config(cfg).training
        assert got == TrainConfig(**settings)
        assert all(getattr(got, name) != getattr(TrainConfig(), name) for name in settings)

    def test_readme_config_example_loads(self, tmp_path):
        """The README's ini block is a config that loads as written."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        cfg = tmp_path / "config.txt"
        cfg.write_text(block)
        got = load_config(cfg)
        assert (got.method, got.t_half, got.m, got.weights) == ("deep_anen", 1, 11, {"ghi": 1.0})
        assert got.checkpoint == "run/checkpoint.txt" and got.hidden_sizes == [20, 20, 20]


class TestTrain:
    def test_train_writes_checkpoint_and_log(self, pipeline):
        cfg = write_config(pipeline)
        out = pipeline / "train"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "checkpoint.txt").exists()
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "iteration,train_loss,val_loss"
        assert len(log) >= 2

    def test_same_seed_identical_checkpoint_bytes(self, pipeline):
        cfg = write_config(pipeline)
        outs = []
        for name in ("t1", "t2"):
            out = pipeline / name
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "checkpoint.txt").read_bytes())
        assert outs[0] == outs[1]


class TestPredict:
    def test_equal_weight_predictions(self, pipeline):
        cfg = write_config(pipeline)
        out = pipeline / "pred"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        header_lines = [l for l in lines if l.startswith("#")]
        # equal-weight mode: every variable's effective weight echoed as 1
        for v in ("v1", "v2", "v3"):
            assert any(l == f"# effective_weight.{v}=1" for l in header_lines)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score"
        # 20 test cycles x 5 members
        assert len(data) - 1 == 20 * 5

    def test_weighted_predictions_ignore_zero_weight_variables(self, pipeline):
        """Under anen_weighted an unlisted variable has weight 0: replacing its
        forecast values with other finite values leaves every prediction row as it was."""
        def predict(cfg, out):
            assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
            return (out / "predictions.csv").read_text().splitlines()

        lines = predict(write_config(pipeline, method="anen_weighted", extra="weight.v1=1\n"),
                        pipeline / "pred")
        for v, w in (("v1", 1), ("v2", 0), ("v3", 0)):
            assert f"# effective_weight.{v}={w}" in lines
        records = (pipeline / "data" / "forecasts.csv").read_text().splitlines()
        for i, record in enumerate(records[1:], 1):
            station, variable, cycle, lead, value = record.split(",")
            if variable != "v1" and value:
                value = format(1.25 - 3 * float(value), ".17g")
                records[i] = ",".join((station, variable, cycle, lead, value))
        assert records != (pipeline / "data" / "forecasts.csv").read_text().splitlines()
        (pipeline / "other.csv").write_text("\n".join(records) + "\n")
        cfg = write_config(pipeline, method="anen_weighted", drop=("forecast_csv",),
                           extra=f"forecast_csv={pipeline}/other.csv\nweight.v1=1\n")
        other = predict(cfg, pipeline / "other")
        assert [l for l in other if l[0] != "#"] == [l for l in lines if l[0] != "#"]

    def test_test_period_hygiene(self, pipeline):
        """No test-period cycle may appear as a search candidate."""
        cfg = write_config(pipeline)
        out = pipeline / "pred"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        parsed = load_config(cfg)
        for line in (out / "predictions.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("station,"):
                continue
            src = line.split(",")[5]
            from analogkit.archive import parse_time

            t = parse_time(src)
            assert parsed.search_start <= t < parsed.search_end
            assert not (parsed.test_start <= t < parsed.test_end)

    def test_deep_anen_without_checkpoint_fails(self, pipeline):
        cfg = write_config(pipeline, method="deep_anen")
        out = pipeline / "pred_deep"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 2

    def test_deep_anen_roundtrip(self, pipeline):
        cfg = write_config(pipeline, method="deep_anen")
        assert main(["train", "--config", str(cfg), "--out", str(pipeline / "train")]) == 0
        out = pipeline / "pred_deep"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        data = [
            l for l in (out / "predictions.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(data) - 1 == 20 * 5

    def test_duplicate_target_with_m1(self, tmp_path):
        """A search cycle duplicating the target forecast supplies the member."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        rows = ["station,variable,cycle_time,lead_s,value"]
        # 5 search cycles 01-01 .. 01-05 and one test cycle 01-10
        values = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 7.75, 10: 7.75}
        for day, v in values.items():
            rows.append(f"PSU,ghi,2011-01-{day:02d}T00:00:00Z,0,{v}")
        (data_dir / "forecasts.csv").write_text("\n".join(rows) + "\n")
        obs_rows = ["station,valid_time,value"]
        for day, v in values.items():
            obs_rows.append(f"PSU,2011-01-{day:02d}T00:00:00Z,{100.0 + day}")
        (data_dir / "observations.csv").write_text("\n".join(obs_rows) + "\n")
        cfg = tmp_path / "config.txt"
        cfg.write_text(
            f"forecast_csv={data_dir}/forecasts.csv\n"
            f"observation_csv={data_dir}/observations.csv\n"
            "method=anen_equal\nt_half=0\nm=1\n"
            "search_start=2011-01-01T00:00:00Z\nsearch_end=2011-01-06T00:00:00Z\n"
            "test_start=2011-01-10T00:00:00Z\ntest_end=2011-01-11T00:00:00Z\n"
        )
        out = tmp_path / "out"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        data = [
            l for l in (out / "predictions.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(data) == 2
        fields = data[1].split(",")
        assert fields[5] == "2011-01-05T00:00:00Z"  # the duplicate cycle
        assert float(fields[4]) == 105.0  # its observation
        assert float(fields[6]) == 0.0  # perfect match

    def test_all_targets_failing_is_nonzero_exit(self, pipeline):
        cfg = write_config(pipeline, extra="m=200\n", drop=("m",))
        out = pipeline / "pred_fail"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 2
        skipped = (out / "skipped.csv").read_text().splitlines()
        assert len(skipped) - 1 == 20
        assert "insufficient analogs" in skipped[1]

    def test_overflowing_square_ranks_last_without_a_warning(self, tmp_path):
        """A v1 forecast of 1e160 at cycle 10 overflows its squared
        difference and v1's σ: its score is NaN, it ranks last, and neither
        predict nor the search-length experiment warns."""
        cfg = write_config(
            tmp_path,
            drop=("synth_cycles", "search_start", "search_end", "train_start", "train_end",
                  "test_start", "test_end"),
            extra="synth_cycles=60\nsearch_splits=1,2\n"
            "search_start=2011-01-01T00:00:00Z\nsearch_end=2011-02-15T00:00:00Z\n"
            "test_start=2011-02-15T00:00:00Z\ntest_end=2011-03-02T00:00:00Z\n",
        )
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        path = tmp_path / "data" / "forecasts.csv"
        huge = "2011-01-11T00:00:00Z"  # cycle 10
        records = [re.sub(rf"^(\w+,v1,{huge},\w+,).*", r"\g<1>1e160", record)
                   for record in path.read_text().splitlines()]
        assert sum(record.endswith(",1e160") for record in records) == 1
        path.write_text("\n".join(records) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for command in ("predict", "experiment-search-length"):
                assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "predict" / "predictions.csv").read_text().splitlines()
                if line[0] != "#"][1:]
        assert len(rows) == 15 * 5
        assert huge not in {row[5] for row in rows}


class TestVerify:
    def _write_predictions(self, path, rows):
        header = "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score"
        path.write_text("\n".join([header] + rows) + "\n")

    def test_perfect_means_give_zero_bias_and_rmse(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        obs_rows = ["station,valid_time,value"]
        pred_rows = []
        for day in (1, 2, 3):
            obs_rows.append(f"PSU,2011-01-{day:02d}T00:00:00Z,10.0")
            for rank, member in ((1, 9.0), (2, 11.0)):
                pred_rows.append(
                    f"PSU,2011-01-{day:02d}T00:00:00Z,0,{rank},{member},"
                    "2010-01-01T00:00:00Z,0.5"
                )
        (data_dir / "observations.csv").write_text("\n".join(obs_rows) + "\n")
        pred = tmp_path / "predictions.csv"
        self._write_predictions(pred, pred_rows)
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={data_dir}/observations.csv\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--predictions", str(pred)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        rows = [l.split(",") for l in report if not l.startswith("#")]
        by_metric = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert float(by_metric[("all", "bias")]) == 0.0
        assert float(by_metric[("all", "rmse")]) == 0.0
        assert ("all", "brier_threshold") in by_metric
        hist = (out / "rank_histogram.csv").read_text().splitlines()
        assert hist[0] == "rank,count"
        assert len(hist) == 1 + 3  # m+1 ranks for m=2

    def test_brier_threshold_is_the_observed_quantile(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        obs_rows = ["station,valid_time,value"]
        pred_rows = []
        for day in range(1, 10):
            obs_rows.append(f"PSU,2011-01-{day:02d}T00:00:00Z,{float(day)}")
            pred_rows.append(
                f"PSU,2011-01-{day:02d}T00:00:00Z,0,1,{float(day)},2010-01-01T00:00:00Z,0.1"
            )
        (data_dir / "observations.csv").write_text("\n".join(obs_rows) + "\n")
        pred = tmp_path / "predictions.csv"
        self._write_predictions(pred, pred_rows)
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={data_dir}/observations.csv\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--predictions", str(pred)]) == 0
        text = (out / "report.csv").read_text()
        from analogkit.archive import format_float

        want = float(np.quantile(np.arange(1.0, 10.0), 0.75))
        assert f"# brier_threshold={format_float(want)}" in text

    def test_missing_obs_excluded_and_counted(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        obs_rows = ["station,valid_time,value", "PSU,2011-01-01T00:00:00Z,5.0",
                    "PSU,2011-01-02T00:00:00Z,"]
        pred_rows = [
            "PSU,2011-01-01T00:00:00Z,0,1,5.0,2010-01-01T00:00:00Z,0.1",
            "PSU,2011-01-02T00:00:00Z,0,1,6.0,2010-01-01T00:00:00Z,0.1",  # obs missing
            "PSU,2011-01-03T00:00:00Z,0,1,7.0,2010-01-01T00:00:00Z,0.1",  # obs absent
            "XYZ,2011-01-01T00:00:00Z,0,1,5.0,2010-01-01T00:00:00Z,0.1",  # station absent
            # valid time beyond int64
            "PSU,2011-01-01T00:00:00Z,9223372036854775807,1,5.0,2010-01-01T00:00:00Z,0.1",
        ]
        (data_dir / "observations.csv").write_text("\n".join(obs_rows) + "\n")
        pred = tmp_path / "predictions.csv"
        self._write_predictions(pred, pred_rows)
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={data_dir}/observations.csv\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--predictions", str(pred)]) == 0
        text = (out / "report.csv").read_text()
        assert "# excluded_missing_obs=4" in text
        assert "# pairs=1" in text

    def test_short_ensemble_excluded_and_counted(self, tmp_path):
        """Only a predictions file written elsewhere can hold an ensemble
        shorter than its longest; verify leaves it out and counts it."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "observations.csv").write_text(
            "station,valid_time,value\nPSU,2011-01-01T00:00:00Z,5.0\n"
            "PSU,2011-01-02T00:00:00Z,6.0\n")
        pred = tmp_path / "predictions.csv"
        self._write_predictions(pred, [
            f"PSU,2011-01-0{day}T00:00:00Z,0,{rank},{value},2010-01-01T00:00:00Z,0.1"
            for day, rank, value in [(1, 1, 4.0), (1, 2, 5.0), (1, 3, 6.0), (2, 1, 6.0), (2, 2, 7.0)]
        ])
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={data_dir}/observations.csv\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out),
                     "--predictions", str(pred)]) == 0
        text = (out / "report.csv").read_text()
        assert "# excluded_short_ensembles=1" in text
        assert "# pairs=1" in text

    def test_verify_and_the_experiment_share_one_brier_threshold(self, tmp_path):
        """The Brier event does not depend on which targets were skipped:
        with every test target of S01 skipped, verify of predict's output and
        the experiment still pool the test-range observations of both
        stations."""
        from analogkit import archive as ar

        cfg = tmp_path / "config.txt"
        cfg.write_text(
            f"forecast_csv={tmp_path}/data/forecasts.csv\n"
            f"observation_csv={tmp_path}/data/observations.csv\n"
            "t_half=0\nm=5\nseed=4\nsynth_stations=2\nsynth_cycles=140\nsynth_variables=3\n"
            "synth_g=linear\nsearch_splits=1\n"
            "search_start=2011-01-01T00:00:00Z\nsearch_end=2011-05-01T00:00:00Z\n"
            "test_start=2011-05-01T00:00:00Z\ntest_end=2011-05-21T00:00:00Z\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        forecasts = tmp_path / "data" / "forecasts.csv"
        header, *rows = forecasts.read_text().splitlines()
        # no S01 forecast over the test range (cycles 120-139), so its targets all skip
        rows = [row.rsplit(",", 1)[0] + "," if row.startswith("S01,")
                and row.split(",")[2] >= "2011-05-01" else row for row in rows]
        forecasts.write_text("\n".join([header, *rows]) + "\n")
        pred, exp = tmp_path / "pred", tmp_path / "exp"
        assert main(["predict", "--config", str(cfg), "--out", str(pred)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(pred)]) == 0
        assert main(["experiment-search-length", "--config", str(cfg), "--out", str(exp)]) == 0
        skipped = (pred / "skipped.csv").read_text().splitlines()[1:]
        assert len(skipped) == 20 and all(line.startswith("S01,") for line in skipped)

        def threshold(path):
            lines = path.read_text().splitlines()
            return next(line for line in lines if line.startswith("# brier_threshold="))

        obs = ar.load_observations(tmp_path / "data" / "observations.csv")
        in_test = (obs.times >= ar.parse_time("2011-05-01T00:00:00Z")) & (
            obs.times < ar.parse_time("2011-05-21T00:00:00Z"))
        want = float(np.quantile(obs.values[:, in_test], 0.75))
        assert threshold(pred / "report.csv") == f"# brier_threshold={ar.format_float(want)}"
        assert threshold(exp / "search_length.csv") == threshold(pred / "report.csv")

    def test_targets_in_order_of_first_appearance(self, tmp_path):
        """The pair order feeds the rank-histogram tie draws and the spread
        bootstrap, so report bytes depend on it; members go by rank."""
        from analogkit.archive import parse_time
        from analogkit.cli import read_predictions

        pred = tmp_path / "predictions.csv"
        self._write_predictions(pred, [
            f"{station},2011-01-0{day}T00:00:00Z,{lead},{rank},{value},2010-01-01T00:00:00Z,0.1"
            for station, day, lead, rank, value in [
                ("PSU", 2, 3600, 2, 7.0), ("ABC", 1, 0, 1, 1.0), ("PSU", 2, 3600, 1, 6.0),
                ("ABC", 1, 0, 2, 2.0), ("PSU", 1, 3600, 1, 5.0), ("PSU", 1, 3600, 2, 4.0),
            ]
        ])
        day1, day2 = parse_time("2011-01-01T00:00:00Z"), parse_time("2011-01-02T00:00:00Z")
        assert [(key, list(members)) for key, members in read_predictions(pred)] == [
            (("PSU", day2, 3600), [6.0, 7.0]),
            (("ABC", day1, 0), [1.0, 2.0]),
            (("PSU", day1, 3600), [5.0, 4.0]),
        ]

    def test_station_without_baseline_is_interval_excluded(self, pipeline):
        """A predictions station the forecast archive lacks gets no baseline error."""
        cfg = write_config(pipeline, extra="error_intervals=0.5,1\nbaseline_variable=v1\n")
        out = pipeline / "pred"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        pred = out / "predictions.csv"
        lines = pred.read_text().splitlines()
        records = [l for l in lines if l.startswith("S00,")]
        assert records
        pred.write_text("\n".join(lines + ["ZZZ" + l[3:] for l in records]) + "\n")
        # S00 observations under the station id ZZZ
        obs = pipeline / "data" / "observations.csv"
        lines = obs.read_text().splitlines()
        obs.write_text("\n".join(lines + ["ZZZ" + l[3:] for l in lines if l.startswith("S00,")]))
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text().splitlines()
        excluded = next(l for l in report if l.startswith("all,interval_excluded,"))
        assert excluded.split(",")[2] == str(len(records) // 5)  # m=5 members per target

    def test_baseline_errors_equal_a_per_pair_lookup(self, pipeline):
        """The baseline errors, looked up in bulk in the baseline variable's
        records alone, group as the errors of a per-pair lookup of (station,
        cycle, lead) in the whole archive do. Three pairs are moved to a
        cycle and lead at the same valid time that only the other variables
        have, and one pair's baseline cell is emptied."""
        from analogkit import archive as ar
        from analogkit.cli import _baseline_intervals, pair_targets
        from analogkit.verification import error_interval_rmse

        edges = np.linspace(0.0, 2.0, 21).tolist()
        path = write_config(pipeline, extra=f"error_intervals={','.join(map(str, edges))}\n"
                                             "baseline_variable=v2\n")
        assert main(["predict", "--config", str(path), "--out", str(pipeline / "pred")]) == 0
        cfg = load_config(path)
        targets = ar.load_predictions(pipeline / "pred" / "predictions.csv")
        moved = [((station, cycle + 1, lead - 1), members)
                 for (station, cycle, lead), members in targets[:3]]
        lines = Path(cfg.forecast_csv).read_text().splitlines()
        lines += [f"{station},{v},{ar.format_time(cycle)},{lead},1.5"
                  for (station, cycle, lead), _ in moved for v in ("v1", "v3")]
        (station, cycle, lead), _ = targets[-1]
        emptied = f"{station},v2,{ar.format_time(cycle)},{lead},"
        at = next(i for i, line in enumerate(lines) if line.startswith(emptied))
        lines[at] = emptied
        Path(cfg.forecast_csv).write_text("\n".join(lines) + "\n")
        fcst, obs = ar.load_forecasts(cfg.forecast_csv), ar.load_observations(cfg.observation_csv)
        selected = ar.load_forecasts(cfg.forecast_csv, "v2")
        assert selected.variables == ["v2"] and len(selected.cycles) < len(fcst.cycles)
        vset, keys, _, _ = pair_targets(targets + moved, obs)
        vi = fcst.variables.index("v2")
        cycles, leads = fcst.cycles.tolist(), fcst.leads.tolist()
        baseline = np.full(vset.n_pairs, np.nan)
        for i, ((station, cycle, lead), y) in enumerate(zip(keys, vset.observations)):
            if station in fcst.stations and cycle in cycles and lead in leads:
                f = fcst.values[fcst.stations.index(station), vi, cycles.index(cycle),
                                leads.index(lead)]
                baseline[i] = f - y
        assert np.count_nonzero(np.isnan(baseline)) == 4
        want = error_interval_rmse(vset, baseline, edges)
        assert _baseline_intervals(cfg, selected, vset, keys) == want
        assert _baseline_intervals(cfg, fcst, vset, keys) == want
        assert sum(stat.count for stat in want[0]) == vset.n_pairs - 4

    def test_verify_after_predict(self, pipeline):
        cfg = write_config(pipeline)
        out = pipeline / "pred"
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "report.csv").read_text()
        assert ",rmse," in report
        assert ",crps," in report
        assert ",spread_error_rmse," in report


class TestSearchLengthExperiment:
    def test_structure(self, pipeline):
        cfg = write_config(
            pipeline,
            extra="methods=anen_equal,deep_anen\nsearch_splits=1,2,4\n",
        )
        out = pipeline / "exp"
        assert main(["experiment-search-length", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [
            l for l in (out / "search_length.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        header = lines[0].split(",")
        assert header == ["method", "split", "search_start", "search_end",
                          "n_search_cycles", "n_pairs", "rmse", "brier"]
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        assert len(rows) == 2 * 3  # one row per (method, split)
        assert {r["method"] for r in rows} == {"anen_equal", "deep_anen"}
        # nested ranges: same end, starts move earlier as the split grows
        for method in ("anen_equal", "deep_anen"):
            sub = [r for r in rows if r["method"] == method]
            assert len({r["search_end"] for r in sub}) == 1
            starts = [r["search_start"] for r in sub]
            assert starts == sorted(starts, reverse=True)
            counts = [int(r["n_search_cycles"]) for r in sub]
            assert counts == sorted(counts)

    @pytest.mark.parametrize("selection", [
        "train_stations=S01\ntrain_leads=3600\n",
        "stations=S01\nleads=3600\n",
    ], ids=["train_keys", "target_keys"])
    def test_trains_what_train_trains(self, tmp_path, selection):
        """Without a checkpoint the experiment writes the checkpoint and log
        that ``train`` writes for the same config."""
        cfg = write_config(
            tmp_path,
            drop=("checkpoint", "max_iterations", "eval_interval"),
            extra="synth_stations=2\nsynth_leads=2\nmax_iterations=20\neval_interval=10\n"
            f"methods=deep_anen\nsearch_splits=1,2\n{selection}",
        )
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
        out = tmp_path / "exp"
        assert main(["experiment-search-length", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("checkpoint.txt", "train_log.csv"):
            assert (out / name).read_bytes() == (tmp_path / "train" / name).read_bytes()

    def test_empty_split_fails_before_training(self, tmp_path, capsys):
        """A split range with no cycle is found before the model would be
        trained, so neither training output is written."""
        cfg = write_config(tmp_path, drop=("checkpoint",),
                           extra="methods=deep_anen\nsearch_splits=1,1000\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        out = tmp_path / "exp"
        assert main(["experiment-search-length", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no forecast cycles inside the split 1 search range" in capsys.readouterr().err
        for name in ("checkpoint.txt", "train_log.csv"):
            assert not (out / name).exists()


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, pipeline):
        cfg = write_config(pipeline)
        blobs = []
        for name in ("d1", "d2"):
            out = pipeline / name
            assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
            assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(
                (
                    (out / "predictions.csv").read_bytes(),
                    (out / "report.csv").read_bytes(),
                    (out / "rank_histogram.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]


# The files each command writes into --out.
OUTPUTS = {
    "synth": ("forecasts.csv", "observations.csv", "manifest.txt"),
    "ingest": ("ingest_summary.txt",),
    "train": ("checkpoint.txt", "train_log.csv"),
    "predict": ("predictions.csv", "skipped.csv"),
    "verify": ("report.csv", "rank_histogram.csv"),
    "experiment-search-length": ("search_length.csv", "checkpoint.txt", "train_log.csv"),
}


class TestRerun:
    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_rerun_replaces_outputs(self, pipeline, command):
        """A rerun into the same --out writes the same bytes into new files:
        a hard link to a first-run output keeps the first run's bytes."""
        cfg = write_config(
            pipeline,
            drop=("max_iterations", "eval_interval"),
            extra="max_iterations=6\neval_interval=3\n"
            "methods=anen_equal,deep_anen\nsearch_splits=1,2\n",
        )
        out, links = pipeline / "out", pipeline / "links"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "verify":
            assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(argv) == 0
        links.mkdir()
        first = {}
        for name in OUTPUTS[command]:
            first[name] = (out / name).read_bytes()
            os.link(out / name, links / name)
        assert main(argv) == 0
        for name in OUTPUTS[command]:
            assert (out / name).read_bytes() == first[name]
            assert not os.path.samefile(links / name, out / name)
            assert (links / name).read_bytes() == first[name]


def _write_modes(tree):
    """Line and mode of every ``open`` call whose mode may write, and of
    every ``write_text``/``write_bytes`` call, outside ``open_output``."""
    found = []

    def visit(node, inside_open_output):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_open_output = inside_open_output or node.name == "open_output"
        if isinstance(node, ast.Call) and not inside_open_output:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("write_text", "write_bytes"):
                found.append((node.lineno, name))
            elif name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                text = mode.value if isinstance(mode, ast.Constant) else "?"
                if not isinstance(text, str) or set(text) & set("wax+?"):
                    found.append((node.lineno, text))
        for child in ast.iter_child_nodes(node):
            visit(child, inside_open_output)

    visit(tree, False)
    return found


def test_only_open_output_opens_files_for_writing():
    src = Path(__file__).resolve().parents[1] / "src" / "analogkit"
    paths = sorted(src.glob("*.py"))
    assert paths
    for path in paths:
        assert _write_modes(ast.parse(path.read_text(), str(path))) == [], path
    # the scan finds what it looks for
    probe = 'def f(p):\n    open(p, "a")\n    open(p, mode="r+")\n    p.write_text("x")\n'
    assert [line for line, _ in _write_modes(ast.parse(probe))] == [2, 3, 4]


def _handled_errors(function):
    """Names of the exception classes the except clauses of ``function`` catch."""
    names = []
    for handler in (n for n in ast.walk(function) if isinstance(n, ast.ExceptHandler)):
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        names += [ast.unparse(c) if c is not None else "<bare except>" for c in caught]
    return names


def test_main_handles_only_analogkit_errors():
    """An internal fault such as a KeyError ends in a traceback that tests see,
    never in an exit code: main catches analogkit's error classes only."""
    import analogkit.cli as cli
    import analogkit.errors as errors

    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    names = _handled_errors(main_def)
    assert names == ["ConfigError", "DivergenceError", "AnalogkitError"]
    assert all(issubclass(getattr(errors, name), errors.AnalogkitError) for name in names)
    # the scan finds what it looks for
    probe = "def f():\n    try:\n        pass\n    except (KeyError, x.Error):\n        pass\n" \
            "    except:\n        pass\n"
    assert _handled_errors(ast.parse(probe)) == ["KeyError", "x.Error", "<bare except>"]


def _drop_array(lines, name):
    i = next(k for k, l in enumerate(lines) if l.startswith(f"@array {name} "))
    return lines[:i] + lines[i + 2 :]


def _non_numeric_value(lines, name):
    i = next(k for k, l in enumerate(lines) if l.startswith(f"@array {name} "))
    return lines[: i + 1] + ["abc " + lines[i + 1].split(" ", 1)[1]] + lines[i + 2 :]


def _set_value(lines, name, text):
    """The first value of array ``name`` replaced by ``text``."""
    i = next(k for k, l in enumerate(lines) if l.startswith(f"@array {name} "))
    return lines[: i + 1] + [text + " " + lines[i + 1].split(" ", 1)[1]] + lines[i + 2 :]


def _head_bias_of_three(lines):
    i = next(k for k, l in enumerate(lines) if l.startswith("@array head.b "))
    return lines[:i] + ["@array head.b 3", "0.5 0.5 0.5"] + lines[i + 2 :]


class TestMalformedInputs:
    """Malformed configs end in exit 1, malformed checkpoints and predictions
    in exit 2, each with one stderr line."""

    def _run(self, capsys, argv, *expected, code=2):
        """Warnings count as stderr lines, as they do outside pytest."""
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        err = capsys.readouterr().err.splitlines() + [str(w.message) for w in caught]
        assert len(err) == 1, err
        for text in expected:
            assert text in err[0]

    @pytest.mark.parametrize("corrupt,names", [
        (lambda lines: lines[:-1], ("head.b", "no value line")),  # truncated
        (lambda lines: _non_numeric_value(lines, "layer0.w_u"), ("layer0.w_u",)),
        (_head_bias_of_three, ("head.b", "shape")),
        (lambda lines: _drop_array(lines, "head.b"), ("missing array head.b",)),
        (lambda lines: [l.replace("t_half=0", "t_half=zero") for l in lines], ("metadata",)),
        (lambda lines: _set_value(lines, "head.b", "nan"), ("head.b", "non-finite")),
        (lambda lines: _set_value(lines, "head.b", "inf"), ("head.b", "non-finite")),
        (lambda lines: [l.replace("hidden_sizes=8", "hidden_sizes=99999999999999999999")
                        for l in lines], ("metadata sizes",)),
        # entries appended after a whole checkpoint, named at their line
        (lambda lines: lines + ["@array head.b 4", "5 6 7 8"],
         ("line {appended}", "repeated array head.b")),
        (lambda lines: lines + ["seed=7"], ("line {appended}", "duplicate key seed")),
        (lambda lines: lines + ["@array bogus 1", "1"], ("line {appended}", "unknown array bogus")),
        (lambda lines: lines + ["foo=1"], ("line {appended}", "unknown key 'foo'")),
        # numerals that int() and float() read but the input grammar refuses
        (lambda lines: _set_value(lines, "head.b", "1_0"), ("head.b", "non-numeric")),
        (lambda lines: [l.replace("t_half=0", "t_half=\uff10") for l in lines], ("metadata",)),
        (lambda lines: [l.replace("@array head.b 4", "@array head.b \uff14") for l in lines],
         ("head.b", "non-numeric")),
    ], ids=["truncated", "non_numeric", "mis_shaped", "missing_array", "bad_metadata",
            "nan_value", "inf_value", "huge_hidden_size", "repeated_array",
            "repeated_metadata_key", "unknown_array", "unknown_metadata_key",
            "underscore_value", "full_width_metadata", "full_width_dimension"])
    def test_bad_checkpoint(self, pipeline, capsys, corrupt, names):
        from analogkit.network import init_model, save_checkpoint

        path = pipeline / "train" / "checkpoint.txt"
        path.parent.mkdir()
        save_checkpoint(init_model(["v1", "v2", "v3"], 0, (8,), 4, seed=1), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(corrupt(lines)) + "\n")
        cfg = write_config(pipeline, method="deep_anen")
        argv = ["predict", "--config", str(cfg), "--out", str(pipeline / "pred")]
        self._run(capsys, argv, str(path), *(n.format(appended=len(lines) + 1) for n in names))

    def test_checkpoint_variables_differ_from_archive(self, pipeline, capsys):
        from analogkit.network import init_model, save_checkpoint

        path = pipeline / "train" / "checkpoint.txt"
        path.parent.mkdir()
        save_checkpoint(init_model(["a", "b", "c"], 0, (8,), 4, seed=1), path)
        cfg = write_config(pipeline, method="deep_anen")
        argv = ["predict", "--config", str(cfg), "--out", str(pipeline / "pred")]
        self._run(capsys, argv, "do not match model variables")

    @pytest.mark.parametrize("name,code", [("layer0.w_u", 0), ("layer0.w_c", 0), ("head.w", 2)])
    def test_huge_checkpoint_weights(self, pipeline, capsys, name, code):
        """Weights of alternating sign at ±1e308 are finite, so they load.
        Gates that overflow saturate without a warning; embeddings whose
        distances would overflow are a data error. The fault shows only when
        the model embeds, so the message names the station and lead, not the file."""
        from analogkit.network import init_model, save_checkpoint

        path = pipeline / "train" / "checkpoint.txt"
        path.parent.mkdir()
        save_checkpoint(init_model(["v1", "v2", "v3"], 0, (8,), 4, seed=1), path)
        lines = path.read_text().splitlines()
        i = next(k for k, l in enumerate(lines) if l.startswith(f"@array {name} "))
        lines[i + 1] = " ".join(("-1e308", "1e308")[k % 2] for k in range(len(lines[i + 1].split())))
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(pipeline, method="deep_anen")
        argv = ["predict", "--config", str(cfg), "--out", str(pipeline / "pred")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # outside pytest a warning is a stderr line
            assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and "checkpoint weights give non-finite embeddings" in err[0]
        else:
            assert err == []

    @pytest.mark.parametrize("row", [
        "PSU,2011-01-02T00:00:00Z,0,1,abc,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-02T00:00:00Z,zero,1,5.0,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-02T00:00:00Z,0,first,5.0,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-02T00:00:00Z,0,1,nan,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-32T00:00:00Z,0,1,5.0,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-01T00:00:00Z,0,1,6.0,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-02T00:00:00Z,99999999999999999999999,1,5.0,2010-01-01T00:00:00Z,0.1",
        "PSU,2011-01-02T00:00:00Z,0,1,,2010-01-01T00:00:00Z,0.1",
    ], ids=["member_value", "lead_s", "member_rank", "nan_member", "cycle_time",
            "repeated_member_rank", "lead_s_beyond_int64", "empty_member_value"])
    def test_bad_prediction_row(self, tmp_path, capsys, row):
        (tmp_path / "observations.csv").write_text(
            "station,valid_time,value\nPSU,2011-01-01T00:00:00Z,5.0\n")
        pred = tmp_path / "predictions.csv"
        pred.write_text(
            "# analogkit predict\n"
            "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score\n"
            "PSU,2011-01-01T00:00:00Z,0,1,5.0,2010-01-01T00:00:00Z,0.1\n"
            f"{row}\n")
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={tmp_path}/observations.csv\n")
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--predictions", str(pred)]
        self._run(capsys, argv, str(pred), "line 4")

    def test_verify_reads_only_the_baseline_variable(self, pipeline, capsys):
        """A malformed record of another variable leaves verify's report as
        it is, while ingest and predict refuse the file at that line; the
        same fault in a baseline record is verify's to name."""
        cfg = write_config(pipeline, extra="error_intervals=0.5,1\nbaseline_variable=v1\n")
        out = pipeline / "pred"
        verify = ["verify", "--config", str(cfg), "--out", str(out)]
        assert main(["predict", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(verify) == 0
        report = (out / "report.csv").read_bytes()
        path = pipeline / "data" / "forecasts.csv"
        clean = path.read_text().splitlines()
        for variable, verify_code in (("v2", 0), ("v1", 2)):
            lines = list(clean)
            at = next(i for i, line in enumerate(lines) if line.split(",")[1] == variable)
            lines[at] = lines[at].rpartition(",")[0] + ",x"
            path.write_text("\n".join(lines) + "\n")
            named = (str(path), f"line {at + 1}", "unparsable value 'x'")
            for command in ("ingest", "predict"):
                argv = [command, "--config", str(cfg), "--out", str(pipeline / command)]
                self._run(capsys, argv, *named)
            (out / "report.csv").unlink()
            if verify_code:
                self._run(capsys, verify, *named)
                assert not (out / "report.csv").exists()
            else:
                capsys.readouterr()
                assert main(verify) == 0 and capsys.readouterr().err == ""
                assert (out / "report.csv").read_bytes() == report

    def test_predictions_without_rows(self, tmp_path, capsys):
        (tmp_path / "observations.csv").write_text(
            "station,valid_time,value\nPSU,2011-01-01T00:00:00Z,5.0\n")
        pred = tmp_path / "predictions.csv"
        pred.write_text(
            "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score\n")
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={tmp_path}/observations.csv\n")
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--predictions", str(pred)]
        self._run(capsys, argv, "no verifiable prediction/observation pairs")

    def test_non_utf8_byte_in_csv(self, pipeline, capsys):
        path = pipeline / "data" / "forecasts.csv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = b"\xff" + lines[3]
        path.write_bytes(b"".join(lines))
        argv = ["ingest", "--config", str(write_config(pipeline)), "--out", str(pipeline / "i")]
        self._run(capsys, argv, str(path), "line 4", "UTF-8")

    def test_directory_as_csv(self, pipeline, capsys):
        cfg = write_config(pipeline, drop=("forecast_csv",), extra=f"forecast_csv={pipeline}\n")
        argv = ["ingest", "--config", str(cfg), "--out", str(pipeline / "i")]
        self._run(capsys, argv, str(pipeline), "cannot read")

    def test_lead_beyond_int64(self, pipeline, capsys):
        path = pipeline / "data" / "forecasts.csv"
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[3] = "99999999999999999999999"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        argv = ["ingest", "--config", str(write_config(pipeline)), "--out", str(pipeline / "i")]
        self._run(capsys, argv, str(path), "line 2", "lead_s")

    @pytest.mark.parametrize("repeat", [False, True], ids=["clean", "repeated_member"])
    def test_key_space_past_an_index(self, tmp_path, capsys, repeat):
        """Predictions whose key axes span more cells than an array index can
        address end in a data error naming the file and the axis lengths, and
        no report is written; a repeated member among them is named at its
        line, as in any other file."""
        n = math.isqrt(math.isqrt(np.iinfo(np.intp).max)) + 1  # the least n with n**4 past it
        (tmp_path / "observations.csv").write_text(
            "station,valid_time,value\nPSU,2011-01-01T00:00:00Z,5.0\n")
        records = [f"S{i},{t},{60 * i},{i},0.5,,0.1\n"  # a station, cycle, lead and rank each
                   for i, t in enumerate(format_times(86400 * np.arange(n)))]
        pred = tmp_path / "predictions.csv"
        pred.write_text(
            "station,cycle_time,lead_s,member_rank,member_value,source_cycle_time,score\n"
            + "".join(records + records[:1] * repeat))
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"observation_csv={tmp_path}/observations.csv\n")
        out = tmp_path / "out"
        argv = ["verify", "--config", str(cfg), "--out", str(out), "--predictions", str(pred)]
        named = (f"line {n + 2}: duplicate key",) if repeat else (f"lengths {(n,) * 4}",)
        self._run(capsys, argv, "data error:", str(pred), *named)
        assert not (out / "report.csv").exists()

    def test_dense_grid_too_large_to_allocate(self, tmp_path, capsys):
        """A forecast grid whose cells an index addresses but whose bytes no
        memory holds ends in a data error naming the file and the shape;
        numpy refuses the grid by its size alone, so no memory is touched, and
        no output is written."""
        n = math.isqrt(math.isqrt(np.iinfo(np.intp).max // 8)) + 1  # least n with n**4 floats past it
        path = tmp_path / "forecasts.csv"
        path.write_text("station,variable,cycle_time,lead_s,value\n" + "".join(
            f"S{i},v{i},{t},{60 * i},0.5\n"  # a station, variable, cycle and lead each
            for i, t in enumerate(format_times(86400 * np.arange(n)))))
        (tmp_path / "observations.csv").write_text(
            "station,valid_time,value\nPSU,2011-01-01T00:00:00Z,5.0\n")
        cfg = tmp_path / "config.txt"
        cfg.write_text(f"forecast_csv={path}\nobservation_csv={tmp_path}/observations.csv\n")
        out = tmp_path / "out"
        argv = ["ingest", "--config", str(cfg), "--out", str(out)]
        self._run(capsys, argv, "data error:", str(path), f"shape {(n,) * 4}")
        assert not list(out.glob("*"))

    def test_non_utf8_byte_in_config(self, pipeline, capsys):
        path = write_config(pipeline)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        argv = ["ingest", "--config", str(path), "--out", str(pipeline / "i")]
        self._run(capsys, argv, "config error", str(path), "line 3", "UTF-8", code=1)

    @pytest.mark.parametrize("name", ["missing.txt", "data"], ids=["missing", "directory"])
    def test_unreadable_config(self, pipeline, capsys, name):
        path = pipeline / name
        argv = ["ingest", "--config", str(path), "--out", str(pipeline / "i")]
        self._run(capsys, argv, "config error", str(path), "cannot read", code=1)

    def test_directory_as_checkpoint(self, pipeline, capsys):
        cfg = write_config(pipeline, method="deep_anen", drop=("checkpoint",),
                           extra=f"checkpoint={pipeline / 'data'}\n")
        argv = ["predict", "--config", str(cfg), "--out", str(pipeline / "pred")]
        self._run(capsys, argv, str(pipeline / "data"), "cannot read")

    @pytest.mark.parametrize("key,command", [
        ("forecast_csv", "ingest"), ("observation_csv", "ingest"), ("checkpoint", "predict"),
    ])
    def test_nul_byte_in_an_input_path(self, pipeline, capsys, key, command):
        """open refuses such a path with a ValueError, which is read as a path
        that cannot be read, not a traceback."""
        cfg = write_config(pipeline, method="deep_anen", drop=(key,),
                           extra=f"{key}={pipeline}/a\x00b\n")
        argv = [command, "--config", str(cfg), "--out", str(pipeline / "out")]
        self._run(capsys, argv, "data error:", f"{pipeline}/a\x00b: cannot read")

    @pytest.mark.parametrize("key,value", [
        ("eval_interval", "0"),
        ("eval_interval", "-5"),
        ("early_stop_patience", "0"),
        ("hidden_sizes", ""),
        ("hidden_sizes", "0"),
        ("hidden_sizes", "8,-1"),
        ("embed_dim", "0"),
        ("alpha", "nan"),
        ("learning_rate", "nan"),
        ("learning_rate", "inf"),
    ])
    def test_bad_train_setting(self, pipeline, capsys, key, value):
        cfg = write_config(pipeline, drop=(key,), extra=f"{key}={value}\n")
        argv = ["train", "--config", str(cfg), "--out", str(pipeline / "train")]
        self._run(capsys, argv, "config error", key, code=1)

    @pytest.mark.parametrize("setting", [
        "adam_beta1=0.9", "adam_beta2=0.999", "adam_epsilon=1e-8",
        "early_stop_min_improvement=1e-3", "val_fraction=0.1",
        "predictions_csv=run/predictions.csv",
    ], ids=lambda setting: setting.split("=")[0])
    def test_removed_setting(self, pipeline, capsys, setting):
        """Settings that are now fixed constants are not config keys, even at
        their old defaults."""
        cfg = write_config(pipeline, extra=f"{setting}\n")
        argv = ["train", "--config", str(cfg), "--out", str(pipeline / "train")]
        self._run(capsys, argv, "config error", "unknown key", setting.split("=")[0], code=1)

    @pytest.mark.parametrize("setting,message", [
        ("train_end=2011-01-02T00:00:00Z", "training needs at least two cycles"),
        ("t_half=1", "no training triplets could be sampled"),
        ("observation_csv={d}/march.csv", "no validation triplets could be sampled"),
    ], ids=["one_cycle", "no_lead_fits", "no_validation_observations"])
    def test_train_data_error(self, pipeline, capsys, setting, message):
        """The one lead of the dataset has no window of half-width 1, and
        march.csv ends before the validation cycles: the last tenth of the
        training range, from 2011-04-01."""
        lines = (pipeline / "data" / "observations.csv").read_text().splitlines(keepends=True)
        (pipeline / "march.csv").write_text("".join(l for l in lines if "-04-" not in l))
        key, _, _ = setting.partition("=")
        cfg = write_config(pipeline, drop=(key,), extra=setting.format(d=pipeline) + "\n")
        argv = ["train", "--config", str(cfg), "--out", str(pipeline / "train")]
        self._run(capsys, argv, "data error", message)

    @pytest.mark.parametrize("leads", ["0", "0,3600"])
    def test_train_lead_without_window(self, tmp_path, capsys, leads):
        """A train_leads entry whose window leaves the lead axis ends the run
        before training with extract_window's message, even next to a lead
        that trains, and no training output is written."""
        cfg = write_config(tmp_path, drop=("t_half",),
                           extra=f"t_half=1\nsynth_leads=3\ntrain_leads={leads}\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]) == 0
        out = tmp_path / "train"
        self._run(capsys, ["train", "--config", str(cfg), "--out", str(out)],
                  "data error: window out of bounds: lead 0 with t_half 1 "
                  "exceeds lead axis [0, 3)")
        for name in ("checkpoint.txt", "train_log.csv"):
            assert not (out / name).exists()

    @pytest.mark.parametrize("setting", ["learning_rate=1e300", "alpha=1e308"])
    def test_divergent_training(self, fuzz_dir, tmp_path, capsys, setting):
        """Valid but huge settings overflow on the way to a non-finite loss,
        which ends the run in exit 3 without a numpy warning."""
        cfg = tmp_path / "config.txt"
        text = FUZZ_CONFIG.format(d=fuzz_dir).replace("max_iterations=2", "max_iterations=50")
        cfg.write_text(f"{text}{setting}\n")
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "train")]
        self._run(capsys, argv, "divergence:", code=3)

    @pytest.mark.parametrize("setting,drop,message", [
        ("synth_variables=2", ("synth_variables", "synth_hidden"), "hidden subset"),
        ("synth_cycles=0", ("synth_cycles",), "dimensions must be positive"),
        ("synth_g=bogus", ("synth_g",), "unknown g"),
        ("synth_sigma_noise=-1", ("synth_sigma_noise",), "sigma_noise"),
        ("synth_sigma_noise=nan", ("synth_sigma_noise",), "sigma_noise"),
        ("synth_sigma_noise=1e308", ("synth_sigma_noise",), "sigma_noise"),
        ("synth_cycles=2920000", ("synth_cycles",), "valid times pass the year 9999"),
    ], ids=["hidden_beyond_variables", "no_cycles", "unknown_g", "negative_noise", "nan_noise",
            "overflowing_noise", "past_year_9999"])
    def test_bad_synth_setting(self, tmp_path, capsys, setting, drop, message):
        cfg = write_config(tmp_path, drop=drop, extra=f"{setting}\n")
        argv = ["synth", "--config", str(cfg), "--out", str(tmp_path / "data")]
        self._run(capsys, argv, "config error", message, code=1)
        assert not any((tmp_path / "data").glob("*"))

    def test_nan_weight(self, pipeline, capsys):
        cfg = write_config(pipeline, extra="weight.v1=nan\n")
        argv = ["ingest", "--config", str(cfg), "--out", str(pipeline / "i")]
        self._run(capsys, argv, "config error", "weights must be finite", code=1)

    @pytest.mark.parametrize("setting,message", [
        ("weight.v1=abc", "bad weight 'abc'"),
        ("weight.v9=1", "weight.v9: variable not in the archive"),
        ("weight.v1=0", "anen_weighted needs at least one positive"),
    ], ids=["unparsable", "unknown_variable", "no_positive_weight"])
    def test_bad_weight(self, pipeline, capsys, setting, message):
        cfg = write_config(pipeline, method="anen_weighted", extra=f"{setting}\n")
        argv = ["predict", "--config", str(cfg), "--out", str(pipeline / "pred")]
        self._run(capsys, argv, "config error", message, code=1)

    @pytest.mark.parametrize("method", ["anen_equal", "deep_anen"])
    def test_unknown_weight_variable_whatever_the_method(self, pipeline, capsys, method):
        cfg = write_config(pipeline, method=method, extra="weight.v9=1\n")
        out = pipeline / "pred"
        argv = ["predict", "--config", str(cfg), "--out", str(out)]
        self._run(capsys, argv, "config error: weight.v9: variable not in the archive", code=1)
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("setting,drop,message", [
        ("m=abc", ("m",), "config key m: cannot parse 'abc' as int"),
        ("search_start 2011-01-01T00:00:00Z", (), "expected key=value"),
        ("m=5", (), "duplicate key m"),
        ("t_half=-2", ("t_half",), "t_half must be nonnegative"),
        ("m=-1", ("m",), "m must be >= 1"),
        ("", ("search_end",), "search_start and search_end must be given together"),
        ("search_start=2011-04-12T00:00:00Z", ("search_start",),
         "search_start must precede search_end"),
        ("", ("forecast_csv", "observation_csv"),
         "missing required config keys: forecast_csv, observation_csv"),
        # numerals and times that int(), float() and strptime read but the input grammar refuses
        ("m=1_1", ("m",), "config key m: cannot parse '1_1' as int"),
        ("seed=\uff17", ("seed",), "config key seed: cannot parse '\uff17' as int"),
        ("alpha=1_0.5", ("alpha",), "config key alpha: cannot parse '1_0.5' as float"),
        ("leads=0, 3600", (), "config key leads: cannot parse '0, 3600' as int_list"),
        ("test_end=2011-5-1T0:0:0Z", ("test_end",), "config key test_end: cannot parse"),
        ("test_end=\uff12\uff10\uff11\uff11-05-01T00:00:00Z", ("test_end",),
         "config key test_end: cannot parse"),
        ("weight.v1=1\nweight.v1=2", (), "line 29: duplicate key weight.v1"),
        ("weight.v1=\u0661", (), "bad weight"),
        # an empty list item
        ("stations=S00,,S01", (), "config key stations: cannot parse 'S00,,S01' as str_list"),
        ("hidden_sizes=16,", ("hidden_sizes",), "config key hidden_sizes: cannot parse '16,'"),
    ], ids=["unparsable_int", "line_without_equals", "repeated_key",
            "negative_t_half", "negative_m", "start_without_end", "start_after_end",
            "missing_required_keys", "underscore_int", "full_width_int", "underscore_float",
            "spaced_list_item", "unpadded_time", "full_width_year", "repeated_weight",
            "arabic_indic_weight", "empty_str_list_item", "empty_int_list_item"])
    def test_bad_config_line(self, pipeline, capsys, setting, drop, message):
        cfg = write_config(pipeline, drop=drop, extra=f"{setting}\n")
        argv = ["ingest", "--config", str(cfg), "--out", str(pipeline / "i")]
        self._run(capsys, argv, "config error", message, code=1)

    @pytest.mark.parametrize("command,setting,message", [
        ("predict", "search_start=2012-01-01T00:00:00Z\nsearch_end=2012-02-01T00:00:00Z",
         "no forecast cycles inside the search range"),
        ("verify", "test_start=2012-01-01T00:00:00Z\ntest_end=2012-02-01T00:00:00Z",
         "no observations available to compute the Brier threshold"),
    ], ids=["search_range", "brier_threshold"])
    def test_range_without_data(self, pipeline, capsys, command, setting, message):
        """A valid range that holds no cycle or no observation is a data error.
        The predictions verified are those of the test range in BASE_CONFIG."""
        out = pipeline / "out"
        if command == "verify":
            assert main(["predict", "--config", str(write_config(pipeline)), "--out", str(out)]) == 0
        keys = [line.partition("=")[0] for line in setting.splitlines()]
        cfg = write_config(pipeline, drop=keys, extra=f"{setting}\n")
        self._run(capsys, [command, "--config", str(cfg), "--out", str(out)], "data error", message)

    @pytest.mark.parametrize("setting", [
        "spread_bins=0\nbaseline_variable=v1\nerror_intervals=1",
        "spread_bins=-2\nbaseline_variable=v1\nerror_intervals=1",
        "error_intervals=\nbaseline_variable=v1",
        "error_intervals=nan\nbaseline_variable=v1",
        "error_intervals=1,0.5\nbaseline_variable=v1",
        "error_intervals=0.5,1",
        "baseline_variable=v1",
        "baseline_variable=bogus\nerror_intervals=0.5,1",
    ], ids=["no_spread_bins", "negative_spread_bins", "no_edges", "nan_edge", "decreasing_edges",
            "edges_without_baseline", "baseline_without_edges", "unknown_baseline_variable"])
    def test_bad_verify_setting(self, pipeline, capsys, setting):
        out = pipeline / "pred"
        assert main(["predict", "--config", str(write_config(pipeline)), "--out", str(out)]) == 0
        cfg = write_config(pipeline, extra=f"{setting}\n")
        argv = ["verify", "--config", str(cfg), "--out", str(out)]
        self._run(capsys, argv, "config error", setting.split("=")[0], code=1)

    @pytest.mark.parametrize("command,config_seed,override", [
        ("synth", "7", "-1"),
        ("train", "7", "-1"),
        ("verify", "7", "-1"),
        ("train", "-1", None),
    ], ids=["synth", "train", "verify", "config_file"])
    def test_negative_seed(self, pipeline, capsys, command, config_seed, override):
        cfg = write_config(pipeline, drop=("seed",), extra=f"seed={config_seed}\n")
        out = pipeline / "out"
        if command == "verify":
            assert main(["predict", "--config", str(write_config(pipeline)), "--out", str(out)]) == 0
        argv = [command, "--config", str(cfg), "--out", str(out)]
        argv += ["--seed", override] if override else []
        self._run(capsys, argv, "config error", "seed", code=1)

    @pytest.mark.parametrize("override", ["\uff13", "1_0", " 3", "3.0"])
    def test_seed_override_outside_the_grammar(self, tmp_path, capsys, override):
        argv = ["ingest", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "i"),
                "--seed", override]
        self._run(capsys, argv, "config error", f"cannot parse {override!r} as int", code=1)

    @pytest.mark.parametrize("argv,message", [
        (["ingest", "--out", "{o}"], "the following arguments are required: --config"),
        (["bogus", "--config", "{o}.txt", "--out", "{o}"],
         "argument command: invalid choice: 'bogus'"),
        (["ingest", "--config", "{o}.txt", "--out", "{o}", "--seed"],
         "argument --seed: expected one argument"),
    ], ids=["missing_config", "unknown_command", "seed_without_value"])
    def test_command_line_fault(self, tmp_path, capsys, argv, message):
        """A command-line fault is a config error, not argparse's usage and
        exit 2."""
        argv = [arg.format(o=tmp_path / "o") for arg in argv]
        self._run(capsys, argv, f"config error: {message}", code=1)
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["predict", "--help"])
        assert done.value.code == 0
        assert "--config" in capsys.readouterr().out

    @pytest.mark.parametrize("setting,message", [
        ("alpha=-1", "alpha must be finite and nonnegative"),
        ("learning_rate=0", "learning_rate must be finite and positive"),
        ("k_pos=0", "k_pos must be >= 1"),
        ("synth_leads=99", "at most 24 leads"),
        ("synth_g=nope", "unknown g 'nope'"),
        ("synth_cycles=2920000", "valid times pass the year 9999 at 2920000 cycles"),
    ], ids=["alpha", "learning_rate", "k_pos", "synth_leads", "synth_g", "synth_cycles"])
    @pytest.mark.parametrize("command", ["ingest", "predict"])
    def test_every_command_checks_every_setting(self, pipeline, capsys, command, setting,
                                                message):
        """Training and synth settings are checked whatever the command."""
        cfg = write_config(pipeline, drop=(setting.split("=")[0],), extra=f"{setting}\n")
        out = pipeline / "out"
        self._run(capsys, [command, "--config", str(cfg), "--out", str(out)],
                  f"config error: {message}", code=1)
        assert not out.exists()

    @pytest.mark.parametrize("setting,message,code", [
        ("k_pos=10000000000000", "data error: no training triplets could be sampled", 2),
        ("hidden_sizes=10000000", "config error: hidden_sizes=10000000 and embed_dim=4 give a "
         "model too large to allocate", 1),
        ("hidden_sizes=10000000000", "config error: hidden_sizes=10000000000 and embed_dim=4 "
         "give a model too large to allocate", 1),
        ("batch_size=1000000000000000", "config error: batch_size=1000000000000000 gives a "
         "batch too large to allocate", 1),
        ("batch_size=1000000000000000000", "config error: batch_size=1000000000000000000 gives "
         "a batch too large to allocate", 1),
        ("t_half=1000000000000", "config error: batch_size=8 gives a batch too large to allocate "
         "at hidden_sizes=8 and t_half=1000000000000", 1),
    ], ids=["k_pos", "hidden_sizes", "hidden_sizes_past_the_address_space", "batch_size",
            "batch_size_past_the_address_space", "t_half"])
    def test_sizes_that_cannot_be_allocated(self, pipeline, capsys, setting, message, code):
        """Sizes past any memory end in a named error, not a numpy
        MemoryError or a hang: the roulette edges of k_pos are built only for
        a block with k_pos + 2 cycles, and a model or a batch too large to
        allocate is refused before any sampling, naming the window width
        (t_half) with the batch. numpy refuses each allocation at once, so no
        memory is touched: with a MemoryError, or with a ValueError for a
        size past the address space."""
        cfg = write_config(pipeline, drop=(setting.split("=")[0],), extra=f"{setting}\n")
        out = pipeline / "train"
        self._run(capsys, ["train", "--config", str(cfg), "--out", str(out)], message, code=code)
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command,method,setting,t_half", [
        ("predict", "anen_equal", "t_half=1000000000000", 10**12),
        ("predict", "deep_anen", "", 10**12),
        ("train", "anen_equal", "t_half=1000000000000\nmax_iterations=0", 10**12),
        ("train", "anen_equal", "t_half=1000000000000000000\nmax_iterations=0", 10**18),
    ], ids=["anen_equal", "deep_anen_checkpoint", "train_without_iterations",
            "train_without_iterations_past_the_address_space"])
    def test_windows_too_wide_to_allocate(self, pipeline, capsys, command, method, setting,
                                          t_half):
        """A t_half whose windows no memory holds ends in a data error naming
        it, from the config or, for deep_anen, from the checkpoint; numpy
        refuses the window block at once, so no memory is touched, and no
        output is written. Past the address space even an empty block of
        that width is refused, and triplet sampling builds none before the
        window blocks."""
        from analogkit.network import init_model, save_checkpoint

        if method == "deep_anen":
            path = pipeline / "train" / "checkpoint.txt"
            path.parent.mkdir()
            save_checkpoint(init_model(["v1", "v2", "v3"], 10**12, (8,), 4, seed=1), path)
        drop = tuple(line.split("=")[0] for line in setting.splitlines())
        cfg = write_config(pipeline, method=method, drop=drop, extra=f"{setting}\n")
        out = pipeline / "out"
        self._run(capsys, [command, "--config", str(cfg), "--out", str(out)],
                  f"data error: t_half={t_half} gives windows too wide to allocate")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command,name", [
        ("train", "v=2"),
        ("experiment-search-length", " v2"),
    ], ids=["train_equals_sign", "experiment_leading_space"])
    def test_unstorable_variable_name(self, pipeline, capsys, command, name):
        """A forecast variable whose name a checkpoint cannot hold ends the
        run before training, as a data error naming it, with no output
        written, where it used to fail only when the trained model was saved."""
        forecasts = pipeline / "data" / "forecasts.csv"
        forecasts.write_text(forecasts.read_text().replace(",v2,", f",{name},"))
        cfg = write_config(pipeline, extra="methods=deep_anen\n")
        out = pipeline / "out"
        self._run(capsys, [command, "--config", str(cfg), "--out", str(out)],
                  f"data error: variable name {name!r} cannot be stored in a checkpoint")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("weight,message", [
        ("", "anen_weighted needs at least one positive weight.<variable> key"),
        ("weight.v9=1\n", "weight.v9: variable not in the archive"),
    ], ids=["no_positive_weight", "unknown_variable"])
    def test_experiment_checks_weights_before_training(self, pipeline, capsys, weight, message):
        cfg = write_config(pipeline, extra=f"methods=deep_anen,anen_weighted\n{weight}")
        out = pipeline / "out"
        argv = ["experiment-search-length", "--config", str(cfg), "--out", str(out)]
        self._run(capsys, argv, f"config error: {message}", code=1)
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command,setting", [
        ("predict", "stations=S00,S00"),
        ("train", "train_stations="),
        ("predict", "leads=0,0"),
        ("train", "train_leads=0,0"),
        ("experiment-search-length", "methods="),
        ("experiment-search-length", "search_splits=1,1"),
    ], ids=["stations", "train_stations", "leads", "train_leads", "methods", "search_splits"])
    def test_list_key_without_distinct_entries(self, pipeline, capsys, command, setting):
        cfg = write_config(pipeline, extra=f"{setting}\n")
        argv = [command, "--config", str(cfg), "--out", str(pipeline / "out")]
        self._run(capsys, argv, "config error", setting.split("=")[0], code=1)

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_brier_quantile_outside_unit_interval(self, pipeline, capsys, value):
        cfg = write_config(pipeline, extra=f"brier_quantile={value}\n")
        argv = ["ingest", "--config", str(cfg), "--out", str(pipeline / "i")]
        self._run(capsys, argv, "config error", "brier_quantile", code=1)

    @pytest.mark.parametrize("setting", ["allow_short=true", "spread_bins=5", "brier_quantile=0.75"],
                             ids=lambda setting: setting.split("=")[0])
    def test_fixed_setting_is_an_unknown_key(self, pipeline, capsys, setting):
        """An ensemble always has m members, and the report's spread bins and
        Brier quantile are constants of analogkit.verification: none is a key,
        not even at its old default."""
        cfg = write_config(pipeline, extra=f"{setting}\n")
        argv = ["ingest", "--config", str(cfg), "--out", str(pipeline / "i")]
        key = setting.split("=")[0]
        self._run(capsys, argv, "config error: ", f"unknown key {key!r}", code=1)

    @pytest.mark.parametrize("command,key", [
        ("predict", "stations"),
        ("train", "train_stations"),
    ])
    def test_unknown_station(self, pipeline, capsys, command, key):
        cfg = write_config(pipeline, extra=f"{key}=S07\n")
        argv = [command, "--config", str(cfg), "--out", str(pipeline / "out")]
        self._run(capsys, argv, "config error: station S07 not present in the forecast archive",
                  code=1)

    def test_out_is_a_file(self, pipeline, capsys):
        out = pipeline / "data" / "manifest.txt"
        argv = ["ingest", "--config", str(write_config(pipeline)), "--out", str(out)]
        self._run(capsys, argv, f"data error: {out}: cannot write: ")

    def test_output_path_is_a_directory(self, pipeline, capsys):
        out = pipeline / "pred"
        (out / "predictions.csv").mkdir(parents=True)
        argv = ["predict", "--config", str(write_config(pipeline)), "--out", str(out)]
        self._run(capsys, argv, f"data error: {out / 'predictions.csv'}: cannot write: ")

    def test_read_only_output_directory(self, pipeline, capsys):
        out = pipeline / "i"
        out.mkdir(mode=0o555)
        try:
            if os.access(out, os.W_OK):
                pytest.skip("this user (root) may write into read-only directories")
            argv = ["ingest", "--config", str(write_config(pipeline)), "--out", str(out)]
            self._run(capsys, argv, f"data error: {out / 'ingest_summary.txt'}: cannot write: ")
        finally:
            out.chmod(0o755)


# Run-setup entries for the config fuzz, as (valid, faulty) values. None
# leaves the key as FUZZ_CONFIG has it, absent or not. The dataset has
# stations S00 and S01, leads 0 and 3600 s.
FUZZ_VALUES = {
    "stations": ([None, "S00", "S01,S00"], ["", "S00,S00", "S07", "S00,,S01"]),
    "train_stations": ([None, "S01", "S00,S01"], ["", "S01,S01", "S07"]),
    "leads": ([None, "0", "3600,0"], ["", "0,0", "7", "-3600"]),
    "train_leads": ([None, "3600", "0,3600"], ["", "3600,3600", "7", "-3600"]),
    "methods": ([None, "anen_equal", "deep_anen,anen_equal"], ["", "anen_equal,anen_equal", "magic"]),
    "search_splits": ([None, "1,2", "2,1"], ["", "1,1", "0,1", "-1"]),
    "seed": ([None, "0", "5"], ["-1"]),
    "hidden_sizes": ([None, "4,3"], ["16,", "", "0"]),
}
FUZZ_CONFIG = """
forecast_csv={d}/forecasts.csv
observation_csv={d}/observations.csv
checkpoint={d}/absent/checkpoint.txt
t_half=0
m=3
synth_stations=2
synth_leads=2
synth_cycles=24
synth_variables=2
synth_hidden=0
synth_g=linear
search_start=2011-01-01T00:00:00Z
search_end=2011-01-17T00:00:00Z
train_start=2011-01-01T00:00:00Z
train_end=2011-01-17T00:00:00Z
test_start=2011-01-17T00:00:00Z
test_end=2011-01-25T00:00:00Z
k_pos=2
batch_size=4
max_iterations=2
eval_interval=1
hidden_sizes=4
embed_dim=2
"""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cfg = d / "config.txt"
    cfg.write_text(FUZZ_CONFIG.format(d=d))
    assert main(["synth", "--config", str(cfg), "--out", str(d)]) == 0
    return d


class TestConfigFuzz:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_run_setup_keys_end_in_an_exit_code(self, fuzz_dir, data):
        """Any mix of run-setup entries ends in exit 0-3, failing with one
        stderr line and never with a traceback."""
        command = data.draw(st.sampled_from(["train", "predict", "experiment-search-length"]))
        faulty = data.draw(st.sets(st.sampled_from(sorted(FUZZ_VALUES)), max_size=2))
        entries = {}
        for key, (valid, faults) in FUZZ_VALUES.items():
            value = data.draw(st.sampled_from(faults if key in faulty else valid), label=key)
            if value is not None:
                entries[key] = value
        lines = [line + "\n" for line in FUZZ_CONFIG.format(d=fuzz_dir).splitlines()
                 if line.partition("=")[0] not in entries]
        lines += [f"{key}={value}\n" for key, value in entries.items()]
        # new files throughout: truncating a written file is far slower
        run_dir = Path(tempfile.mkdtemp(dir=fuzz_dir))
        cfg = run_dir / "config.txt"
        cfg.write_text("".join(lines))
        argv = [command, "--config", str(cfg), "--out", str(run_dir)]
        override = data.draw(st.sampled_from([None, "3", "-2"]), label="--seed")
        if override is not None:
            argv += ["--seed", override]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1)


@pytest.fixture(scope="module")
def file_fuzz_dir(tmp_path_factory):
    """The fuzz dataset with a trained checkpoint and its deep_anen predictions."""
    d = tmp_path_factory.mktemp("file_fuzz")
    cfg = d / "config.txt"
    cfg.write_text(FUZZ_CONFIG.format(d=d).replace("absent/", "") + "method=deep_anen\n")
    for command in ("synth", "train", "predict"):
        assert main([command, "--config", str(cfg), "--out", str(d)]) == 0
    return d


# Replacement fields: bad numbers, times and names, and some valid ones.
FUZZ_TOKENS = ["", " ", "nan", "inf", "-inf", "1e999", "1e308", "-1", "0", "2", "1.5", "x", "#",
               "99999999999999999999999", "9223372036854775807", "-9223372036854775808",
               "2011-01-18T00:00:00Z", "2011-13-01T00:00:00Z", "9999-12-31T23:59:59Z",
               "S00", "S01", "ZZZ", "v1", "head.b"]


@st.composite
def mutated(draw, text, separators):
    """``text`` with one to three line or field mutations."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["field", "field", "column", "drop", "repeat", "swap",
                                    "truncate", "insert"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if how == "insert" or not lines:
            lines.insert(at, draw(st.sampled_from(["", "# comment", "x", ",,,,,,"] + lines[:2])))
        elif how == "field":  # of a line that is not a comment, where there is one
            at = draw(st.sampled_from(
                [i for i, line in enumerate(lines) if not line.startswith("#")] or [at]))
            parts = re.split(f"([{separators}])", lines[at])
            k = 2 * draw(st.integers(0, len(parts) // 2))  # a field, not a separator
            parts[k] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[at] = "".join(parts)
        elif how == "column":  # one field of every line that is not a comment
            k, token = draw(st.integers(0, 8)), draw(st.sampled_from(FUZZ_TOKENS))
            for i, line in enumerate(lines):
                parts = re.split(f"([{separators}])", line)
                if not line.startswith("#") and 2 * k < len(parts):
                    parts[2 * k] = token
                    lines[i] = "".join(parts)
        elif how == "drop":
            del lines[at]
        elif how == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif how == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            del lines[at:]
    return "\n".join(lines) + "\n"


def run_fuzzed(argv):
    """Run the CLI, assert the exit-code contract and return the exit code.

    Exit 0-3, one stderr line on failure and none on success, and a message
    that names the fault rather than quoting a bare repr. Warnings count as
    stderr lines, as they do outside pytest.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) == (0 if code == 0 else 1), lines
    if lines:
        message = lines[0].partition(": ")[2]
        assert not re.fullmatch(r"'.*'|\".*\"", message), lines[0]
    return code


class TestFileFuzz:
    """Mutated checkpoints, predictions and forecast files, each written
    new, run through the CLI end in an exit code and at most one stderr line."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint(self, file_fuzz_dir, data):
        text = data.draw(mutated((file_fuzz_dir / "checkpoint.txt").read_text(), " ,="))
        run_dir = Path(tempfile.mkdtemp(dir=file_fuzz_dir))
        (run_dir / "checkpoint.txt").write_text(text)
        cfg = run_dir / "config.txt"
        cfg.write_text(FUZZ_CONFIG.format(d=file_fuzz_dir).replace("absent", run_dir.name)
                       + "method=deep_anen\n")
        run_fuzzed(["predict", "--config", str(cfg), "--out", str(run_dir)])

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_predictions(self, file_fuzz_dir, data):
        text = data.draw(mutated((file_fuzz_dir / "predictions.csv").read_text(), ","))
        run_dir = Path(tempfile.mkdtemp(dir=file_fuzz_dir))
        pred = run_dir / "predictions.csv"
        pred.write_text(text)
        intervals = data.draw(st.booleans(), label="error intervals")
        cfg = run_dir / "config.txt"
        cfg.write_text(FUZZ_CONFIG.format(d=file_fuzz_dir)
                       + ("error_intervals=0.1,1\nbaseline_variable=v1\n" if intervals else ""))
        run_fuzzed(["verify", "--config", str(cfg), "--out", str(run_dir),
                    "--predictions", str(pred)])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_forecasts(self, file_fuzz_dir, data):
        """verify with error intervals reads the baseline variable's records
        of a mutated forecast file."""
        text = data.draw(mutated((file_fuzz_dir / "forecasts.csv").read_text(), ","))
        run_dir = Path(tempfile.mkdtemp(dir=file_fuzz_dir))
        (run_dir / "forecasts.csv").write_text(text)
        cfg = run_dir / "config.txt"
        cfg.write_text(FUZZ_CONFIG.format(d=file_fuzz_dir).replace(
            f"forecast_csv={file_fuzz_dir}/", f"forecast_csv={run_dir}/")
            + "error_intervals=0.1,1\nbaseline_variable=v1\n")
        run_fuzzed(["verify", "--config", str(cfg), "--out", str(run_dir),
                    "--predictions", str(file_fuzz_dir / "predictions.csv")])


def test_huge_noise_scores_without_warnings(tmp_path):
    """Noise near the float64 limit overflows the verification scores, which
    are written as computed; every command still exits 0 with no stderr line
    and no numpy warning."""
    cfg = tmp_path / "config.txt"
    cfg.write_text(FUZZ_CONFIG.format(d=tmp_path) + "synth_sigma_noise=1e307\nsearch_splits=1,2\n"
                   "error_intervals=0.1,1\nbaseline_variable=v1\n")
    for command in ("synth", "ingest", "train", "predict", "verify", "experiment-search-length"):
        assert run_fuzzed([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0, command
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert {"all,rmse,inf,,,,", "all,crps,inf,,,,"} <= set(report)


# Runs the pipeline with every scipy import refused; prints the exit codes and
# the scipy modules loaded, then the numpy.ma modules loaded.
WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())
from analogkit.cli import main

cfg, d = sys.argv[1:]
codes = [main([command, "--config", cfg, "--out", f"{d}/{out}"]) for command, out in
         [("synth", "data"), ("ingest", "ingest"), ("train", "train"), ("predict", "pred"),
          ("verify", "pred")]]
print(codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


@pytest.fixture(scope="module")
def pipeline_process(tmp_path_factory):
    """The WITHOUT_SCIPY pipeline, deep_anen with error intervals, run once in a new process."""
    import analogkit

    d = tmp_path_factory.mktemp("process")
    cfg = write_config(d, method="deep_anen",
                       extra="error_intervals=0.5,1\nbaseline_variable=v1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(analogkit.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(cfg), str(d)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    return run.stdout.splitlines()


def test_pipeline_runs_without_scipy(pipeline_process):
    """numpy is the only runtime dependency: synth, ingest, train, deep_anen
    predict and verify succeed in a process that cannot import scipy."""
    assert pipeline_process[0] == "[0, 0, 0, 0, 0] []"


def test_pipeline_never_imports_numpy_ma(pipeline_process):
    """No command makes numpy import numpy.ma, which plain np.unique does."""
    assert pipeline_process[1] == "[]"
